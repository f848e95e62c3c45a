"""Propagation of vacua: a point carrying the trivial weight changes neither
the bundle rank nor the classical rank.

The rank memos key on young.rank_key, the sorted non-empty diagrams, so the
fusion and classical routes never see a trivial weight.  The Verlinde formula
(verlinde.py), the character oracle and witten_rank each read every weight,
the trivial ones included, so a key that dropped a non-empty diagram as
well would fail here against routes that share nothing with it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlinde
from cblocks.cb import vanishing_report, witten_rank
from cblocks.errors import CapacityError
from cblocks.schur import invariant_oracle
from cblocks.young import BlockSetup, SlWeight, dual_star, rank_key
from strategies import weight_tuples


@st.composite
def padded_tuples(draw):
    """(r, level, weights) with 1-3 trivial weights inserted at random places."""
    r, level, ws = draw(weight_tuples(max_rank=3, max_level=4, max_points=5))
    ws = list(ws)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        ws.insert(draw(st.integers(min_value=0, max_value=len(ws))), SlWeight(r, ()))
    return r, level, tuple(ws)


def _ranks(r, level, ws):
    """(rank_cb, rank_classical, witten_rank) of one setup."""
    setup = BlockSetup(r, level, ws)
    rep = vanishing_report(setup)
    return rep.rank_cb, rep.rank_classical, witten_rank(setup)


@settings(deadline=None, max_examples=200)
@given(padded_tuples())
def test_trivial_weights_change_no_rank(rlw):
    r, level, ws = rlw
    rank_cb, rank_classical, rank_witten = _ranks(r, level, ws)
    assert rank_cb == verlinde.rank(r, level, [w.parts for w in ws])
    assert rank_witten == rank_cb
    try:
        expected = invariant_oracle(r, ws)
    except CapacityError:
        return
    assert rank_classical == expected


@pytest.mark.parametrize("r,level,n", [(1, 1, 1), (2, 3, 4), (3, 2, 7)])
def test_all_trivial_weights_rank_one(r, level, n):
    assert _ranks(r, level, (SlWeight(r, ()),) * n) == (1, 1, 1)


def test_one_weight_among_trivial_ones_ranks_zero():
    # the adjoint of sl3: its total 3 is divisible, and its first row 2 is
    # longer than the classical box is wide
    adjoint = SlWeight(2, (2, 1))
    for ws in ((adjoint,), (SlWeight(2, ()), adjoint, SlWeight(2, ()))):
        assert _ranks(2, 2, ws) == (0, 0, 0)


def test_a_weight_its_dual_and_trivial_weights_rank_one():
    lam = SlWeight(3, (3, 1))
    trivial = SlWeight(3, ())
    for ws in ((lam, dual_star(lam)), (trivial, lam, trivial, dual_star(lam), trivial)):
        assert _ranks(3, 3, ws) == (1, 1, 1)


@settings(deadline=None, max_examples=100)
@given(weight_tuples(max_rank=3, max_level=4, max_points=5), st.data())
def test_the_rank_key_ignores_order_and_trivial_weights(rlw, data):
    r, _, ws = rlw
    trivial = [SlWeight(r, ())] * data.draw(st.integers(min_value=1, max_value=3))
    padded = data.draw(st.permutations(list(ws) + trivial))
    key = rank_key(ws)
    assert rank_key(padded) == key
    assert list(key) == sorted(key) and () not in key
    assert rank_key(trivial) == ()


def test_the_rank_key_of_a_small_setup():
    ws = (SlWeight(2, (1, 1)), SlWeight(2, ()), SlWeight(2, (1,)), SlWeight(2, (2,)))
    assert rank_key(ws) == ((1,), (1, 1), (2,))
