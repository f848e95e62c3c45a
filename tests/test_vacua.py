"""Propagation of vacua: a point carrying the trivial weight changes neither
the bundle rank nor the classical rank.

The rank memos key on young.rank_key, the sorted non-empty diagrams, so the
fusion and classical routes never see a trivial weight.  The Verlinde formula
(verlinde.py), the character oracle and witten_rank each read every weight,
the trivial ones included, so a key that dropped a non-empty diagram as
well would fail here against routes that share nothing with it.

A setup sorts its key once, on first read (BlockSetup.key), and every rank
read of cb goes through that stored key, so the tests at the end count the
sorts of one report and check that both memos are asked under the one key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlinde
from cblocks import cb, schur, young
from cblocks.cb import cb_rank, vanishing_report, witten_rank
from cblocks.errors import CapacityError
from cblocks.schur import coinvariant_rank, invariant_oracle
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


def _count_sorts(mp):
    """Wrap rank_key where young and schur read it; returns the call list."""
    calls = []

    def counted(weights):
        calls.append(weights)
        return rank_key(weights)

    mp.setattr(young, "rank_key", counted)
    mp.setattr(schur, "rank_key", counted)
    return calls


def _record_memo_keys(mp):
    """Wrap cb's two rank memos; returns the list of (memo, key) asked."""
    asked = []
    for name in ("_cb_rank", "_coinvariant_rank"):
        real = getattr(cb, name)

        def recorded(*args, _name=name, _real=real):
            asked.append((_name, args[-1]))
            return _real(*args)

        mp.setattr(cb, name, recorded)
    return asked


def test_one_report_sorts_its_diagrams_once():
    w1, w2, trivial = SlWeight(2, (1,)), SlWeight(2, (1, 1)), SlWeight(2, ())
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_sorts(mp)
        asked = _record_memo_keys(mp)
        # total 6: r+1 divides it, so both routes run
        setup = BlockSetup(2, 2, (w2, trivial, w1, w2, w1))
        assert len(calls) == 0
        rep = vanishing_report(setup)
        assert len(calls) == 1
        key = setup.key()
        assert key == ((1,), (1,), (1, 1), (1, 1))
        assert vanishing_report(setup).rank_cb == rep.rank_cb and len(calls) == 1
        # both memos, in both reports, are asked under the stored key itself
        assert [name for name, _ in asked] == ["_cb_rank", "_coinvariant_rank"] * 2
        assert all(k is key for _, k in asked)
        # total 2: the critical level is None, and nothing is sorted
        rep = vanishing_report(BlockSetup(2, 2, (w1, trivial, w1)))
        assert rep.critical_level is None and (rep.rank_cb, rep.rank_classical) == (0, 0)
        assert len(calls) == 1 and len(asked) == 4


@st.composite
def mixed_setups(draw):
    """(r, level, weights): r <= 3, level <= 4, at most six points, with
    trivial weights mixed in and the points shuffled."""
    r, level, ws = draw(weight_tuples(max_rank=3, max_level=4, max_points=5))
    trivial = [SlWeight(r, ())] * draw(st.integers(min_value=0, max_value=6 - len(ws)))
    return r, level, tuple(draw(st.permutations(list(ws) + trivial)))


@settings(deadline=None, max_examples=150)
@given(mixed_setups())
def test_a_report_reads_both_memos_under_the_stored_key(rlw):
    r, level, ws = rlw
    setup = BlockSetup(r, level, ws)
    with pytest.MonkeyPatch.context() as mp:
        asked = _record_memo_keys(mp)
        rep = vanishing_report(setup)
    key = rank_key(ws)
    if setup.critical_level is None:
        assert asked == [] and setup._key is None
    else:
        assert setup._key == key
        assert asked == [("_cb_rank", key), ("_coinvariant_rank", key)]
    fresh = BlockSetup(r, level, ws)
    expected = (cb._cb_rank(r, level, rank_key(fresh.weights)),
                coinvariant_rank(r, fresh.weights))
    assert (rep.rank_cb, rep.rank_classical) == expected
    again = vanishing_report(setup)
    assert (again.rank_cb, again.rank_classical) == expected
    assert witten_rank(setup) == cb_rank(setup) == expected[0]
