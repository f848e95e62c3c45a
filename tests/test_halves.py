"""The half vectors of both rank routes against their plain loops, and the
classical route's one vector for two equal halves.

The plain loops (reference.py) take a plainer route than the package: the
fusion loop asks every product at the full level in the order given, and
the classical loop multiplies whole shapes with the uncached LR kernel.
So an edit to the level clip or to the full-column shift fails here.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cblocks import cb, schur
from cblocks.cb import cb_rank
from cblocks.young import BlockSetup, SlWeight
from strategies import sl_weights


@st.composite
def halves(draw):
    """r and one half of each length the routes meet, empty and single
    included, with first rows at most 4, sorted as the rank routes deal them."""
    r = draw(st.integers(min_value=1, max_value=3))
    return r, [tuple(sorted(draw(sl_weights(rank=r, max_first_row=4)).parts
                            for _ in range(points)))
               for points in (0, 1, 2, 3, 5)]


@settings(deadline=None, max_examples=25)
@given(halves())
def test_halves_match_the_plain_loops(r_halves):
    # every bound from one below the widest diagram to one past the sum of
    # first rows.  _fuse's memo keys each bound apart; each product along
    # the half is asked at its own clipped level or width, so from the sum
    # of first rows up every bound gives the same vector.  The cold pass
    # clears _fuse's memo and the LR slots before each bound, so the
    # classical half walks its products inside its own box; the first warm
    # pass fills them and the second reads what the first filled, the
    # classical half from slots the fusion half walked wider
    r, all_halves = r_halves
    for half in all_halves:
        top = max((p[0] for p in half if p), default=0)
        reach = sum(p[0] for p in half if p)
        for cold in (True, False, False):
            for bound in range(max(top - 1, 0), reach + 2):
                if cold:
                    cb._fuse.cache_clear()
                    schur._lr_slot.cache_clear()
                assert (schur._coinvariant_half(r, bound, half)
                        == reference.coinvariant_half(r, bound, half))
                assert cb._fuse(r, bound, half) == reference.fuse(r, bound, half)


@pytest.mark.parametrize("parts, halves_built", (
    # six w1 in sl3: both halves are (w1, w1, w1)
    (((1,),) * 6, 1),
    # w1, w1, w2, 2w1 sorted: the halves (w1, w2) and (w1, 2w1) differ
    (((1,), (1,), (1, 1), (2,)), 2),
))
def test_equal_halves_are_multiplied_out_once(monkeypatch, parts, halves_built):
    built = []

    def counted(r, width, half):
        built.append(half)
        return reference.coinvariant_half(r, width, half)

    monkeypatch.setattr(schur, "_coinvariant_half", counted)
    # the rank memo's body, so no earlier test's entry answers instead
    rank = schur._coinvariant_rank.__wrapped__(2, parts)
    assert len(built) == halves_built
    assert rank == schur.invariant_oracle(2, [SlWeight(2, p) for p in parts])


def test_a_long_half_contracts_without_recursion():
    # 550 diagrams in each half: a memo that recursed once per diagram would
    # pass Python's recursion limit
    setup = BlockSetup(1, 1, (SlWeight(1, (1,)),) * 1100)
    start = time.process_time()
    assert cb_rank(setup) == 1
    assert time.process_time() - start < 1
