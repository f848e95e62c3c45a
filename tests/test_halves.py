"""The memoised half vectors of both rank routes against their plain loops."""

import time

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
def test_memoised_halves_match_the_plain_loops(r_halves):
    # every bound from one below the widest diagram to one past the sum of
    # first rows.  The memo keys each bound apart; each product along the
    # half is asked at its own clipped level or width, so from the sum of
    # first rows up every bound gives the same vector.  The cold pass clears
    # both memos before each bound; the first warm pass fills them and the
    # second reads what the first filled
    r, all_halves = r_halves
    for half in all_halves:
        top = max((p[0] for p in half if p), default=0)
        reach = sum(p[0] for p in half if p)
        for cold in (True, False, False):
            for bound in range(max(top - 1, 0), reach + 2):
                if cold:
                    cb._fuse.cache_clear()
                    schur._coinvariant_half.cache_clear()
                assert cb._fuse(r, bound, half) == reference.fuse(r, bound, half)
                assert (schur._coinvariant_half(r, bound, half)
                        == reference.coinvariant_half(r, bound, half))


def test_a_long_half_contracts_without_recursion():
    # 550 diagrams in each half: a memo that recursed once per diagram would
    # pass Python's recursion limit
    setup = BlockSetup(1, 1, (SlWeight(1, (1,)),) * 1100)
    start = time.process_time()
    assert cb_rank(setup) == 1
    assert time.process_time() - start < 1
