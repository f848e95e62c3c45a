"""The memoised half vectors of both rank routes against their plain loops."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cblocks import cb, schur
from cblocks.cb import cb_rank
from cblocks.schur import _coinvariant_half
from cblocks.young import BlockSetup, SlWeight
from strategies import weight_tuples


@settings(deadline=None, max_examples=80)
@given(weight_tuples(max_rank=3, max_level=4, max_points=5), st.booleans())
def test_memoised_halves_match_the_plain_loops(rlw, cold):
    # every bound from the widest diagram to one past the sum of first rows:
    # below the clip the bound keys the memo, at and above it the clip does.
    # Warm, each pass after the first reads what the first filled
    r, _, ws = rlw
    half = tuple(w.parts for w in ws)
    top = max((p[0] for p in half if p), default=0)
    reach = sum(p[0] for p in half if p)
    for _ in range(1 if cold else 2):
        for bound in range(top, reach + 2):
            if cold:
                cb._fused_half.cache_clear()
                schur._boxed_half.cache_clear()
            assert cb._fuse(r, bound, half) == reference.fuse(r, bound, half)
            assert (_coinvariant_half(r, bound, half)
                    == reference.coinvariant_half(r, bound, half))


def test_a_long_half_contracts_without_recursion():
    # 550 diagrams in each half: a memo that recursed once per diagram would
    # pass Python's recursion limit
    setup = BlockSetup(1, 1, (SlWeight(1, (1,)),) * 1100)
    start = time.process_time()
    assert cb_rank(setup) == 1
    assert time.process_time() - start < 1
