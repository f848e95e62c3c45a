"""Bundle ranks against the Verlinde formula, which uses no LR product."""

from hypothesis import given, settings

import verlinde
from cblocks.cb import cb_rank, witten_rank
from cblocks.young import BlockSetup
from strategies import weight_tuples
from test_acceptance import ROWS


def _conjugate(p):
    return tuple(sum(1 for x in p if x > i) for i in range(p[0] if p else 0))


@settings(deadline=None, max_examples=200)
@given(weight_tuples(max_rank=3, max_level=4, max_points=6))
def test_fusion_and_quantum_ranks_match_the_verlinde_formula(rlw):
    r, level, ws = rlw
    setup = BlockSetup(r, level, ws)
    expected = verlinde.rank(r, level, [w.parts for w in ws])
    assert cb_rank(setup) == expected
    assert witten_rank(setup) == expected


def test_reference_table_bundle_and_partner_ranks_match_the_verlinde_formula():
    # the partner is sl_{level+1} at level r with every diagram conjugated
    for r, level, diagrams, _, rank_bundle, rank_partner in ROWS:
        assert verlinde.rank(r, level, diagrams) == rank_bundle
        assert verlinde.rank(level, r, [_conjugate(p) for p in diagrams]) == rank_partner
