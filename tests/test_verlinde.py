"""Bundle ranks and four-point degrees against the Verlinde formula, which
uses no LR product."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

import verlinde
from cblocks.cb import cb_rank, degree_m04, witten_rank
from cblocks.young import BlockSetup, SlWeight
from strategies import sl_weights, weight_tuples
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


@lru_cache(maxsize=None)
def _three_point_rank(r, level, diagrams):
    """verlinde.rank of three diagrams, passed sorted so each multiset is one entry."""
    return verlinde.rank(r, level, diagrams)


def _conformal_weight(r, level, parts):
    """(lambda, lambda + 2 rho) / 2(level + r + 1), on gl tuples of r+1 rows,
    where (a, b) = a.b - |a||b|/(r+1) and rho = (r, r-1, ..., 0)."""
    lam = list(parts) + [0] * (r + 1 - len(parts))
    shifted = [x + 2 * (r - i) for i, x in enumerate(lam)]
    pairing = (sum(a * b for a, b in zip(lam, shifted))
               - Fraction(sum(lam) * sum(shifted), r + 1))
    return pairing / (2 * (level + r + 1))


def _dual(r, mu):
    """mu* of normalised sl_{r+1} parts: row i is mu_1 - mu_{r+2-i}."""
    rows = list(mu) + [0] * (r + 1 - len(mu))
    return tuple(x for x in (rows[0] - rows[r - i] for i in range(r + 1)) if x)


def _verlinde_degree(r, level, diagrams):
    """Degree on the four-point line by Fakhruddin's formula: rank times the
    sum of the conformal weights, less, for each of the three splits, the
    sum over mu of Delta_mu N(a, b, mu) N(c, d, mu*), every N a three-point
    Verlinde rank."""
    def n(*three):
        return _three_point_rank(r, level, tuple(sorted(three)))

    alcove = [tuple(x for x in rows if x)
              for rows in combinations_with_replacement(range(level, -1, -1), r)]
    a, b, c, d = diagrams
    degree = verlinde.rank(r, level, diagrams) * sum(
        _conformal_weight(r, level, p) for p in diagrams)
    for (p, q), (s, t) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        for mu in alcove:
            first = n(p, q, mu)
            if first:
                degree -= _conformal_weight(r, level, mu) * first * n(s, t, _dual(r, mu))
    return degree


@st.composite
def _boxed_diagram(draw, rows, width, size):
    """A diagram of `size` cells inside the rows x width box."""
    parts, left = [], size
    for i in range(rows):
        # each later row is at most this one, so this row takes at least
        # its share of what is left
        top = min(width, parts[-1] if parts else width, left)
        parts.append(draw(st.integers(min_value=-(-left // (rows - i)), max_value=top)))
        left -= parts[-1]
    return tuple(x for x in parts if x)


@st.composite
def _four_point_setups(draw):
    """(r, level, four diagrams) with r <= 3, level <= 4, inside the alcove.

    On one branch of the draw the diagrams carry (r+1)(level+1) cells in
    all, which puts the setup at its critical level: above that level the
    ranks agree and the degree is 0, so uniform weights seldom reach the
    setups where the split terms matter.
    """
    r = draw(st.integers(min_value=1, max_value=3))
    level = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        return r, level, [draw(sl_weights(rank=r, max_first_row=level)).parts for _ in range(4)]
    cells, diagrams = (r + 1) * (level + 1), []
    for later in (3, 2, 1, 0):
        size = draw(st.integers(min_value=max(0, cells - later * r * level),
                                max_value=min(r * level, cells)))
        diagrams.append(draw(_boxed_diagram(r, level, size)))
        cells -= size
    return r, level, diagrams


@settings(deadline=None, max_examples=100)
@given(_four_point_setups())
def test_four_point_degree_matches_fakhruddins_formula(setup):
    r, level, diagrams = setup
    ws = tuple(SlWeight(r, p) for p in diagrams)
    assert degree_m04(BlockSetup(r, level, ws)).degree == _verlinde_degree(r, level, diagrams)


def test_reference_table_degree_column_matches_fakhruddins_formula():
    rows = [(r, level, diagrams) for r, level, diagrams, *_ in ROWS if len(diagrams) == 4]
    degrees = [_verlinde_degree(r, level, diagrams) for r, level, diagrams in rows]
    assert degrees == [1, 0, 0, 0, 1]
    for (r, level, diagrams), degree in zip(rows, degrees):
        ws = tuple(SlWeight(r, p) for p in diagrams)
        assert degree_m04(BlockSetup(r, level, ws)).degree == degree
