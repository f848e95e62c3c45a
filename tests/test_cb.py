from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cblocks.cb import (
    BlockSetup,
    _alcove_reduce,
    _cb_rank,
    _conformal_weight,
    _fuse,
    cb_rank,
    degree_m04,
    factorization_rank,
    fusion_expand,
    level_weights,
    partner,
    vanishing_report,
    witten_rank,
)
from cblocks.errors import ConsistencyError, DomainError
from cblocks.nefgeo import FCurve, HassettWeights, parse_fcurve
from cblocks.qgrass import GrassmannBox, QClass
from cblocks.schur import _coinvariant_rank, _lr_mult, coinvariant_rank
from cblocks.young import SlWeight, dual_parts, dual_star, parse_weight_list
from reference import critical_level
from reference import weight_from_fundamental as W
from strategies import weight_tuples
from test_schur import coinvariant_box_width


def theta_level(r, weights):
    """Reference theta level: -1 + half the sum of the first rows (highest-root pairings)."""
    return Fraction(sum(w.parts[0] for w in weights if w.parts) - 2, 2)


def reported_theta_level(r, weights):
    """The package's theta level, at the lowest level every weight fits."""
    level = max([1] + [w.parts[0] for w in weights if w.parts])
    return vanishing_report(BlockSetup(r, level, weights)).theta_level


ROW4_WEIGHTS = tuple(W(c, 2) for c in [(2, 1), (0, 1), (2, 0), (0, 2), (0, 3)])
ROW5_WEIGHTS = tuple(W(c, 2) for c in [(2, 1), (0, 1), (2, 0), (0, 2), (1, 1)])
ROW8_WEIGHTS = tuple(W(c, 3) for c in [(1, 0, 1), (2, 2, 0), (2, 2, 0), (4, 0, 0)])


def test_level_weights_enumeration():
    ws = level_weights(2, 1)
    assert [w.parts for w in ws] == [(), (1,), (1, 1)]
    assert len(level_weights(2, 5)) == 21
    assert len(level_weights(3, 2)) == 10


def test_setup_validation():
    with pytest.raises(DomainError):
        BlockSetup(2, 1, (SlWeight(2, (2,)),))
    with pytest.raises(DomainError):
        BlockSetup(2, 1, (SlWeight(1, (1,)),))
    assert BlockSetup(2, 1, (SlWeight(2, (1,)),)).n == 1


def casimir(r, level, parts):
    """(lambda, lambda + 2 rho), read back from the conformal weight at `level`."""
    return 2 * (level + r + 1) * _conformal_weight(r, level, parts)


def test_casimir_values():
    assert casimir(1, 1, (1,)) == Fraction(3, 2)
    assert casimir(2, 1, (1,)) == Fraction(8, 3)
    assert casimir(3, 1, ()) == 0


def test_conformal_weight_values():
    assert _conformal_weight(2, 1, (1,)) == Fraction(1, 3)
    assert _conformal_weight(2, 1, (1, 1)) == Fraction(1, 3)
    assert _conformal_weight(3, 2, ()) == 0


@given(weight_tuples(max_rank=3, max_level=4, max_points=1))
def test_casimir_dual_invariance(rlw):
    r, level, ws = rlw
    if not ws:
        return
    w = ws[0]
    assert casimir(r, level, w.parts) == casimir(r, level, dual_star(w).parts)


def test_fusion_examples():
    one = SlWeight(1, (1,))
    zero = SlWeight(1, ())
    two = SlWeight(1, (2,))
    cases = (
        (1, (one, one, zero), 1),
        (2, (two, two, two), 0),
        # high level: truncation cannot trigger, classical multiplicity survives
        (4, (two, two, two), 1),
    )
    for level, triple, expected in cases:
        setup = BlockSetup(1, level, triple)
        assert cb_rank(setup) == expected
        assert witten_rank(setup) == expected


def test_fusion_expand_small():
    assert fusion_expand(2, 1, (1,), (1,)) == {(1, 1): 1}
    assert fusion_expand(2, 1, (1,), (1, 1)) == {(): 1}


def _reference_fusion_expand(r, level, p, q):
    """The fusion product with every constituent sent through the reflection loop."""
    acc = {}
    for u, mult in _lr_mult(p, q, r + 1).items():
        red = _alcove_reduce(u, r, level)
        if red is None:
            continue
        parts, s = red
        acc[parts] = acc.get(parts, 0) + s * mult
    return {parts: c for parts, c in acc.items() if c}


def test_fusion_expand_matches_always_reflect():
    # every kind of constituent must occur: inside the alcove with and without
    # a full last row, reflected into it, and on a wall
    kinds = set()
    for r, level in product((1, 2, 3), (1, 2, 3, 4)):
        pool = [w.parts for w in level_weights(r, level)]
        for p, q in product(pool, repeat=2):
            assert fusion_expand(r, level, p, q) == _reference_fusion_expand(
                r, level, p, q), (r, level, p, q)
            for u in _lr_mult(p, q, r + 1):
                last = u[r] if len(u) > r else 0
                if not u or u[0] - last <= level:
                    kinds.add("inside, full" if last else "inside")
                else:
                    kinds.add("wall" if _alcove_reduce(u, r, level) is None else "reflected")
    assert kinds == {"inside", "inside, full", "reflected", "wall"}


def test_cb_rank_table_values():
    w1 = SlWeight(2, (1,))
    assert cb_rank(BlockSetup(2, 1, (w1,) * 6)) == 1
    assert cb_rank(BlockSetup(1, 2, (SlWeight(1, (1,)),) * 6)) == 4
    assert cb_rank(BlockSetup(2, 5, ROW4_WEIGHTS)) == 7
    assert cb_rank(BlockSetup(2, 1, ())) == 1
    assert cb_rank(BlockSetup(2, 2, (SlWeight(2, ()),) * 3)) == 1


def test_witten_rank_values():
    assert witten_rank(BlockSetup(2, 3, (SlWeight(2, (1,)), SlWeight(2, (1, 1))))) == 1
    assert witten_rank(BlockSetup(2, 1, (SlWeight(2, (1,)),) * 6)) == 1
    assert witten_rank(BlockSetup(2, 4, ROW5_WEIGHTS)) == 8


def test_witten_rank_with_eight_level_classes():
    # sl3, 14 points at level 7, total 45: s = 8 copies of sigma_7 = T in
    # Gr(3, 10), folded in as one rotation
    setup = BlockSetup(2, 7, parse_weight_list(
        "3w1+w2,w1,2w2,w1+w2,4w1,w2,2w1+w2,w1+2w2,3w2,w1,3w1,w1+w2,2w1,w2", 2))
    assert critical_level(2, setup.weights) + 1 - setup.level == 8
    assert witten_rank(setup) == cb_rank(setup) == 5677872


def test_witten_rank_works_in_the_box_with_fewer_rows(monkeypatch):
    # the level-rank dual of a ladder rung: six (1^16) in sl32 at level 3.
    # witten_rank passes Gr(32, 35) as it is, and gw_invariant multiplies
    # the conjugate classes in Gr(3, 35)
    from cblocks import qgrass

    seen = {}

    def record(name, at):   # the boxes that qgrass.<name> receives as args[at]
        real = getattr(qgrass, name)

        def recorded(*args):
            seen.setdefault(name, set()).add(args[at])
            return real(*args)
        monkeypatch.setattr(qgrass, name, recorded)

    record("gw_invariant", 0)
    record("_orbit_product", -1)
    record("_from_orbit", -1)
    setup = BlockSetup(31, 3, (SlWeight(31, (1,) * 16),) * 6)
    assert witten_rank(setup) == 7905
    assert seen == {"gw_invariant": {GrassmannBox(32, 35)},
                    "_orbit_product": {GrassmannBox(3, 35)},
                    "_from_orbit": {GrassmannBox(3, 35)}}
    # below the critical level the level class (1) of Gr(3, 4) is
    # conjugated too: sl3 at level 1 runs in Gr(1, 4), where all seven
    # classes are rotations of () and no product is taken
    seen.clear()
    assert witten_rank(BlockSetup(2, 1, (SlWeight(2, (1,)),) * 6)) == 1
    assert seen == {"gw_invariant": {GrassmannBox(3, 4)}, "_from_orbit": {GrassmannBox(1, 4)}}


def test_witten_rank_checks_itself_above_either_bound(monkeypatch):
    from cblocks import qgrass

    real = qgrass.gw_invariant
    monkeypatch.setattr(qgrass, "gw_invariant", lambda *args: real(*args) + 1)
    # critical level 5 and theta level 9/2, so level 6 is above both (s = 0)
    setup = BlockSetup(2, 6, parse_weight_list("2w1+w2,w2,2w1,2w2,3w2", 2))
    with pytest.raises(ConsistencyError, match=r"\(critical level\): classical 7 != witten 8"):
        witten_rank(setup)
    # critical level 2 and theta level 3/2, so level 2 is above theta only
    setup = BlockSetup(2, 2, parse_weight_list("w1,w2,w2,2w2", 2))
    with pytest.raises(ConsistencyError, match=r"\(theta level\): classical 1 != witten 2"):
        witten_rank(setup)
    # at the critical level and below theta nothing is checked
    assert witten_rank(BlockSetup(2, 1, (SlWeight(2, (1,)),) * 6)) == 2


def test_critical_and_theta_levels():
    w1 = SlWeight(2, (1,))
    assert critical_level(2, (w1,) * 6) == 1
    assert critical_level(2, (w1,) * 3) == 0
    assert critical_level(2, (w1, w1)) is None
    assert reported_theta_level(2, (w1,) * 6) == 2
    assert reported_theta_level(1, (SlWeight(1, (1,)),) * 4) == 1
    assert reported_theta_level(2, (w1, w1, SlWeight(2, (1, 1)))) == Fraction(1, 2)


def test_vanishing_reports():
    w1 = SlWeight(2, (1,))
    rep = vanishing_report(BlockSetup(2, 2, (w1,) * 6))
    assert rep.above_critical and rep.ranks_equal and rep.rank_cb == 5

    rep = vanishing_report(BlockSetup(2, 1, (w1,) * 6))
    assert not rep.above_critical
    assert rep.rank_cb == 1 and rep.rank_classical == 5 and not rep.ranks_equal

    rep = vanishing_report(BlockSetup(2, 6, ROW4_WEIGHTS))
    assert rep.above_critical and rep.ranks_equal and rep.rank_cb == 7

    # the report's one pass over the weights agrees with the level functions
    for r, level in product((1, 2), (1, 2, 3)):
        for n in (0, 3):
            for ws in combinations_with_replacement(level_weights(r, level), n):
                rep = vanishing_report(BlockSetup(r, level, ws))
                c, t = critical_level(r, ws), theta_level(r, ws)
                assert (rep.critical_level, rep.theta_level) == (c, t)
                assert type(rep.theta_level) is Fraction
                assert rep.above_critical == (c is not None and level > c)
                assert rep.above_theta == (level > t)


def test_partner_identity_table_rows():
    w1 = SlWeight(2, (1,))
    data = partner(BlockSetup(2, 1, (w1,) * 6))
    assert data.partner.r == 1 and data.partner.level == 2
    assert (data.rank_source, data.rank_partner, data.rank_classical) == (1, 4, 5)

    data = partner(BlockSetup(2, 5, ROW4_WEIGHTS))
    assert data.partner.r == 5 and data.partner.level == 2
    assert (data.rank_source, data.rank_partner, data.rank_classical) == (7, 0, 7)

    data = partner(BlockSetup(3, 4, ROW8_WEIGHTS))
    assert (data.rank_source, data.rank_partner, data.rank_classical) == (1, 3, 4)


def test_partner_checks_the_source_rank_above_theta(monkeypatch):
    from cblocks import cb

    # sl4 at its critical level 2, above its theta level 1
    setup = BlockSetup(3, 2, parse_weight_list("w3,w3,w3,w3", 3))
    data = partner(setup)
    assert (data.rank_source, data.rank_partner, data.rank_classical) == (1, 0, 1)
    real = cb.cb_rank
    monkeypatch.setattr(cb, "cb_rank", lambda setup: real(setup) + 1)
    # the source rank meets the classical rank before the identity 2 + 1 != 1
    with pytest.raises(ConsistencyError,
                       match=r"\(theta level\): classical 1 != conformal blocks 2$"):
        partner(setup)


def test_partner_precondition_message():
    w1 = SlWeight(2, (1,))
    with pytest.raises(DomainError) as exc:
        partner(BlockSetup(2, 3, (w1, w1, w1)))
    assert str(exc.value) == "level 3 ≠ critical level 0"
    # bypass keeps going and simply reports the three ranks
    data = partner(BlockSetup(2, 3, (w1, w1, w1)), force=True)
    assert data.rank_classical == 1


def test_factorization_examples():
    w1 = SlWeight(2, (1,))
    setup = BlockSetup(2, 1, (w1,) * 6)
    assert factorization_rank(setup, (1, 2, 3)) == 1
    pair = BlockSetup(2, 2, (w1, dual_star(w1)))
    assert factorization_rank(pair, (1,)) == 1
    with pytest.raises(DomainError):
        factorization_rank(setup, ())
    with pytest.raises(DomainError):
        factorization_rank(setup, (1, 2, 3, 4, 5, 6))


def test_degree_row2():
    ws = (SlWeight(2, (1,)), SlWeight(2, (1,)), SlWeight(2, (1, 1)), SlWeight(2, (1, 1)))
    br = degree_m04(BlockSetup(2, 1, ws))
    assert br.degree == 1
    assert br.bulk_term == Fraction(4, 3)
    assert sorted(br.pairing_terms) == [0, 0, Fraction(1, 3)]
    assert br.bulk_term - sum(br.pairing_terms) == br.degree


def test_degree_row8():
    assert degree_m04(BlockSetup(3, 4, ROW8_WEIGHTS)).degree == 1


def test_degree_requires_four_weights():
    with pytest.raises(DomainError):
        degree_m04(BlockSetup(2, 1, (SlWeight(2, (1,)),) * 3))


def _reference_degree(r, level, ws):
    """(bulk, pairing terms, degree) with each split term summed over every
    level weight mu, reading the two fusion products at mu* and mu."""
    def fusion(a, b):
        return fusion_expand(r, level, *sorted((a.parts, b.parts)))

    bulk = cb_rank(BlockSetup(r, level, ws)) * sum(_conformal_weight(r, level, w.parts)
                                                   for w in ws)
    pairings = []
    for (ia, ib), (ic, id_) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        ab = fusion(ws[ia], ws[ib])
        cd = fusion(ws[ic], ws[id_])
        term = Fraction(0)
        for mu in level_weights(r, level):
            n_ab = ab.get(dual_star(mu).parts, 0)
            n_cd = cd.get(mu.parts, 0)
            if n_ab and n_cd:
                term += _conformal_weight(r, level, mu.parts) * n_ab * n_cd
        pairings.append(term)
    return bulk, tuple(pairings), bulk - sum(pairings)


def _four_point_setups(nonzero=False):
    """Every 4-multiset of weights for r <= 2, level <= 3, in sorted order."""
    for r, level in product((1, 2), (1, 2, 3)):
        pool = [w for w in level_weights(r, level) if w.size or not nonzero]
        for ws in combinations_with_replacement(pool, 4):
            yield r, level, ws


def test_degree_matches_reference_loop():
    for r, level, ws in _four_point_setups():
        for order in (ws, (ws[2], ws[0], ws[3], ws[1])):
            br = degree_m04(BlockSetup(r, level, order))
            assert (br.bulk_term, br.pairing_terms, br.degree) == _reference_degree(r, level, order)


def test_degree_vanishing_and_partner_identity():
    above = at_critical = 0
    for r, level, ws in _four_point_setups(nonzero=True):
        c = critical_level(r, ws)
        degree = degree_m04(BlockSetup(r, level, ws)).degree
        if (c is not None and level > c) or level > theta_level(r, ws):
            above += 1
            assert degree == 0, (r, level, ws)
        if c == level:
            at_critical += 1
            other = partner(BlockSetup(r, level, ws))
            assert degree == degree_m04(other.partner).degree, (r, level, ws)
    assert (above, at_critical) == (141, 72)


def test_cb_rank_edge_arities():
    # n = 0..3 deals (n + 1) // 2 points to the first half (parts[0::2]) and
    # n // 2 to the second (parts[1::2]): 0|0, 1|0, 1|1 and 2|1
    for r, level in ((1, 3), (2, 2), (3, 2)):
        pool = level_weights(r, level)
        assert cb_rank(BlockSetup(r, level, ())) == 1
        for w in pool:
            assert cb_rank(BlockSetup(r, level, (w,))) == (1 if w.size == 0 else 0)
        for a, b in product(pool, repeat=2):
            assert cb_rank(BlockSetup(r, level, (a, b))) == (1 if b == dual_star(a) else 0)
        for a, b, c in product(pool, repeat=3):
            expected = witten_rank(BlockSetup(r, level, (a, b, c)))
            assert cb_rank(BlockSetup(r, level, (a, b, c))) == expected
            # the uncached body, so that each rotation really puts a different
            # point alone in the second half
            for ws in ((a, b, c), (b, c, a), (c, a, b)):
                assert _cb_rank.__wrapped__(r, level, tuple(w.parts for w in ws)) == expected


def test_fusion_sizes_hide_nothing_from_the_divisibility_shortcut():
    # each key of a fusion vector has size = its half's total size mod r+1, so
    # where r+1 does not divide the total the full contraction (which cb_rank
    # skips there) pairs the two halves to 0
    skipped = 0
    for r, level in product((1, 2), (1, 2)):
        pool = [w.parts for w in level_weights(r, level)]
        for n in (3, 4):
            for parts in product(pool, repeat=n):
                halves = (parts[0::2], parts[1::2])
                left, right = (_fuse(r, level, half) for half in halves)
                for half, vec in zip(halves, (left, right)):
                    size = sum(map(sum, half)) % (r + 1)
                    assert all(sum(mu) % (r + 1) == size for mu in vec), (r, level, half)
                pairing = sum(c * right.get(dual_parts(mu, r), 0) for mu, c in left.items())
                if sum(map(sum, parts)) % (r + 1):
                    skipped += 1
                    assert pairing == 0, (r, level, parts)
                else:
                    assert pairing == cb_rank(BlockSetup(
                        r, level, tuple(SlWeight(r, p) for p in parts)))
    assert skipped == 1145
    assert _fuse(2, 2, ()) == {(): 1}


@settings(deadline=None, max_examples=60)
@given(weight_tuples(max_rank=2, max_level=3, max_points=6))
def test_cb_equals_witten(rlw):
    r, level, ws = rlw
    setup = BlockSetup(r, level, ws)
    assert cb_rank(setup) == witten_rank(setup)


@settings(deadline=None, max_examples=60)
@given(weight_tuples(max_rank=2, max_level=3, max_points=6))
def test_cb_rank_is_the_trivial_coefficient_of_one_chain(rlw):
    # every point fused in one chain, with no split and no pairing: the rank is
    # the coefficient of the trivial weight, whichever split cb_rank uses
    r, level, ws = rlw
    assert cb_rank(BlockSetup(r, level, ws)) == _fuse(r, level, tuple(w.parts for w in ws)).get((), 0)


@settings(deadline=None, max_examples=60)
@given(weight_tuples(max_rank=2, max_level=3, max_points=5))
def test_cb_at_most_classical(rlw):
    r, level, ws = rlw
    setup = BlockSetup(r, level, ws)
    assert cb_rank(setup) <= coinvariant_rank(r, ws)


@settings(deadline=None, max_examples=60)
@given(weight_tuples(max_rank=2, max_level=3, max_points=5), st.randoms(use_true_random=False))
def test_cb_rank_permutation_invariance(rlw, rng):
    # the uncached body, so that both orders are really contracted
    r, level, ws = rlw
    shuffled = list(ws)
    rng.shuffle(shuffled)
    body = _cb_rank.__wrapped__
    assert (body(r, level, tuple(w.parts for w in ws))
            == body(r, level, tuple(w.parts for w in shuffled)))


@settings(deadline=None, max_examples=60)
@given(weight_tuples(max_rank=3, max_level=3, max_points=5), st.randoms(use_true_random=False))
def test_rank_memos_answer_the_callers_order(rlw, rng):
    # the shuffled call fills each memo first; the caller's own order must
    # then read the answer the uncached body gives in that order
    r, level, ws = rlw
    shuffled = list(ws)
    rng.shuffle(shuffled)
    setup = BlockSetup(r, level, ws)
    cb_rank(BlockSetup(r, level, shuffled))
    coinvariant_rank(r, shuffled)
    parts = tuple(w.parts for w in ws)
    width = coinvariant_box_width(r, ws)
    if sum(map(sum, parts)) % (r + 1):
        assert cb_rank(setup) == 0
    else:
        assert cb_rank(setup) == _cb_rank.__wrapped__(r, level, parts)
    if width is None:
        assert coinvariant_rank(r, ws) == 0
    else:
        assert coinvariant_rank(r, ws) == _coinvariant_rank.__wrapped__(r, width, parts)


def test_indivisible_totals_rank_zero_on_both_routes():
    # vanishing_report skips both routes where r+1 does not divide the total
    # size; every such setup with r <= 3, level <= 3 and n <= 4 pins that both
    # give 0 there, the fusion route also by its full contraction
    skipped = 0
    for r, level in product((1, 2, 3), (1, 2, 3)):
        for n in range(5):
            for ws in combinations_with_replacement(level_weights(r, level), n):
                parts = tuple(w.parts for w in ws)
                if not sum(map(sum, parts)) % (r + 1):
                    continue
                skipped += 1
                setup = BlockSetup(r, level, ws)
                assert coinvariant_rank(r, ws) == cb_rank(setup) == witten_rank(setup) == 0
                assert _cb_rank.__wrapped__(r, level, parts) == 0, (r, level, parts)
                rep = vanishing_report(setup)
                assert (rep.rank_classical, rep.rank_cb, rep.ranks_equal) == (0, 0, True)
                assert rep.critical_level is None and critical_level(r, ws) is None
                assert rep.theta_level == theta_level(r, ws)
                assert type(rep.theta_level) is Fraction
                assert not rep.above_critical
                assert rep.above_theta == (level > theta_level(r, ws))
    assert skipped == 9607


@settings(deadline=None, max_examples=60)
@given(weight_tuples(max_rank=3, max_level=3, max_points=5))
def test_theta_average_of_critical_levels(rlw):
    r, _, ws = rlw
    c = critical_level(r, ws)
    c_dual = critical_level(r, tuple(dual_star(w) for w in ws))
    if c is None or c_dual is None:
        assert (c is None) == (c_dual is None)
        return
    assert theta_level(r, ws) == Fraction(c + c_dual, 2)


ROW2_SL3 = ("BlockSetup(r=2, level=1, weights=(SlWeight(sl3, [1]), SlWeight(sl3, [1]), "
            "SlWeight(sl3, [1, 1]), SlWeight(sl3, [1, 1])))")
ROW2_SL2 = ("BlockSetup(r=1, level=2, weights=(SlWeight(sl2, [1]), SlWeight(sl2, [1]), "
            "SlWeight(sl2, [2]), SlWeight(sl2, [2])))")


@pytest.mark.parametrize("make, remake, expected", (
    (lambda: GrassmannBox(2, 4), lambda: GrassmannBox(n=4, k=2),
     "GrassmannBox(k=2, n=4)"),
    (lambda: QClass.of(GrassmannBox(2, 4), (1,)),
     lambda: QClass(GrassmannBox(2, 4), {((1, 0), 0): 2, ((2,), 1): 0, ((1,), 0): -1}),
     "QClass(box=GrassmannBox(k=2, n=4), terms=((((1,), 0), 1),))"),
    (lambda: FCurve([[1], [2], [3], [4, 5, 6]]), lambda: parse_fcurve("1|2|3|6,5,4", 6),
     "FCurve(blocks=(frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5, 6})))"),
    (lambda: HassettWeights(["1/2", "2/3", 1]),
     lambda: HassettWeights([Fraction(2, 4), Fraction(4, 6), Fraction(3, 3)]),
     "HassettWeights(weights=(Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)))"),
    (lambda: partner(BlockSetup(2, 1, parse_weight_list("w1,w1,w2,w2", 2))),
     lambda: partner(BlockSetup(2, 1, parse_weight_list("[1],[2,1,1],[1,1],[2,2,1]", 2))),
     f"PartnerData(source={ROW2_SL3}, partner={ROW2_SL2}, "
     "rank_source=1, rank_partner=1, rank_classical=2, degree_source=1, degree_partner=1)"),
    (lambda: degree_m04(BlockSetup(2, 1, parse_weight_list("w1,w1,w2,w2", 2))),
     lambda: degree_m04(BlockSetup(2, 1, parse_weight_list("[1],[2,1,1],[1,1],[2,2,1]", 2))),
     "DegreeBreakdown(degree=1, bulk_term=Fraction(4, 3), "
     "pairing_terms=(Fraction(1, 3), Fraction(0, 1), Fraction(0, 1)))"),
), ids=("GrassmannBox", "QClass", "FCurve", "HassettWeights", "PartnerData",
        "DegreeBreakdown"))
def test_value_reprs_and_equality(make, remake, expected):
    value = make()
    assert repr(value) == expected
    # built from other spellings of the same value: equal, with equal hashes
    other = remake()
    assert other is not value and other == value and hash(other) == hash(value)
