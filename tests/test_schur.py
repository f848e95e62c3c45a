import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cblocks.errors import CapacityError, DomainError
from cblocks.schur import (
    SchurExpansion,
    _lr_mult,
    coinvariant_rank,
    invariant_oracle,
    lr_coefficient,
    schur_product_bounded,
)
from cblocks.young import SlWeight, conjugate, dual_star, transpose, weight_from_fundamental
from strategies import boxed_partitions, weight_tuples


def W(coeffs, r):
    return weight_from_fundamental(coeffs, r)


def test_lr_examples():
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2,), (2,), (2, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_mismatches_are_zero():
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0
    assert lr_coefficient((3,), (1,), (2, 2)) == 0


def test_lr_pieri_row():
    # s_(2,1) * s_(2) by the Pieri rule: one shape per horizontal strip
    assert lr_coefficient((2, 1), (2,), (4, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (3, 2)) == 1
    assert lr_coefficient((2, 1), (2,), (2, 2, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (3, 1, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (4, 2)) == 0


@given(boxed_partitions(max_rows=3, max_width=3), boxed_partitions(max_rows=3, max_width=3),
       boxed_partitions(max_rows=4, max_width=5))
def test_lr_symmetry(lam, mu, nu):
    assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


@given(boxed_partitions(max_rows=3, max_width=3), boxed_partitions(max_rows=3, max_width=3),
       boxed_partitions(max_rows=3, max_width=4))
def test_lr_conjugation_symmetry(lam, mu, nu):
    assert lr_coefficient(lam, mu, nu) == lr_coefficient(
        conjugate(lam), conjugate(mu), conjugate(nu))


def _contained(u, outer):
    return len(u) <= len(outer) and all(a <= b for a, b in zip(u, outer))


@given(boxed_partitions(max_rows=4, max_width=4), boxed_partitions(max_rows=4, max_width=4),
       st.integers(min_value=1, max_value=5), boxed_partitions(max_rows=5, max_width=8))
def test_lr_outer_bound_is_a_filter(p, q, row_bound, outer):
    full = _lr_mult(p, q, row_bound)
    assert _lr_mult(p, q, row_bound, outer) == {
        u: m for u, m in full.items() if _contained(u, outer)}


@given(boxed_partitions(max_rows=4, max_width=4), boxed_partitions(max_rows=4, max_width=4),
       st.integers(min_value=1, max_value=5))
def test_lr_mult_is_commutative(p, q, row_bound):
    assert _lr_mult(p, q, row_bound) == _lr_mult(q, p, row_bound)


def test_schur_product_examples():
    two = SchurExpansion.of((2,), 2)
    oneone = SchurExpansion.of((1, 1), 2)
    assert schur_product_bounded(two, oneone).as_dict() == {(3, 1): 1}

    a = SchurExpansion.of((1,), 3)
    assert schur_product_bounded(a, a).as_dict() == {(2,): 1, (1, 1): 1}

    unit = SchurExpansion.unit(3)
    b = SchurExpansion((((2, 1), 3),), 3)
    assert schur_product_bounded(b, unit).as_dict() == b.as_dict()


def test_schur_product_row_bound_mismatch():
    with pytest.raises(DomainError):
        schur_product_bounded(SchurExpansion.unit(2), SchurExpansion.unit(3))


def test_coinvariant_rank_table_values():
    w1 = W((1, 0), 2)
    assert coinvariant_rank(2, (w1,) * 6) == 5
    ws = (W((2, 1), 2), W((0, 1), 2), W((2, 0), 2), W((0, 2), 2), W((1, 1), 2))
    assert coinvariant_rank(2, ws) == 9


def test_coinvariant_rank_small_cases():
    assert coinvariant_rank(1, (SlWeight(1, (1,)), SlWeight(1, (1,)))) == 1
    assert coinvariant_rank(2, (SlWeight(2, (1,)), SlWeight(2, (1,)))) == 0
    assert coinvariant_rank(2, ()) == 1
    assert coinvariant_rank(2, (SlWeight(2, ()),)) == 1
    assert coinvariant_rank(2, (SlWeight(2, (1,)),)) == 0
    with pytest.raises(DomainError):
        coinvariant_rank(2, (SlWeight(1, (1,)),))


def test_invariant_oracle_examples():
    w1 = SlWeight(2, (1,))
    w2 = SlWeight(2, (1, 1))
    assert invariant_oracle(2, (w1, w1, w1)) == 1
    assert invariant_oracle(1, (SlWeight(1, (1,)),) * 4) == 2
    assert invariant_oracle(2, (w1, w2)) == 1


def test_invariant_oracle_capacity():
    big = SlWeight(3, (6, 4, 2))
    with pytest.raises(CapacityError):
        invariant_oracle(3, (big,) * 8, capacity=10)


@settings(deadline=None)
@given(weight_tuples(max_rank=2, max_level=3, max_points=4))
def test_coinvariant_matches_oracle(rlw):
    r, _, ws = rlw
    assert coinvariant_rank(r, ws) == invariant_oracle(r, ws)


@settings(deadline=None)
@given(weight_tuples(max_rank=3, max_level=3, max_points=5), st.randoms(use_true_random=False))
def test_coinvariant_permutation_invariance(rlw, rng):
    r, _, ws = rlw
    shuffled = list(ws)
    rng.shuffle(shuffled)
    assert coinvariant_rank(r, ws) == coinvariant_rank(r, shuffled)


@settings(deadline=None)
@given(weight_tuples(max_rank=3, max_level=3, max_points=4))
def test_coinvariant_dual_invariance(rlw):
    r, _, ws = rlw
    duals = tuple(dual_star(w) for w in ws)
    assert coinvariant_rank(r, ws) == coinvariant_rank(r, duals)


def test_coinvariant_grassmann_duality_small():
    # transposing every diagram swaps the two box readings when the total
    # size fills an (r+1) x (level+1) box exactly
    from itertools import combinations_with_replacement

    from cblocks.cb import level_weights

    for r, level in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        alcove = level_weights(r, level)
        box_area = (r + 1) * (level + 1)
        for n in (3, 4):
            for combo in combinations_with_replacement(alcove, n):
                if sum(w.size for w in combo) != box_area:
                    continue
                flipped = tuple(transpose(w, level) for w in combo)
                assert coinvariant_rank(r, combo) == coinvariant_rank(level, flipped)
