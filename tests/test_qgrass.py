import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cblocks.errors import DomainError
from cblocks.qgrass import GrassmannBox, QClass, gw_invariant, quantum_product, rim_hook_reduce
from cblocks.schur import _lr_mult
from cblocks.young import conjugate, partition
from strategies import boxed_partitions


def test_box_validation():
    with pytest.raises(DomainError):
        GrassmannBox(3, 3)
    with pytest.raises(DomainError):
        GrassmannBox(0, 2)
    assert GrassmannBox(2, 5).width == 3


def test_rim_hook_examples():
    assert rim_hook_reduce((2, 1), GrassmannBox(2, 3)) == ((), 1, 1)
    assert rim_hook_reduce((2,), GrassmannBox(1, 2)) == ((), 1, 1)
    assert rim_hook_reduce((1, 1), GrassmannBox(2, 4)) == ((1, 1), 0, 1)
    # single 4-hook of height 1 picks up a sign in Gr(2,4)
    assert rim_hook_reduce((4,), GrassmannBox(2, 4)) == ((), 1, -1)
    assert rim_hook_reduce((3, 1), GrassmannBox(2, 4)) == ((), 1, 1)
    # stuck: beta collision modulo n
    assert rim_hook_reduce((4, 1), GrassmannBox(2, 4)) is None
    with pytest.raises(DomainError):
        rim_hook_reduce((1, 1, 1), GrassmannBox(2, 4))


def test_projective_line_ring():
    box = GrassmannBox(1, 2)
    h = QClass.of(box, (1,))
    hh = quantum_product(h, h)
    assert hh.coefficient((), 1) == 1
    assert hh.terms == ((((), 1), 1),)


def test_projective_plane_ring():
    box = GrassmannBox(1, 3)
    s2 = QClass.of(box, (2,))
    s1 = QClass.of(box, (1,))
    assert quantum_product(s2, s1).terms == ((((), 1), 1),)
    # lines through two general points meeting a general line
    assert gw_invariant(box, [(2,), (2,), (1,)], 1) == 1


def test_gr24_products():
    box = GrassmannBox(2, 4)
    s2 = QClass.of(box, (2,))
    s11 = QClass.of(box, (1, 1))
    assert quantum_product(s2, s11).terms == ((((), 1), 1),)
    assert quantum_product(s2, s2).terms == ((((2, 2), 0), 1),)


def test_gw_examples():
    box = GrassmannBox(2, 4)
    assert gw_invariant(box, [(2,), (1, 1), (2, 2)], 1) == 1
    assert gw_invariant(box, [(2,), (2,), (2, 2)], 1) == 0
    # grading mismatch
    assert gw_invariant(box, [(2,), (2,)], 1) == 0
    with pytest.raises(DomainError):
        gw_invariant(box, [(3,), (1,)], 0)
    with pytest.raises(DomainError):
        gw_invariant(box, [(1,)], 0)


def test_quantum_classical_limit():
    # dropping q-positive terms of the quantum product recovers the bounded
    # classical product restricted to the box
    box = GrassmannBox(2, 5)
    for p, q in [((2, 1), (2, 1)), ((3,), (2, 2)), ((3, 3), (3, 2))]:
        qp = quantum_product(QClass.of(box, p), QClass.of(box, q))
        classical = _lr_mult(p, q, box.k)
        expected = {u: c for u, c in classical.items()
                    if u and u[0] <= box.width or not u}
        got = {u: c for (u, dd), c in qp.terms if dd == 0}
        assert got == expected


def _random_choosers(rng):
    def choose(over):
        return over[rng.randrange(len(over))]
    return choose


@settings(deadline=None)
@given(boxed_partitions(max_rows=3, max_width=9), st.randoms(use_true_random=False))
def test_rim_hook_order_independence(p, rng):
    box = GrassmannBox(3, 7)
    if len(p) > 3:
        return
    default = rim_hook_reduce(p, box)
    shuffled = rim_hook_reduce(p, box, _choose=_random_choosers(rng))
    assert default == shuffled


@settings(deadline=None, max_examples=40)
@given(boxed_partitions(max_rows=2, max_width=3), boxed_partitions(max_rows=2, max_width=3),
       boxed_partitions(max_rows=2, max_width=3))
def test_quantum_associativity(p, q, u):
    box = GrassmannBox(2, 5)
    a, b, c = (QClass.of(box, x) for x in (p, q, u))
    left = quantum_product(quantum_product(a, b), c)
    right = quantum_product(a, quantum_product(b, c))
    assert left.terms == right.terms


@settings(deadline=None, max_examples=60)
@given(st.lists(boxed_partitions(max_rows=2, max_width=3), min_size=2, max_size=4),
       st.integers(0, 2))
def test_gw_grassmann_duality(classes, d):
    box = GrassmannBox(2, 5)
    dual_box = GrassmannBox(3, 5)
    flipped = [conjugate(p) for p in classes]
    assert gw_invariant(box, classes, d) == gw_invariant(dual_box, flipped, d)


@settings(deadline=None, max_examples=60)
@given(st.lists(boxed_partitions(max_rows=2, max_width=2), min_size=2, max_size=4),
       st.integers(0, 2), st.randoms(use_true_random=False))
def test_gw_permutation_symmetry(classes, d, rng):
    box = GrassmannBox(2, 4)
    shuffled = list(classes)
    rng.shuffle(shuffled)
    assert gw_invariant(box, classes, d) == gw_invariant(box, shuffled, d)
