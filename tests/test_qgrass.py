import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cblocks import qgrass
from cblocks.cb import cb_rank, witten_rank
from cblocks.errors import ConsistencyError, DomainError
from cblocks.qgrass import (
    GrassmannBox,
    QClass,
    _orbit,
    _orbit_mult,
    _rotate,
    gw_invariant,
    quantum_product,
    rim_hook_reduce,
)
from cblocks.schur import _lr_mult
from cblocks.young import BlockSetup, SlWeight, box_complement, conjugate, partition, row
from strategies import boxed_partitions
from test_cli import golden_argv, invoke


def _reference_rim_hook_reduce(p, box, choose=max):
    """Set-based rim-hook removal; `choose` picks the beta number to move
    from the sorted list of those at least n."""
    p = partition(p)
    k, n = box.k, box.n
    bset = set(row(p, a) + k - a for a in range(1, k + 1))
    d = 0
    sign = 1
    while True:
        over = sorted(b for b in bset if b >= n)
        if not over:
            break
        b = choose(over)
        if b - n in bset:
            return None
        height = 1 + sum(1 for x in bset if b - n < x < b)
        if (k - height) % 2:
            sign = -sign
        bset.remove(b)
        bset.add(b - n)
        d += 1
    betas = sorted(bset, reverse=True)
    reduced = partition(betas[a - 1] - (k - a) for a in range(1, k + 1))
    return reduced, d, sign


def _reference_quantum_mult(p, q, box):
    acc = {}
    for u, m in _lr_mult(p, q, box.k).items():
        red = _reference_rim_hook_reduce(u, box)
        if red is not None:
            shape, d, sign = red
            acc[shape, d] = acc.get((shape, d), 0) + sign * m
    return {key: c for key, c in acc.items() if c}


def _reference_gw(box, classes, d):
    """Left fold of the reference pair product; the q^d point-class coefficient."""
    acc = {(classes[0], 0): 1}
    for p in classes[1:]:
        folded = {}
        for (u, e), c in acc.items():
            for (v, f), m in _reference_quantum_mult(u, p, box).items():
                folded[v, e + f] = folded.get((v, e + f), 0) + c * m
        acc = folded
    return acc.get(((box.width,) * box.k, d), 0)


def _box_shapes(k, width):
    """Every partition inside the k x width box."""
    return [partition(sorted(rows, reverse=True))
            for rows in combinations_with_replacement(range(width + 1), k)]


@st.composite
def _boxes(draw, max_k=4, max_width=5):
    k = draw(st.integers(1, max_k))
    return GrassmannBox(k, k + draw(st.integers(1, max_width)))


@st.composite
def _reducible_shapes(draw):
    """A box and a shape of at most k rows, first row up to 2(n-k)+1."""
    box = draw(_boxes())
    return box, draw(boxed_partitions(max_rows=box.k, max_width=2 * box.width + 1))


@st.composite
def _box_pairs(draw):
    box = draw(_boxes())
    shapes = boxed_partitions(max_rows=box.k, max_width=box.width)
    return box, draw(shapes), draw(shapes)


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
    shuffled = _reference_rim_hook_reduce(p, box, choose=_random_choosers(rng))
    assert rim_hook_reduce(p, box) == shuffled


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
    # gw_invariant works in Gr(2, 5) for both; the reference fold in the box given
    assert gw_invariant(box, classes, d) == _reference_gw(dual_box, flipped, d)
    assert gw_invariant(dual_box, flipped, d) == _reference_gw(box, classes, d)


@settings(deadline=None, max_examples=60)
@given(st.lists(boxed_partitions(max_rows=2, max_width=2), min_size=2, max_size=4),
       st.integers(0, 2), st.randoms(use_true_random=False))
def test_gw_permutation_symmetry(classes, d, rng):
    box = GrassmannBox(2, 4)
    shuffled = list(classes)
    rng.shuffle(shuffled)
    assert gw_invariant(box, classes, d) == gw_invariant(box, shuffled, d)


@settings(deadline=None, max_examples=300)
@given(_reducible_shapes())
@example((GrassmannBox(2, 4), (4, 1)))
@example((GrassmannBox(3, 5), (5, 5, 2)))
def test_rim_hook_reduce_matches_reference(box_shape):
    box, p = box_shape
    assert rim_hook_reduce(p, box) == _reference_rim_hook_reduce(p, box)


@settings(deadline=None, max_examples=150)
@given(_box_pairs())
def test_quantum_mult_matches_reference(box_pair):
    box, p, q = box_pair
    product = quantum_product(QClass.of(box, p), QClass.of(box, q))
    assert product == quantum_product(QClass.of(box, q), QClass.of(box, p))
    assert dict(product.terms) == _reference_quantum_mult(p, q, box)


def test_cyclic_symmetry():
    # sigma_(n-k) acts on the Schubert basis as a cyclic shift: the top row is
    # added when it fits, otherwise one q is paid and a full column removed
    for k in range(1, 5):
        for width in range(1, 6):
            box = GrassmannBox(k, k + width)
            for lam in _box_shapes(k, width):
                product = quantum_product(QClass.of(box, (width,)), QClass.of(box, lam))
                if len(lam) < k:
                    expected = (((width,) + lam, 0), 1)
                else:
                    expected = ((partition(x - 1 for x in lam), 1), 1)
                assert product.terms == (expected,)


# every ordered pair of shapes in these boxes; Gr(2,4), Gr(2,6), Gr(3,6) and
# Gr(4,8) have T-orbits shorter than n
_EXHAUSTIVE_BOXES = ((1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6), (3, 6), (2, 7),
                     (3, 7), (4, 8))


def test_quantum_mult_matches_reference_exhaustively():
    pairs = 0
    for k, n in _EXHAUSTIVE_BOXES:
        box = GrassmannBox(k, n)
        shapes = _box_shapes(k, n - k)
        for p in shapes:
            for q in shapes:
                product = quantum_product(QClass.of(box, p), QClass.of(box, q))
                assert dict(product.terms) == _reference_quantum_mult(p, q, box), (box, p, q)
                pairs += 1
    assert pairs == 7356


def _turn_by_steps(p, box):
    """[(u, g)] with T^j sigma_p = q^g sigma_u for j = 0..n, one step of
    test_cyclic_symmetry's rule at a time: the top row goes in when a row is
    free, otherwise one full column comes out for one q."""
    turn = [(p, 0)]
    for _ in range(box.n):
        u, g = turn[-1]
        turn.append(((box.width,) + u, g) if len(u) < box.k
                    else (partition(x - 1 for x in u), g + 1))
    return turn


def test_rotation_laws():
    for k in range(1, 5):
        for width in range(1, 6):
            box = GrassmannBox(k, k + width)
            n = box.n
            for lam in _box_shapes(k, width):
                turn = _turn_by_steps(lam, box)
                # the closed form on beta numbers is the step-by-step rotation,
                # and a full turn costs q^(n-k)
                assert [_rotate(lam, j, box) for j in range(n + 1)] == turn
                assert turn[n] == (lam, width)
                # T^a T^b = T^(a+b), the rotation read past one turn
                for a in range(n):
                    u, g = turn[a]
                    for b in range(n):
                        v, h = _rotate(u, b, box)
                        w, f = turn[(a + b) % n]
                        assert (v, g + h) == (w, f + width * ((a + b) // n))
                # the orbit data reproduces lam from the smallest shape of its
                # orbit, which is its own representative
                p0, a, e = _orbit(lam, box)
                assert (sum(p0), p0) == min((sum(u), u) for u, _ in turn)
                assert 0 <= a < n and e >= 0
                assert _turn_by_steps(p0, box)[a] == (lam, e)
                assert _orbit(p0, box) == (p0, 0, 0)


def test_the_poincare_dual_is_the_box_complement():
    # the dual class of sigma_u has the beta numbers n - 1 - b of u's betas
    # b, and its shape is u's complement in the k x (n-k) box
    for n in range(2, 9):
        for k in range(1, min(3, n - 1) + 1):
            box = GrassmannBox(k, n)
            for u in _box_shapes(k, n - k):
                betas = [row(u, a) + k - a for a in range(1, k + 1)]
                dual = sorted((n - 1 - b for b in betas), reverse=True)
                expected = partition(dual[a - 1] - (k - a) for a in range(1, k + 1))
                assert box_complement(u, k, n - k) == expected


def test_products_expand_only_orbit_representatives():
    box = GrassmannBox(3, 7)   # 35 shapes in 5 orbits of length 7
    shapes = _box_shapes(3, 4)
    assert len({_orbit(p, box)[0] for p in shapes}) == 5
    _orbit_mult.cache_clear()
    for p in shapes:
        for q in shapes:
            quantum_product(QClass.of(box, p), QClass.of(box, q))
    # one entry per unordered pair of the four representatives other than ():
    # a factor in the orbit of () is a rotation, within o(o+1)/2 = 15
    assert _orbit_mult.cache_info().currsize == 4 * 5 // 2


def _graded_class_tuples():
    """(box, classes, d) for every multiset of 2-4 classes in the boxes with
    k <= 3, n <= 6 that is graded for some d <= 2."""
    for k in range(1, 4):
        for n in range(k + 1, 7):
            box = GrassmannBox(k, n)
            for size in range(2, 5):
                for classes in combinations_with_replacement(_box_shapes(k, n - k), size):
                    d, rest = divmod(sum(map(sum, classes)) - k * (n - k), n)
                    if not rest and 0 <= d <= 2:
                        yield box, classes, d


def test_gw_invariant_matches_reference_fold_exhaustively():
    # in both orders; the contraction takes rotations of () (sigma_(n-k), its
    # powers, the unit) out of order and deals the other classes into halves
    checked = 0
    level_copies = set()
    other_rotations = 0
    for box, classes, d in _graded_class_tuples():
        expected = _reference_gw(box, classes, d)
        assert gw_invariant(box, classes, d) == expected, (box, classes, d)
        assert gw_invariant(box, classes[::-1], d) == expected, (box, classes, d)
        rotations = {u for u, _ in _turn_by_steps((), box)} - {(), (box.width,)}
        level_copies.add(classes.count((box.width,)))
        other_rotations += any(p in rotations for p in classes)
        checked += 1
    assert {1, 2, 3} <= level_copies
    assert other_rotations > 0
    assert checked == 2775


def test_gw_invariant_and_products_transpose_exhaustively():
    # QH*(Gr(k, n)) = QH*(Gr(n-k, n)) through sigma_p -> sigma_p^T, which
    # gw_invariant uses to work in the box with fewer rows; the reference
    # fold never transposes, so each side runs in its own box
    checked = transposed = 0
    for box, classes, d in _graded_class_tuples():
        flipped = GrassmannBox(box.width, box.n)
        assert (gw_invariant(box, classes, d)
                == _reference_gw(flipped, [conjugate(p) for p in classes], d)), (box, classes, d)
        checked += 1
        transposed += box.k > box.width
    assert (checked, transposed) == (2775, 215)
    for k, n in _EXHAUSTIVE_BOXES:
        box, flipped = GrassmannBox(k, n), GrassmannBox(n - k, n)
        shapes = _box_shapes(k, n - k)
        for p in shapes:
            for q in shapes:
                product = quantum_product(QClass.of(box, p), QClass.of(box, q))
                expected = QClass(flipped, {(conjugate(u), e): c for (u, e), c in product.terms})
                got = quantum_product(QClass.of(flipped, conjugate(p)),
                                      QClass.of(flipped, conjugate(q)))
                assert got == expected, (box, p, q)


@st.composite
def _long_graded_tuples(draw):
    """(box, classes, d): 5-8 classes for 2 <= k <= n - 2, n <= 8, d <= 3,
    whose sizes add up to k(n-k) + nd; about one class in four is drawn
    from the orbit of () when that orbit holds a shape of an allowed size.

    Smaller boxes hold only rotations of (), which the exhaustive test covers."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 2, 8))
    box, top = GrassmannBox(k, n), k * (n - k)
    size = draw(st.integers(5, 8))
    d = draw(st.integers(0, min(3, top * (size - 1) // n)))
    shapes = _box_shapes(k, n - k)
    units = {u for u, _ in _turn_by_steps((), box)}
    classes = []
    budget = top + n * d
    for i in range(size):
        lo, hi = max(0, budget - top * (size - 1 - i)), min(top, budget)
        fits = [p for p in shapes if lo <= sum(p) <= hi]
        rotations = [p for p in fits if p in units]
        if rotations and draw(st.integers(0, 3)) == 0:
            fits = rotations
        classes.append(draw(st.sampled_from(fits)))
        budget -= sum(classes[-1])
    return box, draw(st.permutations(classes)), d


@settings(deadline=None, max_examples=100)
@given(_long_graded_tuples())
def test_gw_invariant_matches_reference_fold_on_long_tuples(case):
    # each half holds up to four classes here, against two in the
    # exhaustive test
    box, classes, d = case
    assert gw_invariant(box, classes, d) == _reference_gw(box, classes, d)


@st.composite
def _repeated_classes(draw):
    """(box, spelled, classes, d): a graded list of classes in a box with
    k <= 3, n <= 7 and d <= 2, drawn from at most three shapes, the
    rotations (n-k) and (1^k) and the unit, so that most classes repeat;
    up to 24 are drawn and the rest of the grading is made up with (1).
    spelled is the list shuffled, each class a list or a tuple with up to
    two trailing zeros; classes is the list as partitions."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 7))
    box = GrassmannBox(k, n)
    pool = draw(st.lists(st.sampled_from(_box_shapes(k, n - k)), min_size=1, max_size=3))
    pool += [(n - k,), (1,) * k, ()]
    d = draw(st.integers(0, 2))
    budget = k * (n - k) + n * d
    classes = []
    for p in draw(st.lists(st.sampled_from(pool), max_size=24)):
        if sum(p) <= budget:
            classes.append(p)
            budget -= sum(p)
    classes += [(1,)] * budget + [()] * (2 - len(classes) - budget)
    spelled = [draw(st.sampled_from((list, tuple)))(p + (0,) * draw(st.integers(0, 2)))
               for p in classes]
    return box, draw(st.permutations(spelled)), classes, d


@settings(deadline=None, max_examples=60)
@given(_repeated_classes())
def test_gw_invariant_on_repeated_classes_matches_reference_fold(case):
    # gw_invariant tallies its classes, so every copy of a class, however
    # spelled, is one entry with a multiplicity
    box, spelled, classes, d = case
    assert gw_invariant(box, spelled, d) == _reference_gw(box, classes, d)


def test_repeated_classes_are_checked_and_looked_up_once(monkeypatch):
    box = GrassmannBox(2, 5)
    # eleven copies of (1): |(1)^11| = 2 * 3 + 5 * 1
    expected = _reference_gw(box, [(1,)] * 11, 1)
    calls = []

    def counted(name):
        real = getattr(qgrass, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        # _orbit_mult reads _orbit's uncached body, which is not counted
        wrapper.__wrapped__ = getattr(real, "__wrapped__", None)
        monkeypatch.setattr(qgrass, name, wrapper)

    counted("partition")
    counted("_orbit")
    assert gw_invariant(box, [[1]] * 5 + [(1,)] * 6, 1) == expected
    assert sorted(calls) == ["_orbit", "partition"]
    # a bad class is refused however often it is repeated, after one check
    for bad, message in (([4], "does not fit"), ([1, 2], "not weakly decreasing")):
        calls.clear()
        with pytest.raises(DomainError, match=message):
            gw_invariant(box, [bad] * 7, 1)
        assert calls == ["partition"]


def _below_critical_setups(seed=23, count=30):
    """`count` seeded sl3, sl4 and sl5 setups of 6-8 points below their
    critical level, so witten_rank multiplies in s >= 1 level classes; sl4
    and sl5 run in the transposed box."""
    rng = random.Random(seed)
    setups = []
    while len(setups) < count:
        r, level = rng.choice(((2, 4), (3, 3), (4, 2)))
        ws = tuple(SlWeight(r, sorted((rng.randint(0, level) for _ in range(r)), reverse=True))
                   for _ in range(rng.randint(6, 8)))
        total = sum(w.size for w in ws)
        if total % (r + 1) or total // (r + 1) <= level:
            continue
        setups.append(BlockSetup(r, level, ws))
    return setups


def test_the_halves_make_a_pinned_number_of_orbit_products(monkeypatch):
    # a count, not a time: folding the rotations of () into one key and
    # dealing the other classes into two halves makes 180 products here,
    # where one left-to-right chain over every class made 364
    setups = _below_critical_setups()
    expected = [cb_rank(s) for s in setups]
    calls = []
    real = qgrass._orbit_step

    def counted(acc, x, key, m, box):
        calls.append(box)
        return real(acc, x, key, m, box)

    monkeypatch.setattr(qgrass, "_orbit_step", counted)
    assert [witten_rank(s) for s in setups] == expected
    assert len(calls) == 180
    assert any(expected)


def test_negative_q_degree_raises_and_exits_3(monkeypatch):
    real = qgrass._orbit

    def shifted(p, box):   # T^a sigma_p0 = q^(e+1) sigma_p, one q too many
        p0, a, e = real(p, box)
        return p0, a, e + 1

    monkeypatch.setattr(qgrass, "_orbit", shifted)
    box = GrassmannBox(2, 4)
    # sigma_(2) * sigma_(1,1) = q comes out as q^-1
    with pytest.raises(ConsistencyError, match="q degree -1"):
        quantum_product(QClass.of(box, (2,)), QClass.of(box, (1, 1)))
    with pytest.raises(ConsistencyError, match="q degree -2"):
        gw_invariant(box, [(2,), (1, 1), (2, 2)], 1)
    # the gw command's README input is the same invariant
    code, out, err = invoke(*golden_argv("gw"))
    assert (code, out) == (3, "")
    assert "has q degree -2" in err
