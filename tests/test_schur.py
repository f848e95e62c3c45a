import random
from itertools import accumulate, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cblocks import cb, schur
from cblocks.cb import cb_rank, level_weights
from cblocks.errors import CapacityError, DomainError
from cblocks.schur import (
    _coinvariant_rank, _lr_mult, _lr_slot, _lr_walk, coinvariant_rank, invariant_oracle)
from cblocks.young import (
    BlockSetup, SlWeight, conjugate, dual_star, parse_weight_list, partition, row, transpose)
from reference import critical_level
from reference import weight_from_fundamental as W
from strategies import boxed_partitions, weight_tuples


def coinvariant_box_width(r, ws):
    """Width of the forced box, or None where the rank memo returns 0 before it multiplies."""
    total = sum(w.size for w in ws)
    if total % (r + 1) or any(w.row(1) > total // (r + 1) for w in ws):
        return None
    return total // (r + 1)


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson number c^nu_{lam,mu}; 0 on any mismatch."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if any(row(lam, a) > row(nu, a) for a in range(1, len(lam) + 1)):
        return 0
    # the box of len(nu) rows and width nu[0] holds nu
    return _lr_walk(lam, mu, max(len(nu), 1), row(nu, 1)).get(nu, 0)


def _add_strips(caps, amount, prev, slack, out):
    """Append to `out` the per-row counts of every strip of `amount` > 0 cells.

    `caps[j]` bounds row j (horizontal-strip and outer-shape limits, fixed
    for the state).  `prev` holds the previous letter's per-row counts and
    carries the ballot limit: the cells placed in rows 0..j may not exceed
    `slack` plus the previous letter's cells in rows 0..j-1.
    """
    suffix = list(accumulate(reversed(caps), initial=0))[::-1]
    if suffix[0] < amount:
        return
    counts = [0] * len(caps)

    def place(j, remaining, slack):
        hi = min(caps[j], remaining, slack)
        lo = max(remaining - suffix[j + 1], 0)
        for c in range(hi, lo - 1, -1):
            counts[j] = c
            if c == remaining:
                out.append(tuple(counts))
            else:
                place(j + 1, remaining - c, slack - c + prev[j])
        counts[j] = 0

    place(0, amount, slack)


def _reference_lr_mult(p, q, row_bound, outer=None):
    """The LR kernel as it was before strips went straight into the state
    table: each state's strips are first collected in a list."""
    if len(p) > row_bound or len(q) > row_bound:
        return {}
    rows = row_bound
    total = sum(p) + sum(q)
    if outer is not None:
        rows = min(rows, len(outer))
        if len(p) > rows or any(a > b for a, b in zip(p, outer)):
            return {}
        bound = outer[:rows]
    else:
        bound = (total,) * rows
    if sum(bound) < total:
        return {}
    states = {(p + (0,) * (rows - len(p)), (0,) * rows): 1}
    slack = q[0] if q else 0
    for m in q:
        nxt = {}
        for (shape, prev), mult in states.items():
            if slack + sum(prev[:-1]) < m:
                continue
            caps = [min(a, b) - s for a, b, s in zip(bound[:1] + shape, bound, shape)]
            strips = []
            _add_strips(caps, m, prev, slack, strips)
            for cnt in strips:
                key = (tuple(a + c for a, c in zip(shape, cnt)), cnt)
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
        slack = 0
    out = {}
    for (shape, _), mult in states.items():
        shape = partition(shape)
        out[shape] = out.get(shape, 0) + mult
    return out


def _box(rows, width):
    return None if width is None else (width,) * rows


# the examples reach each early return: p or q with too many rows, p or q
# with a row wider than `width`, a box too small to hold the cells, and an
# empty factor.  The last three reach the strip walk's closed rows, which
# have a cap but no ballot room: the second letter's strip opening below
# two of them, a row closed in the middle of a strip, and a `width` that
# clips the product of three letters
@settings(max_examples=300)
@example((2, 1), (1, 1), 4, None)
@example((2, 2), (2, 2), 4, None)
@example((3, 2, 1), (2, 2, 1), 5, 4)
@example((1, 1, 1), (1,), 2, None)
@example((1,), (1, 1, 1), 2, None)
@example((3,), (1,), 3, 2)
@example((2, 2), (3,), 3, 2)
@example((2, 2), (2, 1), 2, 3)
@example((), (2, 1), 3, None)
@example((3,), (), 2, 2)
@given(boxed_partitions(max_rows=5, max_width=5), boxed_partitions(max_rows=5, max_width=5),
       st.integers(min_value=1, max_value=5),
       st.none() | st.integers(min_value=0, max_value=8))
def test_lr_mult_matches_reference(p, q, row_bound, width):
    assert _lr_walk(p, q, row_bound, width) == _reference_lr_mult(
        p, q, row_bound, _box(row_bound, width))


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


def _first_row_at_most(product, width):
    return {u: m for u, m in product.items() if row(u, 1) <= width}


@given(boxed_partitions(max_rows=4, max_width=4), boxed_partitions(max_rows=4, max_width=4),
       st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=8))
def test_lr_outer_bound_is_a_filter(p, q, row_bound, width):
    # the width bounds the product to the outer box of row_bound rows and width columns
    full = _lr_mult(p, q, row_bound)
    box = _box(row_bound, width)
    assert _lr_walk(p, q, row_bound, width) == {
        u: m for u, m in full.items() if all(a <= b for a, b in zip(u, box))}
    assert _lr_walk(p, q, row_bound, width) == _first_row_at_most(full, width)


@example((2, 1), (2, 1), 3, 3)
@given(boxed_partitions(max_rows=4, max_width=4), boxed_partitions(max_rows=4, max_width=4),
       st.integers(min_value=1, max_value=5),
       st.none() | st.integers(min_value=0, max_value=8))
def test_lr_mult_is_commutative(p, q, row_bound, width):
    # the kernel orients its factors itself; the reference walk takes them as given
    product = _lr_walk(p, q, row_bound, width)
    assert product == _lr_walk(q, p, row_bound, width)
    assert product == _reference_lr_mult(q, p, row_bound, _box(row_bound, width))


def _with_full_columns(u, c, rows):
    return tuple(x + c for x in u) + (c,) * (rows - len(u))


@given(boxed_partitions(max_rows=4, max_width=4), boxed_partitions(max_rows=4, max_width=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=6))
def test_full_columns_factor_out_of_a_product(u, q, rows, c, slack):
    # in `rows` variables s_(u + c^rows) = det^c * s_u, so the product of a shape
    # with c full columns is its normalised shape's product, inside a box c
    # columns narrower, with the c columns added back to every constituent
    assume(len(u) <= rows and len(q) <= rows)
    full = _with_full_columns(u, c, rows)
    width = c + slack
    shifted = {_with_full_columns(v, c, rows): m
               for v, m in _lr_walk(u, q, rows, width - c).items()}
    assert _lr_walk(full, q, rows, width) == shifted
    assert _lr_walk(full, q, rows) == {
        _with_full_columns(v, c, rows): m for v, m in _lr_walk(u, q, rows).items()}


def test_lr_box_that_cannot_bind_changes_nothing():
    # _lr_mult reads a width of p[0] + q[0] or more as no bound: every
    # constituent fits such a box, so the unbounded product is the same
    shapes = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1)]
    for p, q in product(shapes, repeat=2):
        p0, q0 = (p[0] if p else 0), (q[0] if q else 0)
        for rows in (1, 2, 3):
            for width in range(p0 + q0, p0 + q0 + 3):
                assert _lr_walk(p, q, rows, width) == \
                    _lr_walk(p, q, rows), (p, q, rows, width)


@settings(deadline=None)
@given(boxed_partitions(max_rows=4, max_width=5), boxed_partitions(max_rows=4, max_width=5),
       st.integers(min_value=1, max_value=4),
       st.lists(st.none() | st.integers(min_value=0, max_value=11), min_size=1, max_size=6))
def test_lr_slot_answers_every_width_and_never_narrows(p, q, rows, widths):
    # each answer, cut to the width asked, is the product boxed at that width;
    # the slot keeps the widest walk, so a later narrower ask reads it
    _lr_slot.cache_clear()
    held = -1
    for width in widths:
        answer = _lr_mult(p, q, rows, width)
        if width is None:
            assert answer == _reference_lr_mult(p, q, rows)
        else:
            assert _first_row_at_most(answer, width) == _reference_lr_mult(
                p, q, rows, _box(rows, width))
        slot = _lr_slot(p, q, rows)
        assert slot[1] is answer
        assert slot[0] >= held
        held = slot[0]


def _count_walks(monkeypatch):
    """Record every LR walk's arguments from now on."""
    walks = []
    real = schur._lr_walk

    def counted(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(schur, "_lr_walk", counted)
    return walks


def _cold_ranks():
    """Empty every functools cache of cb and schur, found by scanning the two
    modules, so that a new memo cannot leave a walk count warm."""
    for module in (cb, schur):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


@pytest.mark.parametrize("r, level, texts", [
    (2, 40, ("20w1",) * 6),
    (2, 11, ("[1,1]", "[5,1]", "[4,2]", "[4,1]", "[5,3]", "[5,1]")),
    (2, 12, ("[4,2]", "[4,2]", "[5,2]", "[4]", "[3,2]", "[4,4]")),
    (2, 8, ("[3]", "[3,1]", "[3,1]", "[3]", "[5,1]", "[4]")),
    (3, 7, ("[2,1]", "[2,2]", "[2,2]", "[3,2,1]", "[3,3]", "[3,2]")),
    (3, 6, ("[2]", "[1,1,1]", "[2,1]", "[3,2,1]", "[3,1]", "[3,2,1]")),
    (3, 8, ("[3,1]", "[3,1]", "[3,3]", "[3,1,1]", "[3,2,2]", "[3,2,1]")),
])
def test_classical_route_reads_the_fusion_routes_products(monkeypatch, r, level, texts):
    # one level above critical the classical route finds every LR product it
    # needs in the slots the fusion route filled, at the widest bound
    setup = BlockSetup(r, level, parse_weight_list(",".join(texts), r))
    assert critical_level(r, setup.weights) == level - 1
    _cold_ranks()
    rank = cb_rank(setup)
    walks = _count_walks(monkeypatch)
    assert coinvariant_rank(r, setup.weights) == rank
    assert walks == []


def _six_point_setups(seed=22, count=30):
    """`count` seeded sl3 and sl4 six-point setups, each one level above
    critical: sl3 rows at most 5, sl4 rows at most 3, as on `ladder`."""
    rng = random.Random(seed)
    setups = []
    while len(setups) < count:
        r, first = rng.choice(((2, 5), (3, 3)))
        ws = tuple(SlWeight(r, sorted((rng.randint(0, first) for _ in range(r)), reverse=True))
                   for _ in range(6))
        total = sum(w.size for w in ws)
        if total % (r + 1) or total // (r + 1) < max(w.row(1) for w in ws):
            continue
        setups.append(BlockSetup(r, total // (r + 1), ws))
    return setups


def test_the_split_walks_a_pinned_number_of_lr_products(monkeypatch):
    # a count, not a time: dealing the sorted diagrams alternately into the two
    # halves walks 240 products here, where the smallest n // 2 against the
    # rest largest-first walked 376; the classical route then reads every
    # product it needs from the fusion route's slots and walks none.  It was
    # 245 while trivial weights were points of the halves: five of these
    # setups carry one or two, and the rank memos' keys now leave them out
    setups = _six_point_setups()
    assert all(s.level == s.critical_level + 1 for s in setups)
    _cold_ranks()
    walks = _count_walks(monkeypatch)
    ranks = [cb_rank(s) for s in setups]
    assert len(walks) == 240
    del walks[:]
    assert [coinvariant_rank(s.r, s.weights) for s in setups] == ranks
    assert walks == []


def test_standalone_classical_route_walks_inside_its_box(monkeypatch):
    # with no fusion route before it, every product whose box binds is walked
    # boxed: reading unbounded products and filtering them is far slower on
    # long first rows
    r = 2
    ws = tuple(SlWeight(r, p) for p in ((20, 10),) * 3 + ((10,),) * 3)
    expected = _coinvariant_rank.__wrapped__(r, tuple(sorted(w.parts for w in ws)))
    _cold_ranks()
    walks = _count_walks(monkeypatch)
    binding = []       # the walks made for asks whose box binds
    real = schur._lr_mult

    def recorded(p, q, rows, width=None):
        before = len(walks)
        answer = real(p, q, rows, width)
        if width is None or sum(x[0] for x in (p, q) if x) > width:
            binding.extend(walks[before:])
        return answer

    monkeypatch.setattr(schur, "_lr_mult", recorded)
    assert coinvariant_rank(r, ws) == expected
    assert binding
    assert all(w < row(p, 1) + row(q, 1) for p, q, _, w in binding)


def test_schur_product_examples():
    assert _lr_mult((2,), (1, 1), 2) == {(3, 1): 1}
    assert _lr_mult((1,), (1,), 3) == {(2,): 1, (1, 1): 1}
    assert _lr_mult((2, 1), (), 3) == {(2, 1): 1}


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


def test_a_trivial_weight_of_the_wrong_rank_is_refused():
    # the rank key leaves trivial weights out, but every weight's rank is checked
    for ws in ((SlWeight(2, (1,)),) * 3 + (SlWeight(1, ()),), (SlWeight(3, ()),)):
        with pytest.raises(DomainError):
            coinvariant_rank(2, ws)


def test_the_rank_memo_returns_0_where_r_plus_1_does_not_divide_the_total():
    # the memo reads the box width off its key, so it owns this 0 too
    assert _coinvariant_rank.__wrapped__(1, ((1,),)) == 0
    assert _coinvariant_rank.__wrapped__(2, ((1,), (1,), (2, 1))) == 0
    assert _coinvariant_rank.__wrapped__(3, ((2, 1), (2, 2, 1), (3,))) == 0


def test_a_walk_taller_than_the_recursion_limit_is_answered():
    # the staircase times a box grows each of its rows, one per addable
    # corner (Pieri); the strips are walked on the kernel's own stack, so
    # 1501 rows, past the interpreter's default recursion limit, are answered
    for n in (500, 1500):
        rows = tuple(range(n, 0, -1)) + (0,)
        corners = {partition(rows[:i] + (rows[i] + 1,) + rows[i + 1:]) for i in range(n + 1)}
        stairs = _lr_walk(rows[:n], (1,), n + 2)
        assert len(stairs) == n + 1 and set(stairs.values()) == {1}
        assert set(stairs) == corners


def test_invariant_oracle_examples():
    w1 = SlWeight(2, (1,))
    w2 = SlWeight(2, (1, 1))
    assert invariant_oracle(2, (w1, w1, w1)) == 1
    assert invariant_oracle(1, (SlWeight(1, (1,)),) * 4) == 2
    assert invariant_oracle(2, (w1, w2)) == 1


def test_invariant_oracle_capacity():
    # (6,4,2) has dimension 729 in sl4, so the product passes 10**7 at the
    # third weight, before any convolution
    big = SlWeight(3, (6, 4, 2))
    with pytest.raises(CapacityError):
        invariant_oracle(3, (big,) * 8)


def test_coinvariant_edge_arities():
    # n = 0..3 deals (n + 1) // 2 points to the first half (parts[0::2]) and
    # n // 2 to the second (parts[1::2]): 0|0, 1|0, 1|1 and 2|1
    for r, first_row in ((1, 3), (2, 3), (3, 2)):
        pool = level_weights(r, first_row)
        assert coinvariant_rank(r, ()) == 1
        for w in pool:
            assert coinvariant_rank(r, (w,)) == (1 if w.size == 0 else 0)
        for a, b in product(pool, repeat=2):
            assert coinvariant_rank(r, (a, b)) == (1 if b == dual_star(a) else 0)
        for a, b, c in product(pool, repeat=3):
            expected = invariant_oracle(r, (a, b, c))
            assert coinvariant_rank(r, (a, b, c)) == expected
            width = coinvariant_box_width(r, (a, b, c))
            if width is None:
                continue
            # the uncached body, so that each rotation really puts a different
            # point alone in the second half
            for ws in ((a, b, c), (b, c, a), (c, a, b)):
                parts = tuple(w.parts for w in ws)
                assert _coinvariant_rank.__wrapped__(r, parts) == expected


# sl3 weights with first row at most 3 have dimension at most 15, and
# 15**5 stays under invariant_oracle's capacity of 10**7
@settings(deadline=None)
@given(weight_tuples(max_rank=2, max_level=3, max_points=5))
def test_coinvariant_matches_oracle(rlw):
    r, _, ws = rlw
    assert coinvariant_rank(r, ws) == invariant_oracle(r, ws)


def _strips_full_columns(r, parts):
    """Whether some half of the body's contraction meets a shape with r+1
    rows before its last point, so that a later product strips full columns."""
    for half in (parts[0::2], parts[1::2]):
        running = {half[0]} if half else set()
        for q in half[1:-1]:
            running = {u for p in running for u in _lr_walk(p, q, r + 1)}
            if any(len(u) == r + 1 for u in running):
                return True
    return False


@pytest.mark.parametrize("coeffs", [
    ((1, 0),) * 9,                        # (1)(1)(1) has (1,1,1)
    ((0, 1),) * 6,                        # (1,1)(1,1) has (2,1,1)
    ((2, 0),) * 3 + ((0, 2),) * 3,        # (2)(2,2) has (3,2,1) and (2,2,2)
    ((1, 1),) * 6,                        # (2,1)(2,1) has (2,2,2)
    ((1, 1), (1, 1), (0, 2), (2, 0), (1, 0), (0, 1), (1, 1)),
])
def test_coinvariant_body_matches_oracle_through_full_columns(coeffs):
    # sl3 setups whose halves multiply shapes with full columns: the body
    # multiplies their normalised shapes and adds the columns back
    ws = tuple(W(c, 2) for c in coeffs)
    parts = tuple(sorted(w.parts for w in ws))
    assert _strips_full_columns(2, parts)
    assert _coinvariant_rank.__wrapped__(2, parts) == invariant_oracle(2, ws)


@settings(deadline=None)
@given(weight_tuples(max_rank=3, max_level=3, max_points=5), st.randoms(use_true_random=False))
def test_coinvariant_permutation_invariance(rlw, rng):
    # the uncached body, so that both orders are really contracted
    r, _, ws = rlw
    shuffled = list(ws)
    rng.shuffle(shuffled)
    width = coinvariant_box_width(r, ws)
    if width is None:
        assert coinvariant_rank(r, ws) == coinvariant_rank(r, shuffled) == 0
        return
    body = _coinvariant_rank.__wrapped__
    assert body(r, tuple(w.parts for w in ws)) == body(r, tuple(w.parts for w in shuffled))


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
