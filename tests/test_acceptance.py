"""End-to-end suite: one test per shipped guarantee, at documented scales.

Every test here re-derives its inputs from a private seeded generator, so a
red line points at the broken guarantee rather than at a shared fixture.
Run with -v to get one pass/fail line per guarantee.
"""

import io
import itertools
import json
import random
import time
from fractions import Fraction
from functools import lru_cache

from cblocks.cb import (
    BlockSetup,
    cb_rank,
    critical_level,
    degree_m04,
    factorization_rank,
    fusion_coefficient,
    kac_walton_fusion,
    level_weights,
    partner,
    theta_level,
    vanishing_report,
    witten_rank,
)
from cblocks.cli import run
from cblocks.errors import CapacityError, DomainError
from cblocks.nefgeo import (
    FCurve,
    contracts_theta,
    contracts_typeA,
    hassett_contracts,
    hassett_weights_theta,
    hassett_weights_typeA,
)
from cblocks.qgrass import GrassmannBox, QClass, gw_invariant, quantum_product
from cblocks.schur import (
    SchurExpansion,
    coinvariant_rank,
    invariant_oracle,
    schur_product_bounded,
)
from cblocks.young import SlWeight, conjugate, dual_star, parse_weight_list, transpose

# (r, level, diagrams, rank_classical, rank_cb, rank_transpose)
ROWS = (
    (2, 1, ((1,),) * 6, 5, 1, 4),
    (2, 1, ((1,), (1,), (1, 1), (1, 1)), 2, 1, 1),
    (3, 3, ((1,), (3, 1, 1), (3, 1, 1), (3, 1, 1)), 2, 1, 1),
    (2, 5, ((3, 1), (1, 1), (2,), (2, 2), (3, 3)), 7, 7, 0),
    (2, 4, ((3, 1), (1, 1), (2,), (2, 2), (2, 1)), 9, 8, 1),
    (3, 3, ((2, 2, 1), (1,), (3, 2), (3, 1, 1)), 2, 1, 1),
    (3, 4, ((1,), (4, 2, 1), (4, 1, 1), (4, 1, 1)), 2, 1, 1),
    (3, 4, ((2, 1, 1), (4, 2), (4, 2), (4,)), 4, 1, 3),
    (2, 5, ((2,),) * 6 + ((1, 1), (2, 2)), 150, 136, 14),
)


@lru_cache(maxsize=None)
def all_partitions(max_rows, max_size, max_first=None):
    """Every partition with at most max_rows rows and total at most max_size."""
    cap = max_size if max_first is None else min(max_size, max_first)
    out = [()]

    def grow(prefix, budget, width):
        for part in range(min(width, budget), 0, -1):
            nxt = prefix + (part,)
            out.append(nxt)
            if len(nxt) < max_rows:
                grow(nxt, budget - part, part)

    grow((), max_size, cap)
    return tuple(out)


def random_setup(rng, max_rank=3, max_level=4, min_n=3, max_n=6, max_size=6):
    r = rng.randint(1, max_rank)
    level = rng.randint(1, max_level)
    n = rng.randint(min_n, max_n)
    pool = all_partitions(r, max_size, level)
    ws = tuple(SlWeight(r, rng.choice(pool)) for _ in range(n))
    return BlockSetup(r, level, ws)


def critical_tuples(rng, count, max_rank=3, max_n=6, max_size=6):
    """(r, c, weights) with c the critical level and every weight inside it."""
    found = []
    while len(found) < count:
        r = rng.randint(1, max_rank)
        n = rng.randint(3, max_n)
        pool = all_partitions(r, max_size)
        ws = tuple(SlWeight(r, rng.choice(pool)) for _ in range(n))
        c = critical_level(r, ws)
        if c is None or c < 1:
            continue
        if any(w.parts and w.parts[0] > c for w in ws):
            continue
        found.append((r, c, ws))
    return found


def four_blocks(n):
    """All partitions of {1..n} into 4 non-empty blocks."""
    items = list(range(1, n + 1))

    def rec(i, blocks):
        if i == len(items):
            if len(blocks) == 4:
                yield tuple(frozenset(b) for b in blocks)
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([x])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def test_01_reference_table_exact():
    started = time.perf_counter()
    for r, level, diagrams, rk_a, rk_v, rk_t in ROWS:
        ws = tuple(SlWeight(r, p) for p in diagrams)
        assert coinvariant_rank(r, ws) == rk_a
        assert cb_rank(BlockSetup(r, level, ws)) == rk_v
        flipped = tuple(transpose(w, level) for w in ws)
        assert cb_rank(BlockSetup(level, r, flipped)) == rk_t
    assert time.perf_counter() - started < 60.0


def test_02_degree_column_exact():
    degrees = [
        degree_m04(r, level, tuple(SlWeight(r, p) for p in diagrams)).degree
        for r, level, diagrams, *_ in ROWS
        if len(diagrams) == 4
    ]
    assert degrees == [1, 0, 0, 0, 1]


def test_03_partner_ranks_add_up_to_classical():
    rng = random.Random(303)
    for r, c, ws in critical_tuples(rng, 200):
        data = partner(BlockSetup(r, c, ws))
        assert data.rank_source + data.rank_partner == data.rank_classical


def test_04_classical_count_splits_into_two_quantum_counts():
    rng = random.Random(404)
    for r, c, ws in critical_tuples(rng, 100):
        diagrams = [w.parts for w in ws]
        classical = gw_invariant(GrassmannBox(r + 1, r + c + 2), diagrams, 0)
        assert classical == coinvariant_rank(r, ws)
        left = gw_invariant(GrassmannBox(r + 1, r + c + 1), diagrams + [(c,)], 1)
        right = gw_invariant(
            GrassmannBox(c + 1, r + c + 1),
            [conjugate(p) for p in diagrams] + [(r,)], 1)
        assert classical == left + right


def test_05_vanishing_above_either_bound():
    rng = random.Random(505)
    above_critical = above_theta = 0
    for _ in range(500):
        report = vanishing_report(random_setup(rng))
        assert report.rank_cb <= report.rank_classical
        if report.above_critical:
            above_critical += 1
            assert report.ranks_equal
        if report.above_theta:
            above_theta += 1
            assert report.ranks_equal
    # the implications must actually fire, not hold vacuously
    assert above_critical >= 50 and above_theta >= 50


def test_06_both_fusion_routes_and_both_rank_routes_agree():
    for r, levels in ((1, (1, 2, 3, 4)), (2, (1, 2, 3)), (3, (1, 2))):
        for level in levels:
            pool = level_weights(r, level)
            for a, b, c in itertools.product(pool, repeat=3):
                assert (fusion_coefficient(r, level, a, b, c)
                        == kac_walton_fusion(r, level, a, b, c))
    rng = random.Random(606)
    for _ in range(300):
        setup = random_setup(rng)
        assert cb_rank(setup) == witten_rank(setup)


def test_07_coinvariants_match_the_character_oracle():
    rng = random.Random(707)
    checked = 0
    while checked < 100:
        r = rng.randint(1, 2)
        n = rng.randint(3, 5)
        pool = all_partitions(r, 4)
        ws = tuple(SlWeight(r, rng.choice(pool)) for _ in range(n))
        try:
            expected = invariant_oracle(r, ws)
        except CapacityError:
            continue
        assert coinvariant_rank(r, ws) == expected
        checked += 1


def test_08_symmetry_suites():
    rng = random.Random(808)
    for _ in range(60):
        setup = random_setup(rng)
        reference = cb_rank(setup)
        shuffled = list(setup.weights)
        rng.shuffle(shuffled)
        assert cb_rank(BlockSetup(setup.r, setup.level, tuple(shuffled))) == reference
        dualized = tuple(dual_star(w) for w in setup.weights)
        assert cb_rank(BlockSetup(setup.r, setup.level, dualized)) == reference
    for _ in range(40):
        setup = random_setup(rng, min_n=4, max_n=4)
        dualized = tuple(dual_star(w) for w in setup.weights)
        assert (degree_m04(setup.r, setup.level, dualized).degree
                == degree_m04(setup.r, setup.level, setup.weights).degree)
    # classical ranks across the transposed box: all small instances ...
    for r, level in ((1, 1), (1, 2), (2, 1), (2, 2)):
        pool = level_weights(r, level)
        for n in (3, 4):
            for combo in itertools.combinations_with_replacement(pool, n):
                if sum(w.size for w in combo) != (r + 1) * (level + 1):
                    continue
                flipped = tuple(transpose(w, level) for w in combo)
                assert coinvariant_rank(r, combo) == coinvariant_rank(level, flipped)
    # ... plus randomized larger ones
    for r, c, ws in critical_tuples(rng, 100):
        flipped = tuple(transpose(w, c) for w in ws)
        assert coinvariant_rank(r, ws) == coinvariant_rank(c, flipped)


def test_09_theta_level_is_the_average():
    rng = random.Random(909)
    averaged = 0
    while averaged < 100:
        r = rng.randint(1, 3)
        n = rng.randint(3, 6)
        pool = all_partitions(r, 6)
        ws = tuple(SlWeight(r, rng.choice(pool)) for _ in range(n))
        c_here = critical_level(r, ws)
        if c_here is None:
            continue
        dualized = tuple(dual_star(w) for w in ws)
        c_there = critical_level(r, dualized)
        assert c_there is not None
        assert theta_level(r, ws) == Fraction(c_here + c_there, 2)
        averaged += 1
    for _ in range(100):
        r = rng.randint(1, 3)
        pool = all_partitions(r, 6)
        half = tuple(SlWeight(r, rng.choice(pool)) for _ in range(rng.randint(1, 3)))
        ws = half + tuple(dual_star(w) for w in half)
        c = critical_level(r, ws)
        assert c is not None
        assert theta_level(r, ws) == c


def test_10_rank_factorizes_across_every_splitting():
    rng = random.Random(1010)
    for _ in range(100):
        setup = random_setup(rng, max_rank=2, max_level=3, max_size=4)
        expected = cb_rank(setup)
        points = range(1, setup.n + 1)
        for size in range(1, setup.n):
            for subset in itertools.combinations(points, size):
                assert factorization_rank(setup, subset) == expected


def test_11_hassett_weights_contract_every_collapsed_fcurve():
    row9 = tuple(SlWeight(2, p) for p in ROWS[8][2])
    cases = [(2, 5, row9)]
    rng = random.Random(1111)
    while len(cases) < 60:
        r = rng.randint(1, 2)
        level = rng.randint(1, 3)
        n = rng.randint(4, 8)
        pool = [p for p in all_partitions(r, r + level, level) if p]
        cases.append((r, level,
                      tuple(SlWeight(r, rng.choice(pool)) for _ in range(n))))
    seen_a = seen_t = fired = 0
    for r, level, ws in cases:
        curves = [FCurve(blocks) for blocks in four_blocks(len(ws))]
        try:
            hw = hassett_weights_typeA(r, level, ws)
        except DomainError:
            hw = None
        if hw is not None:
            seen_a += 1
            for f in curves:
                if hassett_contracts(hw, f):
                    fired += 1
                    assert contracts_typeA(r, level, ws, f)
        try:
            hw = hassett_weights_theta(level, ws)
        except DomainError:
            continue
        seen_t += 1
        for f in curves:
            if hassett_contracts(hw, f):
                fired += 1
                assert contracts_theta(level, ws, f)
    assert seen_a >= 30 and seen_t >= 30 and fired > 0


def test_12_quantum_ring_sanity():
    rng = random.Random(1212)
    for _ in range(40):
        k = rng.randint(1, 3)
        points = rng.randint(k + 1, 7)
        box = GrassmannBox(k, points)
        pool = all_partitions(k, k * box.width, box.width)
        pa, pb, pc = (rng.choice(pool) for _ in range(3))
        a, b, c = (QClass(box, {(p, 0): 1}) for p in (pa, pb, pc))
        left = quantum_product(quantum_product(a, b), c)
        right = quantum_product(a, quantum_product(b, c))
        assert left == right
        degree_zero = {p: m for (p, q), m in quantum_product(a, b).terms if q == 0}
        cup_full = schur_product_bounded(
            SchurExpansion.of(pa, k), SchurExpansion.of(pb, k))
        cup = {p: m for p, m in cup_full.as_dict().items()
               if not p or p[0] <= box.width}
        assert degree_zero == cup
    for _ in range(30):
        k = rng.randint(1, 3)
        points = rng.randint(k + 1, 7)
        box = GrassmannBox(k, points)
        pool = all_partitions(k, k * box.width, box.width)
        classes = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        for d in range(3):
            assert gw_invariant(box, classes, d) >= 0


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_13_cli_contract():
    code, out, _ = invoke("table")
    assert code == 0
    assert "FAIL" not in out
    assert out.rstrip().endswith("cells failing: 0")
    code, out, _ = invoke("rank", "--r", "2", "--level", "1",
                          "--weights", "w1,w1,w1,w1,w1,w1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert doc["results"]["rank_cb"] == "1"
    assert doc["results"]["rank_classical"] == "5"
    assert invoke("rank", "--r", "2", "--weights", "w1")[0] == 1
    code, _, err = invoke("partner", "--r", "2", "--level", "3",
                          "--weights", "w1,w1,w1")
    assert code == 2
    assert err == "level 3 ≠ critical level 0\n"


def test_14_both_rank_routes_at_user_scale():
    # sl5, ten points, level 6: a case of the size users run, not a toy input
    ws = parse_weight_list(
        "w1+w2+w4,w1+2w4,3w1+w2+w4,3w1+w3+w4,2w1,w2+2w3+3w4,w1+w2,3w1+w2,4w1+w2+w4,5w1", 4)
    assert cb_rank(BlockSetup(4, 6, ws)) == 62672177
    assert coinvariant_rank(4, ws) == 215577913584
