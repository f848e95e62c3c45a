"""Conformal-block ranks, levels, partner transforms, and n=4 degrees.

Two independent rank algorithms are kept deliberately separate:

* cb_rank contracts fusion matrices along a path, one marked point at a
  time.  Each fusion product is a classical tensor decomposition whose
  constituents are reflected into the level alcove with signs (constituents
  on a wall die).  The reflection acts on rho-shifted gl tuples; each affine
  step strictly decreases the sum of squares, so it terminates.  The
  contraction vector is keyed by normalised parts tuples, and the cached
  fusion products hold ((parts, coeff), ...); SlWeight objects appear only
  at the public fusion_expand boundary and for the final dual lookup.

* witten_rank evaluates one big quantum Schubert product on Gr(r+1, r+1+l)
  and reads off a single coefficient.

They share no reduction code, so their agreement is evidence rather than
tautology.  The same split exists at three points: kac_walton_fusion (alcove
reflections) against fusion_coefficient (one Gromov-Witten number).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence

from .errors import ConsistencyError, DomainError
from .qgrass import GrassmannBox, gw_invariant
from .schur import _lr_mult, coinvariant_rank
from .young import Partition, SlWeight, dual_star, fits_level, theta_pairing, transpose


@dataclass(frozen=True)
class BlockSetup:
    """One bundle: algebra sl_{r+1}, level, and a tuple of alcove weights."""

    r: int
    level: int
    weights: tuple

    def __post_init__(self):
        if self.level < 1:
            raise DomainError(f"level must be positive, got {self.level}")
        ws = tuple(self.weights)
        for w in ws:
            if not isinstance(w, SlWeight) or w.rank != self.r:
                raise DomainError(f"{w} is not an sl_{self.r + 1} weight")
            if not fits_level(w, self.level):
                raise DomainError(
                    f"weight {w} has first row {theta_pairing(w)} > level {self.level}")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)


def _box_partitions(rows: int, width: int):
    if rows == 0:
        yield ()
        return
    for first in range(width + 1):
        for rest in _box_partitions(rows - 1, first):
            out = (first,) + rest
            while out and out[-1] == 0:
                out = out[:-1]
            yield out


@lru_cache(maxsize=None)
def level_weights(r: int, level: int) -> tuple:
    """All weights of sl_{r+1} at the given level, in lexicographic order."""
    shapes = sorted(set(_box_partitions(r, level)))
    return tuple(SlWeight(r, s) for s in shapes)


def _inner(r: int, a: Sequence[int], b: Sequence[int]) -> Fraction:
    dot = sum(x * y for x, y in zip(a, b))
    return Fraction(dot) - Fraction(sum(a) * sum(b), r + 1)


def casimir(r: int, w: SlWeight) -> Fraction:
    """(lambda, lambda + 2 rho) in the normalization where the highest root has square 2."""
    if w.rank != r:
        raise DomainError(f"{w} is not an sl_{r + 1} weight")
    lam = [w.row(a) for a in range(1, r + 2)]
    rho = list(range(r, -1, -1))
    return _inner(r, lam, lam) + 2 * _inner(r, lam, rho)


def conformal_weight(r: int, level: int, w: SlWeight) -> Fraction:
    if not fits_level(w, level):
        raise DomainError(
            f"weight {w} has first row {theta_pairing(w)} > level {level}")
    return casimir(r, w) / (2 * (level + r + 1))


def _alcove_reduce(diagram: Partition, r: int, level: int):
    """Reflect a classical constituent into the level alcove.

    Returns (normalised parts, sign) or None when some reflection hyperplane
    is hit.
    """
    m = level + r + 1
    a = [x + r - i for i, x in enumerate(diagram + (0,) * (r + 1 - len(diagram)))]
    sign = 1
    while True:
        # insertion sort into descending order; each shift is one inversion
        for i in range(1, r + 1):
            x = a[i]
            j = i
            while j and a[j - 1] < x:
                a[j] = a[j - 1]
                j -= 1
                sign = -sign
            if j and a[j - 1] == x:
                return None
            a[j] = x
        spread = a[0] - a[-1]
        if spread < m:
            break
        if spread == m:
            return None
        a[0], a[-1] = a[-1] + m, a[0] - m
        sign = -sign
    last = a[-1]
    parts = [a[i] - (r - i) - last for i in range(r)]
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts), sign


@lru_cache(maxsize=None)
def _fusion_expand_cached(r: int, level: int, p: Partition, q: Partition) -> tuple:
    """((parts, coeff), ...) of the fusion product of two normalised diagrams."""
    acc: Dict[Partition, int] = {}
    for u, mult in _lr_mult(p, q, r + 1).items():
        red = _alcove_reduce(u, r, level)
        if red is None:
            continue
        parts, s = red
        acc[parts] = acc.get(parts, 0) + s * mult
    return tuple(sorted((parts, c) for parts, c in acc.items() if c))


def fusion_expand(r: int, level: int, a: SlWeight, b: SlWeight) -> Dict[SlWeight, int]:
    """Full fusion product of two alcove weights (alcove-reflection route)."""
    for w in (a, b):
        if w.rank != r or not fits_level(w, level):
            raise DomainError(f"{w} is not a level-{level} weight of sl_{r + 1}")
    p, q = sorted((a.parts, b.parts))
    return {SlWeight(r, parts): c
            for parts, c in _fusion_expand_cached(r, level, p, q)}


def kac_walton_fusion(r: int, level: int, a: SlWeight, b: SlWeight, c: SlWeight) -> int:
    """Three-point rank by alcove reflections: coefficient of c* in a x b."""
    if c.rank != r or not fits_level(c, level):
        raise DomainError(f"{c} is not a level-{level} weight of sl_{r + 1}")
    return fusion_expand(r, level, a, b).get(dual_star(c), 0)


def fusion_coefficient(r: int, level: int, a: SlWeight, b: SlWeight, c: SlWeight) -> int:
    """Three-point rank as one Gromov-Witten number on Gr(r+1, r+1+level)."""
    for w in (a, b, c):
        if w.rank != r or not fits_level(w, level):
            raise DomainError(f"{w} is not a level-{level} weight of sl_{r + 1}")
    total = a.size + b.size + c.size
    if total % (r + 1):
        return 0
    s = total // (r + 1) - level
    if s < 0:
        return coinvariant_rank(r, (a, b, c))
    box = GrassmannBox(r + 1, r + 1 + level)
    classes = [a.parts, b.parts, c.parts] + [(level,)] * s
    return gw_invariant(box, classes, s)


def cb_rank(setup: BlockSetup):
    """Bundle rank by contracting fusion matrices along a path of points."""
    ws = setup.weights
    if not ws:
        return 1
    if len(ws) == 1:
        return 1 if ws[0].size == 0 else 0
    r, level = setup.r, setup.level
    vec = {ws[0].parts: 1}
    for w in ws[1:-1]:
        q = w.parts
        nxt: Dict[Partition, int] = {}
        for mu, c in vec.items():
            pair = (mu, q) if mu <= q else (q, mu)
            for nu, m in _fusion_expand_cached(r, level, *pair):
                nxt[nu] = nxt.get(nu, 0) + c * m
        vec = nxt
    return vec.get(dual_star(ws[-1]).parts, 0)


def witten_rank(setup: BlockSetup):
    """Bundle rank as one quantum Schubert coefficient on Gr(r+1, r+1+level)."""
    total = sum(w.size for w in setup.weights)
    if total % (setup.r + 1):
        return 0
    s = total // (setup.r + 1) - setup.level
    if s < 0:
        return coinvariant_rank(setup.r, setup.weights)
    box = GrassmannBox(setup.r + 1, setup.r + 1 + setup.level)
    classes = [w.parts for w in setup.weights] + [(setup.level,)] * s
    return gw_invariant(box, classes, s)


def critical_level(r: int, weights: Sequence[SlWeight]) -> Optional[int]:
    """-1 + (total size)/(r+1) when that is an integer, else None."""
    total = sum(w.size for w in weights)
    if total % (r + 1):
        return None
    return total // (r + 1) - 1


def theta_level(r: int, weights: Sequence[SlWeight]) -> Fraction:
    """-1 + half the sum of highest-root pairings; an exact half-integer."""
    return Fraction(sum(theta_pairing(w) for w in weights), 2) - 1


@dataclass(frozen=True)
class VanishingReport:
    critical_level: Optional[int]
    theta_level: Fraction
    above_critical: bool
    above_theta: bool
    rank_classical: int
    rank_cb: int
    ranks_equal: bool


def vanishing_report(setup: BlockSetup) -> VanishingReport:
    """Levels, strict-threshold flags, and both ranks for one setup.

    Above either threshold the two ranks must agree; a disagreement raises
    ConsistencyError instead of being reported.
    """
    c = critical_level(setup.r, setup.weights)
    t = theta_level(setup.r, setup.weights)
    rank_a = coinvariant_rank(setup.r, setup.weights)
    rank_v = cb_rank(setup)
    above_critical = c is not None and setup.level > c
    above_theta = Fraction(setup.level) > t
    if (above_critical or above_theta) and rank_a != rank_v:
        bound = "critical" if above_critical else "theta"
        raise ConsistencyError(
            f"ranks differ above a vanishing bound ({bound} level): "
            f"classical {rank_a} != conformal blocks {rank_v}")
    return VanishingReport(
        critical_level=c,
        theta_level=t,
        above_critical=above_critical,
        above_theta=above_theta,
        rank_classical=rank_a,
        rank_cb=rank_v,
        ranks_equal=(rank_a == rank_v),
    )


@dataclass(frozen=True)
class PartnerData:
    source: BlockSetup
    partner: BlockSetup
    rank_source: int
    rank_partner: int
    rank_classical: int


def partner(setup: BlockSetup, force: bool = False) -> PartnerData:
    """Transpose-side setup at swapped parameters, with the rank identity.

    The source must sit exactly at its critical level; `force` bypasses the
    check (and then the identity between the three ranks is not enforced).
    """
    c = critical_level(setup.r, setup.weights)
    at_critical = (c == setup.level)
    if not force and not at_critical:
        shown = c if c is not None else "undefined (r+1 does not divide the total size)"
        raise DomainError(f"level {setup.level} ≠ critical level {shown}")
    flipped = tuple(transpose(w, setup.level) for w in setup.weights)
    other = BlockSetup(setup.level, setup.r, flipped)
    rank_source = cb_rank(setup)
    rank_partner = cb_rank(other)
    rank_classical = coinvariant_rank(setup.r, setup.weights)
    if at_critical and not force and rank_source + rank_partner != rank_classical:
        raise ConsistencyError(
            f"rank identity failed: {rank_source} + {rank_partner} != {rank_classical}")
    return PartnerData(setup, other, rank_source, rank_partner, rank_classical)


def factorization_rank(setup: BlockSetup, subset) -> int:
    """Rank recomputed through one boundary stratum: attach a weight mu to the
    marked points in `subset` (1-based) and mu* to the rest, sum over mu."""
    idx = sorted(set(subset))
    if not idx or len(idx) == len(setup.weights):
        raise DomainError("subset must be a proper non-empty part of the points")
    if idx[0] < 1 or idx[-1] > len(setup.weights):
        raise DomainError(f"subset {idx} out of range 1..{len(setup.weights)}")
    inside = tuple(setup.weights[i - 1] for i in idx)
    outside = tuple(w for i, w in enumerate(setup.weights, start=1) if i not in set(idx))
    total = 0
    for mu in level_weights(setup.r, setup.level):
        left = cb_rank(BlockSetup(setup.r, setup.level, inside + (mu,)))
        if not left:
            continue
        right = cb_rank(BlockSetup(setup.r, setup.level, outside + (dual_star(mu),)))
        total += left * right
    return total


@dataclass(frozen=True)
class DegreeBreakdown:
    degree: int
    bulk_term: Fraction
    pairing_terms: tuple  # one Fraction per two-plus-two split, fixed order


# splits of four points, as ((a,b),(c,d)) index pairs into the weight tuple
_SPLITS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def degree_m04(r: int, level: int, weights: Sequence[SlWeight]) -> DegreeBreakdown:
    """Degree of the bundle's determinant on the four-point moduli line.

    bulk = rank * sum of conformal weights; each split subtracts the
    conformal weights propagating through its node, weighted by the two
    three-point ranks.  The difference must come out a non-negative integer.
    """
    ws = tuple(weights)
    if len(ws) != 4:
        raise DomainError(f"need exactly 4 weights, got {len(ws)}")
    setup = BlockSetup(r, level, ws)
    rank = cb_rank(setup)
    bulk = rank * sum(conformal_weight(r, level, w) for w in ws)
    pairings = []
    for (ia, ib), (ic, id_) in _SPLITS:
        ab = fusion_expand(r, level, ws[ia], ws[ib])
        cd = fusion_expand(r, level, ws[ic], ws[id_])
        term = Fraction(0)
        for mu in level_weights(r, level):
            n_ab = ab.get(dual_star(mu), 0)
            if not n_ab:
                continue
            n_cd = cd.get(mu, 0)
            if not n_cd:
                continue
            term += conformal_weight(r, level, mu) * n_ab * n_cd
        pairings.append(term)
    total = bulk - sum(pairings)
    if total.denominator != 1:
        raise ConsistencyError(f"degree came out non-integral: {total}")
    if total < 0:
        raise ConsistencyError(f"degree came out negative: {total}")
    return DegreeBreakdown(int(total), bulk, tuple(pairings))
