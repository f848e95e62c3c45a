"""Conformal-block ranks, levels, partner transforms, and n=4 degrees.

Two independent rank algorithms are kept deliberately separate:

* cb_rank splits the marked points into two halves, contracts fusion
  matrices along each half one point at a time, and joins the two vectors
  with one dual pairing: rank = sum over mu of left[mu] * right[mu*], the
  factorization rule at the middle node.  Each fusion product is a
  classical tensor decomposition whose constituents are reflected into the
  level alcove with signs (constituents on a wall die).  The reflection
  acts on rho-shifted gl tuples; each affine step strictly decreases the
  sum of squares, so it terminates.  A constituent nu with
  nu_1 - nu_{r+1} <= level is already in the alcove (its rho-shifted tuple
  strictly decreases with spread < level + r + 1), so the fusion product
  only subtracts its last row and counts it with sign +1; the reflection
  loop sees the rest.  The contraction vectors are keyed by normalised
  parts tuples, the dual is taken on those tuples, and the cached fusion
  products (fusion_expand) are {parts: coeff} dicts.  fusion_expand's
  normal form of an in-alcove constituent, and the dual in _cb_rank's
  pairing and degree_m04's split terms (the complement in the first-row
  strip), come from young.shape_forms: memoised when the call's box, r+1
  rows by the widest first row it meets, is small, the formulas otherwise.
  The shapes that fusion_expand and _fuse store pass through
  young.share_shapes, and the LR kernel and the memos hand out the same
  table's tuples, so a shape that many entries hold is one tuple.
  degree_m04 reads each split's two-point vectors from _fuse, so it asks
  fusion_expand as the contraction does (at the clipped level, the pair in
  _fuse's order) and reuses its entries; it takes the conformal weight of
  each constituent that enters a term straight from its parts.
  Each half's vector comes from _fuse, a bounded memo keyed on (r, level,
  the whole half): setups of a search are mostly distinct, but their
  halves repeat.  The vector's keys keep the half's total size mod r+1:
  normalising removes full columns of r+1 cells, and a reflection keeps
  the sum of the gl tuple.  Since |mu*| = -|mu| mod r+1, a left mu meets a
  right mu* only when r+1 divides the whole total, so cb_rank returns 0
  without contracting when it does not, which is when the setup's critical
  level is None.  Otherwise it reads a bounded memo (_cb_rank) keyed on
  r, the level and the setup's key (young.rank_key of the weights, which
  BlockSetup.key sorts once and stores).  The memo deals the
  sorted diagrams alternately into the two halves and contracts each in
  ascending order, so neither half carries most of the cells and builds a
  wide vector.  Its classical products are unbounded, and they fill the
  LR memo's slots (schur._lr_mult); where both routes run, as in
  vanishing_report, the fusion route runs first, so the classical route
  reads those products and drops what lies outside its box instead of
  walking boxed copies.

* witten_rank evaluates one big quantum Schubert product on Gr(r+1, r+1+l)
  and reads off a single coefficient.  It passes that box as it is;
  gw_invariant moves to the box with fewer rows, Gr(l, r+1+l) with the
  classes conjugated when l < r+1.  The level class sigma_l = sigma_(n-k)
  is the generator T of the cyclic symmetry, and its conjugate (1^l) is in
  the same orbit of (), so in either box the s level classes are one
  rotation of the product, with no LR expansion.

They share no reduction code, so their agreement is evidence rather than
tautology.  On three points the split is one fusion coefficient read off by
alcove reflections against one Gromov-Witten number.

The critical level and first-row sum come from BlockSetup's own pass over
the weights.  vanishing_report and witten_rank read the classical memo
(schur._coinvariant_rank) directly under the same stored key, so a report
sorts the diagrams at most once and checks the weights' ranks only where
BlockSetup does.  VanishingReport.bound names the vanishing bound a level
lies above, if any, and VanishingReport.check_rank is the one check that a
bundle rank equals the classical rank there.  Each route makes it on its
own answer, vanishing_report on the fusion rank and witten_rank on the
quantum rank, so no caller builds a report to check a rank.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import ConsistencyError, DomainError
from .schur import _coinvariant_rank, _lr_mult
from .young import (
    BlockSetup, Partition, SlWeight, dual_star, shape_forms, share_shapes, transpose)


def level_weights(r: int, level: int) -> tuple:
    """All weights of sl_{r+1} at the given level, in lexicographic order."""
    shapes = sorted(tuple(x for x in rows if x)
                    for rows in combinations_with_replacement(range(level, -1, -1), r))
    return tuple(SlWeight(r, s) for s in shapes)


def _conformal_weight(r: int, level: int, parts: Partition) -> Fraction:
    """(lambda, lambda + 2 rho) / 2(level + r + 1) of normalised parts.

    The highest root has square 2: on gl tuples (a, b) = a.b - |a||b|/(r+1),
    and rho = (r, r-1, ..., 0), so (lambda, 2 rho) = 2 lambda.rho - r|lambda|.
    """
    size = sum(parts)
    dot = sum(x * (x + 2 * (r - i)) for i, x in enumerate(parts)) - r * size
    return Fraction(dot * (r + 1) - size * size, 2 * (r + 1) * (level + r + 1))


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


@lru_cache(maxsize=1 << 16)
def fusion_expand(r: int, level: int, p: Partition, q: Partition) -> dict[Partition, int]:
    """{parts: coeff} of the fusion product of two normalised diagrams, zeros absent.

    The dict is the cache entry itself, so callers only read it, as with
    _lr_mult.  Its shapes are the shape table's tuples (young.share_shapes),
    those made here too, by removing the last row or by _alcove_reduce.
    At every level from p[0] + q[0] up the product is the same, so _fuse
    asks each pair at min(level, p[0] + q[0]) and one entry serves all
    those levels.  The 2**16 entries bound the cache.
    """
    acc: dict[Partition, int] = {}
    rows = r + 1
    normal = shape_forms(rows, (p[0] if p else 0) + (q[0] if q else 0))[0]
    for u, mult in _lr_mult(p, q, rows).items():
        last = u[r] if len(u) > r else 0
        if not u or u[0] - last <= level:
            # rho-shifted tuple strictly decreasing with spread < level + r + 1:
            # already in the alcove, so only the last row comes off
            if last:
                u = normal(u, rows)
            acc[u] = acc.get(u, 0) + mult
            continue
        red = _alcove_reduce(u, r, level)
        if red is None:
            continue
        parts, s = red
        acc[parts] = acc.get(parts, 0) + s * mult
    return share_shapes(acc)


@lru_cache(maxsize=1 << 14)
def _fuse(r: int, level: int, parts: tuple) -> dict[Partition, int]:
    """Fusion vector {mu: multiplicity} of the diagrams `parts`, contracted
    left to right one point at a time; {(): 1} when `parts` is empty.

    The memo is keyed by the whole half, so a half that recurs across setups
    is contracted once.  The dict is the cache entry itself, so callers only
    read it, as with fusion_expand; its shapes, the seed's too, are the
    shape table's tuples.  The 2**14 entries bound the cache.
    """
    vec = share_shapes({parts[0] if parts else (): 1})
    for q in parts[1:]:
        nxt: dict[Partition, int] = {}
        # no constituent spreads wider than mu[0] + q[0], so at that level or
        # above the product is the same: one entry serves those levels
        q0 = q[0] if q else 0
        for mu, c in vec.items():
            pair = (mu, q) if mu <= q else (q, mu)
            reach = mu[0] + q0 if mu else q0
            for nu, m in fusion_expand(r, reach if reach < level else level, *pair).items():
                nxt[nu] = nxt.get(nu, 0) + c * m
        vec = nxt
    return vec


def cb_rank(setup: BlockSetup):
    """Bundle rank: deal the sorted diagrams alternately into two halves, fuse
    each into a vector and pair them at the middle node, summing
    left[mu] * right[mu*].

    When r+1 does not divide the total size no left mu meets a right mu*
    (module docstring), so the rank is 0 without contracting.  Otherwise the
    memo key is the setup's stored key, rank_key of the weights.
    """
    if setup.critical_level is None:
        return 0
    return _cb_rank(setup.r, setup.level, setup.key())


@lru_cache(maxsize=1 << 14)
def _cb_rank(r: int, level: int, parts: tuple) -> int:
    """cb_rank of the diagrams `parts`: the halves parts[0::2] and
    parts[1::2], each contracted in the order given.

    Callers pass rank_key of the weights, so each half is ascending with
    about half the cells, and () gives 1.  An empty diagram in `parts` still
    gives the right rank, as the fusion unit, but splits the memo.  Both
    half vectors come from _fuse's memo, and the pairing loops over the left
    one.  The 2**14 entries bound the cache.
    """
    left = _fuse(r, level, parts[0::2])
    right = _fuse(r, level, parts[1::2])
    rows = r + 1
    complement = shape_forms(rows, level)[1]
    total = 0
    for mu, c in left.items():
        # mu* is dual_parts(mu, r)
        total += c * right.get(complement(mu, rows, mu[0] if mu else 0), 0)
    return total


def witten_rank(setup: BlockSetup):
    """Bundle rank as one quantum Schubert coefficient on Gr(r+1, r+1+level).

    The box goes to gw_invariant as it is, and gw_invariant reads the
    coefficient in the box with fewer rows.  sigma_level = T, or its
    conjugate (1^level) in the smaller box, is a rotation of (), so the s
    level classes are one rotation.
    When s < 0 the classical rank is returned; above either bound otherwise,
    the coefficient is checked against it (VanishingReport.check_rank).
    """
    from .qgrass import GrassmannBox, gw_invariant

    c = setup.critical_level
    if c is None:
        return 0
    s = c + 1 - setup.level
    if s < 0:
        return _coinvariant_rank(setup.r, setup.key())
    k, level = setup.r + 1, setup.level
    classes = [w.parts for w in setup.weights] + [(level,)] * s
    rank = gw_invariant(GrassmannBox(k, k + level), classes, s)
    rep = VanishingReport(setup)
    if rep.bound:
        rep.check_rank(_coinvariant_rank(setup.r, setup.key()), rank, "witten")
    return rank


class VanishingReport:
    """Levels, strict-threshold flags and both ranks of one setup.

    Building one from a setup reads both levels from the setup's tally and
    sets both flags, which bound names; vanishing_report then sets the three
    rank fields, which are unset until it does; both rank routes call
    check_rank.  The theta level is built from the stored first-row sum when
    it is read, so a report whose theta level is never read builds no
    Fraction.
    """

    __slots__ = ("critical_level", "first_rows", "above_critical", "above_theta",
                 "rank_classical", "rank_cb", "ranks_equal")

    def __init__(self, setup: BlockSetup):
        c = self.critical_level = setup.critical_level
        first_rows = self.first_rows = setup.first_rows
        self.above_critical = c is not None and setup.level > c
        # level > theta_level = (first_rows - 2) / 2
        self.above_theta = 2 * setup.level > first_rows - 2

    @property
    def theta_level(self) -> Fraction:
        """-1 + half the sum of the weights' first rows (highest-root pairings)."""
        return Fraction(self.first_rows - 2, 2)

    @property
    def bound(self):
        """The vanishing bound the level lies above: "critical" when above
        the critical level, else "theta" when above the theta level, else None."""
        return "critical" if self.above_critical else "theta" if self.above_theta else None

    def check_rank(self, classical: int, rank: int, route: str) -> None:
        """Raise ConsistencyError when the `route` rank differs from the
        classical rank above either bound, where the two must agree."""
        if classical != rank and self.bound:
            raise ConsistencyError(
                f"ranks differ above a vanishing bound ({self.bound} level): "
                f"classical {classical} != {route} {rank}")


def vanishing_report(setup: BlockSetup) -> VanishingReport:
    """Levels, strict-threshold flags, and both ranks for one setup.

    Above either threshold the two ranks must agree; a disagreement raises
    ConsistencyError instead of being reported.  When r+1 does not divide the
    total size both ranks are 0 (the docstrings of coinvariant_rank and
    cb_rank), so neither route is called and no check is made.  Otherwise
    cb_rank builds the setup's key, and the classical memo
    (schur._coinvariant_rank) is read under that stored key, with no second
    sort and no second check of the weights' ranks, which BlockSetup made.
    The fusion route runs first, so the classical route finds its LR
    products in the memo and filters them to its box instead of walking
    boxed copies (schur._lr_mult).
    """
    rep = VanishingReport(setup)
    if rep.critical_level is None:
        # both ranks are 0, so they agree and there is nothing to check
        rep.rank_classical = rep.rank_cb = 0
        rep.ranks_equal = True
        return rep
    rank_v = cb_rank(setup)
    rank_a = _coinvariant_rank(setup.r, setup.key())
    rep.check_rank(rank_a, rank_v, "conformal blocks")
    rep.rank_classical, rep.rank_cb, rep.ranks_equal = rank_a, rank_v, rank_a == rank_v
    return rep


PartnerData = namedtuple(
    "PartnerData",
    "source partner rank_source rank_partner rank_classical degree_source degree_partner")
PartnerData.__doc__ = """A setup, its transpose partner, the three ranks of the identity,
and the two four-point degrees of its check (None unless the source has four
points and sits at its critical level)."""


def partner(setup: BlockSetup, force: bool = False) -> PartnerData:
    """Transpose-side setup at swapped parameters, with the rank identity.

    The source must sit exactly at its critical level; `force` skips that
    precondition.  The source and classical ranks come from one checked
    vanishing_report.  Whenever the source is at its critical level, forced
    or not, rank_source + rank_partner must equal rank_classical, and on
    four points the degree on the four-point line must equal the partner's;
    a failure raises ConsistencyError.
    """
    c = setup.critical_level
    at_critical = (c == setup.level)
    if not force and not at_critical:
        shown = c if c is not None else "undefined (r+1 does not divide the total size)"
        raise DomainError(f"level {setup.level} ≠ critical level {shown}")
    flipped = tuple(transpose(w, setup.level) for w in setup.weights)
    other = BlockSetup(setup.level, setup.r, flipped)
    rep = vanishing_report(setup)
    rank_source, rank_classical = rep.rank_cb, rep.rank_classical
    rank_partner = cb_rank(other)
    if at_critical and rank_source + rank_partner != rank_classical:
        raise ConsistencyError(
            f"rank identity failed: {rank_source} + {rank_partner} != {rank_classical}")
    degree_source = degree_partner = None
    if at_critical and setup.n == 4:
        degree_source = degree_m04(setup).degree
        degree_partner = degree_m04(other).degree
        if degree_source != degree_partner:
            raise ConsistencyError(
                "degree identity failed at the critical level: "
                f"{degree_source} != {degree_partner}")
    return PartnerData(setup, other, rank_source, rank_partner, rank_classical,
                       degree_source, degree_partner)


def factorization_rank(setup: BlockSetup, subset) -> int:
    """Rank recomputed through one boundary stratum: attach a weight mu to the
    marked points in `subset` (1-based) and mu* to the rest, sum over mu."""
    idx = sorted(set(subset))
    if not idx or len(idx) == len(setup.weights):
        raise DomainError("subset must be a proper non-empty part of the points")
    if idx[0] < 1 or idx[-1] > len(setup.weights):
        raise DomainError(f"subset {idx} out of range 1..{len(setup.weights)}")
    inside = tuple(setup.weights[i - 1] for i in idx)
    chosen = set(idx)
    outside = tuple(w for i, w in enumerate(setup.weights, start=1) if i not in chosen)
    total = 0
    for mu in level_weights(setup.r, setup.level):
        left = cb_rank(BlockSetup(setup.r, setup.level, inside + (mu,)))
        if not left:
            continue
        right = cb_rank(BlockSetup(setup.r, setup.level, outside + (dual_star(mu),)))
        total += left * right
    return total


DegreeBreakdown = namedtuple("DegreeBreakdown", "degree bulk_term pairing_terms")
DegreeBreakdown.__doc__ = """Degree on the four-point line, its bulk term and its three
split terms (one Fraction per two-plus-two split, in the order of _SPLITS)."""


# splits of four points, as ((a,b),(c,d)) index pairs into the weight tuple
_SPLITS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def degree_m04(setup: BlockSetup) -> DegreeBreakdown:
    """Degree of the bundle's determinant on the four-point moduli line.

    bulk = rank * sum of conformal weights; each split subtracts the
    conformal weights propagating through its node, weighted by the two
    three-point ranks.  The difference must come out a non-negative integer,
    and 0 above the critical or theta level (the rank comes from
    vanishing_report, which checks both ranks there too).
    """
    if setup.n != 4:
        raise DomainError(f"need exactly 4 weights, got {setup.n}")
    r, level = setup.r, setup.level
    rep = vanishing_report(setup)
    parts = [w.parts for w in setup.weights]
    bulk = rep.rank_cb * sum(_conformal_weight(r, level, p) for p in parts)
    pairings = []
    complement = shape_forms(r + 1, level)[1]
    for (ia, ib), (ic, id_) in _SPLITS:
        ab = _fuse(r, level, (parts[ia], parts[ib]))
        term = Fraction(0)
        for mu, n_cd in _fuse(r, level, (parts[ic], parts[id_])).items():
            # mu* is dual_parts(mu, r)
            n_ab = ab.get(complement(mu, r + 1, mu[0] if mu else 0), 0)
            if n_ab:
                term += _conformal_weight(r, level, mu) * n_ab * n_cd
        pairings.append(term)
    total = bulk - sum(pairings)
    if total.denominator != 1:
        raise ConsistencyError(f"degree came out non-integral: {total}")
    if total < 0:
        raise ConsistencyError(f"degree came out negative: {total}")
    if total and rep.bound:
        raise ConsistencyError(f"degree {total} != 0 above a vanishing bound ({rep.bound} level)")
    return DegreeBreakdown(int(total), bulk, tuple(pairings))
