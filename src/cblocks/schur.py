"""Classical tensor-product combinatorics for sl_{r+1}.

Littlewood-Richardson numbers are computed by walking chains of horizontal
strips subject to the ballot condition: when the cells of letter i are added,
the count of i's in rows 1..j may not exceed the count of (i-1)'s in rows
1..j-1.  Products of Schur functions in a bounded number of variables drop
every shape with too many rows at each step, which keeps intermediate
expansions inside the world the rank computations live in.

The kernel _lr_mult works on plain row tuples padded to the row bound.  For
each (shape, previous strip) state it computes every row's cap once (the
old row above it, and the optional `outer` shape), then enumerates the
letter's strips row by row into a list, cutting a branch as soon as the cells
still to place exceed what the remaining rows can hold.  Passing `outer`
keeps only constituents inside it, and clips every intermediate shape too:
this is the skew bound of lrcalc-style enumerators, and exact because a
product never shrinks a shape.

The coinvariant rank of a weight tuple is extracted from such a bounded
product via the box-complement trick, with the complement as the `outer`
shape of every step; invariant_oracle recomputes it by a deliberately
different route (weight-multiplicity convolution followed by a Weyl
alternating sum) and exists so the two can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from operator import add
from typing import Dict, Optional, Sequence

from .errors import CapacityError, DomainError
from .young import Partition, SlWeight, complement_in_box, partition, row


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
        hi = caps[j]
        if remaining < hi:
            hi = remaining
        if slack < hi:
            hi = slack
        lo = remaining - suffix[j + 1]
        if lo < 0:
            lo = 0
        for c in range(hi, lo - 1, -1):
            counts[j] = c
            if c == remaining:
                out.append(tuple(counts))
            else:
                place(j + 1, remaining - c, slack - c + prev[j])
        counts[j] = 0

    place(0, amount, slack)


@lru_cache(maxsize=None)
def _lr_mult(p: Partition, q: Partition, row_bound: int,
             outer: Optional[Partition] = None) -> Dict[Partition, int]:
    """Expansion of s_p * s_q in Schur functions of `row_bound` variables.

    With `outer`, only the constituents contained in that shape are kept;
    every intermediate shape is clipped to it as well.
    """
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
    # the first letter has no ballot limit: give it all its cells as slack
    states = {(p + (0,) * (rows - len(p)), (0,) * rows): 1}
    slack = q[0] if q else 0
    for m in q:
        nxt = {}
        for (shape, prev), mult in states.items():
            if slack + sum(prev[:-1]) < m:    # the ballot limit leaves too little room
                continue
            # row j may grow to the lower of the old row above it and bound[j]
            caps = [(a if a < b else b) - s for a, b, s in zip(bound[:1] + shape, bound, shape)]
            strips = []
            _add_strips(caps, m, prev, slack, strips)
            for cnt in strips:
                key = (tuple(map(add, shape, cnt)), cnt)
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
        slack = 0
    out: Dict[Partition, int] = {}
    for (shape, _), mult in states.items():
        while shape and not shape[-1]:
            shape = shape[:-1]
        out[shape] = out.get(shape, 0) + mult
    return out


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson number c^nu_{lam,mu}; 0 on any mismatch."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if any(row(lam, a) > row(nu, a) for a in range(1, len(lam) + 1)):
        return 0
    return _lr_mult(lam, mu, max(len(nu), 1), nu).get(nu, 0)


@dataclass(frozen=True)
class SchurExpansion:
    """Non-negative integer combination of Schur classes in row_bound variables."""

    terms: tuple          # sorted ((partition, coeff), ...), zero terms absent
    row_bound: int

    def __post_init__(self):
        norm = tuple(sorted((partition(p), int(c)) for p, c in dict(self.terms).items() if c))
        for p, c in norm:
            if len(p) > self.row_bound:
                raise DomainError(f"{p} exceeds row bound {self.row_bound}")
            if c < 0:
                raise DomainError(f"negative coefficient {c} for {p}")
        object.__setattr__(self, "terms", norm)

    @classmethod
    def of(cls, p, row_bound: int) -> "SchurExpansion":
        return cls(((partition(p), 1),), row_bound)

    @classmethod
    def unit(cls, row_bound: int) -> "SchurExpansion":
        return cls((((), 1),), row_bound)

    def coefficient(self, p) -> int:
        return dict(self.terms).get(partition(p), 0)

    def as_dict(self) -> Dict[Partition, int]:
        return dict(self.terms)


def schur_product_bounded(a: SchurExpansion, b: SchurExpansion) -> SchurExpansion:
    """Product expansion, discarding shapes taller than the shared row bound."""
    if a.row_bound != b.row_bound:
        raise DomainError(f"row bounds differ: {a.row_bound} vs {b.row_bound}")
    acc: Dict[Partition, int] = {}
    for p, cp in a.terms:
        for q, cq in b.terms:
            for u, m in _lr_mult(p, q, a.row_bound).items():
                acc[u] = acc.get(u, 0) + cp * cq * m
    return SchurExpansion(tuple(acc.items()), a.row_bound)


def _check_ranks(r: int, weights: Sequence[SlWeight]):
    for w in weights:
        if w.rank != r:
            raise DomainError(f"weight {w} is not an sl_{r + 1} weight")


def coinvariant_rank(r: int, weights: Sequence[SlWeight]):
    """Rank of the sl_{r+1} coinvariant space of the tensor product.

    Degenerate inputs (total size not divisible by r+1, or some first row too
    long to fit the forced box) give 0, not an error.
    """
    weights = tuple(weights)
    _check_ranks(r, weights)
    if not weights:
        return 1
    total = sum(w.size for w in weights)
    if total % (r + 1):
        return 0
    width = total // (r + 1)
    if any(w.row(1) > width for w in weights):
        return 0
    target = complement_in_box(weights[-1].parts, r + 1, width)
    # every partial product only grows, so shapes outside the target are dropped
    acc = {(): 1}
    for w in weights[:-1]:
        nxt: Dict[Partition, int] = {}
        for shape, mult in acc.items():
            for u, m in _lr_mult(shape, w.parts, r + 1, target).items():
                nxt[u] = nxt.get(u, 0) + mult * m
        acc = nxt
    return acc.get(target, 0)


def _gl_dimension(p: Partition, n: int) -> int:
    """Dimension of the irreducible gl_n module of shape p (at most n rows)."""
    d = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d *= Fraction(row(p, i) - row(p, j) + j - i, j - i)
    assert d.denominator == 1
    return d.numerator


@lru_cache(maxsize=None)
def _gl_character(p: Partition, n: int) -> tuple:
    """Weight multiplicities of the gl_n module of shape p.

    Returns ((content_tuple, multiplicity), ...).  Built by stacking
    unconstrained horizontal strips, one per letter: the chain count is the
    Kostka number of the content.
    """
    frontier = {((), ()): 1}
    for _ in range(n):
        nxt = {}
        for (shape, content), mult in frontier.items():
            max_rows = min(len(shape) + 1, len(p))
            # grow shape by any horizontal strip staying under p
            def strips(j, cur):
                if j > max_rows:
                    yield tuple(cur)
                    return
                lo = row(shape, j)
                hi = row(p, j) if j == 1 else min(row(p, j), row(shape, j - 1))
                for v in range(lo, hi + 1):
                    yield from strips(j + 1, cur + [v])
            for new_rows in strips(1, []):
                new_shape = partition(new_rows)
                key = (new_shape, content + (sum(new_shape) - sum(shape),))
                nxt[key] = nxt.get(key, 0) + mult
        frontier = nxt
    out = {}
    for (shape, content), mult in frontier.items():
        if shape == p:
            out[content] = out.get(content, 0) + mult
    return tuple(sorted(out.items()))


def invariant_oracle(r: int, weights: Sequence[SlWeight], capacity: int = 10**7):
    """Coinvariant rank by brute force, for cross-checking coinvariant_rank.

    Convolves the weight multiplicities of all factors, then extracts the
    multiplicity of the determinant-power highest weight by a signed sum over
    the symmetric group.  Refuses inputs whose dimension product exceeds
    `capacity`.
    """
    weights = tuple(weights)
    _check_ranks(r, weights)
    n = r + 1
    if not weights:
        return 1
    total = sum(w.size for w in weights)
    if total % n:
        return 0
    dims = 1
    for w in weights:
        dims *= _gl_dimension(w.parts, n)
        if dims > capacity:
            raise CapacityError(
                f"dimension product exceeds capacity bound {capacity}")
    conv = {(0,) * n: 1}
    for w in weights:
        nxt = {}
        for u, cu in conv.items():
            for v, cv in _gl_character(w.parts, n):
                key = tuple(a + b for a, b in zip(u, v))
                nxt[key] = nxt.get(key, 0) + cu * cv
        conv = nxt
    c = total // n
    rho = tuple(range(n - 1, -1, -1))
    shifted = tuple(c + e for e in rho)
    result = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        sign = -1 if inversions % 2 else 1
        target = tuple(shifted[perm[i]] - rho[i] for i in range(n))
        result += sign * conv.get(target, 0)
    return result
