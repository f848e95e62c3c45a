"""Quantum cohomology of Grassmannians.

Classes live in the Schubert basis indexed by partitions inside the k x (n-k)
box.  Products are computed classically (row-bounded Littlewood-Richardson)
and then every out-of-box shape is pushed back by removing rim hooks of size
n, each removal costing one power of q and a sign.

Rim hooks are handled on first-column hook lengths ("beta numbers"): the
shape with rows p^(1) >= ... >= p^(k) becomes the strictly decreasing set
{p^(a) + k - a}.  Removing an n-rim-hook starting in row a is exactly
replacing beta_a by beta_a - n, legal when that value is free; the hook's
height is one plus the number of betas passed on the way down.  The class is
zero precisely when two betas collide modulo n, and the signed result does
not depend on the removal order (checked in the tests, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .errors import DomainError
from .schur import _lr_mult
from .young import Partition, fits_box, partition, row


@dataclass(frozen=True)
class GrassmannBox:
    """Gr(k, n): k-planes in n-space; Schubert classes fit in k x (n-k)."""

    k: int
    n: int

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise DomainError(f"need 0 < k < n, got k={self.k}, n={self.n}")

    @property
    def width(self) -> int:
        return self.n - self.k

    @property
    def point_class(self) -> Partition:
        return (self.width,) * self.k


def rim_hook_reduce(p: Partition, box: GrassmannBox, _choose=None):
    """Push p into the box by removing n-rim-hooks.

    Returns (partition, hooks_removed, sign) or None for the zero class.
    `_choose` overrides the removal strategy (used by tests to confirm order
    independence); the default always removes from the largest beta.
    """
    p = partition(p)
    k, n = box.k, box.n
    if len(p) > k:
        raise DomainError(f"{p} has more than k={k} rows")
    bset = set(row(p, a) + k - a for a in range(1, k + 1))
    d = 0
    sign = 1
    while True:
        over = [b for b in bset if b >= n]
        if not over:
            break
        b = max(over) if _choose is None else _choose(sorted(over))
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


@dataclass(frozen=True)
class QClass:
    """Integer combination of q-shifted Schubert classes of a fixed box."""

    box: GrassmannBox
    terms: tuple  # sorted (((partition, q_degree), coeff), ...), zeros absent

    def __post_init__(self):
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        seen: Dict[Tuple[Partition, int], int] = {}
        for (p, d), c in items:
            p = partition(p)
            if not fits_box(p, self.box.k, self.box.width):
                raise DomainError(f"{p} does not fit in {self.box}")
            if d < 0:
                raise DomainError(f"negative q degree {d}")
            seen[(p, int(d))] = seen.get((p, int(d)), 0) + int(c)
        object.__setattr__(
            self, "terms", tuple(sorted((k, c) for k, c in seen.items() if c)))

    @classmethod
    def of(cls, box: GrassmannBox, p, q_degree: int = 0) -> "QClass":
        return cls(box, (((partition(p), q_degree), 1),))

    def coefficient(self, p, q_degree: int) -> int:
        return dict(self.terms).get((partition(p), q_degree), 0)

    def is_zero(self) -> bool:
        return not self.terms


def quantum_product(a: QClass, b: QClass) -> QClass:
    """q-linear product: classical LR expansion, then rim-hook reduction."""
    if a.box != b.box:
        raise DomainError(f"box mismatch: {a.box} vs {b.box}")
    box = a.box
    acc: Dict[Tuple[Partition, int], int] = {}
    for (p, da), ca in a.terms:
        for (q, db), cb in b.terms:
            for u, m in _lr_mult(p, q, box.k).items():
                red = rim_hook_reduce(u, box)
                if red is None:
                    continue
                shape, extra, sign = red
                key = (shape, da + db + extra)
                acc[key] = acc.get(key, 0) + sign * ca * cb * m
    return QClass(box, tuple(acc.items()))


def gw_invariant(box: GrassmannBox, classes: Sequence[Partition], d: int):
    """Genus-0 degree-d invariant: q^d point-class coefficient of the product."""
    classes = [partition(p) for p in classes]
    if len(classes) < 2:
        raise DomainError("need at least 2 classes")
    for p in classes:
        if not fits_box(p, box.k, box.width):
            raise DomainError(f"{p} does not fit in {box}")
    if d < 0:
        return 0
    if sum(sum(p) for p in classes) != box.k * box.width + box.n * d:
        return 0
    prod = QClass.of(box, classes[0])
    for p in classes[1:]:
        prod = quantum_product(prod, QClass.of(box, p))
    return prod.coefficient(box.point_class, d)
