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
not depend on the removal order (checked in the tests, not assumed).  The
betas sit in a descending list, so a removal is one slice rotation that
moves beta_a - n down to its place.

The one removal loop, rim_hook_reduce, takes the LR kernel's constituents
as they come: the kernel already returns canonical shapes with at most k
rows, so nothing checks them again.  A shape whose first row is at most
n - k is in the box and comes back as it is, with no hooks and sign +1,
before any beta numbers are built.  It keeps the public name that
perfbench's traced runs wrap, so their rim-hook counts read its returns.

Products use the cyclic symmetry of QH*(Gr(k, n)) (Agnihotri-Woodward,
"Eigenvalues of products of unitary matrices and quantum Schubert
calculus", 1998; Postnikov, "Affine approach to quantum Schubert calculus",
Duke Math. J. 2005): multiplying by T = sigma_(n-k) permutes the Schubert
basis up to powers of q.  On beta numbers one T step sends every beta to
beta - 1 mod n and costs one q unless 0 is a beta (then the top row n - k
is added instead); a full turn costs q^(n-k).  An orbit may close after a
divisor of n steps (in Gr(2,4), sigma_(1) and sigma_(2,1) form one of
length 2).  Each shape p has its orbit data (p0, a, e): p0 is the smallest
shape of its T-orbit by (size, shape) and T^a sigma_p0 = q^e sigma_p.

Products run in orbit coordinates: a key (u0, rot, deg) stands for
q^deg T^rot sigma_u0, u0 a representative and 0 <= rot < n, with T^n =
q^(n-k).  Multiplying two keys adds rotations and degrees and multiplies
the representatives: an LR expansion reduced by rim hooks and re-expressed
in orbit coordinates, cached once per unordered pair (_orbit_mult).  The
orbit of () holds the unit, sigma_(n-k) and its powers, so a factor with
representative () is a rotation with no LR product.  A term leaves orbit
coordinates once, through its rotation table, when quantum_product returns
or gw_invariant reads the q^d point-class coefficient; its q degree must
then come out non-negative.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .errors import ConsistencyError, DomainError
from .schur import _lr_walk
from .young import Partition, fits_box, partition


class GrassmannBox(namedtuple("GrassmannBox", "k n")):
    """Gr(k, n): k-planes in n-space; Schubert classes fit in k x (n-k).

    Boxes compare and hash by (k, n); the orbit caches key on them.
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int):
        if not 0 < k < n:
            raise DomainError(f"need 0 < k < n, got k={k}, n={n}")
        return super().__new__(cls, k, n)

    @property
    def width(self) -> int:
        return self.n - self.k

    @property
    def point_class(self) -> Partition:
        return (self.width,) * self.k


def rim_hook_reduce(p: Partition, box: GrassmannBox):
    """Push p into the box by removing n-rim-hooks, always from the largest beta.

    p is canonical with at most k rows, as every LR constituent is.  Returns
    (partition, hooks_removed, sign) or None for the zero class.
    """
    k, n = box.k, box.n
    if not p or p[0] <= n - k:
        return p, 0, 1
    betas = [x + k - a for a, x in enumerate(p + (0,) * (k - len(p)), start=1)]
    d = 0
    sign = 1
    while betas[0] >= n:
        b = betas[0] - n
        # j: first position holding a beta at most b; the hook passes 1..j-1
        j = 1
        while j < k and betas[j] > b:
            j += 1
        if j < k and betas[j] == b:
            return None
        if (k - j) % 2:
            sign = -sign
        betas[:j] = betas[1:j] + [b]
        d += 1
    shape = [x - k + a for a, x in enumerate(betas, start=1)]
    while shape and not shape[-1]:
        shape.pop()
    return tuple(shape), d, sign


class QClass(namedtuple("QClass", "box terms")):
    """Integer combination of q-shifted Schubert classes of a fixed box.

    Classes compare and hash by (box, terms).
    """

    __slots__ = ()

    def __new__(cls, box: GrassmannBox, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        seen: dict[tuple[Partition, int], int] = {}
        for (p, d), c in items:
            p = partition(p)
            if not fits_box(p, box.k, box.width):
                raise DomainError(f"{p} does not fit in {box}")
            if d < 0:
                raise DomainError(f"negative q degree {d}")
            seen[(p, int(d))] = seen.get((p, int(d)), 0) + int(c)
        # sorted (((partition, q_degree), coeff), ...), zeros absent
        return super().__new__(cls, box, tuple(sorted((k, c) for k, c in seen.items() if c)))

    @classmethod
    def of(cls, box: GrassmannBox, p, q_degree: int = 0) -> "QClass":
        return cls(box, (((partition(p), q_degree), 1),))

    def coefficient(self, p, q_degree: int) -> int:
        return dict(self.terms).get((partition(p), q_degree), 0)


@lru_cache(maxsize=2**14)
def _orbit(p: Partition, box: GrassmannBox) -> tuple:
    """(p0, a, e, turn) for the T-orbit of sigma_p, T = sigma_(n-k).

    turn[j] = (u, g) says T^j sigma_p = q^g sigma_u for j = 0..n-1; p0 is
    the smallest shape of the orbit by (size, shape) and T^a sigma_p0 =
    q^e sigma_p with 0 <= a < n.  One entry per shape, each holding its n
    rotations, so at most (shapes in the box) x n rotations per box.
    """
    k, n = box.k, box.n
    betas = [x + k - a for a, x in enumerate(p + (0,) * (k - len(p)), start=1)]
    g = 0
    turn = []
    for _ in range(n):
        shape = [x - k + a for a, x in enumerate(betas, start=1)]
        while shape and not shape[-1]:
            shape.pop()
        turn.append((tuple(shape), g))
        if betas[-1]:
            g += 1
            betas = [x - 1 for x in betas]
        else:
            betas = [n - 1] + [x - 1 for x in betas[:-1]]
    j = min(range(n), key=lambda i: (sum(turn[i][0]), turn[i][0]))
    # T^(n-j) T^j sigma_p = q^(n-k) sigma_p
    e = n - k - turn[j][1] if j else 0
    return turn[j][0], -j % n, e, tuple(turn)


@lru_cache(maxsize=2**14)
def _orbit_mult(p0: Partition, q0: Partition, box: GrassmannBox) -> tuple:
    """sigma_p0 * sigma_q0 for representatives p0 >= q0 > () as (((u0, rot, deg), coeff), ...).

    One entry per unordered pair: at most o(o+1)/2 per box for o orbits.
    """
    acc: dict[tuple[Partition, int, int], int] = {}
    for u, m in _lr_walk(p0, q0, box.k).items():
        red = rim_hook_reduce(u, box)
        if red is not None:
            shape, d, sign = red
            u0, a, e, _ = _orbit(shape, box)
            acc[u0, a, d - e] = acc.get((u0, a, d - e), 0) + sign * m
    return tuple((key, c) for key, c in acc.items() if c)


def _to_orbit(terms, box: GrassmannBox) -> dict:
    """{(u0, rot, deg): coeff} for ((shape, q_degree), coeff) terms."""
    acc: dict[tuple[Partition, int, int], int] = {}
    for (p, d), c in terms:
        p0, a, e, _ = _orbit(p, box)
        acc[p0, a, d - e] = acc.get((p0, a, d - e), 0) + c
    return acc


def _orbit_product(x: dict, y: dict, box: GrassmannBox) -> dict:
    """Product of two {(u0, rot, deg): coeff} classes; a () factor only rotates."""
    n, w = box.n, box.width
    acc: dict[tuple[Partition, int, int], int] = {}
    for (u0, a, e), c in x.items():
        for (p0, b, f), m in y.items():
            hi, lo = (u0, p0) if u0 > p0 else (p0, u0)
            terms = _orbit_mult(hi, lo, box) if lo else (((hi, 0, 0), 1),)
            for (v0, g, h), t in terms:
                turns, rot = divmod(a + b + g, n)
                key = (v0, rot, e + f + h + turns * w)
                acc[key] = acc.get(key, 0) + c * m * t
    return acc


def _from_orbit(x: dict, box: GrassmannBox) -> dict[tuple[Partition, int], int]:
    """{(shape, q_degree): coeff}; each term's q degree must come out non-negative."""
    acc: dict[tuple[Partition, int], int] = {}
    for (u0, rot, deg), c in x.items():
        v, g = _orbit(u0, box)[3][rot]
        deg += g
        if deg < 0:
            raise ConsistencyError(
                f"product in Gr({box.k},{box.n}): term sigma_{v} has q degree {deg}")
        acc[v, deg] = acc.get((v, deg), 0) + c
    return acc


def quantum_product(a: QClass, b: QClass) -> QClass:
    """q-linear product: classical LR expansion, then rim-hook reduction."""
    if a.box != b.box:
        raise DomainError(f"box mismatch: {a.box} vs {b.box}")
    box = a.box
    return QClass(box, _from_orbit(
        _orbit_product(_to_orbit(a.terms, box), _to_orbit(b.terms, box), box), box))


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
    # rotations of () first, so they turn a single term
    acc = {((), 0, 0): 1}
    for p in sorted(classes, key=lambda p: bool(_orbit(p, box)[0])):
        acc = _orbit_product(acc, _to_orbit((((p, 0), 1),), box), box)
    return _from_orbit(acc, box).get((box.point_class, d), 0)
