"""Quantum cohomology of Grassmannians.

Classes live in the Schubert basis indexed by partitions inside the k x (n-k)
box.  Products are computed classically (row-bounded Littlewood-Richardson)
and then every out-of-box shape is pushed back by removing rim hooks of size
n, each removal costing one power of q and a sign.

Every map the route makes on a class is a map on its first-column hook
lengths ("beta numbers"): the shape with rows p^(1) >= ... >= p^(k) becomes
the strictly decreasing list {p^(a) + k - a}.  Rim hooks take the betas to
their residues mod n and T^j shifts each by -j mod n.  _betas and _shape
are the one conversion each way, and the removal loop and the rotations use
them.  Removing an n-rim-hook starting in row a is exactly
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
shape of its T-orbit by (size, shape) and T^a sigma_p0 = q^e sigma_p.  No
rotation table is kept: T^j is one closed form on the betas (_rotate, with
q^(j - #{b < j})), and a step shrinks the shape only when 0 is free, so the
smallest shapes sit at the k rotations j that are betas.  _orbit reads
their sizes off p's one list of k rows, which is the beta list less the
staircase k - a, and builds only the smallest shapes from it: at the beta
of row i every row loses p^(i), the rows below i move to the top with n - k
added, and the q power is p^(i).  _rotate's cache keeps only the rotations
that are read back.

Products run in orbit coordinates: a key (u0, rot, deg) stands for
q^deg T^rot sigma_u0, u0 a representative and 0 <= rot < n, with T^n =
q^(n-k).  Multiplying two keys adds rotations and degrees and multiplies
the representatives: an LR expansion reduced by rim hooks and re-expressed
in orbit coordinates, cached once per unordered pair (_orbit_mult), whose
terms take their orbits from _orbit's body outside its cache and their
representatives from the shape table (young.shape_table).  The one product
step, _orbit_step, multiplies a class by one key: every rotation is below
n, so a sum of three passes n at most twice, each pass one full turn
q^(n-k).  gw_invariant takes one step per class it deals, and
quantum_product one per key of its second factor.  The orbit of () holds
the unit, sigma_(n-k) and its powers, so a factor with representative ()
is a rotation with no LR product.  A term leaves orbit coordinates once,
through _rotate, when quantum_product returns or gw_invariant pairs its
two halves; its q degree must then come out non-negative.

gw_invariant works on the multiset of its classes: it tallies them by
their spelling, and checks, conjugates and looks up each distinct class
once, however often it repeats (witten_rank adds s copies of the level
class).  It contracts them in two halves (Bertram, Ciocan-Fontanine and
Fulton, "Quantum multiplication of Schur polynomials", 1999, for the
pairing).  Every class in the orbit of () is a rotation, so all of them,
each times its multiplicity, fold into one starting key ((), rot mod n,
deg + turns (n-k)) with no product.  The other classes are sorted, each
repeated as often as it occurs, and dealt alternately into two halves, as
the two classical rank routes deal their diagrams, and each half is
contracted in orbit coordinates and taken out of them.  Since
<sigma_u, sigma_v, 1>_e is 1 when e = 0 and v is the Poincare dual u^ of
u, and 0 otherwise, the q^d point-class coefficient of the whole product
is the sum of L[u, i] R[u^, d - i] over the left half's terms.  The dual of
u is its complement in the k x (n-k) box (on betas, b -> n - 1 - b), read
through young.shape_forms as the two rank routes pair their halves.

gw_invariant also chooses the box.  Gr(k, n) and Gr(n - k, n) have
isomorphic quantum rings through sigma_p -> sigma_p^T, so once the classes
are checked against the box it is given and the grading holds, it moves to
Gr(n - k, n) with every class conjugated when k > n - k.  Its products then
build at most min(k, n - k) betas per shape; the gw command's tall box
Gr(2000, 2001), for one, runs in Gr(1, 2001).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .errors import ConsistencyError, DomainError
from .schur import _lr_walk
from .young import Partition, conjugate, fits_box, partition, shape_forms, shape_table


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


def _betas(p: Partition, k: int) -> list[int]:
    """Beta numbers of p as k or fewer rows: the descending list p^(a) + k - a."""
    return [x + k - a for a, x in enumerate(p + (0,) * (k - len(p)), start=1)]


def _shape(betas: list[int], k: int) -> Partition:
    """The partition of k descending beta numbers, zero rows dropped."""
    return tuple([x - k + a for a, x in enumerate(betas, start=1) if x > k - a])


def rim_hook_reduce(p: Partition, box: GrassmannBox):
    """Push p into the box by removing n-rim-hooks, always from the largest beta.

    p is canonical with at most k rows, as every LR constituent is.  Returns
    (partition, hooks_removed, sign) or None for the zero class.
    """
    k, n = box.k, box.n
    if not p or p[0] <= n - k:
        return p, 0, 1
    betas = _betas(p, k)
    d = flips = 0
    while betas[0] >= n:
        b = betas[0] - n
        # j: first position holding a beta at most b; the hook passes 1..j-1
        j = 1
        while j < k and betas[j] > b:
            j += 1
        if j < k and betas[j] == b:
            return None
        flips += k - j
        betas[:j] = betas[1:j] + [b]
        d += 1
    return _shape(betas, k), d, -1 if flips % 2 else 1


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


@lru_cache(maxsize=2**16)
def _rotate(u0: Partition, j: int, box: GrassmannBox) -> tuple:
    """T^j sigma_u0 = q^g sigma_u as (u, g), for 0 <= j <= n.

    Every beta b becomes b - j mod n.  Step t pays one q unless 0 is then a
    beta, that is unless t is a beta of u0, so g = j - #{b < j}.  The 2**16
    entries bound the cache.
    """
    k, n = box.k, box.n
    betas = _betas(u0, k)
    low = [b + n - j for b in betas if b < j]
    return _shape(low + [b - j for b in betas if b >= j], k), j - len(low)


@lru_cache(maxsize=2**14)
def _orbit(p: Partition, box: GrassmannBox) -> tuple:
    """(p0, a, e) for the T-orbit of sigma_p, T = sigma_(n-k).

    p0 is the smallest shape of the orbit by (size, shape) and T^a sigma_p0 =
    q^e sigma_p with 0 <= a < n.  A T step shrinks the shape by k when it
    finds 0 free and grows it by n - k when 0 is a beta, so T^j sigma_p has
    size |p| + n #{b < j} - kj, and the smallest shapes sit at the j that
    are betas of p: of those k rotations, only the smallest are built, from
    p's padded rows (module docstring).
    """
    k, w = box.k, box.width
    rows = p + (0,) * (k - len(p))
    # T^j at the beta j = rows[i] + k - 1 - i has size |p| + w(k - 1 - i) - k rows[i]
    sizes = [s - k * x for s, x in zip(range(w * (k - 1), -1, -w), rows)]
    least = min(sizes)
    p0, j, x = min([(tuple([y + w - x for y in rows[i + 1:] if y + w > x]
                           + [y - x for y in rows[:i + 1] if y > x]), x + k - 1 - i, x)
                    for i, x in enumerate(rows) if sizes[i] == least])
    # T^(n-j) T^j sigma_p = q^(n-k) sigma_p, and T^j sigma_p = q^x sigma_p0
    return p0, -j % box.n, w - x if j else 0


@lru_cache(maxsize=2**14)
def _orbit_mult(p0: Partition, q0: Partition, box: GrassmannBox) -> tuple:
    """sigma_p0 * sigma_q0 for representatives p0 >= q0 > () as ((u0, rot, deg, coeff), ...).

    One entry per unordered pair: at most o(o+1)/2 per box for o orbits.
    The terms' orbits are found outside _orbit's cache, which so keeps the
    classes that gw_invariant and quantum_product look up, and their
    representatives are the shape table's tuples.
    """
    orbit = _orbit.__wrapped__
    acc: dict[tuple[Partition, int, int], int] = {}
    for u, m in _lr_walk(p0, q0, box.k).items():
        red = rim_hook_reduce(u, box)
        if red is not None:
            u0, a, e = orbit(red[0], box)
            key = (u0, a, red[1] - e)
            acc[key] = acc.get(key, 0) + red[2] * m
    get = shape_table(len(acc))
    return tuple((get(u0, u0), a, d, c) for (u0, a, d), c in acc.items() if c)


def _orbit_step(acc: dict, x: dict, key: tuple, m: int, box: GrassmannBox) -> dict:
    """acc plus m times the product of the {(u0, rot, deg): coeff} class x
    with the one key (p0, b, f); a () factor only rotates."""
    n, w = box.n, box.width
    p0, b, f = key
    for (u0, a, e), c in x.items():
        hi, lo = (u0, p0) if u0 > p0 else (p0, u0)
        terms = _orbit_mult(hi, lo, box) if lo else ((hi, 0, 0, 1),)
        ab, ef, cm = a + b, e + f, c * m
        for v0, g, h, t in terms:
            rot, deg = ab + g, ef + h
            while rot >= n:   # a, b, g < n: at most two turns, each q^(n-k)
                rot, deg = rot - n, deg + w
            out = (v0, rot, deg)
            acc[out] = acc.get(out, 0) + cm * t
    return acc


def _from_orbit(x: dict, box: GrassmannBox) -> dict[tuple[Partition, int], int]:
    """{(shape, q_degree): coeff}; each term's q degree must come out non-negative."""
    acc: dict[tuple[Partition, int], int] = {}
    for (u0, rot, deg), c in x.items():
        v, g = _rotate(u0, rot, box)
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
    x, y = ({(p0, rot, d - e): c for (p, d), c in z.terms
             for p0, rot, e in [_orbit(p, box)]} for z in (a, b))
    acc: dict[tuple[Partition, int, int], int] = {}
    for key, m in y.items():
        _orbit_step(acc, x, key, m, box)
    return QClass(box, _from_orbit(acc, box))


def gw_invariant(box: GrassmannBox, classes: Sequence[Partition], d: int):
    """Genus-0 degree-d invariant: q^d point-class coefficient of the product.

    Works on the multiset of the classes, each distinct one checked,
    conjugated and looked up once, in the box with fewer rows: Gr(n - k, n)
    with every class conjugated when k > n - k.  Rotations of () fold into
    one starting key; the other classes, sorted, are dealt alternately into
    two halves, which are paired through the box complement (module
    docstring).
    """
    counts = Counter()
    for p, m in Counter(map(tuple, classes)).items():
        counts[partition(p)] += m
    if counts.total() < 2:
        raise DomainError("need at least 2 classes")
    for p in counts:
        if not fits_box(p, box.k, box.width):
            raise DomainError(f"{p} does not fit in {box}")
    if d < 0 or sum(sum(p) * m for p, m in counts.items()) != box.k * box.width + box.n * d:
        return 0
    if box.k > box.width:
        box, counts = GrassmannBox(box.width, box.n), {conjugate(p): m for p, m in counts.items()}
    orbits = [(_orbit(p, box), m) for p, m in sorted(counts.items())]
    turns, rot = divmod(sum(a * m for (p0, a, _), m in orbits if not p0), box.n)
    deg = turns * box.width - sum(e * m for (p0, _, e), m in orbits if not p0)
    halves = [{((), rot, deg): 1}, {((), 0, 0): 1}]
    for i, key in enumerate([(p0, a, -e) for (p0, a, e), m in orbits if p0 for _ in range(m)]):
        halves[i % 2] = _orbit_step({}, halves[i % 2], key, 1, box)
    left, right = (_from_orbit(half, box) for half in halves)
    # <sigma_u, sigma_v, 1>_e is 1 when e = 0 and v is u's complement, else 0
    complement = shape_forms(box.k, box.width)[1]
    return sum(c * right.get((complement(u, box.k, box.width), d - i), 0)
               for (u, i), c in left.items() if i <= d)
