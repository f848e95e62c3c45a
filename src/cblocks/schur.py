"""Classical tensor-product combinatorics for sl_{r+1}.

Littlewood-Richardson numbers are computed by walking chains of horizontal
strips subject to the ballot condition: when the cells of letter i are added,
the count of i's in rows 1..j may not exceed the count of (i-1)'s in rows
1..j-1.  Products of Schur functions in a bounded number of variables drop
every shape with too many rows at each step, which keeps intermediate
expansions inside the world the rank computations live in.

The kernel _lr_walk works on plain row tuples padded to the row bound.  It
adds one letter per row of its second factor, so it first orients the pair
(c^nu_{p,q} = c^nu_{q,p}): the factor with fewer rows, then fewer cells,
goes second, and an empty second factor returns at once.  For each (shape,
previous strip) state it computes every row's cap once (the width for the
first row, the old row above it for the others), then enumerates the
letter's strips row by row, growing the shape in place and adding each
finished (shape, strip) straight into the next state table.  A row whose
cap is 0 is passed over inside the call for the row above it, so the
recursion is only as deep as the rows that can grow, however tall the
shape.  The last letter's states are keyed by shape alone, since no later
letter reads their strip counts.  A branch is cut as soon as the cells still to place exceed
what the remaining rows can hold.  Every constituent leaves the kernel
canonical (trailing zeros dropped), so callers use it without validating it
again.  Passing `width` keeps only the constituents whose first row is at
most `width`, and clips every intermediate shape to it too, which is exact
because a product never shrinks a shape.

The memo _lr_mult(p, q, row_bound, width) sits in front of the kernel.  It
keeps one slot per (p, q, row_bound), holding the product walked at the
widest first-row bound asked so far; a bound of p[0] + q[0] or more cannot
bind, so it is the unbounded product.  It walks again only when a caller
asks for more than the slot holds, so its answer may hold constituents
wider than the width asked, and callers that pass a width drop them.  On
one `ladder` list of the benchmark (seed 3), cb_rank then coinvariant_rank
fill 762 slots and walk each once, all unbounded; coinvariant_rank alone
fills 762 slots with 854 walks, 233 of them boxed.

The coinvariant rank of a weight tuple is the coefficient of the forced
(r+1) x width box in the product of its Schur functions.  The sorted
diagrams are dealt alternately into two halves, as the fusion route deals
them, and each half is multiplied out in ascending order inside the box.
The halves are joined by the box-complement pairing: s_u * s_v contains
the box once when v is the complement of u in it (young.box_complement,
built in the size of the complement, not padded to r+1 rows), and not
otherwise.  Before each step the running shape u loses its c = u[r] full
columns: in r+1 variables s_{u + c^{r+1}} = det^c * s_u, so s_u * s_q is
the product of the normalised shape with q, each constituent shifted by
c columns, and it lies in the box exactly when the unshifted constituent
lies in the box c columns narrower.
The step asks _lr_mult for the product at that narrower width and drops
what lies outside it.  The box binds only when u[0] + q[0] exceeds the full
width; otherwise the ask is the unbounded product.  Either way the step
reads the slot that the fusion route fills, since it too multiplies
normalised shapes, deals the points into the same halves and orders each
pair the same way ((u, q) if u <= q).
When the fusion route has run first, as in vanishing_report, the slot holds
the unbounded product and the classical route walks nothing.
Each half is read from a bounded memo (_coinvariant_half) keyed on (r,
width, the whole half): on one `sweep` list of the benchmark (seed 3) the
classical route multiplies out 4,960 halves, of which 2,032 are distinct,
and on one `ladder` list 598, of which 567 are distinct.  The pairing loops
over the left vector.
coinvariant_rank checks every rank, sums the sizes and finds the longest
first row in one pass over the weights, takes its early returns, then reads
a bounded memo (_coinvariant_rank) keyed on r, the box width and the sorted
diagrams.
That key is sound because the rank is symmetric in the points and the
classical rank does not depend on any level, so one entry serves every
ordering of a multiset, at every level.
invariant_oracle recomputes the rank by a deliberately different route
(weight-multiplicity convolution followed by a Weyl alternating sum) and
exists so the two can be played against each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from collections.abc import Sequence

from .errors import CapacityError, DomainError
from .young import Partition, SlWeight, box_complement, partition, row


def _lr_walk(p: Partition, q: Partition, row_bound: int,
             width: int | None = None) -> dict[Partition, int]:
    """Expansion of s_p * s_q in Schur functions of `row_bound` variables.

    With `width`, only the constituents whose first row is at most `width`
    are kept, and every intermediate shape is clipped to it as well.  The
    product is symmetric, so the factor with fewer rows, then fewer cells,
    goes second: the walk adds one letter per row of the second factor.
    Nothing is cached here; _lr_mult is the memo.
    """
    size_p, size_q = sum(p), sum(q)
    if (len(q), size_q) > (len(p), size_p):
        p, q, size_p, size_q = q, p, size_q, size_p
    rows = row_bound
    total = size_p + size_q
    if width is None:
        width = total
    if (len(p) > rows or width * rows < total
            or (p and p[0] > width) or (q and q[0] > width)):
        return {}
    if not q:
        return {p: 1}
    # the first letter has no ballot limit: give it all its cells as slack
    states = {(p + (0,) * (rows - len(p)), (0,) * rows): 1}
    slack = q[0]
    counts = [0] * rows              # the letter's cells in each row
    grown = [0] * rows               # the shape with those cells added

    def place(j, remaining, room):
        """Put c cells of the letter in row j, for each c in turn, then recurse.

        `room` is the ballot limit for rows 0..j: `slack` plus the previous
        letter's cells in rows 0..j-1, less the cells already placed.
        A row whose cap is 0 takes no cell, so it is passed over here
        rather than by a call of its own; one with a positive cap lies
        ahead, since the cells still to place fit in rows j.. (suffix[j]).
        """
        while not caps[j]:
            room += prev[j]
            j += 1
        hi = caps[j]
        if remaining < hi:
            hi = remaining
        if room < hi:
            hi = room
        lo = remaining - suffix[j + 1]
        if lo < 0:
            lo = 0
        old = grown[j]
        for c in range(hi, lo - 1, -1):
            counts[j] = c
            grown[j] = old + c
            if c == remaining:
                # no later letter reads the last letter's strip counts
                key = tuple(grown) if last else (tuple(grown), tuple(counts))
                nxt[key] = nxt.get(key, 0) + mult
            else:
                place(j + 1, remaining - c, room - c + prev[j])
        counts[j] = 0
        grown[j] = old

    for letter, m in enumerate(q, 1):
        last = letter == len(q)
        nxt = {}
        for (shape, prev), mult in states.items():
            if slack + sum(prev[:-1]) < m:    # the ballot limit leaves too little room
                continue
            # row 0 may grow to the width and row j to the old row above it;
            # suffix[j] is what rows j.. can hold, to cut a branch that cannot finish
            caps = [a - s for a, s in zip((width,) + shape, shape)]
            suffix = list(accumulate(reversed(caps), initial=0))[::-1]
            if suffix[0] >= m:
                grown[:] = shape
                place(0, m, slack)
        states = nxt
        slack = 0
    # a shape's zeros are its trailing rows: one slice drops them all
    return {shape[:len(shape) - shape.count(0)]: mult for shape, mult in states.items()}


@lru_cache(maxsize=1 << 16)
def _lr_slot(p: Partition, q: Partition, row_bound: int) -> list:
    """The memo slot of one pair: [first-row bound walked, product].

    A new slot holds [-1, {}], which is right for every bound below 0.
    """
    return [-1, {}]


def _lr_mult(p: Partition, q: Partition, row_bound: int,
             width: int | None = None) -> dict[Partition, int]:
    """s_p * s_q in `row_bound` variables, at least every constituent whose
    first row is at most `width` (all of them when `width` is None).

    One slot per (p, q, row_bound) keeps the product walked at the widest
    first-row bound asked so far.  A bound of p[0] + q[0] or more cannot
    bind, so it is the unbounded product; the walk runs again only when a
    caller asks for more than the slot holds.  The answer may therefore hold
    constituents wider than `width`, and a caller that passes one drops
    them.  The dict is the slot's own, so callers only read it.  The 2**16
    slots bound the memo.  One `ladder` operation list of the benchmark
    fills about 770 and walks each once, unbounded, since each setup runs
    cb_rank before coinvariant_rank; one `sweep` list fills about 520 with
    about 560 walks.
    """
    slot = _lr_slot(p, q, row_bound)
    full = (p[0] if p else 0) + (q[0] if q else 0)
    if width is None or width > full:
        width = full
    if slot[0] < width:
        slot[1] = _lr_walk(p, q, row_bound, width)
        slot[0] = width
    return slot[1]


# the benchmark reads the memo's hits and misses through _lr_mult
_lr_mult.cache_info = _lr_slot.cache_info


def coinvariant_rank(r: int, weights: Sequence[SlWeight]):
    """Rank of the sl_{r+1} coinvariant space of the tensor product.

    Degenerate inputs (total size not divisible by r+1, or some first row too
    long to fit the forced box) give 0, not an error.
    """
    # one pass over the weights checks each rank, sums the sizes and finds the
    # longest first row; a wrong rank anywhere raises before any early return
    parts = []
    total = top = 0
    for w in weights:
        if w.rank != r:
            raise DomainError(f"weight {w} is not an sl_{r + 1} weight")
        p = w.parts
        if p:
            total += sum(p)
            if p[0] > top:
                top = p[0]
        parts.append(p)
    if total % (r + 1):
        return 0
    width = total // (r + 1)
    if top > width:
        return 0
    return _coinvariant_rank(r, width, tuple(sorted(parts)))


@lru_cache(maxsize=1 << 14)
def _coinvariant_rank(r: int, width: int, parts: tuple) -> int:
    """coinvariant_rank of the diagrams `parts`, inside the (r+1) x width box.

    The halves are parts[0::2] and parts[1::2], as in cb._cb_rank; both
    vectors come from _coinvariant_half's memo, and the pairing loops over
    the left one.
    Callers pass the diagrams sorted: the rank is symmetric in the points,
    so the sorted multiset is the cache key, and it does not depend on any
    level.  The 2**14 entries bound the cache; one `sweep` operation list
    of 40,000 setups fills about 2,500 and one `ladder` list about 300.
    """
    left = _coinvariant_half(r, width, parts[0::2])
    right = _coinvariant_half(r, width, parts[1::2])
    rank = 0
    for u, mult in left.items():
        # s_u * s_v reaches the box shape exactly when v is u's complement in it
        rank += mult * right.get(box_complement(u, r + 1, width), 0)
    return rank


@lru_cache(maxsize=1 << 14)
def _coinvariant_half(r: int, width: int, half: tuple) -> dict[Partition, int]:
    """{shape: multiplicity} of the product of the diagrams `half`, inside the
    (r+1) x width box, multiplied left to right; {(): 1} when `half` is empty.

    The memo is keyed by the whole half, so a half that recurs across setups
    is multiplied out once.  The dict is the cache entry itself, so callers
    only read it.  The 2**14 entries bound the cache; one `sweep` operation
    list of the benchmark fills about 2,000, and one `ladder` list about 570.
    """
    # every partial product only grows, so shapes outside the box are dropped:
    # _lr_mult walks inside the box unless its slot already holds a wider
    # product.  A shape's c full columns come off before the product and go
    # back on after
    acc = {half[0] if half else (): 1}
    for q in half[1:]:
        nxt: dict[Partition, int] = {}
        for shape, mult in acc.items():
            c = shape[r] if len(shape) > r else 0
            base = tuple([x - c for x in shape if x > c]) if c else shape
            a, b = (base, q) if base <= q else (q, base)
            fit = width - c
            for u, m in _lr_mult(a, b, r + 1, fit).items():
                if u and u[0] > fit:
                    continue    # from a slot walked wider than this box
                if c:
                    u = tuple([x + c for x in u]) + (c,) * (r + 1 - len(u))
                nxt[u] = nxt.get(u, 0) + mult * m
        acc = nxt
    return acc


def _gl_dimension(p: Partition, n: int) -> int:
    """Dimension of the irreducible gl_n module of shape p (at most n rows)."""
    d = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d *= Fraction(row(p, i) - row(p, j) + j - i, j - i)
    assert d.denominator == 1
    return d.numerator


@lru_cache(maxsize=1 << 8)
def _gl_character(p: Partition, n: int) -> tuple:
    """Weight multiplicities of the gl_n module of shape p.

    Returns ((content_tuple, multiplicity), ...).  Built by stacking
    unconstrained horizontal strips, one per letter: the chain count is the
    Kostka number of the content.  The 2**8 entries bound the cache; the
    test suite, its only caller through invariant_oracle, fills 26.
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


_ORACLE_CAPACITY = 10**7


def invariant_oracle(r: int, weights: Sequence[SlWeight]):
    """Coinvariant rank by brute force, for cross-checking coinvariant_rank.

    Convolves the weight multiplicities of all factors, then extracts the
    multiplicity of the determinant-power highest weight by a signed sum over
    the symmetric group.  Refuses inputs whose dimension product exceeds
    _ORACLE_CAPACITY.
    """
    weights = tuple(weights)
    for w in weights:
        if w.rank != r:
            raise DomainError(f"weight {w} is not an sl_{r + 1} weight")
    n = r + 1
    if not weights:
        return 1
    total = sum(w.size for w in weights)
    if total % n:
        return 0
    dims = 1
    for w in weights:
        dims *= _gl_dimension(w.parts, n)
        if dims > _ORACLE_CAPACITY:
            raise CapacityError(
                f"dimension product exceeds capacity bound {_ORACLE_CAPACITY}")
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
