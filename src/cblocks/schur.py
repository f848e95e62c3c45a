"""Classical tensor-product combinatorics for sl_{r+1}.

Littlewood-Richardson numbers are computed by walking chains of horizontal
strips subject to the ballot condition: when the cells of letter i are added,
the count of i's in rows 1..j may not exceed the count of (i-1)'s in rows
1..j-1.  Products of Schur functions in a bounded number of variables drop
every shape with too many rows at each step, which keeps intermediate
expansions inside the world the rank computations live in.

The kernel _lr_walk works on plain row tuples padded to the row bound, or
to the rows of the two factors together when that is fewer: no
constituent of s_p * s_q has more rows than p and q together.  It adds one
letter per row of its second factor, so it first orients the pair
(c^nu_{p,q} = c^nu_{q,p}): the factor with fewer rows, then fewer cells,
goes second, and an empty second factor returns at once.  For each (shape,
previous strip) state it computes every row's cap in one pass (the width
for the first row, the old row above it for the others); the caps
telescope, so the cells that rows j.. can hold are read off the shape as
the row above j less the bottom row.  It then enumerates the letter's
strips depth first on an explicit stack of (row, cells left, ballot room,
next count, least count) frames, growing the shape in place and adding
each finished (shape, strip) straight into the next state table.  A strip
opens only rows that have both a cap and ballot room: a row whose cap is 0,
or whose ballot limit leaves no room, gets no frame of its own, so the
stack holds one frame per opened row of the branch, and the walk uses no
Python recursion however tall the shape.  A state goes unwalked
when the ballot limit or the free cells leave too little room for the
letter; after that check every opened branch finishes, since row j + 1
can always take the previous letter's cells in row j.  The last letter's
states are keyed by shape alone, since no later letter reads their strip
counts, and are cut after the shape's last non-zero row or the letter's
last cell, whichever comes lower, so the kernel holds each constituent
once, not as a padded and a cut copy.  Every constituent leaves the kernel
canonical (trailing zeros dropped) and as the shape table's tuple
(young.shape_table), so every caller, qgrass included, gets one tuple per
shape and uses it without validating it again.  Passing `width` keeps only the constituents whose
first row is at most `width`, and clips every intermediate shape to it
too, which is exact because a product never shrinks a shape.

The memo _lr_mult(p, q, row_bound, width) sits in front of the kernel.  It
keeps one slot per (p, q, row_bound), holding the product walked at the
widest first-row bound asked so far; a bound of p[0] + q[0] or more cannot
bind, so it is the unbounded product.  It walks again only when a caller
asks for more than the slot holds, so its answer may hold constituents
wider than the width asked, and callers that pass a width drop them.
A slot stores the kernel's own dict, whose shapes are already the table's.

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
what lies outside it.  The normal form before the step, the column shift
after it and the pairing's complement come from young.shape_forms of the
(r+1) x width box: their memos on a box small enough, their formulas
otherwise.  The box binds only when u[0] + q[0] exceeds the full
width; otherwise the ask is the unbounded product.  Either way the step
reads the slot that the fusion route fills, since it too multiplies
normalised shapes, deals the points into the same halves and orders each
pair the same way ((u, q) if u <= q).
When the fusion route has run first, as in vanishing_report, the slot holds
the unbounded product and the classical route walks nothing.
Each half is multiplied out by _coinvariant_half, which reads its LR
products from the slots; when the two halves are equal, one vector serves
both.  The pairing loops over the left vector.
coinvariant_rank checks every weight's rank, then reads a bounded memo
(_coinvariant_rank) keyed on r and young.rank_key of the weights, the key
of cb._cb_rank too; the classical rank depends on no level, so one entry
serves every level.  That check serves the public callers, which pass
bare weights: cb reads the memo directly under a BlockSetup's stored key,
whose weights BlockSetup has checked.  On a miss the memo reads the box
width off the key's total size, and returns 0 when r+1 does not divide
that size or a first row is longer than the box is wide, so those checks
run once per key.
invariant_oracle recomputes the rank by a deliberately different route
(weight-multiplicity convolution followed by a Weyl alternating sum) and
exists so the two can be played against each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from operator import sub
from collections.abc import Sequence

from .errors import CapacityError, DomainError
from .young import (
    Partition, SlWeight, partition, rank_key, row, shape_forms, shape_table)


def _lr_walk(p: Partition, q: Partition, row_bound: int,
             width: int | None = None) -> dict[Partition, int]:
    """Expansion of s_p * s_q in Schur functions of `row_bound` variables.

    With `width`, only the constituents whose first row is at most `width`
    are kept, and every intermediate shape is clipped to it as well.  The
    product is symmetric, so the factor with fewer rows, then fewer cells,
    goes second: the walk adds one letter per row of the second factor.
    Nothing is cached here, _lr_mult is the memo, but every shape returned
    is the shape table's tuple (young.shape_table), the early return's too.
    """
    size_p, size_q = sum(p), sum(q)
    if (len(q), size_q) > (len(p), size_p):
        p, q, size_p, size_q = q, p, size_q, size_p
    # no constituent has more rows than the two factors together
    rows = min(row_bound, len(p) + len(q))
    total = size_p + size_q
    if width is None:
        width = total
    if (len(p) > rows or width * rows < total
            or (p and p[0] > width) or (q and q[0] > width)):
        return {}
    if not q:
        return {shape_table(1)(p, p): 1}
    # the first letter has no ballot limit: give it all its cells as slack
    states = {(p + (0,) * (rows - len(p)), (0,) * rows): 1}
    slack = q[0]
    counts = [0] * rows              # the letter's cells in each row
    grown = [0] * rows               # the shape with those cells added
    stack = []                       # (row, cells left, room, next c, least c)
    push, pop = stack.append, stack.pop
    for letter, m in enumerate(q, 1):
        last = letter == len(q)
        nxt = {}
        for (shape, prev), mult in states.items():
            # the caps below telescope: rows j.. can hold shape[j - 1] - bottom
            # cells (width - bottom for j = 0).  The previous letter's cells
            # in the last row open no row below it
            bottom = shape[-1]
            if slack + sum(prev) - prev[-1] < m or width - bottom < m:
                continue
            if last:
                # a leaf of this state is non-zero in the state's non-zero
                # rows and down to its last cell's row, and in no others
                filled = len(shape) - shape.count(0)
            # row 0 may grow to the width and row j to the old row above it
            caps = list(map(sub, (width,) + shape, shape))
            grown[:] = shape
            j, remaining, room = 0, m, slack
            while True:
                # open the next row with a cap and ballot room: `room` is
                # `slack` plus the previous letter's cells in rows 0..j-1,
                # less the cells placed there.  The check above keeps an
                # open row ahead of every branch (row j + 1 can take the
                # previous letter's cells in row j), so none dead-ends
                while not caps[j] or not room:
                    room += prev[j]
                    j += 1
                c = caps[j]
                if remaining < c:
                    c = remaining
                if room < c:
                    c = room
                lo = remaining - shape[j] + bottom
                if lo < 0:
                    lo = 0
                # put c cells in row j, for c from the most down to the
                # least that the rows below leave; finished strips go into
                # the next table, and a spent row resumes the frame above
                while c >= lo or stack:
                    if c < lo:
                        counts[j] = 0
                        grown[j] = shape[j]
                        j, remaining, room, c, lo = pop()
                        continue
                    counts[j] = c
                    grown[j] = shape[j] + c
                    if c == remaining:
                        # no later letter reads the last letter's strip
                        # counts, and its shape is keyed without its zero
                        # rows, as it leaves the kernel, so it is made once
                        if last:
                            n = j + 1 if j >= filled else filled
                            key = tuple(grown) if n == rows else tuple(grown[:n])
                        else:
                            key = (tuple(grown), tuple(counts))
                        nxt[key] = nxt.get(key, 0) + mult
                        c -= 1
                        continue
                    push((j, remaining, room, c - 1, lo))
                    room += prev[j] - c
                    remaining -= c
                    j += 1
                    break
                else:
                    counts[j] = 0
                    break
        states = nxt
        slack = 0
    get = shape_table(len(states))
    return {get(u, u): mult for u, mult in states.items()}


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
    them.  The dict is the slot's own, so callers only read it; it is the
    kernel's, whose shapes are the shape table's tuples.  The 2**16 slots
    bound the memo.
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
    long to fit the forced box) give 0, not an error.  Every weight's rank
    is checked, a trivial weight's too; the memo key is rank_key of the
    weights.  cb reads the memo directly under a checked setup's key.
    """
    for w in weights:
        if w.rank != r:
            raise DomainError(f"weight {w} is not an sl_{r + 1} weight")
    return _coinvariant_rank(r, rank_key(weights))


@lru_cache(maxsize=1 << 14)
def _coinvariant_rank(r: int, parts: tuple) -> int:
    """coinvariant_rank of the diagrams `parts`, inside the (r+1) x width box,
    width being their total size over r+1.

    The halves are parts[0::2] and parts[1::2], as in cb._cb_rank; equal
    halves are multiplied out once, and the pairing loops over the left
    vector.  Callers pass rank_key of the weights, and () gives 1.  The memo
    owns the returns of 0, when r+1 does not divide the total size or a
    first row is longer than the box is wide, so those checks run on a miss
    only.  The 2**14 entries bound the cache.
    """
    width, rest = divmod(sum(map(sum, parts)), r + 1)
    if rest or max((p[0] for p in parts if p), default=0) > width:
        return 0
    left = _coinvariant_half(r, width, parts[0::2])
    right = left if parts[1::2] == parts[0::2] else _coinvariant_half(r, width, parts[1::2])
    rows = r + 1
    complement = shape_forms(rows, width)[1]
    rank = 0
    for u, mult in left.items():
        # s_u * s_v reaches the box shape exactly when v is u's complement in it
        rank += mult * right.get(complement(u, rows, width), 0)
    return rank


def _coinvariant_half(r: int, width: int, half: tuple) -> dict[Partition, int]:
    """{shape: multiplicity} of the product of the diagrams `half`, inside the
    (r+1) x width box, multiplied left to right; {(): 1} when `half` is empty.
    """
    # every partial product only grows, so shapes outside the box are dropped:
    # _lr_mult walks inside the box unless its slot already holds a wider
    # product.  A shape's c full columns come off before the product and go
    # back on after
    rows = r + 1
    normal, _, shift = shape_forms(rows, width)
    acc = {half[0] if half else (): 1}
    for q in half[1:]:
        nxt: dict[Partition, int] = {}
        for shape, mult in acc.items():
            c = shape[r] if len(shape) > r else 0
            base = normal(shape, rows) if c else shape
            a, b = (base, q) if base <= q else (q, base)
            fit = width - c
            for u, m in _lr_mult(a, b, rows, fit).items():
                if u and u[0] > fit:
                    continue    # from a slot walked wider than this box
                if c:
                    u = shift(u, rows, c)
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
