"""Partition and weight algebra, and the one validated bundle setup.

Partitions are plain tuples of weakly decreasing positive integers (canonical
form drops trailing zeros).  A dominant integral weight of sl_{r+1} is stored
as its normalized Young diagram, i.e. the representative whose (r+1)-th row is
empty.  All derived notions (theta pairing, duals, transposes) are defined
on that canonical data.  BlockSetup is the one check of an (r, level,
weights) triple; every function that works on a bundle takes one.  The
pass that checks its weights also tallies the two numbers the vanishing
bounds are made of: the critical level and the first-row sum.  rank_key
is the one key both rank memos read a setup's weights by.  shape_table
hands out the one shape table's tuples: the LR kernel (schur._lr_walk)
takes every shape it returns from it, so schur._lr_mult's slots and
qgrass's products hold table tuples, and share_shapes passes the shapes
that cb.fusion_expand and cb._fuse store through it, so an equal shape is
one tuple however many values hold it.  It is a dict, cleared before it
would pass 2**16 entries.

The rank routes make three forms of a shape once per constituent:
normal_form drops the full columns of an (r+1)-row shape, box_complement
pairs a shape with its complement in a box (dual_parts is its case of the
first-row strip), and column_shift adds c full columns back.  Each has one
formula, and one memo of 2**16 entries that wraps it.  shape_forms hands a
call the memos when the box its shapes live in holds at most that many
shapes, comb(rows + width, rows), and the formulas otherwise: on a tall or
wide box the shapes seldom recur, and would only push out the small ones
that do.  A memo's values are the shape table's tuples, since a memo keeps
them for the life of the process and the rank memos' values hold them too.

Weights parse and print in the size of their diagram, not of r: a term
m w_j of `2w1+w3` adds m cells to each of rows 1..j, so the diagram grows
only as far as the largest j written with m > 0, and weight_text reads
the coefficient a_j back as row j minus row j+1.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import accumulate

from .errors import CapacityError, DomainError, ParseError

Partition = tuple

# SlWeight and BlockSetup refuse a rank below 1 with this one message
_RANK_ERROR = "algebra rank must be positive, got {}"


def partition(parts: Iterable[int]) -> Partition:
    """Canonical partition: weakly decreasing tuple with trailing zeros dropped."""
    ps = tuple(int(x) for x in parts)
    for a, b in zip(ps, ps[1:]):
        if a < b:
            raise DomainError(f"parts not weakly decreasing: {ps}")
    if ps and ps[-1] < 0:
        raise DomainError(f"negative part in {ps}")
    # weakly decreasing and non-negative, so every zero is a trailing one
    return ps[:len(ps) - ps.count(0)]


def row(p: Partition, a: int) -> int:
    """Row length p^(a), 1-based; rows past the last are empty."""
    return p[a - 1] if 1 <= a <= len(p) else 0


def conjugate(p: Partition) -> Partition:
    """Transpose the diagram (columns become rows)."""
    if not p:
        return ()
    return tuple(sum(1 for q in p if q >= i) for i in range(1, p[0] + 1))


def fits_box(p: Partition, rows: int, width: int) -> bool:
    return len(p) <= rows and row(p, 1) <= width


class SlWeight:
    """Dominant integral weight of sl_{rank+1} as a normalized diagram.

    Construction accepts any diagram with at most rank+1 rows and subtracts
    the last row when all rank+1 rows are occupied, so every value held by
    this type is already normalized.  Weights compare and hash by (rank, parts).
    """

    __slots__ = ("rank", "parts")

    def __init__(self, rank: int, parts: Iterable[int]):
        if rank < 1:
            raise DomainError(_RANK_ERROR.format(rank))
        ps = partition(parts)
        if len(ps) > rank + 1:
            raise DomainError(
                f"{ps} has {len(ps)} rows, more than sl_{rank + 1} allows")
        self.rank = rank
        self.parts = normal_form(ps, rank + 1)

    def __eq__(self, other):
        if other.__class__ is not SlWeight:
            return NotImplemented
        return self.rank == other.rank and self.parts == other.parts

    def __hash__(self):
        return hash((self.rank, self.parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def row(self, a: int) -> int:
        return row(self.parts, a)

    def __repr__(self):
        return f"SlWeight(sl{self.rank + 1}, {list(self.parts)})"


def theta_pairing(w: SlWeight) -> int:
    """Pairing with the highest root: the first row of the normalized diagram."""
    return w.row(1)


def fits_level(w: SlWeight, level: int) -> bool:
    """Membership in the level-`level` alcove: first row at most `level`."""
    return theta_pairing(w) <= level


def transpose(w: SlWeight, level: int) -> SlWeight:
    """Conjugate diagram, reinterpreted as an sl_{level+1} weight.

    Defined only for weights of level at most `level`, so the conjugate has at
    most `level` rows.
    """
    if not fits_level(w, level):
        raise DomainError(
            f"{w} has first row {theta_pairing(w)} > level {level}; transpose undefined")
    return SlWeight(level, conjugate(w.parts))


def box_complement(p: Partition, rows: int, width: int) -> Partition:
    """Complement of p (at most `rows` rows) in the rows x width box, turned
    a half turn: row i is width - p^(rows+1-i), and rows of p as long as
    the width leave none.

    The empty rows below p give `width` each, so they are counted rather
    than padded, and the answer is built in its own size.
    """
    if not width:
        return ()
    return (width,) * (rows - len(p)) + tuple([width - x for x in reversed(p) if x < width])


def normal_form(p: Partition, rows: int) -> Partition:
    """p (at most `rows` rows) less its c full columns, c its rows-th row:
    in `rows` variables s_p = det^c * s_{normal_form(p)}."""
    c = p[rows - 1] if len(p) >= rows else 0
    return tuple([x - c for x in p if x > c]) if c else p


def column_shift(p: Partition, rows: int, c: int) -> Partition:
    """p (at most `rows` rows) with c full columns of `rows` cells added:
    normal_form's inverse, the shape of det^c * s_p."""
    return tuple([x + c for x in p]) + (c,) * (rows - len(p))


def dual_parts(mu: Partition, r: int) -> Partition:
    """mu* on normalised sl_{r+1} parts: mu's complement in its first-row strip."""
    return box_complement(mu, r + 1, mu[0] if mu else 0)


def dual_star(w: SlWeight) -> SlWeight:
    """Highest weight of the dual representation: reversed complement in the first-row strip."""
    return SlWeight(w.rank, dual_parts(w.parts, w.rank))


def rank_key(weights: Iterable[SlWeight]) -> tuple:
    """The sorted non-empty diagrams of `weights`: the one key of both rank
    memos, cb._cb_rank and schur._coinvariant_rank; () when every weight is
    trivial.

    A rank is symmetric in the points, so one sorted multiset serves every
    ordering.  A trivial weight changes no rank (propagation of vacua): V_0
    is the unit of the fusion ring and the trivial sl_{r+1} module, so the
    key leaves it out, and setups that differ only by trivial points share
    one entry of each memo, at every number of them.
    """
    return tuple(sorted([w.parts for w in weights if w.parts]))


# the shape table: each shape is its own key and value
_SHAPES: dict = {}
_SHAPES_BOUND = 1 << 16


def shape_table(room: int):
    """The setdefault of the shape table, with room made for `room` new
    shapes: get(p, p) is the table's one tuple of the shape p.

    The rank memos keep their values for the life of the process, and their
    shapes recur from one value to the next; shared, an equal shape costs
    one tuple however many values hold it.  The table is cleared before it
    would pass _SHAPES_BOUND entries, and a caller with more than that many
    shapes gets a fresh dict's setdefault and shares nothing, so the table
    never holds more; a shape made after a clear is an equal tuple, not a
    wrong one.
    """
    table = _SHAPES
    if len(table) + room > _SHAPES_BOUND:
        table.clear()
        if room > _SHAPES_BOUND:
            table = {}
    return table.setdefault


def share_shapes(vector: dict) -> dict:
    """A copy of the {shape: coefficient} `vector`, zero coefficients dropped,
    whose keys are the shape table's one tuple of each shape (shape_table).
    """
    get = shape_table(len(vector))
    return {get(p, p): c for p, c in vector.items() if c}


# the bound of each shape-form memo, in entries
_FORMS_BOUND = 1 << 16


@lru_cache(maxsize=_FORMS_BOUND)
def _normal_memo(p: Partition, rows: int) -> Partition:
    """normal_form, as the shape table's tuple."""
    u = normal_form(p, rows)
    return shape_table(1)(u, u)


@lru_cache(maxsize=_FORMS_BOUND)
def _complement_memo(p: Partition, rows: int, width: int) -> Partition:
    """box_complement, as the shape table's tuple."""
    u = box_complement(p, rows, width)
    return shape_table(1)(u, u)


@lru_cache(maxsize=_FORMS_BOUND)
def _shift_memo(p: Partition, rows: int, c: int) -> Partition:
    """column_shift, as the shape table's tuple."""
    u = column_shift(p, rows, c)
    return shape_table(1)(u, u)


def shape_forms(rows: int, width: int) -> tuple:
    """(normal_form, box_complement, column_shift) for the shapes of the
    rows x width box: the memos of the three when the box holds at most
    _FORMS_BOUND shapes, and the formulas themselves otherwise.

    The box holds comb(rows + width, rows) shapes.  A caller asks once per
    call, with the widest first row the call can meet, and reads the forms
    it gets for every constituent.
    """
    # comb(n - k + i, i) for i = 1..k, k = min(rows, width), n = rows +
    # width: it at least doubles at each step, so it passes the bound in
    # at most 17 steps however large the box, and ends at comb(n, k)
    k = min(rows, width)
    m = rows + width - k
    count = 1
    for i in range(1, k + 1):
        count = count * (m + i) // i
        if count > _FORMS_BOUND:
            return normal_form, box_complement, column_shift
    return _normal_memo, _complement_memo, _shift_memo


class BlockSetup:
    """One bundle: algebra sl_{r+1}, level, and a tuple of alcove weights.

    The one pass over the weights that checks them also sets critical_level,
    -1 + (total size)/(r+1) when r+1 divides the total size and None
    otherwise, and first_rows, the sum of the first rows (highest-root
    pairings), from which the theta level -1 + first_rows/2 is built.
    One more slot holds rank_key of the weights once key() has sorted
    them, and None until then.  __init__ does not sort: a setup whose
    critical level is None never reaches a rank memo, and a search builds
    many of those.  Setups compare and hash by (r, level, weights).
    """

    __slots__ = ("r", "level", "weights", "critical_level", "first_rows", "_key")

    def __init__(self, r: int, level: int, weights: Sequence[SlWeight]):
        if r < 1:
            raise DomainError(_RANK_ERROR.format(r))
        if level < 1:
            raise DomainError(f"level must be positive, got {level}")
        ws = tuple(weights)
        total = first_rows = 0
        for w in ws:
            if not isinstance(w, SlWeight) or w.rank != r:
                raise DomainError(f"{w} is not an sl_{r + 1} weight")
            p = w.parts
            if p:
                if p[0] > level:
                    raise DomainError(f"weight {w} has first row {p[0]} > level {level}")
                total += sum(p)
                first_rows += p[0]
        self.r = r
        self.level = level
        self.weights = ws
        self.critical_level = None if total % (r + 1) else total // (r + 1) - 1
        self.first_rows = first_rows
        self._key = None

    def key(self) -> tuple:
        """rank_key of the weights, sorted on the first call and stored."""
        key = self._key
        if key is None:
            key = self._key = rank_key(self.weights)
        return key

    def __eq__(self, other):
        if other.__class__ is not BlockSetup:
            return NotImplemented
        return (self.r, self.level, self.weights) == (other.r, other.level, other.weights)

    def __hash__(self):
        return hash((self.r, self.level, self.weights))

    def __repr__(self):
        return f"BlockSetup(r={self.r!r}, level={self.level!r}, weights={self.weights!r})"

    @property
    def n(self) -> int:
        return len(self.weights)


_FUND_TERM = re.compile(r"^(\d*)w(\d+)$")

# a bound on outside input, not a setting (parse_weight)
_WEIGHT_CELLS = 10**7


def _check_cells(text: str, cells: int) -> None:
    """Raise CapacityError when the weight `text` has more than _WEIGHT_CELLS cells."""
    if cells > _WEIGHT_CELLS:
        raise CapacityError(
            f"weight {text!r} has {cells} cells, more than the bound {_WEIGHT_CELLS}")


def parse_weight(text: str, r: int) -> SlWeight:
    """Parse `2w1+w3`, `[3,1,1]`, or `0` as an sl_{r+1} weight.

    A weight in either spelling whose diagram has more than _WEIGHT_CELLS
    cells raises CapacityError before its weight is built.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty weight")
    if s == "0":
        return SlWeight(r, ())
    if s.startswith("["):
        parts = parse_partition(text)
        _check_cells(text, sum(parts))
        try:
            return SlWeight(r, parts)
        except DomainError as e:
            raise ParseError(str(e)) from None
    coeffs = {}
    for term in s.split("+"):
        m = _FUND_TERM.match(term)
        if not m:
            raise ParseError(f"bad weight term {term!r} in {text!r}")
        try:
            mult = int(m.group(1)) if m.group(1) else 1
            j = int(m.group(2))
        except ValueError:    # more digits than int() converts
            raise ParseError(f"bad weight term {term!r} in {text!r}") from None
        if not 1 <= j <= r:
            raise ParseError(f"fundamental index {j} out of range 1..{r} in {text!r}")
        coeffs[j] = coeffs.get(j, 0) + mult
    # m w_j adds m cells to each of rows 1..j
    _check_cells(text, sum(j * a for j, a in coeffs.items()))
    # row i has a_i + ... + a_top cells, top being the largest index with a
    # non-zero coefficient: a term 0 w_j adds no cell and no row
    top = max([j for j, a in coeffs.items() if a], default=0)
    rows = accumulate(coeffs.get(j, 0) for j in range(top, 0, -1))
    return SlWeight(r, list(rows)[::-1])


def parse_partition(text: str) -> Partition:
    """Parse a bare partition literal `[3,1,1]` or `[]` (no normalization)."""
    s = re.sub(r"\s+", "", text)
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"expected a bracketed partition, got {text!r}")
    body = s[1:-1]
    try:
        parts = tuple(int(x) for x in body.split(",")) if body else ()
    except ValueError:
        raise ParseError(f"bad partition literal: {text!r}") from None
    try:
        return partition(parts)
    except DomainError as e:
        raise ParseError(str(e)) from None


def parse_weight_list(text: str, r: int) -> tuple:
    """Parse a comma-separated weight list, respecting brackets in partition literals."""
    SlWeight(r, ())    # a bad r raises DomainError however the weights are spelled
    items = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    items.append("".join(cur))
    if depth != 0:
        raise ParseError(f"unbalanced brackets in weight list: {text!r}")
    return tuple(parse_weight(item, r) for item in items)


def weight_text(w: SlWeight) -> str:
    """Render in fundamental form, `0` for the zero weight."""
    p = w.parts
    terms = []
    for j, (a, b) in enumerate(zip(p, p[1:] + (0,)), start=1):
        c = a - b    # the coefficient of w_j; rows past the diagram's last add none
        if c == 1:
            terms.append(f"w{j}")
        elif c > 1:
            terms.append(f"{c}w{j}")
    return "+".join(terms) if terms else "0"
