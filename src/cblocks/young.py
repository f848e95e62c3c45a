"""Partition and weight algebra, and the one validated bundle setup.

Partitions are plain tuples of weakly decreasing positive integers (canonical
form drops trailing zeros).  A dominant integral weight of sl_{r+1} is stored
as its normalized Young diagram, i.e. the representative whose (r+1)-th row is
empty.  All derived notions (theta pairing, duals, transposes) are defined
on that canonical data.  BlockSetup is the one check of an (r, level,
weights) triple; every function that works on a bundle takes one.  The
pass that checks its weights also tallies the two numbers the vanishing
bounds are made of: the critical level and the first-row sum.

Weights parse and print in the size of their diagram, not of r: a term
m w_j of `2w1+w3` adds m cells to each of rows 1..j, so the diagram grows
only as far as the largest j written, and weight_text reads the
coefficient a_j back as row j minus row j+1.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .errors import DomainError, ParseError

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
        if len(ps) == rank + 1:
            last = ps[-1]
            ps = partition(x - last for x in ps)
        self.rank = rank
        self.parts = ps

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
    return (width,) * (rows - len(p)) + tuple(width - x for x in reversed(p) if x < width)


def dual_parts(mu: Partition, r: int) -> Partition:
    """mu* on normalised sl_{r+1} parts: mu's complement in its first-row strip."""
    return box_complement(mu, r + 1, mu[0] if mu else 0)


def dual_star(w: SlWeight) -> SlWeight:
    """Highest weight of the dual representation: reversed complement in the first-row strip."""
    return SlWeight(w.rank, dual_parts(w.parts, w.rank))


class BlockSetup:
    """One bundle: algebra sl_{r+1}, level, and a tuple of alcove weights.

    The one pass over the weights that checks them also sets critical_level,
    -1 + (total size)/(r+1) when r+1 divides the total size and None
    otherwise, and first_rows, the sum of the first rows (highest-root
    pairings), from which the theta level -1 + first_rows/2 is built.
    Setups compare and hash by (r, level, weights).
    """

    __slots__ = ("r", "level", "weights", "critical_level", "first_rows")

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


def parse_weight(text: str, r: int) -> SlWeight:
    """Parse `2w1+w3`, `[3,1,1]`, or `0` as an sl_{r+1} weight."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty weight")
    if s == "0":
        return SlWeight(r, ())
    if s.startswith("["):
        try:
            return SlWeight(r, parse_partition(text))
        except DomainError as e:
            raise ParseError(str(e)) from None
    coeffs = {}
    for term in s.split("+"):
        m = _FUND_TERM.match(term)
        if not m:
            raise ParseError(f"bad weight term {term!r} in {text!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        j = int(m.group(2))
        if not 1 <= j <= r:
            raise ParseError(f"fundamental index {j} out of range 1..{r} in {text!r}")
        coeffs[j] = coeffs.get(j, 0) + mult
    # row i has a_i + ... + a_top cells, top being the largest index written
    rows, tail = [], 0
    for j in range(max(coeffs), 0, -1):
        tail += coeffs.get(j, 0)
        rows.append(tail)
    return SlWeight(r, rows[::-1])


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
