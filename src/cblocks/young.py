"""Partition and weight algebra.

Partitions are plain tuples of weakly decreasing positive integers (canonical
form drops trailing zeros).  A dominant integral weight of sl_{r+1} is stored
as its normalized Young diagram, i.e. the representative whose (r+1)-th row is
empty.  All derived notions (theta pairing, duals, transposes, box
complements, Schubert index sets) are defined on that canonical data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, ParseError

Partition = tuple


def partition(parts: Iterable[int]) -> Partition:
    """Canonical partition: weakly decreasing tuple with trailing zeros dropped."""
    ps = tuple(int(x) for x in parts)
    for a, b in zip(ps, ps[1:]):
        if a < b:
            raise DomainError(f"parts not weakly decreasing: {ps}")
    if ps and ps[-1] < 0:
        raise DomainError(f"negative part in {ps}")
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    return ps


def row(p: Partition, a: int) -> int:
    """Row length p^(a), 1-based; rows past the last are empty."""
    return p[a - 1] if 1 <= a <= len(p) else 0


def size(p: Partition) -> int:
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose the diagram (columns become rows)."""
    if not p:
        return ()
    return tuple(sum(1 for q in p if q >= i) for i in range(1, p[0] + 1))


def fits_box(p: Partition, rows: int, width: int) -> bool:
    return len(p) <= rows and row(p, 1) <= width


@dataclass(frozen=True, order=True)
class SlWeight:
    """Dominant integral weight of sl_{rank+1} as a normalized diagram.

    Construction accepts any diagram with at most rank+1 rows and subtracts
    the last row when all rank+1 rows are occupied, so every value held by
    this type is already normalized.
    """

    rank: int
    parts: Partition

    def __post_init__(self):
        if self.rank < 1:
            raise DomainError(f"algebra rank must be positive, got {self.rank}")
        ps = partition(self.parts)
        if len(ps) > self.rank + 1:
            raise DomainError(
                f"{ps} has {len(ps)} rows, more than sl_{self.rank + 1} allows")
        if len(ps) == self.rank + 1:
            last = ps[-1]
            ps = partition(x - last for x in ps)
        object.__setattr__(self, "parts", ps)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def row(self, a: int) -> int:
        return row(self.parts, a)

    def __repr__(self):
        return f"SlWeight(sl{self.rank + 1}, {list(self.parts)})"


def normalize(parts: Sequence[int], rows: int) -> SlWeight:
    """Subtract the last of `rows` row lengths from all rows; an sl_rows weight."""
    if rows < 2:
        raise DomainError(f"need at least 2 rows for a special linear algebra, got {rows}")
    ps = tuple(int(x) for x in parts)
    if len(ps) > rows:
        raise DomainError(f"{ps} has more than {rows} rows")
    return SlWeight(rows - 1, ps)


def weight_from_fundamental(coeffs: Sequence[int], r: int) -> SlWeight:
    """Weight sum(a_j w_j) as a diagram: row i has a_i + a_{i+1} + ... + a_r boxes."""
    cs = tuple(int(c) for c in coeffs)
    if len(cs) != r:
        raise DomainError(f"need exactly {r} fundamental coefficients, got {len(cs)}")
    if any(c < 0 for c in cs):
        raise DomainError(f"negative fundamental coefficient in {cs}")
    tail = 0
    rows = []
    for c in reversed(cs):
        tail += c
        rows.append(tail)
    rows.reverse()
    return SlWeight(r, rows)


def fundamental_coeffs(w: SlWeight) -> tuple:
    """Inverse of weight_from_fundamental: a_j = row j minus row j+1."""
    return tuple(w.row(j) - w.row(j + 1) for j in range(1, w.rank + 1))


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


def dual_star(w: SlWeight) -> SlWeight:
    """Highest weight of the dual representation: reversed complement in the first-row strip."""
    k = w.row(1)
    rows = w.rank + 1
    return SlWeight(w.rank, tuple(k - w.row(a) for a in range(rows, 0, -1)))


def complement_in_box(p: Partition, rows: int, width: int) -> Partition:
    """Complement of p inside a rows x width box, read upside down."""
    p = partition(p)
    if not fits_box(p, rows, width):
        raise DomainError(f"{p} does not fit in a {rows}x{width} box")
    return partition(width - row(p, a) for a in range(rows, 0, -1))


def to_index_set(p: Partition, k: int, width: int) -> tuple:
    """Schubert index set {width + a - p^(a) : a = 1..k}, strictly increasing."""
    p = partition(p)
    if not fits_box(p, k, width):
        raise DomainError(f"{p} does not fit in a {k}x{width} box")
    return tuple(width + a - row(p, a) for a in range(1, k + 1))


_FUND_TERM = re.compile(r"^(\d*)w(\d+)$")


def parse_weight(text: str, r: int) -> SlWeight:
    """Parse `2w1+w3`, `[3,1,1]`, or `0` as an sl_{r+1} weight."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty weight")
    if s == "0" or s == "[]":
        return SlWeight(r, ())
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError(f"unterminated partition literal: {text!r}")
        body = s[1:-1]
        try:
            parts = tuple(int(x) for x in body.split(",")) if body else ()
        except ValueError:
            raise ParseError(f"bad partition literal: {text!r}") from None
        try:
            return SlWeight(r, parts)
        except DomainError as e:
            raise ParseError(str(e)) from None
    coeffs = [0] * r
    for term in s.split("+"):
        m = _FUND_TERM.match(term)
        if not m:
            raise ParseError(f"bad weight term {term!r} in {text!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        j = int(m.group(2))
        if not 1 <= j <= r:
            raise ParseError(f"fundamental index {j} out of range 1..{r} in {text!r}")
        coeffs[j - 1] += mult
    return weight_from_fundamental(coeffs, r)


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
    terms = []
    for j, c in enumerate(fundamental_coeffs(w), start=1):
        if c == 1:
            terms.append(f"w{j}")
        elif c > 1:
            terms.append(f"{c}w{j}")
    return "+".join(terms) if terms else "0"
