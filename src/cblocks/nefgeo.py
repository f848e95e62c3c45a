"""F-curve contraction criteria and Hassett weight data.

Everything here is plain arithmetic on block sums; no rank computation is
ever consulted.  The bridge to the rank world lives in the test suites.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import DomainError, ParseError
from .young import SlWeight, fits_level, theta_pairing


class FCurve(namedtuple("FCurve", "blocks")):
    """A partition of the marked points {1..n} into four non-empty blocks.

    Curves compare and hash by their blocks, in order.
    """

    __slots__ = ()

    def __new__(cls, blocks):
        blocks = tuple(frozenset(int(i) for i in b) for b in blocks)
        if len(blocks) != 4:
            raise DomainError(f"need exactly 4 blocks, got {len(blocks)}")
        if any(not b for b in blocks):
            raise DomainError("empty block in F-curve")
        union = frozenset().union(*blocks)
        if sum(len(b) for b in blocks) != len(union):
            raise DomainError("blocks overlap")
        n = len(union)
        if union != frozenset(range(1, n + 1)):
            raise DomainError(f"blocks must cover 1..{n} exactly, got {sorted(union)}")
        return super().__new__(cls, blocks)  # four frozensets of 1-based indices

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


def parse_fcurve(text: str, n: int) -> FCurve:
    """Parse `1|2|3|4,5,6` (blocks by `|`, 1-based indices by `,`)."""
    chunks = text.replace(" ", "").split("|")
    if len(chunks) != 4:
        raise ParseError(f"need 4 blocks separated by '|', got {len(chunks)}")
    try:
        blocks = tuple(frozenset(int(x) for x in chunk.split(",")) for chunk in chunks)
    except ValueError:
        raise ParseError(f"bad index in F-curve {text!r}") from None
    try:
        f = FCurve(blocks)
    except DomainError as e:
        raise ParseError(str(e)) from None
    if f.n != n:
        raise ParseError(f"F-curve covers {f.n} points, expected {n}")
    return f


def _check_points(weights, f: FCurve):
    if f.n != len(weights):
        raise DomainError(
            f"F-curve on {f.n} points, weight tuple has {len(weights)}")


def contracts_typeA(r: int, level: int, weights: Sequence[SlWeight], f: FCurve) -> bool:
    """Total-size criterion: three smallest block sums at most r + level."""
    _check_points(weights, f)
    for w in weights:
        if w.rank != r or not fits_level(w, level):
            raise DomainError(f"{w} is not a level-{level} weight of sl_{r + 1}")
    sums = sorted(sum(weights[i - 1].size for i in b) for b in f.blocks)
    return sum(sums[:3]) <= r + level


def contracts_theta(level: int, weights: Sequence[SlWeight], f: FCurve) -> bool:
    """Highest-root criterion: three smallest block pairings at most level + 1."""
    _check_points(weights, f)
    for w in weights:
        if not fits_level(w, level):
            raise DomainError(f"{w} is not a level-{level} weight")
    sums = sorted(sum(theta_pairing(weights[i - 1]) for i in b) for b in f.blocks)
    return sum(sums[:3]) <= level + 1


class HassettWeights(namedtuple("HassettWeights", "weights")):
    """Rational weight data for a moduli space of weighted pointed lines."""

    __slots__ = ()

    def __new__(cls, weights):
        ws = tuple(Fraction(a) for a in weights)
        for i, a in enumerate(ws, start=1):
            if not 0 < a <= 1:
                raise DomainError(f"weight a_{i} = {a} outside (0, 1]")
        if sum(ws) <= 2:
            raise DomainError(f"total weight {sum(ws)} not greater than 2")
        return super().__new__(cls, ws)  # Fractions in (0, 1], summing to more than 2

    @property
    def n(self) -> int:
        return len(self.weights)


def hassett_weights_typeA(r: int, level: int, weights: Sequence[SlWeight]) -> HassettWeights:
    """a_i = |lambda_i| / (r + level), defined when no weight is empty, none
    exceeds the denominator, and the sizes total more than 2(r + level)."""
    denom = r + level
    for i, w in enumerate(weights, start=1):
        if w.rank != r or not fits_level(w, level):
            raise DomainError(f"{w} is not a level-{level} weight of sl_{r + 1}")
        if w.size == 0:
            raise DomainError(f"weight {i} is zero: sizes must be positive")
        if w.size > denom:
            raise DomainError(
                f"weight {i} has size {w.size} > r + level = {denom}")
    total = sum(w.size for w in weights)
    if total <= 2 * denom:
        raise DomainError(
            f"total size {total} not greater than 2(r + level) = {2 * denom}")
    return HassettWeights(tuple(Fraction(w.size, denom) for w in weights))


def hassett_weights_theta(level: int, weights: Sequence[SlWeight]) -> HassettWeights:
    """a_i = (lambda_i, theta) / (level + 1), defined when every pairing is
    positive and the pairings total more than 2(level + 1)."""
    denom = level + 1
    for i, w in enumerate(weights, start=1):
        if not fits_level(w, level):
            raise DomainError(f"{w} is not a level-{level} weight")
        if theta_pairing(w) == 0:
            raise DomainError(f"weight {i} pairs to zero with the highest root")
    total = sum(theta_pairing(w) for w in weights)
    if total <= 2 * denom:
        raise DomainError(
            f"total pairing {total} not greater than 2(level + 1) = {2 * denom}")
    return HassettWeights(tuple(Fraction(theta_pairing(w), denom) for w in weights))


def hassett_contracts(a: HassettWeights, f: FCurve) -> bool:
    """With the heaviest block set aside (ties to the block holding the
    smallest index), do the other three blocks weigh at most 1 together?"""
    if f.n != a.n:
        raise DomainError(f"F-curve on {f.n} points, weight data has {a.n}")
    totals = [(sum(a.weights[i - 1] for i in b), min(b)) for b in f.blocks]
    heavy = max(totals, key=lambda t: (t[0], -t[1]))
    return sum(t for t, _ in totals) - heavy[0] <= 1
