"""F-curve contraction criteria and Hassett weight data.

Everything here is plain arithmetic on block sums; no rank computation is
ever consulted.  The bridge to the rank world lives in the test suites.
The typeA and theta modes are one rule with different point masses and
bound (_masses); the setup's validity is BlockSetup's to check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, ParseError
from .young import BlockSetup, theta_pairing


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


def _masses(setup: BlockSetup, mode: str):
    """Each point's mass and the bound three blocks must stay within:
    |lambda_i| against r + level in typeA mode, (lambda_i, theta) against
    level + 1 in theta mode."""
    if mode == "typeA":
        return [w.size for w in setup.weights], setup.r + setup.level
    if mode == "theta":
        return [theta_pairing(w) for w in setup.weights], setup.level + 1
    raise DomainError(f"unknown mode {mode!r}: expected typeA or theta")


def contracts(setup: BlockSetup, f: FCurve, mode: str) -> bool:
    """Do the three lightest blocks of `f` weigh at most the mode's bound?"""
    if f.n != setup.n:
        raise DomainError(f"F-curve on {f.n} points, weight tuple has {setup.n}")
    mass, bound = _masses(setup, mode)
    sums = sorted(sum(mass[i - 1] for i in b) for b in f.blocks)
    return sum(sums[:3]) <= bound


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


def hassett_weights(setup: BlockSetup, mode: str) -> HassettWeights:
    """a_i = mass_i / bound in the mode's terms (see _masses); defined when
    every a_i lies in (0, 1] and they total more than 2."""
    mass, bound = _masses(setup, mode)
    return HassettWeights(Fraction(m, bound) for m in mass)


def hassett_contracts(a: HassettWeights, f: FCurve) -> bool:
    """With the heaviest block set aside, do the other three blocks weigh at
    most 1 together?"""
    if f.n != a.n:
        raise DomainError(f"F-curve on {f.n} points, weight data has {a.n}")
    totals = [sum(a.weights[i - 1] for i in b) for b in f.blocks]
    return sum(totals) - max(totals) <= 1
