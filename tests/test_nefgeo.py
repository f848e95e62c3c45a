from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cblocks.errors import DomainError, ParseError
from cblocks.nefgeo import (
    FCurve,
    HassettWeights,
    contracts,
    hassett_contracts,
    hassett_weights,
    parse_fcurve,
)
from cblocks.young import BlockSetup, SlWeight
from reference import weight_from_fundamental as W


def F(*blocks):
    return FCurve(tuple(frozenset(b) for b in blocks))


ROW9_WEIGHTS = tuple(W(c, 2) for c in [(2, 0)] * 6 + [(0, 1), (0, 2)])


def test_fcurve_validation():
    with pytest.raises(DomainError):
        F({1}, {2}, {3})
    with pytest.raises(DomainError):
        F({1}, {2}, {3}, set())
    with pytest.raises(DomainError):
        F({1}, {1, 2}, {3}, {4})
    with pytest.raises(DomainError):
        F({1}, {2}, {3}, {5})
    # a repeat inside one block, counted before the blocks become sets
    with pytest.raises(DomainError):
        FCurve([[1, 1], [2], [3], [4]])
    assert F({1}, {2}, {3}, {4, 5, 6}).n == 6


def test_parse_fcurve():
    f = parse_fcurve("1|2|3|4,5,6", 6)
    assert f == F({1}, {2}, {3}, {4, 5, 6})
    with pytest.raises(ParseError):
        parse_fcurve("1|2|3", 3)
    with pytest.raises(ParseError):
        parse_fcurve("1|2|3|4", 6)
    with pytest.raises(ParseError):
        parse_fcurve("1|2|x|4", 4)
    with pytest.raises(ParseError):
        parse_fcurve("1|2|3|4,4", 4)


def test_contracts_typeA_examples():
    w1 = SlWeight(2, (1,))
    ws = (w1,) * 6
    assert contracts(BlockSetup(2, 1, ws), F({1}, {2}, {3}, {4, 5, 6}), "typeA")
    assert not contracts(BlockSetup(2, 1, ws), F({1, 2}, {3, 4}, {5}, {6}), "typeA")
    v1 = SlWeight(1, (1,))
    assert not contracts(BlockSetup(1, 1, (v1,) * 4), F({1}, {2}, {3}, {4}), "typeA")


def test_contracts_theta_examples():
    w2 = SlWeight(2, (1, 1))
    ws = (w2,) * 6
    blocks = F({1}, {2}, {3}, {4, 5, 6})
    assert contracts(BlockSetup(2, 2, ws), blocks, "theta")
    assert not contracts(BlockSetup(2, 1, ws), blocks, "theta")
    zeros = (SlWeight(2, ()),) * 6
    assert contracts(BlockSetup(2, 1, zeros), blocks, "theta")
    with pytest.raises(DomainError):
        contracts(BlockSetup(2, 1, zeros), blocks, "typea")


def test_hassett_weights_typeA():
    hw = hassett_weights(BlockSetup(2, 5, ROW9_WEIGHTS), "typeA")
    assert hw.weights == (Fraction(2, 7),) * 6 + (Fraction(2, 7), Fraction(4, 7))

    with pytest.raises(DomainError):
        hassett_weights(BlockSetup(2, 1, (SlWeight(2, (1,)),) * 6), "typeA")  # boundary total
    with pytest.raises(DomainError):
        hassett_weights(BlockSetup(2, 5, ROW9_WEIGHTS[:-1] + (SlWeight(2, ()),)), "typeA")


def test_hassett_weights_theta():
    hw = hassett_weights(BlockSetup(1, 1, (SlWeight(1, (1,)),) * 6), "theta")
    assert hw.weights == (Fraction(1, 2),) * 6

    hw = hassett_weights(BlockSetup(2, 5, ROW9_WEIGHTS), "theta")
    assert hw.weights == (Fraction(1, 3),) * 6 + (Fraction(1, 6), Fraction(1, 3))

    with pytest.raises(DomainError):
        hassett_weights(BlockSetup(1, 1, (SlWeight(1, (1,)),) * 4), "theta")  # boundary total


def test_hassett_contracts_examples():
    a = HassettWeights((Fraction(2, 7),) * 6 + (Fraction(2, 7), Fraction(4, 7)))
    assert hassett_contracts(a, F({1}, {2}, {3}, {4, 5, 6, 7, 8}))
    assert not hassett_contracts(a, F({1, 2}, {3, 4}, {5, 6}, {7, 8}))

    ones = HassettWeights((Fraction(1),) * 5)
    for f in [F({1}, {2}, {3}, {4, 5}), F({1, 2}, {3}, {4}, {5})]:
        assert not hassett_contracts(ones, f)


def test_hassett_weight_validation():
    with pytest.raises(DomainError):
        HassettWeights((Fraction(3, 2), Fraction(1), Fraction(1)))
    with pytest.raises(DomainError):
        HassettWeights((Fraction(1, 2),) * 4)  # sums to exactly 2
    with pytest.raises(DomainError):
        HassettWeights((Fraction(0), Fraction(1), Fraction(1), Fraction(1)))


def _four_blocks(n):
    """All partitions of {1..n} into 4 non-empty blocks."""
    items = list(range(1, n + 1))

    def rec(i, blocks):
        if i == len(items):
            if len(blocks) == 4:
                yield tuple(frozenset(b) for b in blocks)
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([x])
            yield from rec(i + 1, blocks)
            blocks.pop()
    yield from rec(0, [])


def test_theorem_consistency_typeA_row9():
    # whenever the rational weights exist, curves they contract are also
    # contracted by the block-sum criterion
    setup = BlockSetup(2, 5, ROW9_WEIGHTS)
    hw = hassett_weights(setup, "typeA")
    for blocks in _four_blocks(8):
        f = FCurve(blocks)
        if hassett_contracts(hw, f):
            assert contracts(setup, f, "typeA")


def test_theorem_consistency_theta_row9():
    setup = BlockSetup(2, 5, ROW9_WEIGHTS)
    hw = hassett_weights(setup, "theta")
    for blocks in _four_blocks(8):
        f = FCurve(blocks)
        if hassett_contracts(hw, f):
            assert contracts(setup, f, "theta")


@given(st.integers(4, 7), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=30)
def test_contract_predicates_block_permutation_invariant(n, rng):
    weights = tuple(SlWeight(2, (rng.randrange(3), )) for _ in range(n))
    all_blocks = list(_four_blocks(n))
    blocks = all_blocks[rng.randrange(len(all_blocks))]
    f = FCurve(blocks)
    perm = list(blocks)
    rng.shuffle(perm)
    g = FCurve(tuple(perm))
    setup = BlockSetup(2, 2, weights)
    for mode in ("typeA", "theta"):
        assert contracts(setup, f, mode) == contracts(setup, g, mode)
