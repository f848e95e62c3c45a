import pytest
from hypothesis import given

from cblocks.errors import DomainError, ParseError
from cblocks.young import (
    BlockSetup,
    SlWeight,
    conjugate,
    dual_star,
    fits_level,
    parse_weight,
    parse_weight_list,
    partition,
    theta_pairing,
    transpose,
    weight_from_fundamental,
    weight_text,
)
from reference import critical_level
from strategies import boxed_partitions, leveled_weights, sl_weights, weight_tuples


def test_partition_canonical_form():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    assert partition((2, 2, 2)) == (2, 2, 2)
    with pytest.raises(DomainError):
        partition([1, 2])
    with pytest.raises(DomainError):
        partition([2, -1])


def test_weight_from_fundamental_examples():
    assert weight_from_fundamental((1, 0), 2).parts == (1,)
    assert weight_from_fundamental((0, 3), 2).parts == (3, 3)
    assert weight_from_fundamental((2, 0, 1), 3).parts == (3, 1, 1)
    with pytest.raises(DomainError):
        weight_from_fundamental((1, -1), 2)


def test_transpose_examples():
    assert transpose(SlWeight(2, (1,)), 1) == SlWeight(1, (1,))
    assert transpose(SlWeight(2, (3, 3)), 5) == SlWeight(5, (2, 2, 2))
    assert transpose(SlWeight(1, (2,)), 2) == SlWeight(2, (1, 1))
    with pytest.raises(DomainError):
        transpose(SlWeight(2, (3, 3)), 2)


def test_dual_star_examples():
    assert dual_star(SlWeight(1, (2,))) == SlWeight(1, (2,))
    assert dual_star(SlWeight(2, (1,))) == SlWeight(2, (1, 1))
    assert dual_star(SlWeight(3, (3, 1, 1))) == SlWeight(3, (3, 2, 2))


def test_theta_pairing_examples():
    assert theta_pairing(SlWeight(3, ())) == 0
    assert theta_pairing(SlWeight(2, (1, 1))) == 1
    assert theta_pairing(SlWeight(3, (4, 2))) == 4


@given(leveled_weights())
def test_transpose_involution(rlw):
    r, level, w = rlw
    assert transpose(transpose(w, level), r) == w


@given(sl_weights())
def test_dual_star_involution(w):
    assert dual_star(dual_star(w)) == w


@given(leveled_weights())
def test_dual_star_preserves_level(rlw):
    r, level, w = rlw
    assert fits_level(dual_star(w), level)


@given(sl_weights())
def test_dual_size_identity(w):
    mu = dual_star(w)
    assert mu.size == (w.rank + 1) * w.row(1) - w.size


@given(boxed_partitions(max_rows=3, max_width=4))
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


def test_parse_weight_forms():
    assert parse_weight("2w1+w3", 3) == SlWeight(3, (3, 1, 1))
    assert parse_weight("[3,1,1]", 3) == SlWeight(3, (3, 1, 1))
    assert parse_weight(" w2 ", 2) == SlWeight(2, (1, 1))
    assert parse_weight("0", 2) == SlWeight(2, ())
    assert parse_weight("[]", 2) == SlWeight(2, ())
    assert parse_weight("[2,2,2]", 2) == SlWeight(2, ())
    with pytest.raises(ParseError):
        parse_weight("w0", 2)
    with pytest.raises(ParseError):
        parse_weight("w3", 2)
    with pytest.raises(ParseError):
        parse_weight("[2,3]", 3)
    with pytest.raises(ParseError):
        parse_weight("", 2)


def test_parse_weight_list_respects_brackets():
    ws = parse_weight_list("w1,[3,1],0", 2)
    assert [w.parts for w in ws] == [(1,), (3, 1), ()]
    with pytest.raises(ParseError):
        parse_weight_list("[3,1", 2)


@pytest.mark.parametrize("text", ("[3,1", "[a]", "[1,2]", "[1,1,1,1]"))
def test_bad_partition_literal(text):
    with pytest.raises(ParseError):
        parse_weight(text, 2)
    with pytest.raises(ParseError):
        parse_weight_list(text, 2)


@given(sl_weights())
def test_weight_text_round_trip(w):
    assert parse_weight(weight_text(w), w.rank) == w


def test_slweight_normalizes_at_construction():
    assert SlWeight(2, (4, 2, 1)).parts == (3, 1)
    with pytest.raises(DomainError):
        SlWeight(2, (1, 1, 1, 1))


@given(weight_tuples())
def test_setup_tallies_its_weights(rlw):
    r, level, ws = rlw
    setup = BlockSetup(r, level, ws)
    assert setup.critical_level == critical_level(r, ws)
    assert setup.first_rows == sum(w.parts[0] for w in ws if w.parts)
