import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cblocks.errors import DomainError, ParseError
from cblocks.young import (
    BlockSetup,
    SlWeight,
    box_complement,
    conjugate,
    dual_star,
    fits_level,
    parse_weight,
    parse_weight_list,
    partition,
    theta_pairing,
    transpose,
    weight_text,
)
from reference import critical_level, padded_box_complement, weight_from_fundamental
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
    assert parse_weight("w1", 2).parts == (1,)
    assert parse_weight("3w2", 2).parts == (3, 3)
    assert parse_weight("2w1+w3", 3).parts == (3, 1, 1)
    with pytest.raises(ParseError):
        parse_weight("w1-w2", 2)


@st.composite
def fundamental_spellings(draw):
    """(r, coefficients, a spelling of that weight in fundamental terms).

    Each nonzero coefficient is split into one or more terms, and terms with
    multiplicity 0 ride along, all in a random order.
    """
    r = draw(st.integers(min_value=1, max_value=6))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=r, max_size=r))
    terms = []
    for j, a in enumerate(coeffs, start=1):
        while a:
            m = draw(st.integers(min_value=1, max_value=a))
            terms.append(draw(st.sampled_from([f"{m}w{j}"] + ([f"w{j}"] if m == 1 else []))))
            a -= m
        if draw(st.booleans()):
            terms.append(f"0w{j}")
    terms = draw(st.permutations(terms))
    return r, coeffs, "+".join(terms) if terms else "0"


@given(fundamental_spellings())
def test_parse_weight_builds_the_diagram_of_its_terms(spelled):
    r, coeffs, text = spelled
    w = parse_weight(text, r)
    assert w == weight_from_fundamental(coeffs, r)
    canonical = [f"{a}w{j}" if a > 1 else f"w{j}" for j, a in enumerate(coeffs, start=1) if a]
    assert weight_text(w) == ("+".join(canonical) or "0")


def test_parsing_and_printing_work_in_the_size_of_the_diagram():
    # none of parse_weight, SlWeight, partition or weight_text allocates or
    # walks r rows: at r = 10**6 the whole round trip stays below 1 MB
    tracemalloc.start()
    try:
        w = parse_weight("w1", 10**6)
        text = weight_text(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (w.parts, text) == ((1,), "w1")
    assert peak < 1 << 20


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


@given(boxed_partitions(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_box_complement_matches_the_padded_formula(p, more_rows, more_width):
    rows, width = len(p) + more_rows, (p[0] if p else 0) + more_width
    assert box_complement(p, rows, width) == padded_box_complement(p, rows, width)


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


@pytest.mark.parametrize("r", (0, -1))
def test_setup_refuses_a_rank_below_one(r):
    # the rank is checked before the level, with SlWeight's message
    message = f"^algebra rank must be positive, got {r}$"
    for level in (1, 0):
        with pytest.raises(DomainError, match=message):
            BlockSetup(r, level, ())
    with pytest.raises(DomainError, match=message):
        SlWeight(r, ())


@given(weight_tuples())
def test_setup_tallies_its_weights(rlw):
    r, level, ws = rlw
    setup = BlockSetup(r, level, ws)
    assert setup.critical_level == critical_level(r, ws)
    assert setup.first_rows == sum(w.parts[0] for w in ws if w.parts)
