"""Text format round trips, parses of literal text, and strictness."""

import re

import pytest
from hypothesis import assume, given, strategies as st

from conftest import bit_matrices, bit_vectors
from quadpoint.formats import (
    FormatError,
    dump_decomposition,
    dump_form,
    dump_matrix,
    parse_decomposition,
    parse_form,
    parse_inline_matrix,
    parse_matrix,
    parse_surface,
    parse_word,
)
from quadpoint.gf2 import BitMatrix, BitVector, rank_rows
from quadpoint.mcg import FLIP, UMAP, SurfacePinkallForm, square, twist
from quadpoint.quadform import QuadraticForm, standard_form


def test_matrix_round_trip():
    m = BitMatrix.from_strings(["0110", "1011"])
    assert parse_matrix(dump_matrix(m)) == m


def test_matrix_strictness():
    with pytest.raises(FormatError):
        parse_matrix("2 2\n01\n")
    with pytest.raises(FormatError):
        parse_matrix("2 2\n01\n102\n")
    with pytest.raises(FormatError):
        parse_matrix("2\n01\n10\n")
    with pytest.raises(FormatError):
        parse_matrix("")
    with pytest.raises(FormatError, match="^expected 1 matrix rows, got 2$"):
        parse_matrix("1 2\n01\n\n")  # a blank line is a row, of width 0


def test_form_round_trip():
    for genus, arf_value in [(0, 0), (1, 1), (2, 0), (3, 1)]:
        f = standard_form(genus, arf_value)
        assert parse_form(dump_form(f)) == f


def test_form_semantic_errors_are_value_errors():
    text = "form 2\ng 00\n10\n01\n"  # nonzero diagonal
    with pytest.raises(ValueError):
        parse_form(text)
    with pytest.raises(ValueError, match="^degenerate form$"):
        parse_form("form 2\ng 00\n00\n00\n")


def test_surface_round_trip():
    """The standard surfaces from their text, g on a_1, b_1, ..., a_n, b_n."""
    for text, genus, arf_value in [("genus 1\ng 00\n", 1, 0), ("genus 2\ng 1100\n", 2, 1)]:
        assert parse_surface(text) == SurfacePinkallForm.standard(genus, arf_value)
    assert parse_surface("genus 2\ng 0011\n") == SurfacePinkallForm.from_g_values(
        2, BitVector.from_string("0011"))


def test_surface_genus_zero_text():
    assert parse_surface("genus 0\ng\n") == SurfacePinkallForm.standard(0, 0)
    assert parse_surface("genus 0\ng \n") == SurfacePinkallForm.standard(0, 0)


def test_word_round_trip():
    assert parse_word("twist 11\nflip\n") == [twist(BitVector.from_string("11")), FLIP]
    assert parse_word("\n  \ntwist 11\n\n") == [twist(BitVector.from_string("11"))]
    assert parse_word("") == []


@pytest.mark.parametrize("parse, text, message", [
    (parse_matrix, "2 3\n011\n01\n", "matrix row of length 2, expected 3"),
    (parse_form, "form 2\ng 00\n01\n1\n", "Gram row of length 1, expected 2"),
    (parse_form, "form 2\ng 000\n01\n10\n", "g values of length 3, expected 2"),
    (parse_surface, "genus 1\ng 0\n", "g values of length 1, expected 2"),
    (parse_surface, "genus 1\ng\n", "g values of length 0, expected 2"),
    (parse_surface, "genus 1\ng 0x\n", "g values must be a 0/1 string, got '0x'"),
])
def test_row_width_messages(parse, text, message):
    """Every fixed-width row names what it is, its length and the width."""
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_surface, "genus 0_1\ng\n", "genus must be an integer, got '0_1'"),
    (parse_surface, "genus \u0661\ng 00\n", "genus must be an integer, got '\u0661'"),
    (parse_form, "form +2\ng 00\n01\n10\n", "dimension must be an integer, got '+2'"),
    (parse_matrix, "0_2 2\n", "row count must be an integer, got '0_2'"),
    (parse_matrix, f"{'1' * 5000} 2\n", f"row count must be an integer, got {'1' * 5000!r}"),
    (parse_surface, "genus -3\ng\n", "genus must be non-negative, got -3"),
])
def test_integers_are_ascii_decimal_digits(parse, text, message):
    """A count is ASCII digits 0-9 alone: no sign, underscore or other script,
    and no more digits than the interpreter's int() reads."""
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_word_strictness():
    with pytest.raises(FormatError):
        parse_word("twist\n")
    with pytest.raises(FormatError):
        parse_word("spin 01\n")
    with pytest.raises(FormatError):
        parse_word("flip 1\n")


def test_word_every_token_kind():
    word = [twist(BitVector.from_string("10")), square(BitVector.from_string("01")),
            FLIP, UMAP]
    assert parse_word("twist 10\nsquare 01\nflip\numap\n") == word
    for kind in ("flip", "umap"):
        with pytest.raises(FormatError, match=f"^'{kind}' takes no argument, got '{kind} 1'$"):
            parse_word(f"{kind} 1\n")
    with pytest.raises(FormatError, match="^expected 'square <bits>', got 'square'$"):
        parse_word("square\n")


def test_decomposition_round_trip():
    word = [BitVector.from_string("1100"), BitVector.from_string("0011")]
    text = dump_decomposition(1, word)
    assert parse_decomposition(text) == (1, word)
    assert parse_decomposition("u 0\n") == (0, [])


@st.composite
def quadratic_forms(draw, max_dim=6):
    """Any symmetric zero-diagonal Gram of full rank, with any g: a degenerate
    Gram makes no form, and an alternating Gram has even rank, so no odd
    dimension is drawn."""
    dim = 2 * draw(st.integers(0, max_dim // 2))
    upper = [draw(st.integers(0, (1 << dim) - 1)) >> (i + 1) << (i + 1) for i in range(dim)]
    gram = [upper[i] | sum((upper[j] >> i & 1) << j for j in range(i)) for i in range(dim)]
    g = draw(bit_vectors(dim))
    assume(rank_rows(gram) == dim)
    return QuadraticForm(dim, BitMatrix(dim, dim, tuple(gram)), g)


@st.composite
def decomposition_values(draw):
    length = draw(st.integers(0, 6))
    return draw(st.integers(0, 1)), draw(st.lists(bit_vectors(length), max_size=4))


@pytest.mark.parametrize("dump, parse, values", [
    (dump_matrix, parse_matrix, bit_matrices()),
    (dump_form, parse_form, quadratic_forms()),
    (lambda d: dump_decomposition(*d), parse_decomposition, decomposition_values()),
], ids=["matrix", "form", "decomposition"])
@given(data=st.data())
def test_every_dump_parses_back(dump, parse, values, data):
    """Each writer's text parses back to its value, empty shapes included: an
    r x 0 matrix, a dimension-0 form, a word of length-0 vectors."""
    value = data.draw(values)
    assert parse(dump(value)) == value


def test_inline_matrix():
    assert parse_inline_matrix("01/10") == BitMatrix.from_strings(["01", "10"])
    assert parse_inline_matrix("101") == BitMatrix.from_strings(["101"])
    with pytest.raises(FormatError):
        parse_inline_matrix("01/1")
