"""Text format round trips and strictness."""

import pytest

from quadpoint.formats import (
    FormatError,
    dump_decomposition,
    dump_form,
    dump_matrix,
    dump_surface,
    dump_word,
    parse_decomposition,
    parse_form,
    parse_inline_matrix,
    parse_matrix,
    parse_surface,
    parse_word,
)
from quadpoint.gf2 import BitMatrix, BitVector
from quadpoint.mcg import FLIP, UMAP, SurfacePinkallForm, square, twist
from quadpoint.quadform import standard_form


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


def test_form_round_trip():
    for genus, arf_value in [(0, 0), (1, 1), (2, 0), (3, 1)]:
        f = standard_form(genus, arf_value)
        assert parse_form(dump_form(f)) == f


def test_form_semantic_errors_are_value_errors():
    text = "form 2\ng 00\n10\n01\n"  # nonzero diagonal
    with pytest.raises(ValueError):
        parse_form(text)


def test_surface_round_trip():
    for genus, arf_value in [(0, 0), (1, 0), (2, 1)]:
        s = SurfacePinkallForm.standard(genus, arf_value)
        assert parse_surface(dump_surface(s)) == s


def test_surface_genus_zero_text():
    assert dump_surface(SurfacePinkallForm.standard(0, 0)) == "genus 0\ng\n"


def test_word_round_trip():
    word = [twist(BitVector.from_string("11")), FLIP]
    text = dump_word(word)
    assert text == "twist 11\nflip\n"
    assert parse_word(text) == word
    assert parse_word("") == []


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
    text = "twist 10\nsquare 01\nflip\numap\n"
    assert dump_word(word) == text and parse_word(text) == word
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


def test_inline_matrix():
    assert parse_inline_matrix("01/10") == BitMatrix.from_strings(["01", "10"])
    assert parse_inline_matrix("101") == BitMatrix.from_strings(["101"])
    with pytest.raises(FormatError):
        parse_inline_matrix("01/1")
