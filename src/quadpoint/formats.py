"""Line-oriented text formats shared by the CLI and the test fixtures.

Matrix:         ``rows cols`` header, then one 0/1 string per row.
Form:           ``form <dim>``, ``g <dim bits>``, then the Gram rows.
Surface:        ``genus <n>``, then ``g <2n bits>``.
Word:           one token per line: ``twist <bits>``, ``square <bits>``,
                ``flip``, ``umap``.
Decomposition:  ``u <0|1>``, then one bit string per word vector.

Every line counts, blank ones too (an r x 0 matrix is r blank rows), except
in a word.  An inline vector (a CLI argument without '/') is a 1 x n matrix.
Structural problems raise FormatError; semantic ones (a non-symmetric
Gram, say) surface as ValueError from the domain types.
"""

from __future__ import annotations

from .gf2 import BitMatrix, BitVector
from .mcg import FLIP, UMAP, SurfacePinkallForm, Token, square, twist
from .quadform import QuadraticForm


class FormatError(Exception):
    """The text does not match the documented format."""


def _lines(text: str) -> list[str]:
    return [ln.rstrip() for ln in text.splitlines()]


def _bits(token: str, what: str) -> BitVector:
    try:
        return BitVector.from_string(token)
    except ValueError:
        raise FormatError(f"{what} must be a 0/1 string, got {token!r}") from None


def _row(token: str, width: int, what: str) -> BitVector:
    v = _bits(token, what)
    if v.length != width:
        raise FormatError(f"{what} of length {v.length}, expected {width}")
    return v


def _decimal(token: str) -> int:
    """An optional '-' and ASCII decimal digits, as an int, for the formats and
    the CLI; ValueError otherwise, or past the interpreter's limit on digits."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _int(token: str, what: str) -> int:
    """A non-negative integer written in ASCII decimal digits."""
    try:
        value = _decimal(token)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {token!r}") from None
    if value < 0:
        raise FormatError(f"{what} must be non-negative, got {value}")
    return value


def _g_values(line: str, length: int) -> BitVector:
    """The ``g <bits>`` line of a form or surface: g on the basis vectors."""
    parts = line.split()
    if not parts or parts[0] != "g" or len(parts) > 2:
        raise FormatError(f"expected 'g <bits>', got {line!r}")
    return _row(parts[1] if len(parts) == 2 else "", length, "g values")


def parse_matrix(text: str) -> BitMatrix:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"matrix header must be 'rows cols', got {lines[0]!r}")
    rows = _int(header[0], "row count")
    cols = _int(header[1], "column count")
    if len(lines) != 1 + rows:
        raise FormatError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    data = tuple(_row(ln, cols, "matrix row").bits for ln in lines[1:])
    return BitMatrix(rows, cols, data)


def dump_matrix(m: BitMatrix) -> str:
    return "\n".join([f"{m.rows} {m.cols}"] + m.to01_rows()) + "\n"


def parse_form(text: str) -> QuadraticForm:
    lines = _lines(text)
    if len(lines) < 2:
        raise FormatError("form text needs a 'form' line and a 'g' line")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "form":
        raise FormatError(f"expected 'form <dim>', got {lines[0]!r}")
    dim = _int(head[1], "dimension")
    g = _g_values(lines[1], dim)
    if len(lines) != 2 + dim:
        raise FormatError(f"expected {dim} Gram rows, got {len(lines) - 2}")
    data = tuple(_row(ln, dim, "Gram row").bits for ln in lines[2:])
    return QuadraticForm(dim, BitMatrix(dim, dim, data), g)


def dump_form(f: QuadraticForm) -> str:
    lines = [f"form {f.dim}", f"g {f.basis_g.to01()}".rstrip()] + f.gram.to01_rows()
    return "\n".join(lines) + "\n"


def parse_surface(text: str) -> SurfacePinkallForm:
    lines = _lines(text)
    if len(lines) != 2:
        raise FormatError("surface text is exactly a 'genus' line and a 'g' line")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "genus":
        raise FormatError(f"expected 'genus <n>', got {lines[0]!r}")
    genus = _int(head[1], "genus")
    return SurfacePinkallForm.from_g_values(genus, _g_values(lines[1], 2 * genus))


_VECTOR_TOKENS = {"twist": twist, "square": square}
_BARE_TOKENS = {"flip": FLIP, "umap": UMAP}


def parse_word(text: str) -> list[Token]:
    tokens = []
    for ln in _lines(text):
        parts = ln.split()
        if not parts:
            continue
        kind = parts[0]
        if kind in _VECTOR_TOKENS:
            if len(parts) != 2:
                raise FormatError(f"expected '{kind} <bits>', got {ln!r}")
            tokens.append(_VECTOR_TOKENS[kind](_bits(parts[1], f"{kind} vector")))
        elif kind in _BARE_TOKENS:
            if len(parts) != 1:
                raise FormatError(f"'{kind}' takes no argument, got {ln!r}")
            tokens.append(_BARE_TOKENS[kind])
        else:
            raise FormatError(f"unknown word token {kind!r}")
    return tokens


def parse_decomposition(text: str) -> tuple[int, list[BitVector]]:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty decomposition text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "u" or head[1] not in ("0", "1"):
        raise FormatError(f"expected 'u <0|1>', got {lines[0]!r}")
    word = [_bits(ln, "word vector") for ln in lines[1:]]
    return int(head[1]), word


def dump_decomposition(u_flag: int, word) -> str:
    return "\n".join([f"u {u_flag}"] + [v.to01() for v in word]) + "\n"


def parse_inline_matrix(arg: str) -> BitMatrix:
    """Inline matrix syntax for CLI arguments: rows joined with '/'.

    A single run of bits is a 1 x n vector.
    """
    rows = arg.split("/")
    cols = len(rows[0])
    return BitMatrix(len(rows), cols, tuple(_row(r, cols, "inline matrix row").bits for r in rows))
