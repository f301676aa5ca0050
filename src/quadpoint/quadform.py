"""Quadratic forms over GF(2).

A quadratic form g satisfies g(x+y) = g(x) + g(y) + B(x,y) for a
symmetric bilinear form B with zero diagonal, so g is determined by its
Gram matrix and its values on basis vectors, and is evaluated by
polarization.  Non-degenerate forms live on even-dimensional spaces,
admit symplectic bases, and fall into exactly two isomorphism classes
per dimension, separated by the Arf invariant.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .gf2 import (
    BitMatrix,
    BitVector,
    _Value,
    _echelon,
    _kernel,
    _lookup,
    _mul_rows,
    _solution,
    _symplectic_pairs,
    _tables,
    _transpose,
    parity,
    rank_rows,
)


class QuadraticForm(_Value):
    """A quadratic form given by its Gram matrix and basis values.

    gram[i][j] = B(e_i, e_j) must be symmetric with zero diagonal;
    basis_g[i] = g(e_i).
    """

    __slots__ = ("dim", "gram", "basis_g")

    def __init__(self, dim: int, gram: BitMatrix, basis_g: BitVector) -> None:
        if gram.rows != dim or gram.cols != dim:
            raise ValueError("Gram matrix does not match the dimension")
        if basis_g.length != dim:
            raise ValueError("basis value vector does not match the dimension")
        for i, row in enumerate(gram.data):
            if (row >> i) & 1:
                raise ValueError(f"Gram diagonal must vanish (row {i})")
        if _transpose(gram.data, dim) != list(gram.data):
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "basis_g", basis_g)


# -- bit-level helpers shared inside the package ---------------------------

@lru_cache(maxsize=1)
def _images(f: QuadraticForm):
    """The map v -> (G v, g(v)) of the form, one byte-table pass per vector.

    Row i of the table rows is gram[i] | upper[i] << dim, with upper the
    strict upper triangle U of the Gram.  The rows that v picks sum to
    G v | (U^T v) << dim: the Gram is symmetric, so bit j of G v is
    B(e_j, v) and B(x, v) is parity(x & G v) for every x; and g(v) is
    v^T U v + parity(v & basis_g).  One form's tables are kept.
    """
    dim = f.dim
    mask = (1 << dim) - 1
    gbits = f.basis_g.bits
    tables = _tables([r | r >> (i + 1) << (i + 1 + dim) for i, r in enumerate(f.gram.data)])

    def gram_g(vbits: int) -> tuple[int, int]:
        acc = _lookup(tables, vbits)
        return acc & mask, parity(vbits & ((acc >> dim) ^ gbits))

    return gram_g


@lru_cache(maxsize=1)
def _columns(f: QuadraticForm, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The columns c_i = m e_i of the square m with these rows, their Gram
    images G c_i, and g(c_i) at bit i: one _images lookup per column.

    One matrix is kept, as _images keeps one form: OrthogonalMap certifies m
    through _pullback_bits and decompose's restoration reads the same columns
    one call later; mcg.in_orthogonal_mcg reads the g-values alone.
    """
    gram_g = _images(f)
    cols = tuple(_transpose(rows, f.dim))
    images = [gram_g(c) for c in cols]
    return (cols, tuple(gc for gc, _ in images),
            sum(g << i for i, (_, g) in enumerate(images)))


def _pullback_bits(f: QuadraticForm, rows: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Gram rows and basis values of x -> g(m x), for square m given by its rows.

    _columns gives G c_i and g(c_i) for the columns c_i = m e_i; row i of
    m^T gram m is m^T (G c_i), the rows G c_i times m in one gf2._mul_rows
    block product, as m is multiplied once and its byte tables would not
    pay back.
    """
    _, gram_cols, gbits = _columns(f, tuple(rows))
    return tuple(_mul_rows(gram_cols, rows, f.dim)), gbits


# -- evaluation -------------------------------------------------------------

def evaluate(f: QuadraticForm, v: BitVector) -> int:
    """g(v), from the form's byte tables (see _images)."""
    if v.length != f.dim:
        raise ValueError("length mismatch")
    return _images(f)(v.bits)[1]


def bilinear(f: QuadraticForm, x: BitVector, y: BitVector) -> int:
    """B(x, y) = parity(x & G y), G y from the form's byte tables."""
    if x.length != f.dim or y.length != f.dim:
        raise ValueError("length mismatch")
    return parity(x.bits & _images(f)(y.bits)[0])


# -- structure --------------------------------------------------------------

@lru_cache(maxsize=1)
def _gram_pairs(gram: BitMatrix) -> tuple[tuple[int, int], ...]:
    """The greedy symplectic pairs (a_i, b_i) of a Gram matrix, with
    B(a_i, a_j) = B(b_i, b_j) = 0 and B(a_i, b_j) = delta_ij.

    Repeatedly takes the first remaining vector x, the first partner y
    with B(x,y) = 1, and projects the rest to the orthogonal complement of
    the pair, on their Gram block updated by congruence, so that no B is
    recomputed (gf2._symplectic_pairs).  An x with no partner lies in the
    radical: ValueError("degenerate form"), which is not cached.
    Non-degeneracy's certificate, keyed by the Gram, not the form; the
    latest Gram's pairs are kept, which recompose reads for the Gram that
    OrthogonalMap certified one call earlier.
    """
    return tuple(_symplectic_pairs(gram.data))


def _require_nondegenerate(f: QuadraticForm) -> tuple[tuple[int, int], ...]:
    """The symplectic pairs of f's Gram, or ValueError("degenerate form")."""
    return _gram_pairs(f.gram)


@lru_cache(maxsize=1)
def arf(f: QuadraticForm) -> int:
    """Arf invariant: sum of g(a_i) g(b_i) over the symplectic pairs.

    The pairs come first, so a degenerate form raises before it can evict
    the one form whose _images tables are kept.
    """
    pairs = _require_nondegenerate(f)
    gram_g = _images(f)
    acc = 0
    for a, b in pairs:
        acc ^= gram_g(a)[1] & gram_g(b)[1]
    return acc


def direct_sum(f1: QuadraticForm, f2: QuadraticForm) -> QuadraticForm:
    """Orthogonal direct sum: block-diagonal Gram, concatenated g-values."""
    d1, dim = f1.dim, f1.dim + f2.dim
    rows = tuple(f1.gram.data) + tuple(r << d1 for r in f2.gram.data)
    gbits = f1.basis_g.bits | (f2.basis_g.bits << d1)
    return QuadraticForm(dim, BitMatrix(dim, dim, rows), BitVector(dim, gbits))


def pullback(f: QuadraticForm, p: BitMatrix) -> QuadraticForm:
    """The form x -> g(p x): Gram becomes p^T gram p, basis values g(p e_i)."""
    _require_nondegenerate(f)
    if p.rows != f.dim or p.cols != f.dim:
        raise ValueError("change of basis must be square of matching dimension")
    gram, gbits = _pullback_bits(f, p.data)
    return QuadraticForm(f.dim, BitMatrix(f.dim, f.dim, gram), BitVector(f.dim, gbits))


def standard_gram(genus: int) -> BitMatrix:
    """Block-diagonal hyperbolic Gram on basis a_1,b_1,...,a_n,b_n: row k is e_(k^1)."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return BitMatrix(2 * genus, 2 * genus, tuple(1 << (k ^ 1) for k in range(2 * genus)))


def standard_form(genus: int, arf_value: int) -> QuadraticForm:
    """The standard non-degenerate form of given genus and Arf invariant."""
    if arf_value not in (0, 1):
        raise ValueError("arf_value must be 0 or 1")
    if arf_value and not genus:
        raise ValueError("genus 0 only carries the trivial form")
    return QuadraticForm(2 * genus, standard_gram(genus), BitVector(2 * genus, 0b11 * arf_value))


# -- searches ---------------------------------------------------------------

def _find_flip(f: QuadraticForm, space_basis: Iterable[int], base: int = 0) -> int | None:
    """Element of base + span with g = 1, base itself first when g(base) = 1.

    g(b + x + y) = g(b + x) + g(b + y) + g(b) + B(x, y), so if g vanishes
    on base and on base plus each basis vector, a witness, when one exists,
    is base plus a pair with B = 1.  The basis is read one vector at a time,
    so a lazy basis (gf2._kernel) is built only as far as the first witness.
    """
    gram_g = _images(f)
    if gram_g(base)[1]:
        return base
    read = []
    for x in space_basis:
        if gram_g(base ^ x)[1]:
            return base ^ x
        read.append(x)
    images = [gram_g(y)[0] for y in read]
    for i, x in enumerate(read):
        for j in range(i + 1, len(read)):
            if parity(x & images[j]):
                return base ^ x ^ read[j]
    return None


def find_connector(f: QuadraticForm, ws: Sequence[BitVector],
                   a1: BitVector, a2: BitVector) -> BitVector:
    """A vector c orthogonal to all w_i with g(c) = 1, B(a1,c) = B(a2,c) = 1.

    The w_i must be independent with g(w_i) = 1 and pairwise B = 0; a1 and
    a2 must lie in the orthogonal complement of W = span(w_i) but outside W,
    with g = 1 and B(a1,a2) = 0.  No such c exists in dimension 2 with
    Arf 0, nor in dimension 4 with Arf 0 when k = 0 and a1 != a2; those
    requests are rejected.  The candidates are the solutions b + K of one
    reduced system, the rows G w_i with right-hand side 0 and G a1, G a2
    with right-hand side 1: consistent, as G is invertible and a1, a2 lie
    outside W.  b has free variables zero (see _solution), and the kernel K
    holds W.  c is the first element of the coset that _find_flip meets, with
    w_1 searched first, so with w vectors c is b, or b + w_1 if g(b) = 0.
    Were g zero on the whole coset, K would be totally isotropic, of
    dimension at least dim - 2; so from dimension 6 on a connector exists.
    """
    _require_nondegenerate(f)
    dim = f.dim
    k = len(ws)
    for i, w in enumerate(ws):
        if w.length != dim:
            raise ValueError("length mismatch")
        if evaluate(f, w) != 1:
            raise ValueError(f"w[{i}] must have g = 1")
        for j in range(i, k):
            if bilinear(f, w, ws[j]):
                raise ValueError(f"w[{i}] and w[{j}] must be orthogonal")
    wbits = [w.bits for w in ws]
    if rank_rows(wbits) != k:
        raise ValueError("w vectors must be independent")
    for name, a in (("a1", a1), ("a2", a2)):
        if a.length != dim:
            raise ValueError("length mismatch")
        if evaluate(f, a) != 1:
            raise ValueError(f"{name} must have g = 1")
        for i, w in enumerate(ws):
            if bilinear(f, a, w):
                raise ValueError(f"{name} must be orthogonal to w[{i}]")
        if rank_rows(wbits + [a.bits]) == k:
            raise ValueError(f"{name} must lie outside the span of the w vectors")
    if bilinear(f, a1, a2):
        raise ValueError("a1 and a2 must be orthogonal")

    arf_value = arf(f)
    if (dim, arf_value) == (2, 0):
        raise ValueError("no connector exists: dimension 2 with Arf 0 is excluded")
    if (dim, arf_value) == (4, 0) and k == 0 and a1 != a2:
        raise ValueError(
            "no connector exists: dimension 4 with Arf 0 requires k > 0 or a1 = a2")
    rhs = 1 << dim
    gram_g = _images(f)
    system = _echelon([*(gram_g(w)[0] for w in wbits),
                       gram_g(a1.bits)[0] | rhs, gram_g(a2.bits)[0] | rhs])
    return BitVector(dim, _find_flip(f, [*wbits, *_kernel(system, dim)], _solution(system, rhs)))
