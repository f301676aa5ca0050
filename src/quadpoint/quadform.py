"""Quadratic forms over GF(2).

A quadratic form g satisfies g(x+y) = g(x) + g(y) + B(x,y) for a
symmetric bilinear form B with zero diagonal, so g is determined by its
Gram matrix and its values on basis vectors, and is evaluated by
polarization.  Non-degenerate forms live on even-dimensional spaces,
admit symplectic bases, and fall into exactly two isomorphism classes
per dimension, separated by the Arf invariant.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .gf2 import (
    BitMatrix,
    BitVector,
    _Value,
    _combine,
    _echelon,
    _echelon_add,
    _kernel,
    _lookup,
    _mul_rows,
    _solution,
    _tables,
    _transpose,
    parity,
    rank_rows,
)

# Entries kept by each form-keyed cache, here and in orthogroup: a process
# that meets many forms keeps only the most recent ones.
FORM_CACHE_SIZE = 128


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
        if gram.data != gram.transpose().data:
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "basis_g", basis_g)


class SymplecticBasis(_Value):
    """Basis pairs with B(a_i,a_j) = B(b_i,b_j) = 0 and B(a_i,b_j) = delta_ij."""

    __slots__ = ("a_vectors", "b_vectors")

    def __init__(self, a_vectors: tuple[BitVector, ...], b_vectors: tuple[BitVector, ...]) -> None:
        object.__setattr__(self, "a_vectors", a_vectors)
        object.__setattr__(self, "b_vectors", b_vectors)


# -- bit-level helpers shared inside the package ---------------------------

def _evaluate_bits(f: QuadraticForm, vbits: int) -> int:
    """g(v) by polarization over the set bits: the referee of _images."""
    acc = parity(vbits & f.basis_g.bits)
    rest = vbits
    gram = f.gram.data
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        acc ^= parity(gram[i] & rest)
    return acc


def _bil_bits(f: QuadraticForm, xbits: int, ybits: int) -> int:
    acc = 0
    gram = f.gram.data
    t = xbits
    while t:
        i = (t & -t).bit_length() - 1
        t &= t - 1
        acc ^= parity(gram[i] & ybits)
    return acc


@lru_cache(maxsize=1)
def _images(f: QuadraticForm):
    """The map v -> (G v, g(v)) of the form, one byte-table pass per vector.

    Row i of the table rows is gram[i] | upper[i] << dim, with upper the
    strict upper triangle U of the Gram.  The rows that v picks sum to
    G v | (U^T v) << dim: the Gram is symmetric, so bit j of G v is
    B(e_j, v) and B(x, v) is parity(x & G v) for every x; and g(v) is
    v^T U v + parity(v & basis_g).  Each workload meets one form at a time,
    so one form's tables are kept.
    """
    dim = f.dim
    mask = (1 << dim) - 1
    gbits = f.basis_g.bits
    tables = _tables([r | r >> (i + 1) << (i + 1 + dim) for i, r in enumerate(f.gram.data)])

    def gram_g(vbits: int) -> tuple[int, int]:
        acc = _lookup(tables, vbits)
        return acc & mask, parity(vbits & ((acc >> dim) ^ gbits))

    return gram_g


def _pullback_bits(f: QuadraticForm, rows: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Gram rows and basis values of x -> g(m x), for square m given by its rows.

    With U the strict upper triangle of the Gram, gram = U + U^T and
    g(v) = v^T U v + parity(v & basis_g).  So X = m^T U m gives the Gram
    m^T gram m = X + X^T, and g(m e_i) = X_ii + (basis_g^T m)_i.
    """
    dim = f.dim
    upper = [r >> (i + 1) << (i + 1) for i, r in enumerate(f.gram.data)]
    x = _mul_rows(_transpose(rows, dim), _mul_rows(upper, rows))
    diagonal = sum(r & (1 << i) for i, r in enumerate(x))
    gram = tuple(a ^ b for a, b in zip(x, _transpose(x, dim)))
    return gram, diagonal ^ _combine(rows, f.basis_g.bits)


def _preserves(f: QuadraticForm, rows: Sequence[int]) -> bool:
    """Whether m^T gram m = gram and g(m e_i) = g(e_i) for every i.

    By polarization this is g(m x) = g(x) for every x.  On a non-degenerate
    form it also makes m invertible, since det(m)^2 det(gram) = det(gram) != 0.
    """
    return _pullback_bits(f, rows) == (f.gram.data, f.basis_g.bits)


# -- evaluation -------------------------------------------------------------

def evaluate(f: QuadraticForm, v: BitVector) -> int:
    """g(v), from the form's byte tables (see _images)."""
    if v.length != f.dim:
        raise ValueError("length mismatch")
    return _images(f)(v.bits)[1]


def bilinear(f: QuadraticForm, x: BitVector, y: BitVector) -> int:
    """B(x, y) = x^T . gram . y."""
    if x.length != f.dim or y.length != f.dim:
        raise ValueError("length mismatch")
    return _bil_bits(f, x.bits, y.bits)


@lru_cache(maxsize=FORM_CACHE_SIZE)
def is_nondegenerate(f: QuadraticForm) -> bool:
    try:
        _require_nondegenerate(f)
    except ValueError:
        return False
    return True


def _require_nondegenerate(f: QuadraticForm) -> None:
    symplectic_basis(f)  # raises ValueError("degenerate form") if there is none


# -- structure --------------------------------------------------------------

@lru_cache(maxsize=FORM_CACHE_SIZE)
def symplectic_basis(f: QuadraticForm) -> SymplecticBasis:
    """A symplectic basis, produced by a deterministic greedy reduction.

    Repeatedly takes the first remaining vector x, the first partner y
    with B(x,y) = 1, and replaces the rest by their projections to the
    orthogonal complement of the pair.  G x and G y are computed once per
    pair; B(z + x, x) = B(z, x), so the second test may read the updated z.
    The projection is linear with kernel span(x, y), so the projections of
    the other, independent, remaining vectors stay independent and span the
    complement of the pairs found.  An x with no partner (always the last one
    in odd dimension) thus lies in the radical: ValueError("degenerate form").
    """
    gram_g = _images(f)
    remaining = [1 << i for i in range(f.dim)]
    a_out: list[BitVector] = []
    b_out: list[BitVector] = []
    while remaining:
        x = remaining[0]
        gx = gram_g(x)[0]
        y = next((z for z in remaining[1:] if parity(z & gx)), None)
        if y is None:
            raise ValueError("degenerate form")
        gy = gram_g(y)[0]
        a_out.append(BitVector(f.dim, x))
        b_out.append(BitVector(f.dim, y))
        projected = []
        for z in remaining:
            if z in (x, y):
                continue
            if parity(z & gy):
                z ^= x
            if parity(z & gx):
                z ^= y
            projected.append(z)
        remaining = projected
    return SymplecticBasis(tuple(a_out), tuple(b_out))


def _complete_isotropic(f: QuadraticForm, abits: Sequence[int],
                        agram: Sequence[int]) -> list[int]:
    """Dual partners of an independent isotropic family, on packed vectors.

    Given independent a_1..a_k with B(a_i,a_j) = 0 and their Gram images
    G a_i, returns b_1..b_k with B(b_i,b_j) = 0 and B(a_i,b_j) = delta_ij.
    One elimination of the rows G a_i with right-hand sides e_i (bit dim + i)
    gives every c_j with B(a_i, c_j) = delta_ij.
    """
    k = len(abits)
    rhs = [1 << (f.dim + i) for i in range(k)]
    echelon = _echelon(g | r for g, r in zip(agram, rhs))
    cs = [_solution(echelon, r) for r in rhs]
    if None in cs:
        raise ValueError("vectors are not independent")
    gram_g = _images(f)
    out = []
    for i in range(k):
        b = cs[i]
        gc = gram_g(b)[0]
        for m in range(i + 1, k):
            if parity(cs[m] & gc):
                b ^= abits[m]
        out.append(b)
    return out


@lru_cache(maxsize=FORM_CACHE_SIZE)
def arf(f: QuadraticForm) -> int:
    """Arf invariant: sum of g(a_i) g(b_i) over a symplectic basis."""
    sb = symplectic_basis(f)
    gram_g = _images(f)
    acc = 0
    for a, b in zip(sb.a_vectors, sb.b_vectors):
        acc ^= gram_g(a.bits)[1] & gram_g(b.bits)[1]
    return acc


def direct_sum(f1: QuadraticForm, f2: QuadraticForm) -> QuadraticForm:
    """Orthogonal direct sum: block-diagonal Gram, concatenated g-values."""
    d1, d2 = f1.dim, f2.dim
    rows = tuple(f1.gram.data) + tuple(r << d1 for r in f2.gram.data)
    return QuadraticForm(
        d1 + d2,
        BitMatrix(d1 + d2, d1 + d2, rows),
        BitVector(d1 + d2, f1.basis_g.bits | (f2.basis_g.bits << d1)),
    )


def pullback(f: QuadraticForm, p: BitMatrix) -> QuadraticForm:
    """The form x -> g(p x): Gram becomes p^T gram p, basis values g(p e_i)."""
    if p.rows != f.dim or p.cols != f.dim:
        raise ValueError("change of basis must be square of matching dimension")
    gram, gbits = _pullback_bits(f, p.data)
    return QuadraticForm(f.dim, BitMatrix(f.dim, f.dim, gram), BitVector(f.dim, gbits))


def standard_gram(genus: int) -> BitMatrix:
    """Block-diagonal hyperbolic Gram on basis a_1,b_1,...,a_n,b_n."""
    rows = []
    for i in range(genus):
        rows.append(1 << (2 * i + 1))
        rows.append(1 << (2 * i))
    return BitMatrix(2 * genus, 2 * genus, tuple(rows))


def standard_form(genus: int, arf_value: int) -> QuadraticForm:
    """The standard non-degenerate form of given genus and Arf invariant."""
    gbits = 0b11 if (arf_value and genus) else 0
    if arf_value and not genus:
        raise ValueError("genus 0 only carries the trivial form")
    return QuadraticForm(2 * genus, standard_gram(genus), BitVector(2 * genus, gbits))


# -- searches ---------------------------------------------------------------

def _find_flip(f: QuadraticForm, space_basis: Sequence[int]) -> int | None:
    """Element of the span with g(k) = 1.

    g(k + k') = g(k) + g(k') + B(k, k'), so if every basis vector has g = 0
    a witness, when one exists, is a pair with B = 1.
    """
    gram_g = _images(f)
    for k in space_basis:
        if gram_g(k)[1]:
            return k
    for i in range(len(space_basis)):
        for j in range(i + 1, len(space_basis)):
            if _bil_bits(f, space_basis[i], space_basis[j]):
                return space_basis[i] ^ space_basis[j]
    return None


def find_connector(f: QuadraticForm, ws: Sequence[BitVector],
                   a1: BitVector, a2: BitVector) -> BitVector:
    """A vector c orthogonal to all w_i with g(c) = 1, B(a1,c) = B(a2,c) = 1.

    The w_i must be independent with g(w_i) = 1 and pairwise B = 0; a1 and
    a2 must lie in the orthogonal complement of W = span(w_i) but outside W,
    with g = 1 and B(a1,a2) = 0.  No such c exists in dimension 2 with
    Arf 0, nor in dimension 4 with Arf 0 when k = 0 and a1 != a2; those
    requests are rejected.
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
    gram_g = _images(f)
    echelon = _echelon(gram_g(w)[0] for w in wbits)
    g1, g2 = gram_g(a1.bits)[0], gram_g(a2.bits)[0]
    return BitVector(dim, _connector(f, wbits, echelon, a1.bits, a2.bits, g1, g2))


def _connector(f: QuadraticForm, ws: Sequence[int], echelon: dict[int, int],
               a1: int, a2: int, g1: int, g2: int) -> int:
    """find_connector on packed vectors, their Gram images and an echelon.

    g1 and g2 are G a1 and G a2, and echelon is the echelon form of the
    G w_i (see _echelon_add).  With w vectors, the rows g1 and g2 with
    right-hand side 1 (at bit dim) are added to a copy of the echelon form,
    and b is the solution of the stacked system with free variables zero
    (see _solution).  For callers that meet find_connector's preconditions;
    a linear system left without a solution raises ValueError.
    """
    dim = f.dim
    rhs = 1 << dim
    gram_g = _images(f)
    if ws:  # B(a1,c) = B(a2,c) = 1, B(w,c) = 0
        system = dict(echelon)
        _echelon_add(system, g1 | rhs)
        if a2 != a1:
            _echelon_add(system, g2 | rhs)
        b = _solution(system, rhs)
        if b is None:  # a1, a2 orthogonal to W and outside it make this solvable
            raise ValueError("no connector exists for the given configuration")
        return b if gram_g(b)[1] else b ^ ws[0]

    if a1 == a2:
        b = _solution(_echelon([g1 | rhs]), rhs)
        if b is None:  # only a1 = 0 has G a1 = 0
            raise ValueError("no connector exists for the given configuration")
        gb, gvalue = gram_g(b)
        if gvalue:
            return b
        perp_rows = (g1, gb)
        base = b
    else:
        b1, b2 = _complete_isotropic(f, [a1, a2], [g1, g2])
        base = b1 ^ b2
        if gram_g(base)[1]:
            return base
        perp_rows = (g1, g2, gram_g(b1)[0], gram_g(b2)[0])
    d = _find_flip(f, _kernel(_echelon(perp_rows), dim))
    if d is None:
        raise ValueError("no connector exists for the given configuration")
    return base ^ d

