"""Quadratic forms over GF(2).

A quadratic form g satisfies g(x+y) = g(x) + g(y) + B(x,y) for a
symmetric bilinear form B with zero diagonal, so g is determined by its
Gram matrix and its values on basis vectors, and is evaluated by
polarization.  Non-degenerate forms live on even-dimensional spaces,
admit symplectic bases, and fall into exactly two isomorphism classes
per dimension, separated by the Arf invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .gf2 import (
    BitMatrix,
    BitVector,
    _combine,
    _echelon,
    _echelon_add,
    _kernel,
    _mul_rows,
    _solution,
    _transpose,
    parity,
    rank_rows,
)

# Entries kept by each form-keyed cache, here and in orthogroup: a process
# that meets many forms keeps only the most recent ones.
FORM_CACHE_SIZE = 128


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form given by its Gram matrix and basis values.

    gram[i][j] = B(e_i, e_j) must be symmetric with zero diagonal;
    basis_g[i] = g(e_i).
    """

    dim: int
    gram: BitMatrix
    basis_g: BitVector

    def __post_init__(self) -> None:
        if self.gram.rows != self.dim or self.gram.cols != self.dim:
            raise ValueError("Gram matrix does not match the dimension")
        if self.basis_g.length != self.dim:
            raise ValueError("basis value vector does not match the dimension")
        for i, row in enumerate(self.gram.data):
            if (row >> i) & 1:
                raise ValueError(f"Gram diagonal must vanish (row {i})")
        if self.gram.data != self.gram.transpose().data:
            raise ValueError("Gram matrix must be symmetric")


@dataclass(frozen=True)
class SymplecticBasis:
    """Basis pairs with B(a_i,a_j) = B(b_i,b_j) = 0 and B(a_i,b_j) = delta_ij."""

    a_vectors: tuple[BitVector, ...]
    b_vectors: tuple[BitVector, ...]


# -- bit-level helpers shared inside the package ---------------------------

def _evaluate_bits(f: QuadraticForm, vbits: int) -> int:
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


def _gram_bits(f: QuadraticForm, vbits: int) -> int:
    """Packed image of v under the Gram matrix: bit j = B(e_j, v).

    The Gram is symmetric, so G v is the XOR of the rows that v picks, and
    B(x, v) is parity(x & G v) for every x.
    """
    return _combine(f.gram.data, vbits)


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
    """g(v), expanded over the basis by polarization."""
    if v.length != f.dim:
        raise ValueError("length mismatch")
    return _evaluate_bits(f, v.bits)


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
    remaining = [1 << i for i in range(f.dim)]
    a_out: list[BitVector] = []
    b_out: list[BitVector] = []
    while remaining:
        x = remaining[0]
        gx = _gram_bits(f, x)
        y = next((z for z in remaining[1:] if parity(z & gx)), None)
        if y is None:
            raise ValueError("degenerate form")
        gy = _gram_bits(f, y)
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


def complete_isotropic(f: QuadraticForm, a_vectors: Sequence[BitVector]) -> list[BitVector]:
    """Dual partners of an independent isotropic family.

    Given independent a_1..a_k with B(a_i,a_j) = 0, returns b_1..b_k with
    B(b_i,b_j) = 0 and B(a_i,b_j) = delta_ij.
    """
    _require_nondegenerate(f)
    k = len(a_vectors)
    for i in range(k):
        if a_vectors[i].length != f.dim:
            raise ValueError("length mismatch")
        for j in range(i, k):
            if bilinear(f, a_vectors[i], a_vectors[j]):
                raise ValueError(f"vectors {i} and {j} are not orthogonal")
    abits = [v.bits for v in a_vectors]
    if rank_rows(abits) != k:
        raise ValueError("vectors are not independent")
    agram = [_gram_bits(f, a) for a in abits]
    return [BitVector(f.dim, b) for b in _complete_isotropic(f, abits, agram)]


def _complete_isotropic(f: QuadraticForm, abits: Sequence[int],
                        agram: Sequence[int]) -> list[int]:
    """complete_isotropic on packed vectors and their Gram images G a_i.

    One elimination of the rows G a_i with right-hand sides e_i (bit dim + i)
    gives every c_j with B(a_i, c_j) = delta_ij.
    """
    k = len(abits)
    rhs = [1 << (f.dim + i) for i in range(k)]
    echelon = _echelon(g | r for g, r in zip(agram, rhs))
    cs = [_solution(echelon, r) for r in rhs]
    if None in cs:
        raise ValueError("vectors are not independent")
    out = []
    for i in range(k):
        b = cs[i]
        gc = _gram_bits(f, cs[i])
        for m in range(i + 1, k):
            if parity(cs[m] & gc):
                b ^= abits[m]
        out.append(b)
    return out


@lru_cache(maxsize=FORM_CACHE_SIZE)
def arf(f: QuadraticForm) -> int:
    """Arf invariant: sum of g(a_i) g(b_i) over a symplectic basis."""
    sb = symplectic_basis(f)
    acc = 0
    for a, b in zip(sb.a_vectors, sb.b_vectors):
        acc ^= _evaluate_bits(f, a.bits) & _evaluate_bits(f, b.bits)
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

def _find_flip(f: QuadraticForm, base: int, space_basis: Sequence[int]) -> int | None:
    """Element k of the span with g(k) + B(base, k) = 1.

    h(k) = g(k) + B(base,k) is itself quadratic with the same bilinear
    part, so if every basis vector has h = 0 a witness, when one exists,
    is a pair with B = 1.
    """
    for k in space_basis:
        if _evaluate_bits(f, k) ^ _bil_bits(f, base, k):
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
    echelon = _echelon(_gram_bits(f, w) for w in wbits)
    g1, g2 = _gram_bits(f, a1.bits), _gram_bits(f, a2.bits)
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
    if ws:  # B(a1,c) = B(a2,c) = 1, B(w,c) = 0
        system = dict(echelon)
        _echelon_add(system, g1 | rhs)
        if a2 != a1:
            _echelon_add(system, g2 | rhs)
        b = _solution(system, rhs)
        if b is None:  # a1, a2 orthogonal to W and outside it make this solvable
            raise ValueError("no connector exists for the given configuration")
        return b if _evaluate_bits(f, b) else b ^ ws[0]

    if a1 == a2:
        b = _solution(_echelon([g1 | rhs]), rhs)
        if b is None:  # only a1 = 0 has G a1 = 0
            raise ValueError("no connector exists for the given configuration")
        if _evaluate_bits(f, b):
            return b
        perp_rows = (g1, _gram_bits(f, b))
        base = b
    else:
        b1, b2 = _complete_isotropic(f, [a1, a2], [g1, g2])
        base = b1 ^ b2
        if _evaluate_bits(f, base):
            return base
        perp_rows = (g1, g2, _gram_bits(f, b1), _gram_bits(f, b2))
    d = _find_flip(f, 0, _kernel(_echelon(perp_rows), dim))
    if d is None:
        raise ValueError("no connector exists for the given configuration")
    return base ^ d


def find_transvection_path(f: QuadraticForm, x: BitVector, y: BitVector) -> list[BitVector]:
    """Vectors c_1(, c_2) with g(c_i) = 1 whose transvections carry x to y.

    Requires x, y nonzero, distinct, with g(x) = g(y).  When B(x,y) = 1 a
    single step x+y suffices; otherwise the path goes through a z with
    B(x,z) = B(y,z) = 1 and g(z) = g(x), found by solving the two linear
    conditions and flipping into the right g-class along their kernel.
    """
    _require_nondegenerate(f)
    if x.length != f.dim or y.length != f.dim:
        raise ValueError("length mismatch")
    if x.is_zero() or y.is_zero():
        raise ValueError("x and y must be nonzero")
    if x == y:
        raise ValueError("x and y must be distinct")
    if evaluate(f, x) != evaluate(f, y):
        raise ValueError("x and y must have equal g-value")
    if bilinear(f, x, y):
        return [x ^ y]
    rhs = 1 << f.dim
    echelon = _echelon(_gram_bits(f, v.bits) | rhs for v in (x, y))
    zbits = _solution(echelon, rhs)
    if zbits is None:  # distinct nonzero x, y give independent rows
        raise ValueError("no transvection path exists between the given vectors")
    if _evaluate_bits(f, zbits) != evaluate(f, x):
        flip = _find_flip(f, zbits, _kernel(echelon, f.dim))
        if flip is None:
            raise ValueError("no transvection path exists between the given vectors")
        zbits ^= flip
    return [BitVector(f.dim, x.bits ^ zbits), BitVector(f.dim, zbits ^ y.bits)]
