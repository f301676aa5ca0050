"""The orthogonal group of a quadratic form over GF(2).

Membership testing, transvections T_a(x) = x + B(x,a) a, fixed spaces,
the rank-parity homomorphism T -> rank(T - Id) mod 2, and a constructive
decomposition of any orthogonal map into a word of transvections -- plus
one extra involution in the single exceptional case (dimension 4, Arf 0)
where transvections generate only an index-2 subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import guards
from .gf2 import (
    BitMatrix,
    BitVector,
    _combine,
    _echelon_add,
    _matvec,
    _mul_rows,
    _transvect,
    kernel_basis,
    multiply,
    parity,
    rank,
)
from .quadform import (
    FORM_CACHE_SIZE,
    QuadraticForm,
    _bil_bits,
    _connector,
    _evaluate_bits,
    _gram_bits,
    _preserves,
    _require_nondegenerate,
    arf,
    evaluate,
    is_nondegenerate,
    symplectic_basis,
)


def transvection_matrix(f: QuadraticForm, a: BitVector) -> BitMatrix:
    """Matrix of x -> x + B(x,a) a; orthogonal only when g(a) = 1 or a = 0."""
    if a.length != f.dim:
        raise ValueError("length mismatch")
    rows = _transvect([1 << i for i in range(f.dim)], a.bits, _gram_bits(f, a.bits))
    return BitMatrix(f.dim, f.dim, tuple(rows))


def is_orthogonal(f: QuadraticForm, m: BitMatrix) -> bool:
    """Whether m preserves g; such an m is invertible, as f is non-degenerate."""
    _require_nondegenerate(f)
    if not m.is_square() or m.rows != f.dim:
        raise ValueError("dimension mismatch")
    return _preserves(f, m.data)


@dataclass(frozen=True)
class OrthogonalMap:
    """An invertible matrix certified at construction to preserve its form."""

    form: QuadraticForm
    matrix: BitMatrix

    def __post_init__(self) -> None:
        if not is_orthogonal(self.form, self.matrix):
            raise ValueError("matrix does not preserve the quadratic form")

    def apply(self, v: BitVector) -> BitVector:
        return self.matrix.apply(v)


def transvection(f: QuadraticForm, a: BitVector) -> OrthogonalMap:
    """The transvection along a; requires g(a) = 1 or a = 0."""
    if not a.is_zero() and evaluate(f, a) != 1:
        raise ValueError("transvection vector must satisfy g(a) = 1 or a = 0")
    return OrthogonalMap(f, transvection_matrix(f, a))


def rank_parity(t: OrthogonalMap | BitMatrix) -> int:
    """rank(T - Id) mod 2.

    A homomorphism to Z/2 on any orthogonal group; well defined (but not
    in general a homomorphism) on arbitrary square matrices.
    """
    m = t.matrix if isinstance(t, OrthogonalMap) else t
    if not m.is_square():
        raise ValueError("square matrix required")
    return rank(m ^ BitMatrix.identity(m.rows)) & 1


def fixed_space(t: OrthogonalMap) -> list[BitVector]:
    """Basis of the fixed space ker(T - Id)."""
    return kernel_basis(t.matrix ^ BitMatrix.identity(t.matrix.rows))


# -- the exceptional dimension-4, Arf-0 geometry ----------------------------

@dataclass(frozen=True)
class UMapPartition:
    """The canonical split of the six g=1 vectors into two triples.

    B = 1 between distinct vectors of the same triple, B = 0 across;
    v1 is the triple containing the lexicographically least vector.
    """

    v1: frozenset[BitVector]
    v2: frozenset[BitVector]


@lru_cache(maxsize=FORM_CACHE_SIZE)
def umap_partition(f: QuadraticForm) -> UMapPartition:
    if f.dim != 4:
        raise ValueError("the partition exists only in dimension 4")
    if not is_nondegenerate(f) or arf(f) != 0:
        raise ValueError("the partition exists only for Arf invariant 0")
    ones = [BitVector(4, v) for v in range(1, 16) if _evaluate_bits(f, v)]
    ones.sort(key=BitVector.to01)
    first = ones[0]
    part1 = frozenset(v for v in ones if v == first or _bil_bits(f, first.bits, v.bits))
    part2 = frozenset(v for v in ones if v not in part1)
    return UMapPartition(part1, part2)


def is_u_map(t: OrthogonalMap) -> bool:
    """Whether t swaps the two triples of the dimension-4 Arf-0 partition."""
    part = umap_partition(t.form)
    probe = min(part.v1, key=BitVector.to01)
    return t.apply(probe) in part.v2


@lru_cache(maxsize=FORM_CACHE_SIZE)
def canonical_umap(f: QuadraticForm) -> OrthogonalMap:
    """The canonical involutive swap of the two partition triples.

    With u1 < u2 the first vectors of one triple and v1 < v2 of the other,
    it exchanges u_i and v_i.  B is 1 inside a triple and 0 across, so with
    d_i = u_i + v_i it is x -> x + B(x,d2) d1 + B(x,d1) d2: two transvection
    updates, whose cross term B(d1,d1) is 0.  u - Id has rank 2, parity 0.
    """
    part = umap_partition(f)
    u1, u2 = sorted(part.v1, key=BitVector.to01)[:2]
    v1, v2 = sorted(part.v2, key=BitVector.to01)[:2]
    d1, d2 = u1.bits ^ v1.bits, u2.bits ^ v2.bits
    rows = _transvect([1 << i for i in range(4)], d1, _gram_bits(f, d2))
    rows = _transvect(rows, d2, _gram_bits(f, d1))
    return OrthogonalMap(f, BitMatrix(4, 4, tuple(rows)))


# -- decomposition into generators ------------------------------------------

def _normalized_pairs(f: QuadraticForm) -> tuple[list[int], list[int]]:
    """Symplectic basis adjusted so that every a_i has g = 1.

    If g(a) = 0 but g(b) = 1 the pair is swapped; if both vanish, a+b has
    g = 1 and (a+b, b) is again a hyperbolic pair.
    """
    sb = symplectic_basis(f)
    a_bits, b_bits = [], []
    for a, b in zip(sb.a_vectors, sb.b_vectors):
        ab, bb = a.bits, b.bits
        if not _evaluate_bits(f, ab):
            if _evaluate_bits(f, bb):
                ab, bb = bb, ab
            else:
                ab ^= bb
        a_bits.append(ab)
        b_bits.append(bb)
    return a_bits, b_bits


def _restoration_word(f: QuadraticForm, m: BitMatrix) -> list[BitVector]:
    """Transvection word carrying m back to the identity.

    Phase one returns each basis vector a_i to place with at most two
    transvections orthogonal to the already-restored a's (via a connector
    when B(image, target) = 0).  Phase two then fixes each b_j; at that
    point the needed correction lies in the isotropic span of a_j..a_n,
    where B(a_i, b_j) = delta_ij makes B(delta, b_i) its coefficient of
    a_i, and splits into one or two transvections there.  The Gram images
    of the pairs are computed once, so every bilinear test is one parity.
    The returned word is in application order: composing its
    transvections, first entry first, reproduces m.
    """
    dim = f.dim
    n = dim // 2
    a_bits, b_bits = _normalized_pairs(f)
    a_gram = [_gram_bits(f, a) for a in a_bits]
    b_gram = [_gram_bits(f, b) for b in b_bits]
    cur = list(m.data)
    applied: list[int] = []

    def push(cbits: int, wbits: int) -> None:
        """Apply the transvection along c, given w = G c."""
        nonlocal cur
        cur = _transvect(cur, cbits, wbits)
        applied.append(cbits)

    echelon: dict[int, int] = {}  # of G a_0 .. G a_{k-1}, for the connector
    for k in range(n):
        target = a_bits[k]
        image = _matvec(cur, target)
        if image != target:
            gimage = _gram_bits(f, image)
            if parity(image & a_gram[k]):
                push(image ^ target, gimage ^ a_gram[k])
            else:
                z = _connector(f, a_bits[:k], echelon, image, target, gimage, a_gram[k])
                gz = _gram_bits(f, z)
                push(image ^ z, gimage ^ gz)
                push(z ^ target, gz ^ a_gram[k])
        _echelon_add(echelon, a_gram[k])

    for j in range(n):
        target = b_bits[j]
        delta = _matvec(cur, target) ^ target
        if delta == 0:
            continue
        coeffs = 0
        for i in range(j, n):
            if parity(delta & b_gram[i]):
                coeffs |= 1 << i
        if _combine(a_bits, coeffs) != delta:
            raise ValueError("restoration failed: correction outside expected span")
        wdelta = _combine(a_gram, coeffs)
        if (coeffs >> j) & 1:
            push(delta, wdelta)
        else:
            push(delta ^ a_bits[j], wdelta ^ a_gram[j])
            push(a_bits[j], a_gram[j])

    if cur != [1 << i for i in range(dim)]:
        raise ValueError("restoration failed to reach the identity")
    return [BitVector(dim, c) for c in reversed(applied)]


def decompose(t: OrthogonalMap) -> tuple[int, list[BitVector]]:
    """Factor t as (optional canonical swap, then a transvection word).

    Returns (u_flag, word): applying the canonical dimension-4 Arf-0 swap
    first (when u_flag is 1) and then the word's transvections in list
    order reproduces t.  Every word vector c has g(c) = 1, and the word
    length is congruent to rank(t - Id) mod 2.
    """
    f = t.form
    u_flag = 0
    work = t.matrix
    if f.dim == 4 and arf(f) == 0 and is_u_map(t):
        u_flag = 1
        work = multiply(work, canonical_umap(f).matrix)
    return u_flag, _restoration_word(f, work)


def recompose(f: QuadraticForm, u_flag: int, word: Iterable[BitVector]) -> BitMatrix:
    """Product of the decomposition: swap first (if flagged), then the word."""
    _require_nondegenerate(f)
    rows = canonical_umap(f).matrix.data if u_flag else BitMatrix.identity(f.dim).data
    for c in word:
        if evaluate(f, c) != 1 and not c.is_zero():  # evaluate checks the length
            raise ValueError("word vector must satisfy g(c) = 1 or c = 0")
        rows = _transvect(rows, c.bits, _gram_bits(f, c.bits))
    return BitMatrix(f.dim, f.dim, tuple(rows))


def enumerate_group(f: QuadraticForm, include_umap: bool = True) -> set[BitMatrix]:
    """Closure of all transvections (plus the canonical swap when it exists).

    All generators are involutions, so the multiplicative closure from the
    identity is the full generated group.
    """
    dim = f.dim
    _require_nondegenerate(f)
    guards.check_dim(dim, 8, "group enumeration")
    identity = tuple(1 << i for i in range(dim))
    tgens = []
    for v in range(1, 1 << dim):
        if _evaluate_bits(f, v):
            tgens.append((v, _gram_bits(f, v)))
    u0 = None
    if include_umap and dim == 4 and arf(f) == 0:
        u0 = canonical_umap(f).matrix.data
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for state in frontier:
            for abits, wbits in tgens:
                prod = tuple(_transvect(state, abits, wbits))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
            if u0 is not None:
                prod = tuple(_mul_rows(u0, state))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return {BitMatrix(dim, dim, data) for data in seen}
