"""The orthogonal group of a quadratic form over GF(2).

Membership testing, transvections T_a(x) = x + B(x,a) a, fixed spaces,
the rank-parity homomorphism T -> rank(T - Id) mod 2, and a constructive
decomposition of any orthogonal map into a word of transvections -- plus
one extra involution in the single exceptional case (dimension 4, Arf 0)
where transvections generate only an index-2 subgroup.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .gf2 import (
    BitMatrix,
    BitVector,
    _Value,
    _combine,
    _echelon_add,
    _flip,
    _identity_block,
    _mul_rows,
    _pack,
    _stride,
    _transpose,
    _transpose_block,
    _unpack,
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
    _images,
    _preserves,
    _require_nondegenerate,
    arf,
    evaluate,
    is_nondegenerate,
    symplectic_basis,
)


def transvection_matrix(f: QuadraticForm, a: BitVector) -> BitMatrix:
    """Matrix of x -> x + B(x,a) a; orthogonal only when g(a) = 1 or a = 0."""
    dim = f.dim
    if a.length != dim:
        raise ValueError("length mismatch")
    stride = _stride(dim)
    rows = _flip(_identity_block(dim, stride), a.bits, _images(f)(a.bits)[0], stride, dim)
    return BitMatrix(dim, dim, tuple(_unpack(rows, stride, dim)))


def is_orthogonal(f: QuadraticForm, m: BitMatrix) -> bool:
    """Whether m preserves g; such an m is invertible, as f is non-degenerate."""
    _require_nondegenerate(f)
    if not m.is_square() or m.rows != f.dim:
        raise ValueError("dimension mismatch")
    return _preserves(f, m.data)


class OrthogonalMap(_Value):
    """An invertible matrix certified at construction to preserve its form."""

    __slots__ = ("form", "matrix")

    def __init__(self, form: QuadraticForm, matrix: BitMatrix) -> None:
        if not is_orthogonal(form, matrix):
            raise ValueError("matrix does not preserve the quadratic form")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "matrix", matrix)

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

class UMapPartition(_Value):
    """The canonical split of the six g=1 vectors into two triples.

    B = 1 between distinct vectors of the same triple, B = 0 across;
    v1 is the triple containing the lexicographically least vector.
    """

    __slots__ = ("v1", "v2")

    def __init__(self, v1: frozenset[BitVector], v2: frozenset[BitVector]) -> None:
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


@lru_cache(maxsize=FORM_CACHE_SIZE)
def umap_partition(f: QuadraticForm) -> UMapPartition:
    if f.dim != 4:
        raise ValueError("the partition exists only in dimension 4")
    if not is_nondegenerate(f) or arf(f) != 0:
        raise ValueError("the partition exists only for Arf invariant 0")
    gram_g = _images(f)
    ones = [BitVector(4, v) for v in range(1, 16) if gram_g(v)[1]]
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
    d_i = u_i + v_i it is x -> x + B(x,d2) d1 + B(x,d1) d2: two rank-one
    updates of the identity's rows, whose cross terms B(d1,d1) and B(d2,d2)
    are 0.  u - Id has rank 2, parity 0.
    """
    part = umap_partition(f)
    u1, u2 = sorted(part.v1, key=BitVector.to01)[:2]
    v1, v2 = sorted(part.v2, key=BitVector.to01)[:2]
    d1, d2 = u1.bits ^ v1.bits, u2.bits ^ v2.bits
    gram_g = _images(f)
    stride = _stride(4)
    rows = _flip(_identity_block(4, stride), d1, gram_g(d2)[0], stride, 4)
    rows = _flip(rows, d2, gram_g(d1)[0], stride, 4)
    return OrthogonalMap(f, BitMatrix(4, 4, tuple(_unpack(rows, stride, 4))))


# -- decomposition into generators ------------------------------------------

def _normalized_pairs(f: QuadraticForm) -> tuple[list[int], list[int]]:
    """Symplectic basis adjusted so that every a_i has g = 1.

    If g(a) = 0 but g(b) = 1 the pair is swapped; if both vanish, a+b has
    g = 1 and (a+b, b) is again a hyperbolic pair.
    """
    sb = symplectic_basis(f)
    gram_g = _images(f)
    a_bits, b_bits = [], []
    for a, b in zip(sb.a_vectors, sb.b_vectors):
        ab, bb = a.bits, b.bits
        if not gram_g(ab)[1]:
            if gram_g(bb)[1]:
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

    The images of a_0..a_{n-1}, b_0..b_{n-1} under the current map are kept
    as one block of columns, so each transvection pushed is one _flip; the
    targets are a basis, so the block equals their own block exactly when
    the map is the identity.  The returned word is in application order:
    composing its transvections, first entry first, reproduces m.
    """
    dim = f.dim
    n = dim // 2
    gram_g = _images(f)
    a_bits, b_bits = _normalized_pairs(f)
    a_gram = [gram_g(a)[0] for a in a_bits]
    b_gram = [gram_g(b)[0] for b in b_bits]
    targets = a_bits + b_bits
    stride = _stride(dim)
    mask = (1 << dim) - 1
    block = _pack(_mul_rows(targets, _transpose(m.data, dim)), stride)
    applied: list[int] = []

    def push(cbits: int, wbits: int) -> None:
        """Apply the transvection along c, given w = G c."""
        nonlocal block
        block = _flip(block, wbits, cbits, stride, dim)
        applied.append(cbits)

    echelon: dict[int, int] = {}  # of G a_0 .. G a_{k-1}, for the connector
    for k in range(n):
        target = a_bits[k]
        image = block >> (k * stride) & mask
        if image != target:
            gimage = gram_g(image)[0]
            if parity(image & a_gram[k]):
                push(image ^ target, gimage ^ a_gram[k])
            else:
                z = _connector(f, a_bits[:k], echelon, image, target, gimage, a_gram[k])
                gz = gram_g(z)[0]
                push(image ^ z, gimage ^ gz)
                push(z ^ target, gz ^ a_gram[k])
        _echelon_add(echelon, a_gram[k])

    for j in range(n):
        target = b_bits[j]
        delta = (block >> ((n + j) * stride) & mask) ^ target
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

    if block != _pack(targets, stride):
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
    """Product of the decomposition: swap first (if flagged), then the word.

    The product is kept as a block of columns, on which each transvection
    is one _flip, and transposed back to rows once at the end.
    """
    _require_nondegenerate(f)
    dim = f.dim
    stride = _stride(dim)
    gram_g = _images(f)
    start = canonical_umap(f).matrix.data if u_flag else BitMatrix.identity(dim).data
    cols = _transpose_block(_pack(start, stride), stride)
    for c in word:
        if c.length != dim:
            raise ValueError("length mismatch")
        gc, g = gram_g(c.bits)
        if g != 1 and c.bits:
            raise ValueError("word vector must satisfy g(c) = 1 or c = 0")
        cols = _flip(cols, gc, c.bits, stride, dim)
    return BitMatrix(dim, dim, tuple(_unpack(_transpose_block(cols, stride), stride, dim)))


# The largest dimension enumerate_group accepts: dimension 6 has 40,320 or
# 51,840 elements, dimension 8 hundreds of millions.
ENUMERATION_MAX_DIM = 6


class DimensionGuardError(ValueError):
    """An exhaustive operation was asked to run beyond its dimension cap."""


def _check_dim(dim: int, cap: int, what: str) -> None:
    if dim > cap:
        raise DimensionGuardError(f"{what} is capped at dimension {cap} (requested {dim})")


def enumerate_group(f: QuadraticForm, include_umap: bool = True) -> set[BitMatrix]:
    """Closure of all transvections (plus the canonical swap when it exists).

    All generators are involutions, so the closure of the identity under
    right multiplication by them is the full generated group.  States are
    blocks of rows, on which right multiplication by the transvection along
    c is one _flip with sel = c and add = G c.
    """
    dim = f.dim
    _require_nondegenerate(f)
    _check_dim(dim, ENUMERATION_MAX_DIM, "group enumeration")
    stride = _stride(dim)
    gram_g = _images(f)
    tgens = []
    for v in range(1, 1 << dim):
        gv, g = gram_g(v)
        if g:
            tgens.append((v, gv))
    u0 = None
    if include_umap and dim == 4 and arf(f) == 0:
        u0 = canonical_umap(f).matrix.data
    identity = _identity_block(dim, stride)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for state in frontier:
            for cbits, gbits in tgens:
                prod = _flip(state, cbits, gbits, stride, dim)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
            if u0 is not None:
                prod = _pack(_mul_rows(_unpack(state, stride, dim), u0), stride)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return {BitMatrix(dim, dim, tuple(_unpack(state, stride, dim))) for state in seen}
