"""The orthogonal group of a quadratic form over GF(2).

Membership testing, transvections T_a(x) = x + B(x,a) a, fixed spaces,
the rank-parity homomorphism T -> rank(T - Id) mod 2, and a constructive
decomposition of any orthogonal map into a word of transvections -- plus
one extra involution in the single exceptional case (dimension 4, Arf 0)
where transvections generate only an index-2 subgroup.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .gf2 import (
    BitMatrix,
    BitVector,
    _Value,
    _combine,
    _echelon,
    _flip,
    _fold,
    _kernel,
    _ones,
    _pack,
    _parities,
    _product,
    _solution,
    _stride,
    _transpose,
    _unpack,
    kernel_basis,
    multiply,
    parity,
    rank_rows,
)
from .quadform import (
    QuadraticForm,
    _columns,
    _find_flip,
    _g_ones,
    _images,
    _pullback_bits,
    evaluate,
)


def transvection_matrix(f: QuadraticForm, a: BitVector) -> BitMatrix:
    """Matrix of x -> x + B(x,a) a; orthogonal only when g(a) = 1 or a = 0."""
    dim = f.dim
    if a.length != dim:
        raise ValueError("length mismatch")
    return BitMatrix(dim, dim, tuple(_product(dim, [(_images(f)(a.bits)[0], a.bits)])))


def is_orthogonal(f: QuadraticForm, m: BitMatrix) -> bool:
    """Whether m^T gram m = gram and g(m e_i) = g(e_i) for every i.

    By polarization this is g(m x) = g(x) for every x.  The form is
    non-degenerate, so it also makes m invertible, since det(m)^2 det(gram) =
    det(gram) != 0.  The restoration of the same m reads its columns off _columns.
    """
    if not m.is_square() or m.rows != f.dim:
        raise ValueError("dimension mismatch")
    return _pullback_bits(f, m.data) == (f.gram.data, f.basis_g.bits)


class OrthogonalMap(_Value):
    """An invertible matrix certified at construction to preserve its form."""

    __slots__ = ("form", "matrix")

    def __init__(self, form: QuadraticForm, matrix: BitMatrix) -> None:
        if not is_orthogonal(form, matrix):
            raise ValueError("matrix does not preserve the quadratic form")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "matrix", matrix)


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
    return rank_rows(r ^ 1 << i for i, r in enumerate(m.data)) & 1


def fixed_space(t: OrthogonalMap) -> list[BitVector]:
    """Basis of the fixed space ker(T - Id)."""
    return kernel_basis(t.matrix ^ BitMatrix.identity(t.matrix.rows))


# -- the exceptional dimension-4, Arf-0 geometry ----------------------------

def umap_partition(f: QuadraticForm) -> tuple[frozenset[BitVector], frozenset[BitVector]]:
    """The canonical split (v1, v2) of the six g=1 vectors into two triples.

    B = 1 between distinct vectors of the same triple, B = 0 across;
    v1 is the triple containing the lexicographically least vector.  The
    count of g = 1 vectors (_g_ones) decides the Arf invariant with no
    reduction: 6 at Arf 0 and 10 at Arf 1.
    """
    if f.dim != 4:
        raise ValueError("the partition exists only in dimension 4")
    gram_g = _images(f)
    ones = [BitVector(4, v) for v in _g_ones(f)]
    if len(ones) != 6:
        raise ValueError("the partition exists only for Arf invariant 0")
    ones.sort(key=BitVector.to01)
    first, gfirst = ones[0], gram_g(ones[0].bits)[0]
    part1 = frozenset(v for v in ones if v == first or parity(v.bits & gfirst))
    part2 = frozenset(v for v in ones if v not in part1)
    return part1, part2


def is_u_map(t: OrthogonalMap) -> bool:
    """Whether t swaps the two triples of the dimension-4 Arf-0 partition."""
    v1, v2 = umap_partition(t.form)
    return t.matrix.apply(min(v1, key=BitVector.to01)) in v2


def _swap_steps(f: QuadraticForm) -> tuple[tuple[int, int], tuple[int, int]]:
    """The canonical swap as two _product steps, ((G d2, d1), (G d1, d2)).

    With u1 < u2 the first vectors of one partition triple and v1 < v2 of
    the other, the swap exchanges u_i and v_i.  B is 1 inside a triple and
    0 across, so with d_i = u_i + v_i it is x -> x + B(x,d2) d1 + B(x,d1) d2:
    the two steps, whose cross terms B(d1,d1) and B(d2,d2) are 0, so that
    they commute.
    """
    part1, part2 = umap_partition(f)
    u1, u2 = sorted(part1, key=BitVector.to01)[:2]
    v1, v2 = sorted(part2, key=BitVector.to01)[:2]
    d1, d2 = u1.bits ^ v1.bits, u2.bits ^ v2.bits
    gram_g = _images(f)
    return (gram_g(d2)[0], d1), (gram_g(d1)[0], d2)


def canonical_umap(f: QuadraticForm) -> OrthogonalMap:
    """The canonical involutive swap of the two partition triples, built
    from _swap_steps; u - Id has rank 2, parity 0."""
    return OrthogonalMap(f, BitMatrix(4, 4, tuple(_product(4, _swap_steps(f)))))


# -- decomposition into generators ------------------------------------------

def _restoration_word(t: OrthogonalMap) -> list[BitVector]:
    """Transvection word carrying the certified map m back to the identity,
    one rank at a time.

    Step: for the current map T let q(v) = B(Tv, v).  As g(Tv) = g(v),
    g((T + I)v) = q(v).  If q(v) = 1, then w = (T + I)v has g(w) = 1, the
    transvection along w sends Tv to v, and B(x, w) = 0 for every x that T
    fixes; so t_w T fixes v and Fix(T), and rank(T + I) drops by exactly
    one.  v is the first e_i with q(e_i) = B(T e_i, e_i) = 1, else the first
    e_i + e_j with B(T e_i, e_j) + B(T e_j, e_i) = 1.

    Dead end: q = 0 everywhere.  Then W = im(T + I) is totally singular, so
    W lies in W^perp = Fix(T), T is an involution and dim W is even.  The
    escape takes c with g(c) = 1 in Fix(T), or anywhere when Fix(T) = W is
    Lagrangian, and v outside span(Fix(T), c) with B(v, c) = 1 and
    B(v, (T + I)c) = 0.  It pushes c, then (T + I)v + c, the step of t_c T
    at v (B(Tv, c) = B(v, Tc) = 1).  The map left fixes v and the x in
    Fix(T) with B(x, c) = 0, so its rank is dim W again; its image, the
    vectors of W + <c> orthogonal to v, holds a g = 1 vector, so the next
    move is a step again.

    So the word has rank(m + I) letters plus 2 per dead end.  Dead ends come
    at strictly decreasing even ranks: at most 2 rank(m + I) <= 2 dim
    letters.

    Two column blocks are carried: W = T + I, whose slot j is (T + I)e_j
    (the slots span the image W above), and H = G W, whose slot j is
    G (T + I)e_j, so that bit i of it is B(e_i, (T + I)e_j).  The loop
    ends when W = 0.  As T preserves B,
    B(T e_j, (T + I)e_i) = B(e_j, e_i) + B(T e_j, e_i) = B((T + I)e_j, e_i):
    the coefficients p_j = B(T e_j, w) of a push along w = W e_i are bit i
    of every slot of H, with no parity fold, and the push adds p w to W and
    p G w = p (slot i of H) to H.  B(T e_j, e_j) = B((T + I)e_j, e_j), so
    q(e_j) is bit j of slot j of H; and in H + H^T, where the symmetric G
    cancels, entry (i, j) is B(T e_i, e_j) + B(T e_j, e_i), so the step along
    e_i + e_j reads its p off bits i and j of H.  Only the escape, whose
    vectors are not columns of W, folds B(T e_j, w) = parity(T e_j & G w).

    The escape works at the rank of W: the slots of H span G W, so their
    echelon form has rank(W) rows, and Fix(T) = W^perp is its kernel,
    built only as far as _find_flip reads it; the candidates for v are tested
    off H.

    W and H start from _columns, the columns c_j of m with the Gram images
    that OrthogonalMap's certificate looked up: slot j of W is c_j + e_j,
    and slot j of H is G c_j + gram[j].  The cap of 2 dim pushes and the
    dead end with no escape raise ValueError, as guards against a fault.
    The word is in application order: its transvections, first entry
    first, compose to m.
    """
    f, m = t.form, t.matrix
    dim = f.dim
    gram_g = _images(f)
    stride = _stride(dim)
    mask = (1 << dim) - 1
    ones, shifts = _ones(stride, dim), _fold(stride)
    identity = _ones(stride + 1, dim)
    cols, gram_cols, _ = _columns(f, m.data)
    w_block = _pack(cols, stride) ^ identity
    h_block = _pack([gc ^ g for gc, g in zip(gram_cols, f.gram.data)], stride)
    applied: list[int] = []

    def push(w: int, gw: int, p: int | None = None) -> None:
        nonlocal w_block, h_block
        if p is None:
            p = _parities((w_block ^ identity) & gw * ones, ones, shifts)
        w_block ^= p * w
        h_block ^= p * gw
        applied.append(w)

    while w_block:
        if len(applied) >= 2 * dim:
            raise ValueError("restoration failed to reach the identity")
        q = h_block & identity
        if q:
            i = ((q & -q).bit_length() - 1) // stride
            push(w_block >> i * stride & mask, h_block >> i * stride & mask,
                 h_block >> i & ones)
            continue
        hcols = _unpack(h_block, stride, dim)  # row i: B(e_j, (T + I)e_i) at bit j
        beta = [r ^ s for r, s in zip(hcols, _transpose(hcols, dim))]
        i = next((i for i, r in enumerate(beta) if r), None)
        if i is not None:
            j = (beta[i] & -beta[i]).bit_length() - 1
            push((w_block >> i * stride ^ w_block >> j * stride) & mask,
                 hcols[i] ^ hcols[j], (h_block >> i ^ h_block >> j) & ones)
            continue
        c = (_find_flip(f, _kernel(_echelon(hcols), dim))
             or _find_flip(f, [1 << k for k in range(dim)]))
        gc, hc = gram_g(c)[0], _combine(hcols, c)  # hc = G (T + I)c
        rhs = 1 << dim
        system = _echelon([gc | rhs, hc])
        # s0 exists: the system fails only when gc is 0 or hc, so when c or T c
        # is 0, yet g(c) = 1 and T is invertible.
        s0 = _solution(system, rhs)
        # x lies in span(Fix(T), c) exactly when (T + I)x is 0 or (T + I)c, so,
        # G being invertible, when G (T + I)x is 0 or hc.  Each kernel vector k is
        # e_j plus at most two pivots: G (T + I)k is at most three slots of H.
        hs0 = _combine(hcols, s0)
        v = next((s0 ^ k for k in chain((0,), _kernel(system, dim))
                  if hs0 ^ _combine(hcols, k) not in (0, hc)), None)
        if v is None:
            raise ValueError("restoration found no escape from a dead end")
        w = _combine(_unpack(w_block, stride, dim), v) ^ c
        push(c, gc)
        push(w, gram_g(w)[0])
    return [BitVector(dim, c) for c in reversed(applied)]


def decompose(t: OrthogonalMap) -> tuple[int, list[BitVector]]:
    """Factor t as (optional canonical swap, then a transvection word).

    Returns (u_flag, word): applying the canonical dimension-4 Arf-0 swap
    first (when u_flag is 1) and then the word's transvections in list
    order reproduces t.  Every word vector c has g(c) = 1.  The word is
    built one rank at a time (see _restoration_word): each step is a
    transvection along (T + Id)v with B(Tv, v) = 1, which fixes v and
    everything T fixes, and a dead end, where the image of T - Id is totally
    singular, costs one two-letter escape.  So the word has rank(w - Id)
    letters plus 2 per dead end, at most 2 rank(w - Id), where w is t, or t
    times the swap when u_flag is 1; its length is congruent to
    rank(t - Id) mod 2.  The swap exists where _g_ones counts six
    (dimension 4, Arf 0); its rows are recompose(f, 1, []), and only t
    times them is certified.
    """
    f = t.form
    if f.dim == 4 and len(_g_ones(f)) == 6 and is_u_map(t):
        swapped = multiply(t.matrix, recompose(f, 1, []))
        return 1, _restoration_word(OrthogonalMap(f, swapped))
    return 0, _restoration_word(t)


def recompose(f: QuadraticForm, u_flag: int, word: Iterable[BitVector]) -> BitMatrix:
    """Product of the decomposition: swap first (if u_flag is 1), then the
    word, as one _product of their steps."""
    if u_flag not in (0, 1):
        raise ValueError("u_flag must be 0 or 1")
    dim = f.dim
    gram_g = _images(f)

    def steps():
        if u_flag:
            yield from _swap_steps(f)
        for c in word:
            if c.length != dim:
                raise ValueError("length mismatch")
            gc, g = gram_g(c.bits)
            if g != 1 and c.bits:
                raise ValueError("word vector must satisfy g(c) = 1 or c = 0")
            yield gc, c.bits

    return BitMatrix(dim, dim, tuple(_product(dim, steps())))


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
    right multiplication by them is the full generated group.  A state is a
    block of rows, right-multiplied by a _product step (sel, add) with one
    _flip, as in _product.  A BFS level is one block, each state a slot of
    dim * stride bits, so a step flips the whole level at once.  A generator
    is a list of steps: one, (G c, c), for the transvection along c, and the
    two _swap_steps for the swap.
    """
    dim = f.dim
    _check_dim(dim, ENUMERATION_MAX_DIM, "group enumeration")
    stride = _stride(dim)
    gram_g = _images(f)
    gens = [[(gram_g(v)[0], v)] for v in _g_ones(f)]
    if include_umap and dim == 4 and len(gens) == 6:  # Arf 0 (see _g_ones)
        gens.append(list(_swap_steps(f)))
    shifts = _fold(stride)
    seen, level = set(), {_ones(stride + 1, dim)}
    while level:
        seen |= level
        block, count = _pack(level, dim * stride), len(level)
        ones = _ones(stride, count * dim)
        nxt = set()
        for steps in gens:
            prod = block
            for sel, add in steps:
                prod = _flip(prod, add, sel, ones, shifts)
            nxt.update(_unpack(prod, dim * stride, count))
        level = nxt - seen
    rows = _unpack(_pack(seen, dim * stride), stride, len(seen) * dim)
    return {BitMatrix(dim, dim, rows[k * dim:k * dim + dim]) for k in range(len(seen))}


def matrix_key(m: BitMatrix) -> str:
    """Canonical sort key: the row-major bit string, bit j of a row at its
    character j."""
    return "".join([format(r, f"0{m.cols}b")[::-1][:m.cols] for r in m.data])


class GroupTable(_Value):
    """A finite orthogonal group in matrix_key order, with each element's rank parity."""

    __slots__ = ("elements", "psi_values")

    def __init__(self, elements: tuple[BitMatrix, ...], psi_values: tuple[int, ...]) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "psi_values", psi_values)

    @classmethod
    def from_elements(cls, elements) -> "GroupTable":
        ordered = sorted(elements, key=matrix_key)
        return cls(tuple(ordered), tuple(rank_parity(m) for m in ordered))
