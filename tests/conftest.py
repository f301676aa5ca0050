"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import os
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

import quadpoint
from quadpoint.gf2 import (
    BitMatrix,
    BitVector,
    _combine,
    _fold,
    _matvec,
    _ones,
    _pack,
    _parities,
    _stride,
    _symplectic_pairs,
    _transpose,
    _unpack,
    multiply,
    parity,
)
from quadpoint.oracle import _bil_bits, _evaluate_bits, filter_full_linear_group
from quadpoint.orthogroup import OrthogonalMap, decompose, enumerate_group, recompose
from quadpoint.quadform import (
    QuadraticForm,
    _find_flip,
    _images,
    arf,
    direct_sum,
    evaluate,
    pullback,
    standard_form,
)

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def bit_matrices(draw, max_rows=6, max_cols=6, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(0, max_rows))
    c = cols if cols is not None else draw(st.integers(0, max_cols))
    data = tuple(draw(st.integers(0, (1 << c) - 1)) for _ in range(r))
    return BitMatrix(r, c, data)


@st.composite
def bit_vectors(draw, length=None, max_length=8):
    n = length if length is not None else draw(st.integers(0, max_length))
    return BitVector(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def invertible_matrices(draw, n):
    """Random invertible n x n matrix P . L . U, drawn without rejection.

    P permutes the rows of the product of a unit lower triangular L and a
    unit upper triangular U.  Every invertible matrix factors this way.
    """
    lower = [(1 << i) | draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    upper = [(1 << i) | draw(st.integers(0, (1 << (n - 1 - i)) - 1)) << (i + 1)
             for i in range(n)]
    lu = multiply(BitMatrix(n, n, tuple(lower)), BitMatrix(n, n, tuple(upper))).data
    return BitMatrix(n, n, tuple(lu[i] for i in draw(st.permutations(range(n)))))


@st.composite
def nondegenerate_forms(draw, max_genus=3):
    """A standard form twisted by a random change of basis."""
    genus = draw(st.integers(1, max_genus))
    arf_value = draw(st.integers(0, 1))
    base = standard_form(genus, arf_value)
    p = draw(invertible_matrices(2 * genus))
    return pullback(base, p)


# -- reference elimination and symplectic reduction -------------------------
#
# A column scan over a list of rows with a separate pivot list: a second,
# independent elimination that gf2's echelon form {lowest set bit: row} is
# checked against; the greedy symplectic reduction as a loop of single
# parities over a list of vectors; and psi read off a maximal totally singular
# subspace (the Dickson invariant), with no rank of T - Id.

def rref(data, cols):
    """Reduced row echelon form over the first cols columns.

    Pivots are chosen left to right by first set bit; returns the reduced
    rows (original count, zero rows at the bottom) and the pivot columns.
    """
    rows = list(data)
    pivot_cols = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        pr = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols


def rref_solve(data, cols, vbits):
    """Packed x with free variables zero and data @ x = v, or None."""
    rhs_bit = 1 << cols
    aug = [row | (((vbits >> i) & 1) << cols) for i, row in enumerate(data)]
    reduced, pivot_cols = rref(aug, cols)
    if any(row & rhs_bit for row in reduced[len(pivot_cols):]):
        return None
    return sum(1 << c for r, c in enumerate(pivot_cols) if reduced[r] & rhs_bit)


def rref_kernel(data, cols):
    """Packed null-space basis, one vector per free column, in column order."""
    reduced, pivot_cols = rref(data, cols)
    return [(1 << free) | sum(1 << c for r, c in enumerate(pivot_cols)
                              if (reduced[r] >> free) & 1)
            for free in range(cols) if free not in pivot_cols]


def rref_inverse(data):
    """Rows of the inverse of a square matrix, or None if it is singular."""
    n = len(data)
    reduced, pivot_cols = rref([row | (1 << (n + i)) for i, row in enumerate(data)], n)
    return [row >> n for row in reduced] if len(pivot_cols) == n else None


def projected_pairs(gram):
    """The greedy symplectic pairs (x, y) by projecting a list of vectors.

    Takes the first remaining vector x and the first partner y with
    B(x, y) = 1, and projects every other z to z + B(z, y) x + B(z, x) y,
    one parity at a time; raises ValueError("degenerate form") when x has no
    partner.  The reference that gf2's block congruence is checked against.
    """
    remaining = [1 << i for i in range(len(gram))]
    pairs = []
    while remaining:
        x = remaining[0]
        gx = _matvec(gram, x)
        y = next((z for z in remaining[1:] if parity(z & gx)), None)
        if y is None:
            raise ValueError("degenerate form")
        gy = _matvec(gram, y)
        pairs.append((x, y))
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
    return pairs


def singular_lagrangian(f):
    """Basis of a maximal totally singular subspace of f, or None if f has
    Arf invariant 1.

    Witt's splitting, one hyperbolic pair at a time: in the span W of the
    remaining vectors, x is the first sum of a nonempty subset of the first
    three with g(x) = 0 (with three or more vectors one exists), y the first
    partner with B(x, y) = 1, moved to g(y) = 0 by adding g(y) x.  x joins
    the subspace, and W is projected to the complement of the pair by
    z -> z + B(z, y) x + B(z, x) y and reduced to a basis by rref.  Two
    vectors left without a singular sum span the Arf-1 plane.
    """
    def g(v):
        return _evaluate_bits(f, v)

    def b(x, y):
        return _bil_bits(f, x, y)

    remaining = [1 << i for i in range(f.dim)]
    lagrangian = []
    while remaining:
        sums = [0]
        for z in remaining[:3]:
            sums += [v ^ z for v in sums]
        x = next((v for v in sums[1:] if not g(v)), None)
        if x is None:
            return None
        y = next(z for z in remaining if b(x, z))
        y ^= x if g(y) else 0
        lagrangian.append(x)
        projected = [z ^ (x if b(z, y) else 0) ^ (y if b(z, x) else 0) for z in remaining]
        reduced, pivots = rref(projected, f.dim)
        remaining = reduced[:len(pivots)]
    return lagrangian


def dickson_parity(f):
    """T -> the Dickson invariant of T, from a maximal totally singular U.

    On an Arf-0 form of dimension 2m, U has dimension m, and T moves U to the
    other family of such subspaces exactly when m - dim(U n TU) is odd: that
    parity is psi(T) = rank(T - Id) mod 2, computed here without a rank of
    T - Id.  dim(U n TU) = 2m - dim(U + TU), one rref.  An Arf-1 form is
    first summed with the Arf-1 plane (g = 1 on its three nonzero vectors),
    on which T acts as the identity.  The returned function takes the rows
    of T.
    """
    lagrangian = singular_lagrangian(f)
    if lagrangian is None:
        f = direct_sum(f, standard_form(1, 1))
        lagrangian = singular_lagrangian(f)
    dim, m = f.dim, len(lagrangian)
    assert 2 * m == dim

    def psi(rows):
        rows = [*rows, *(1 << i for i in range(len(rows), dim))]
        images = [sum(((r & u).bit_count() & 1) << i for i, r in enumerate(rows))
                  for u in lagrangian]
        return (len(rref(lagrangian + images, dim)[1]) - m) % 2

    return psi


def same_symplectic_pairs(f):
    """Whether _symplectic_pairs gives the reference projection's pairs for f's Gram."""
    return _symplectic_pairs(f.gram.data) == projected_pairs(f.gram.data)


def form_or_none(dim, rows, gbits=0):
    """The form with these Gram rows and basis values, or None when the Gram
    is degenerate, which construction rejects with ValueError("degenerate form")."""
    try:
        return QuadraticForm(dim, BitMatrix(dim, dim, tuple(rows)), BitVector(dim, gbits))
    except ValueError as exc:
        assert str(exc) == "degenerate form"
        return None


# -- reference restoration ------------------------------------------------------
#
# The restoration as it was before it carried G (T + I): the column block of
# T with its Gram images G T beside it, and one parity fold per push.  The
# words of orthogroup._restoration_word are checked against it.

def fold_restoration_word(f: QuadraticForm, m: BitMatrix) -> list[BitVector]:
    """Transvection word carrying m back to the identity, one rank at a time.

    Step: for the current map T let q(v) = B(Tv, v).  As g(Tv) = g(v),
    g((T + I)v) = q(v).  If q(v) = 1, then w = (T + I)v has g(w) = 1, the
    transvection along w sends Tv to v, and B(x, w) = 0 for every x that T
    fixes; so t_w T fixes v and Fix(T), and rank(T + I) drops by exactly
    one.  v is the first e_i with q(e_i) = B(T e_i, e_i) = 1, read for all i
    at once off the Gram images of the columns of T, else the first
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
    letters.  A map that does not preserve g is rejected with ValueError,
    at the latest past 2 dim pushes.  The columns of the current map are one
    block, cols, carried with gcols = G cols, so q(e_i) is bit i of slot i of
    gcols.  A push of w folds once, p = B(T e_j, w) for all j, and adds p w
    to cols and p G w to gcols.  The returned word is in application order:
    composing its transvections, first entry first, reproduces m.
    """
    dim = f.dim
    gram_g = _images(f)
    stride = _stride(dim)
    mask = (1 << dim) - 1
    ones = _ones(stride, dim)
    # the identity columns, bit i of slot i, worked out here and not taken from gf2
    identity = ((1 << dim * (stride + 1)) - 1) // ((1 << stride + 1) - 1)
    columns = _transpose(m.data, dim)
    cols = _pack(columns, stride)
    gcols = _pack([gram_g(c)[0] for c in columns], stride)
    applied: list[int] = []

    def push(w: int) -> None:
        nonlocal cols, gcols
        gw = gram_g(w)[0]
        p = _parities(cols & gw * ones, ones, _fold(stride))
        cols ^= p * w
        gcols ^= p * gw
        applied.append(w)

    while cols != identity:
        if len(applied) >= 2 * dim:
            raise ValueError("restoration failed to reach the identity")
        q = gcols & identity
        if q:
            i = ((q & -q).bit_length() - 1) // stride
            push(cols >> (i * stride) & mask ^ 1 << i)
            continue
        columns = _unpack(cols, stride, dim)
        images = _unpack(gcols, stride, dim)  # row i: B(T e_i, e_j) at bit j
        beta = [r ^ s for r, s in zip(images, _transpose(images, dim))]
        i = next((i for i, r in enumerate(beta) if r), None)
        if i is not None:
            v = 1 << i | beta[i] & -beta[i]
            push(_combine(columns, v) ^ v)
            continue
        fixed = rref_kernel([r ^ 1 << k for k, r in enumerate(_transpose(columns, dim))], dim)
        c = _find_flip(f, fixed) or _find_flip(f, [1 << k for k in range(dim)])
        tc = _combine(columns, c) ^ c
        system = [gram_g(c)[0], gram_g(tc)[0]]
        s0 = rref_solve(system, dim, 0b01)
        # x lies in span(Fix(T), c) exactly when (T + I)x is 0 or (T + I)c
        v = None if s0 is None else next(
            (x for x in (s0 ^ k for k in [0, *rref_kernel(system, dim)])
             if _combine(columns, x) ^ x not in (0, tc)), None)
        if v is None:
            raise ValueError("restoration found no escape from a dead end")
        push(c)
        push(_combine(columns, v) ^ v ^ c)
    return [BitVector(dim, c) for c in reversed(applied)]


def eliminated_connector(f, ws, a1, a2):
    """The connector for w vectors ws (k > 0) by elimination, on packed ints.

    rref_solve on the stacked system [G w_1 .. G w_k, G a1, G a2] (the a2
    row only when a2 != a1) with right-hand side 0 on the w rows and 1 on
    the a rows; its free variables are zero.  A solution with g = 0 is
    moved into the right g-class by adding w_1.
    """
    rows = [_matvec(f.gram.data, v) for v in (*ws, a1)]
    if a2 != a1:
        rows.append(_matvec(f.gram.data, a2))
    rhs = (1 << len(rows)) - (1 << len(ws))
    b = rref_solve(rows, f.dim, rhs)
    return b if _evaluate_bits(f, b) else b ^ ws[0]


def bit_product(a, b, cols=None):
    """Rows of the product a . b, entry by entry; b has width cols (default:
    len(b), a square b)."""
    cols = len(b) if cols is None else cols
    return [sum((sum((r >> k) & (b[k] >> j) & 1 for k in range(len(b))) & 1) << j
                for j in range(cols)) for r in a]


def random_gram(rng, dim: int):
    """Rows of a seeded random symmetric zero-diagonal dim x dim matrix."""
    rows = [0] * dim
    for i in range(dim):
        above = rng.getrandbits(dim) >> (i + 1) << (i + 1)
        rows[i] |= above
        for j in range(i + 1, dim):
            if (above >> j) & 1:
                rows[j] |= 1 << i
    return rows


def all_vectors(dim: int):
    return [BitVector(dim, b) for b in range(1 << dim)]


def g_one_vectors(f):
    return [v for v in all_vectors(f.dim) if evaluate(f, v) == 1]


@lru_cache(maxsize=None)
def filtered_table(f):
    """filter_full_linear_group(f), run once per form for every test that
    holds a group against the brute-force filter (0.2 s at dimension 4).
    Callers only read the table."""
    return filter_full_linear_group(f)


def zero_diagonal_grams(dim: int):
    """Rows of every symmetric zero-diagonal dim x dim matrix, one per upper triangle."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for code in range(1 << len(pairs)):
        rows = [0] * dim
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield rows


def dim4_arf0_forms():
    """Every non-degenerate Arf-0 form on F_2^4: 28 Gram matrices, 10 g each."""
    for rows in zero_diagonal_grams(4):
        for g in range(16):
            f = form_or_none(4, rows, g)
            if f is not None and arf(f) == 0:
                yield f


STANDARD_CASES = [(1, 0), (1, 1), (2, 0), (2, 1)]

# The data of two degenerate forms, (dim, gram, basis values), which
# QuadraticForm rejects: an odd dimension, and a radical beside a hyperbolic pair.
DEG3 = (3, BitMatrix.from_strings(["010", "101", "010"]), BitVector.from_string("111"))
DEG4 = (4, BitMatrix.from_strings(["0100", "1000", "0000", "0000"]),
        BitVector.from_string("1000"))


@pytest.fixture(scope="session")
def small_groups():
    """Enumerated orthogonal groups for dimensions 2 and 4, both Arf values."""
    return {
        (genus, arf_value): enumerate_group(standard_form(genus, arf_value))
        for genus, arf_value in STANDARD_CASES
    }


@pytest.fixture(scope="session")
def dim6_groups():
    """The two dimension-6 groups by closure, and the seconds the closure took."""
    t0 = time.monotonic()
    groups = {a: enumerate_group(standard_form(3, a)) for a in (0, 1)}
    return groups, time.monotonic() - t0


@pytest.fixture(scope="session")
def decompositions(small_groups, dim6_groups):
    """Every element of dimensions 2 to 6, certified, decomposed and
    recomposed once for all the tests that check the round trip.

    Returns ({(genus, arf): {m: (OrthogonalMap(f, m), u_flag, word,
    recompose(f, u_flag, word))}}, the seconds the tables took).  The groups
    are the closures with the swap, so at dimension 4 with Arf 0 the swap
    coset is in the table.
    """
    t0 = time.monotonic()
    groups = {**small_groups, **{(3, a): group for a, group in dim6_groups[0].items()}}
    tables = {}
    for (genus, arf_value), group in groups.items():
        f = standard_form(genus, arf_value)
        table = tables[genus, arf_value] = {}
        for m in group:
            t = OrthogonalMap(f, m)
            u_flag, word = decompose(t)
            table[m] = t, u_flag, word, recompose(f, u_flag, word)
    return tables, time.monotonic() - t0


# Directory that holds the quadpoint package this process imported: src/ in a
# checkout, site-packages when installed.
SOURCE_ROOT = Path(quadpoint.__file__).resolve().parents[1]


def child_env():
    """The caller's environment, made to run the package under test.

    SOURCE_ROOT goes first on PYTHONPATH, so a child process imports the same
    quadpoint whatever the working directory or a relative PYTHONPATH says.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p)
    return env
