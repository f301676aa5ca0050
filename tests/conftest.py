"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

import quadpoint
from quadpoint.gf2 import BitMatrix, BitVector, _matvec, multiply, parity
from quadpoint.oracle import _evaluate_bits
from quadpoint.orthogroup import enumerate_group
from quadpoint.quadform import (
    QuadraticForm,
    arf,
    is_nondegenerate,
    pullback,
    standard_form,
    symplectic_basis,
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
# checked against; and the greedy symplectic reduction as a loop of single
# parities over a list of vectors.

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


def same_symplectic_pairs(f):
    """Whether symplectic_basis(f) gives the reference pairs, or both raise
    ValueError("degenerate form")."""
    try:
        expected = projected_pairs(f.gram.data)
    except ValueError as exc:
        expected = str(exc)
    try:
        sb = symplectic_basis(f)
    except ValueError as exc:
        return str(exc) == expected == "degenerate form"
    return [(a.bits, b.bits) for a, b in zip(sb.a_vectors, sb.b_vectors)] == expected


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
            f = QuadraticForm(4, BitMatrix(4, 4, tuple(rows)), BitVector(4, g))
            if is_nondegenerate(f) and arf(f) == 0:
                yield f


STANDARD_CASES = [(1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.fixture(scope="session")
def small_groups():
    """Enumerated orthogonal groups for dimensions 2 and 4, both Arf values."""
    return {
        (genus, arf_value): enumerate_group(standard_form(genus, arf_value))
        for genus, arf_value in STANDARD_CASES
    }


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
