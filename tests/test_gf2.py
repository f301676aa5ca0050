"""Bit-packed GF(2) linear algebra."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint.gf2 import (
    BitMatrix,
    BitVector,
    _echelon,
    _kernel,
    _mul_rows,
    _pack,
    _stride,
    _transpose,
    _unpack,
    kernel_basis,
    multiply,
    rank,
    solve,
)

from conftest import (
    bit_matrices,
    bit_product,
    bit_vectors,
    rref,
    rref_kernel,
    rref_solve,
)

ONES2 = BitMatrix.from_strings(["11", "11"])


class TestBitTypes:
    def test_pad_bits_rejected(self):
        with pytest.raises(ValueError):
            BitVector(2, 4)
        with pytest.raises(ValueError):
            BitMatrix(1, 2, (5,))

    def test_string_round_trip(self):
        v = BitVector.from_string("0110")
        assert v.to01() == "0110"

    def test_column_and_transpose(self):
        m = BitMatrix.from_strings(["110", "011"])
        assert m.column(1).to01() == "11"
        assert m.transpose().to01_rows() == ["10", "11", "01"]

    def test_apply(self):
        m = BitMatrix.from_strings(["110", "011"])
        assert m.apply(BitVector.from_string("100")).to01() == "10"
        assert m.apply(BitVector.from_string("111")).to01() == "00"


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(4)) == 4

    def test_zero(self):
        assert rank(BitMatrix.zero(3, 3)) == 0

    def test_equal_rows(self):
        assert rank(ONES2) == 1


class TestMultiply:
    def test_identity_neutral(self):
        m = BitMatrix.from_strings(["101", "011"])
        assert multiply(m, BitMatrix.identity(3)) == m
        assert multiply(BitMatrix.identity(2), m) == m

    def test_swap_involution(self):
        swap = BitMatrix.from_strings(["01", "10"])
        assert multiply(swap, swap) == BitMatrix.identity(2)

    def test_zero_absorbing(self):
        m = BitMatrix.from_strings(["101", "011"])
        assert multiply(m, BitMatrix.zero(3, 2)) == BitMatrix.zero(2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(BitMatrix.identity(2), BitMatrix.identity(3))


class TestSolve:
    def test_identity(self):
        v = BitVector.from_string("101")
        assert solve(BitMatrix.identity(3), v) == v

    def test_empty_image(self):
        assert solve(BitMatrix.zero(2, 2), BitVector.from_string("10")) is None

    def test_deterministic_choice(self):
        # oracle: enumerate all four inputs of the all-ones 2x2 matrix
        target = BitVector.from_string("11")
        solutions = {
            x for b in range(4)
            for x in [BitVector(2, b)]
            if ONES2.apply(x) == target
        }
        assert solutions == {BitVector.from_string("10"), BitVector.from_string("01")}
        got = solve(ONES2, target)
        assert got in solutions
        # free variable (second coordinate) pinned to zero
        assert got == BitVector.from_string("10")

    def test_mismatch(self):
        with pytest.raises(ValueError):
            solve(BitMatrix.identity(3), BitVector.from_string("10"))


class TestKernel:
    def test_identity(self):
        assert kernel_basis(BitMatrix.identity(3)) == []

    def test_zero(self):
        assert kernel_basis(BitMatrix.zero(3, 3)) == [BitVector.basis(3, i) for i in range(3)]

    def test_rank_one(self):
        assert kernel_basis(ONES2) == [BitVector.from_string("11")]


def check_against_reference(m, rhs_values):
    """rank, kernel_basis and solve against conftest.rref.

    The kernel is also read from the echelon form of the rows augmented with
    each right-hand side, which must not change it.
    """
    _, pivot_cols = rref(m.data, m.cols)
    kernel = kernel_basis(m)
    expected_kernel = rref_kernel(m.data, m.cols)
    assert rank(m) == len(pivot_cols)
    assert rank(m) + len(kernel) == m.cols
    assert [v.bits for v in kernel] == expected_kernel
    for v in rhs_values:
        got = solve(m, BitVector(m.rows, v))
        assert (None if got is None else got.bits) == rref_solve(m.data, m.cols, v)
        augmented = _echelon(row | ((v >> i) & 1) << m.cols for i, row in enumerate(m.data))
        assert _kernel(augmented, m.cols) == expected_kernel


def test_rank_nullity_exhaustive_small():
    """Every matrix of every shape up to 4 x 4 but 4 x 4, with every right-hand side."""
    for rows, cols in product(range(5), repeat=2):
        if (rows, cols) == (4, 4):
            continue
        mask = (1 << cols) - 1
        for code in range(1 << (rows * cols)):
            m = BitMatrix(rows, cols, tuple((code >> (i * cols)) & mask for i in range(rows)))
            check_against_reference(m, range(1 << rows))


def test_rank_nullity_exhaustive_4x4():
    """Every 4 x 4 matrix, with one seeded right-hand side each."""
    rng = random.Random(44)
    for code in range(1 << 16):
        m = BitMatrix(4, 4, tuple((code >> (4 * i)) & 15 for i in range(4)))
        check_against_reference(m, [rng.getrandbits(4)])


@settings(max_examples=60)
@given(st.data())
def test_matches_reference_up_to_80(data):
    """Shapes up to 80 x 80 of drawn rank, consistent and drawn right-hand sides."""
    def low_rank(rows, cols):
        inner = data.draw(st.integers(0, 80))
        return multiply(data.draw(bit_matrices(rows=rows, cols=inner)),
                        data.draw(bit_matrices(rows=inner, cols=cols)))

    m = low_rank(data.draw(st.integers(0, 80)), data.draw(st.integers(0, 80)))
    x = data.draw(st.integers(0, (1 << m.cols) - 1))
    v = data.draw(st.integers(0, (1 << m.rows) - 1))
    check_against_reference(m, [m.apply(BitVector(m.cols, x)).bits, v])
    n = data.draw(st.integers(0, 80))
    check_against_reference(low_rank(n, n), [])


@given(bit_matrices(max_rows=8, max_cols=8))
def test_rank_nullity_random(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(st.data())
def test_solve_round_trip(data):
    m = data.draw(bit_matrices(max_rows=7, max_cols=7))
    x = data.draw(bit_vectors(length=m.cols))
    v = m.apply(x)
    got = solve(m, v)
    assert got is not None
    assert m.apply(got) == v


@given(st.data())
def test_solve_none_means_inconsistent(data):
    m = data.draw(bit_matrices(max_rows=6, max_cols=6))
    v = data.draw(bit_vectors(length=m.rows))
    got = solve(m, v)
    if got is None:
        # exhaustive check in small dimension: no x works
        assert all(m.apply(BitVector(m.cols, b)) != v for b in range(1 << m.cols))
    else:
        assert m.apply(got) == v


@given(st.data())
def test_multiply_associative(data):
    a = data.draw(bit_matrices(max_rows=5, max_cols=5))
    b = data.draw(bit_matrices(rows=a.cols, max_cols=5))
    c = data.draw(bit_matrices(rows=b.cols, max_cols=5))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(st.data())
def test_kernel_vectors_annihilate(data):
    m = data.draw(bit_matrices(max_rows=7, max_cols=7))
    for v in kernel_basis(m):
        assert m.apply(v).is_zero()


def check_transpose(data, rows, cols):
    """_transpose against the per-bit definition, and twice is the identity."""
    t = _transpose(data, cols)
    assert t == [sum(((data[i] >> j) & 1) << i for i in range(rows)) for j in range(cols)]
    assert _transpose(t, rows) == list(data)


@settings(max_examples=60)
@given(st.data())
def test_transpose_random_shapes(data):
    rows = data.draw(st.integers(0, 140))
    cols = data.draw(st.integers(0, 140))
    m = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    check_transpose(m, rows, cols)


@pytest.mark.parametrize("rows, cols", [
    (0, 0), (0, 9), (9, 0), (1, 1), (1, 140), (140, 1), (7, 8), (8, 8), (9, 8),
    (63, 65), (64, 64), (76, 76), (128, 129), (140, 140)])
def test_transpose_edge_shapes(rows, cols):
    rng = random.Random(1000 * rows + cols)
    check_transpose([rng.getrandbits(cols) for _ in range(rows)], rows, cols)
    check_transpose([(1 << cols) - 1] * rows, rows, cols)


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 76, 128, 129])
def test_pack_round_trip(width):
    """Vector k of a block sits at bits k*stride and up, and unpacks unchanged."""
    rng = random.Random(width)
    n = _stride(width)
    assert n >= max(8, width) and n & (n - 1) == 0
    for count in (0, 1, 9, width):
        rows = [rng.getrandbits(width) for _ in range(count)]
        x = _pack(rows, n)
        assert x >> (count * n) == 0
        assert [(x >> (k * n)) & ((1 << n) - 1) for k in range(count)] == rows
        assert _unpack(x, n, count) == rows


@pytest.mark.parametrize("inner", [0, 1, 7, 8, 9, 65])
def test_table_product_matches_the_entrywise_product(inner):
    """_mul_rows on full and partial byte tables of b against the product
    entry by entry."""
    rng = random.Random(inner)
    for rows, cols in ((0, 5), (1, 9), (6, 70), (inner, inner)):
        a = [rng.getrandbits(inner) for _ in range(rows)] + [(1 << inner) - 1]
        b = [rng.getrandbits(cols) for _ in range(inner)]
        assert _mul_rows(a, b) == bit_product(a, b, cols)
