"""Bit-packed GF(2) linear algebra."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint.gf2 import (
    BitMatrix,
    BitVector,
    _echelon,
    _fold,
    _kernel,
    _matvec,
    _mul_rows,
    _ones,
    _pack,
    _parities,
    _product,
    _stride,
    _transpose,
    _transpose_masks,
    _unpack,
    kernel_basis,
    multiply,
    parity,
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

    def test_index_range(self):
        """row and column take 0 <= i < length only: a negative index raises
        IndexError, as it would past the end."""
        m = BitMatrix.identity(3)
        assert m.row(2).to01() == "001"
        for bad in (-1, 3):
            with pytest.raises(IndexError):
                m.row(bad)
            with pytest.raises(IndexError):
                m.column(bad)

    def test_from_strings_rejects_no_rows_and_ragged_rows(self):
        with pytest.raises(ValueError, match="^an empty row list has no width$"):
            BitMatrix.from_strings([])
        with pytest.raises(ValueError, match="^rows of unequal length$"):
            BitMatrix.from_strings(["01", "1"])
        assert BitMatrix.from_strings(["", ""]) == BitMatrix(2, 0, (0, 0))

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
        assert list(_kernel(augmented, m.cols)) == expected_kernel


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


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_transpose_masks_match_repunit_division(n):
    """Each round's masks, built from one repeated byte period, against the
    repunit division that sets the bits p < n*n with p & s set."""
    ones = (1 << (n * n)) - 1

    def high_halves(s):
        return ones // ((1 << (2 * s)) - 1) * ((1 << s) - 1) << s

    sizes = [1 << e for e in range(n.bit_length() - 1)]
    assert _transpose_masks(n) == [(s * (n - 1), high_halves(s) & ~high_halves(s * n))
                                   for s in sizes]


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 24, 25, 48, 49, 63, 64, 65, 76, 96, 97,
                                   128, 129, 192, 193, 255, 256, 257, 1024, 2047, 2048])
def test_pack_round_trip(width):
    """The stride is the least 2^k or 3 * 2^k, in whole bytes, that is at
    least max(8, width).  Vector k of a block sits at bits k*stride and up,
    and unpacks unchanged; unpacking the first vectors of a longer block, as
    _transpose does, gives the shift formula's vectors."""
    rng = random.Random(width)
    n = _stride(width)
    assert n == min(s for k in range(3, 13) for s in (1 << k, 3 << k) if s >= max(8, width))
    for count in (0, 1, 9, width):
        rows = [rng.getrandbits(width) for _ in range(count)]
        x = _pack(rows, n)
        assert x >> (count * n) == 0
        assert [(x >> (k * n)) & ((1 << n) - 1) for k in range(count)] == rows
        assert _unpack(x, n, count) == rows
        for fewer in (0, count // 2, max(count - 1, 0)):
            assert _unpack(x, n, fewer) == [(x >> (k * n)) & ((1 << n) - 1)
                                            for k in range(fewer)]


def test_identity_block_is_the_packed_identity():
    """The repunit _ones(s, n) is the packed block of n ones at every stride
    s of dims 0 to 256, strides 2^k and 3 * 2^k alike, and _ones(s + 1, dim)
    is the packed identity rows at the block stride of dim."""
    strides = set()
    for dim in range(257):
        stride = _stride(dim)
        strides.add(stride)
        assert _ones(stride + 1, dim) == _pack([1 << i for i in range(dim)], stride)
    assert strides == {8, 16, 24, 32, 48, 64, 96, 128, 192, 256}
    for stride in strides:
        for count in range(257):
            assert _ones(stride, count) == _pack([1] * count, stride)


@pytest.mark.parametrize("stride", [8, 16, 24, 32, 48, 64, 96, 128, 192])
def test_parities_is_the_parity_of_each_slot(stride):
    """_parities puts each slot's bit_count() & 1 at its bit 0, at power-of-two
    strides and at three times a power of two, whose fold ends on three bits."""
    rng = random.Random(stride)
    for count in (0, 1, stride):
        rows = [rng.getrandbits(stride) for _ in range(count - 1)]
        rows += [(1 << stride) - 1] * (count > 0)
        got = _unpack(_parities(_pack(rows, stride), _ones(stride, count), _fold(stride)),
                      stride, count)
        assert got == [r.bit_count() & 1 for r in rows]


@pytest.mark.parametrize("inner", [0, 1, 7, 8, 9, 65])
def test_table_product_matches_the_entrywise_product(inner):
    """multiply, the block product of gf2._mul_rows, against the product
    entry by entry, at inner widths on either side of a byte."""
    rng = random.Random(inner)
    for rows, cols in ((0, 5), (1, 9), (6, 70), (inner, inner)):
        a = [rng.getrandbits(inner) for _ in range(rows)] + [(1 << inner) - 1]
        b = [rng.getrandbits(cols) for _ in range(inner)]
        product = multiply(BitMatrix(len(a), inner, a), BitMatrix(inner, cols, b))
        assert list(product.data) == bit_product(a, b, cols)


@pytest.mark.parametrize("width", [8, 9, 16, 17, 24, 25, 32, 33, 48, 49, 64, 65, 66, 96, 97, 128])
def test_block_product_matches_the_entrywise_product(width):
    """_mul_rows against bit_product at every stride edge, 2^k and 3 * 2^k:
    the edge lies in the width of a's rows (len(b)), of the product's rows
    (cols) or both, with row counts other than the widths; and on empty
    factors and a zero-width product."""
    rng = random.Random(width)
    for rows in (1, 6):
        for inner, cols in ((width, width), (width, 9), (9, width)):
            a = [rng.getrandbits(inner) for _ in range(rows - 1)] + [(1 << inner) - 1]
            b = [rng.getrandbits(cols) for _ in range(inner - 1)] + [(1 << cols) - 1]
            assert _mul_rows(a, b, cols) == bit_product(a, b, cols)
    assert _mul_rows([], [rng.getrandbits(width)], width) == []
    assert _mul_rows([0, 0, 0], [], width) == [0, 0, 0]
    assert _mul_rows([rng.getrandbits(width)], [0] * width, 0) == [0]
    assert _mul_rows([], [], 0) == []


@pytest.mark.parametrize("dim", [0, 1, 7, 8, 9, 16, 17, 48, 49, 64, 65, 66, 96, 97])
def test_product_is_the_chain_of_its_steps(dim):
    """_product against the multiply chain of one-step matrices, the later
    step on the left; row i of the step (sel, add) is e_i + add_i sel.  Its
    rows also map each x as the steps do one after another, read by _matvec.
    No steps give the identity; dims are the stride edges, 2^k and 3 * 2^k.
    The steps also come as a generator, which _product reads once."""
    rng = random.Random(dim)
    ones = (1 << dim) - 1
    identity = BitMatrix.identity(dim)
    assert _product(dim, []) == list(identity.data)
    for length in (1, 2, 6, 128):
        steps = [(rng.getrandbits(dim), rng.getrandbits(dim)) for _ in range(length - 1)]
        steps.append((ones, ones))
        expected = identity
        for sel, add in steps:
            step = [(1 << i) ^ (sel if (add >> i) & 1 else 0) for i in range(dim)]
            expected = multiply(BitMatrix(dim, dim, tuple(step)), expected)
        rows = _product(dim, steps)
        assert rows == list(expected.data)
        assert _product(dim, (step for step in steps)) == rows
        for x in (0, ones, rng.getrandbits(dim), rng.getrandbits(dim)):
            y = x
            for sel, add in steps:
                y ^= add if parity(y & sel) else 0
            assert _matvec(rows, x) == y
