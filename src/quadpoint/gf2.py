"""Dense linear algebra over GF(2) on bit-packed integers.

A vector is a Python int with coordinate i stored in bit i (least
significant bit first); a matrix is a tuple of such ints, one per row.
Row elimination -- the inner loop of everything here -- is then a single
integer XOR, and arbitrary dimensions come for free from arbitrary
precision.  Bits above the declared length are kept at zero.

Elimination has one format, the echelon form {lowest set bit: row}:
rank_rows makes its forward pass, and everything that reads a solution
keeps it fully reduced (_echelon_add).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


def parity(x: int) -> int:
    """Parity of the number of set bits of a non-negative int."""
    return x.bit_count() & 1


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector of fixed length."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("set bits beyond declared length")

    @classmethod
    def zero(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def basis(cls, length: int, i: int) -> "BitVector":
        if not 0 <= i < length:
            raise ValueError(f"basis index {i} out of range for length {length}")
        return cls(length, 1 << i)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse a 0/1 string; character position i is coordinate i."""
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls(len(s), sum(1 << i for i, ch in enumerate(s) if ch == "1"))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix; data[i] is row i, bit-packed."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data")
        for r in self.data:
            if r < 0 or r >> self.cols:
                raise ValueError("row has set bits beyond declared width")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, vectors: Sequence[BitVector], cols: int | None = None) -> "BitMatrix":
        if cols is None:
            if not vectors:
                raise ValueError("cols is required for an empty row list")
            cols = vectors[0].length
        for v in vectors:
            if v.length != cols:
                raise ValueError("rows of unequal length")
        return cls(len(vectors), cols, tuple(v.bits for v in vectors))

    @classmethod
    def from_strings(cls, lines: Sequence[str], cols: int | None = None) -> "BitMatrix":
        return cls.from_rows([BitVector.from_string(s) for s in lines], cols)

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.data[i])

    def column(self, j: int) -> BitVector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.data):
            bits |= ((r >> j) & 1) << i
        return BitVector(self.rows, bits)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(_transpose(self.data, self.cols)))

    def apply(self, v: BitVector) -> BitVector:
        """Matrix times column vector."""
        if v.length != self.cols:
            raise ValueError("length mismatch")
        return BitVector(self.rows, _matvec(self.data, v.bits))

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.data, other.data)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to01_rows(self) -> list[str]:
        return [self.row(i).to01() for i in range(self.rows)]

    def __str__(self) -> str:
        return "\n".join(self.to01_rows())


def rank_rows(data: Iterable[int]) -> int:
    """GF(2) rank of packed rows: the forward pass of the echelon form."""
    pivots: dict[int, int] = {}
    count = 0
    for r in data:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                count += 1
                break
            r ^= p
    return count


def rank(m: BitMatrix) -> int:
    return rank_rows(m.data)


def multiply(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return BitMatrix(a.rows, b.cols, tuple(_mul_rows(a.data, b.data)))


# -- the packed-row kernel ---------------------------------------------------
#
# Unchecked helpers on bare row tuples or lists, shared by every module: the
# public functions validate shapes once and then call these.

def _combine(rows: Sequence[int], bits: int) -> int:
    """XOR of the rows picked by the set bits: the row vector bits^T . rows."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def _mul_rows(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Rows of the product a . b."""
    return [_combine(b, r) for r in a]


def _transpose(data: Sequence[int], cols: int) -> list[int]:
    """Rows of the transpose of a matrix with the given rows and width.

    The rows are packed into one int as an n x n block, n a power of two and
    at least 8 so that rows are whole bytes; log2(n) mask-shift-XOR rounds
    then swap the off-diagonal blocks of each size (Warren, Hacker's
    Delight, 2nd ed., section 7-3).
    """
    if not data or not cols:
        return [0] * cols
    n = max(8, 1 << (max(len(data), cols) - 1).bit_length())
    size = n >> 3
    x = int.from_bytes(b"".join(r.to_bytes(size, "little") for r in data), "little")
    for shift, mask in _transpose_masks(n):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    packed = x.to_bytes(n * size, "little")
    return [int.from_bytes(packed[j * size:(j + 1) * size], "little") for j in range(cols)]


@lru_cache(maxsize=16)
def _transpose_masks(n: int) -> list[tuple[int, int]]:
    """(shift, mask) of each round of the n x n block transpose.

    Entry (i, j) sits at bit p = i*n + j, so bit s of j is bit s of p and
    bit s of i is bit s*n of p.  Round s moves the entries with bit s set in
    j and clear in i by s*(n - 1) bits, to (i + s, j - s).
    """
    ones = (1 << (n * n)) - 1

    def high_halves(s: int) -> int:  # bits p with p & s set: a repunit product
        return ones // ((1 << (2 * s)) - 1) * ((1 << s) - 1) << s

    sizes = [1 << e for e in range(n.bit_length() - 1)]
    return [(s * (n - 1), high_halves(s) & ~high_halves(s * n)) for s in sizes]


def _matvec(rows: Sequence[int], vbits: int) -> int:
    """Matrix times column vector."""
    out = 0
    for i, r in enumerate(rows):
        if (r & vbits).bit_count() & 1:
            out |= 1 << i
    return out


def _transvect(rows: Sequence[int], cbits: int, wbits: int) -> list[int]:
    """Rows of (Id + c w^T) . m, for m given by its rows.

    With w = gram . c this is left multiplication by the transvection
    x -> x + B(x,c) c, as a rank-one update: the row w^T . m is added to
    every row i with c_i = 1.
    """
    acc = _combine(rows, wbits)
    out = list(rows)
    while cbits:
        low = cbits & -cbits
        out[low.bit_length() - 1] ^= acc
        cbits ^= low
    return out


def _echelon_add(echelon: dict[int, int], row: int) -> None:
    """Add a row to a fully reduced echelon form {lowest set bit: row}.

    Every stored row is zero at the other rows' lowest bits: this is the
    reduced row echelon form of the span, unique whatever the row order.
    """
    for low, r in echelon.items():
        if row & low:
            row ^= r
    if row:
        low = row & -row
        for p, r in echelon.items():
            if r & low:
                echelon[p] = r ^ row
        echelon[low] = row


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """The reduced echelon form {lowest set bit: row} of the span of the rows."""
    echelon: dict[int, int] = {}
    for row in rows:
        _echelon_add(echelon, row)
    return echelon


def _solution(echelon: dict[int, int], rhs_bit: int) -> int | None:
    """Solution, free variables zero, of a system given by its reduced form.

    The echelon spans the rows of the system with the right-hand side at bit
    rhs_bit, a column other than the unknowns.  None when rhs_bit is itself a
    pivot: a sum of rows reads 0 = 1.  Otherwise each row sets its pivot's
    unknown to its bit at rhs_bit.  Rows that carry several right-hand sides
    must have independent left-hand sides, so that no pivot lies among them.
    """
    if rhs_bit in echelon:
        return None
    return sum(pivot for pivot, row in echelon.items() if row & rhs_bit)


def solve(m: BitMatrix, v: BitVector) -> BitVector | None:
    """Some x with m @ x = v, or None if v is outside the image.

    Deterministic: free variables are set to zero, so the result is the
    lexicographically least solution in the free coordinates.
    """
    if m.rows != v.length:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    rhs_bit = 1 << m.cols
    x = _solution(_echelon(row | ((v.bits >> i) & 1) * rhs_bit
                           for i, row in enumerate(m.data)), rhs_bit)
    return None if x is None else BitVector(m.cols, x)


def _kernel(echelon: dict[int, int], cols: int) -> list[int]:
    """Null-space basis of the first cols columns, one vector per free column.

    The vector of free column j is e_j plus the solution whose right-hand side
    is column j.  Right-hand sides kept at bit cols and above change nothing:
    cut there, the rows are the reduced form of the system without them.
    """
    return [(1 << j) | _solution(echelon, 1 << j)
            for j in range(cols) if 1 << j not in echelon]


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of the null space, one vector per free column, in column order."""
    return [BitVector(m.cols, x) for x in _kernel(_echelon(m.data), m.cols)]


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises ValueError if singular.

    The reduced form of [m | Id] is [Id | m^-1] exactly when no pivot lies
    in the right half.
    """
    if not m.is_square():
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    echelon = _echelon(row | (1 << (n + i)) for i, row in enumerate(m.data))
    if any(pivot >> n for pivot in echelon):
        raise ValueError("matrix is singular")
    return BitMatrix(n, n, tuple(echelon[1 << i] >> n for i in range(n)))
