"""Dense linear algebra over GF(2) on bit-packed integers.

A vector is a Python int with coordinate i stored in bit i (least
significant bit first); a matrix is a tuple of such ints, one per row.
Row elimination -- the inner loop of everything here -- is then a single
integer XOR, and arbitrary dimensions come for free from arbitrary
precision.  Bits above the declared length are kept at zero.

Elimination is one forward pass to the echelon form {lowest set bit: row}
(_echelon): rank_rows counts its rows, and _solution back-substitutes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from operator import attrgetter


def parity(x: int) -> int:
    """Parity of the number of set bits of a non-negative int."""
    return x.bit_count() & 1


class _Value:
    """Immutable value: __slots__ set once by __init__, compared as a field tuple."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields(self))
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)


class BitVector(_Value):
    """Immutable GF(2) vector of fixed length."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if bits < 0 or bits >> length:
            raise ValueError("set bits beyond declared length")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

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

    def is_zero(self) -> bool:
        return self.bits == 0

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __str__(self) -> str:
        return self.to01()


class BitMatrix(_Value):
    """Immutable GF(2) matrix; data[i] is row i, bit-packed."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(data))
        self.__post_init__()

    # Run by every construction; benchmark/tracer.py counts them by replacing it.
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
    """GF(2) rank of packed rows: the row count of their echelon form."""
    return len(_echelon(data))


def rank(m: BitMatrix) -> int:
    return rank_rows(m.data)


def multiply(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return BitMatrix(a.rows, b.cols, tuple(_mul_rows(a.data, b.data, b.cols)))


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


def _tables(rows: Sequence[int]) -> list[list[int]]:
    """Four Russians byte tables of a row set that serves many lookups.

    Table t lists, for every byte k, the XOR of the rows 8t + j picked by
    the set bits j of k (Arlazarov, Dinic, Kronrod and Faradzev, 1970).
    Each table is built by doubling: adding row j to every entry so far.
    """
    out = []
    for base in range(0, len(rows), 8):
        table = [0]
        for r in rows[base:base + 8]:
            table += [x ^ r for x in table]
        out.append(table)
    return out


def _lookup(tables: Sequence[Sequence[int]], bits: int) -> int:
    """The XOR of the tabled rows picked by the set bits, a byte at a time."""
    acc = 0
    for table in tables:
        acc ^= table[bits & 255]
        bits >>= 8
    return acc


# -- the packed block ----------------------------------------------------------
#
# A list of vectors as one int: vector k sits at bits k*stride and up, the
# stride a power of two or three times one, at least 8 (so that vectors are
# whole bytes) and at least the vectors' width.

def _stride(width: int) -> int:
    """The block stride for vectors of the given width: the least of 8, 16,
    24, 32, 48, 64, 96, ... (2^k or 3 * 2^k, whole bytes) that is >= width,
    so that widths 65 to 96 take 96-bit slots, not 128."""
    n = max(8, 1 << (width - 1).bit_length())
    return n // 4 * 3 if n >= 32 and n // 4 * 3 >= width else n


def _pack(rows: Iterable[int], stride: int) -> int:
    """The block of the given vectors."""
    size = stride >> 3
    return int.from_bytes(b"".join([r.to_bytes(size, "little") for r in rows]), "little")


def _unpack(x: int, stride: int, count: int) -> list[int]:
    """The first count vectors of a block, cut from one little-endian string."""
    size = stride >> 3
    data = (x & (1 << count * stride) - 1).to_bytes(count * size, "little")
    return [int.from_bytes(data[k:k + size], "little") for k in range(0, len(data), size)]


def _identity_block(dim: int, stride: int) -> int:
    """The block of the rows, or the columns, of the identity: bit i of slot
    i is bit i (stride + 1), so the block is the dim-digit repunit in base
    2^(stride + 1)."""
    return ((1 << dim * (stride + 1)) - 1) // ((1 << stride + 1) - 1)


@lru_cache(maxsize=16)
def _ones(stride: int, count: int) -> int:
    """The block of count vectors equal to 1."""
    return _pack([1] * count, stride)


def _fold(stride: int) -> list[int]:
    """The shifts of _parities' fold at the stride: stride/2, stride/4, ...
    down to the odd part of the stride, 1, or 3 for a stride 3 * 2^k."""
    shifts = []
    while not stride & 1:
        stride >>= 1
        shifts.append(stride)
    return shifts


def _parities(x: int, ones: int, shifts: Sequence[int]) -> int:
    """The block whose vector k is the parity of vector k of x, at its bit 0.

    ones is _ones(stride, count) and shifts _fold(stride), computed once by
    the caller for all the blocks of one product.  Folding x ^= x >> s for
    each shift leaves the parity of each slot in its lowest s bits, as the
    low half of a slot never reads the slot above; three bits end with
    x ^= x >> 1 ^ x >> 2.
    """
    for s in shifts:
        x ^= x >> s
    if s == 3:
        x ^= x >> 1 ^ x >> 2
    return x & ones


def _flip(x: int, sel: int, add: int, ones: int, shifts: Sequence[int]) -> int:
    """Add add to every vector v of the block with parity(v & sel) = 1.

    The parities of x & (sel in every slot), times add, put add in each slot
    of parity 1, without carries as add < 2^stride.  ones and shifts are as
    for _parities.  On a row block, _flip(x, add, sel) right-multiplies each
    row by the step (sel, add).
    """
    return x ^ _parities(x & sel * ones, ones, shifts) * add


def _product(dim: int, steps: Iterable[tuple[int, int]]) -> list[int]:
    """Rows of the product of the maps x -> x + parity(x & sel) add, one per
    step (sel, add), the first step applied first.

    The product is kept as a block of rows, started at the identity and
    right-multiplied by each step matrix I + add sel^T, the last step first:
    one _flip per step, with the fold's constants computed once.  The
    transvection along c is the step (G c, c).
    """
    stride = _stride(dim)
    ones, shifts = _ones(stride, dim), _fold(stride)
    rows = _identity_block(dim, stride)
    for sel, add in reversed(list(steps)):
        rows = _flip(rows, add, sel, ones, shifts)
    return _unpack(rows, stride, dim)


def _mul_rows(a: Sequence[int], b: Sequence[int], cols: int) -> list[int]:
    """Rows of the product a . b, b of width cols: the block product for a
    matrix multiplied once, where byte tables of b would not pay back.

    With A the block of a's rows, ((A >> k) & ones) has bit 0 of slot i set
    when a_ik = 1, so times row k of b it adds b_k to those slots, without
    carries as b_k < 2^stride; the sum over k is the product.  The stride
    holds a's rows, of width len(b), and the product's, of width cols.
    """
    stride = _stride(max(len(b), cols))
    x, ones, acc = _pack(a, stride), _ones(stride, len(a)), 0
    for r in b:
        acc ^= (x & ones) * r
        x >>= 1
    return _unpack(acc, stride, len(a))


def _symplectic_pairs(gram: Sequence[int]) -> list[tuple[int, int]]:
    """The greedy symplectic pairs (x, y) of the alternating form with these
    Gram rows; ValueError("degenerate form") when an x has no partner.

    Block Z holds the remaining vectors z_k (at first e_k) and block M their
    Gram, B(z_k, z_j) at bit j of slot k.  x is the first nonzero slot of Z
    and y the first z with B(x, z) = 1, the lowest bit of M's row x.  Each z
    is projected to z + B(z, y) x + B(z, x) y: with alpha = B(., y) and
    beta = B(., x) read off M, Z += alpha x + beta y and M += beta alpha^T +
    alpha beta^T, the congruence by the projection, with no parity fold.  x
    and y become 0, and the zero slots below x are shifted out (ix counts
    them).  The projection has kernel span(x, y), so the rest stay
    independent; an x with no partner lies in the radical.
    """
    dim = len(gram)
    stride = _stride(dim)
    mask, ones = (1 << dim) - 1, _ones(stride, dim)
    z, m, ix = _identity_block(dim, stride), _pack(gram, stride), 0
    pairs = []
    while z:
        skip = ((z & -z).bit_length() - 1) // stride
        z, m, ix = z >> skip * stride, m >> skip * stride, ix + skip
        row_x = m & mask
        if not row_x:
            raise ValueError("degenerate form")
        iy = (row_x & -row_x).bit_length() - 1
        row_y = m >> (iy - ix) * stride & mask
        x, y = z & mask, z >> (iy - ix) * stride & mask
        alpha, beta = m >> iy & ones, m >> ix & ones
        m ^= beta * row_y ^ alpha * row_x
        z ^= alpha * x ^ beta * y
        pairs.append((x, y))
    return pairs


def _transpose(data: Sequence[int], cols: int) -> list[int]:
    """Rows of the transpose of a matrix with the given rows and width."""
    if not data or not cols:
        return [0] * cols
    n = max(8, 1 << (max(len(data), cols) - 1).bit_length())  # as _transpose_block needs
    return _unpack(_transpose_block(_pack(data, n), n), n, cols)


def _transpose_block(x: int, n: int) -> int:
    """Transpose of an n x n block, n a power of two and at least 8.

    log2(n) mask-shift-XOR rounds swap the off-diagonal blocks of each size
    (Warren, Hacker's Delight, 2nd ed., section 7-3).
    """
    for shift, mask in _transpose_masks(n):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x


@lru_cache(maxsize=16)
def _transpose_masks(n: int) -> list[tuple[int, int]]:
    """(shift, mask) of each round of the n x n block transpose.

    Entry (i, j) sits at bit p = i*n + j, so bit s of j is bit s of p and
    bit s of i is bit s*n of p.  Round s moves the entries with bit s set in
    j and clear in i by s*(n - 1) bits, to (i + s, j - s).
    """
    def high_halves(s: int) -> int:  # bits p with p & s set: one period, repeated
        width = max(2 * s, 8)  # the period in whole bytes: 0xaa, 0xcc, 0xf0, or s 0s and s 1s
        period = sum(((1 << s) - 1) << (s + k) for k in range(0, width, 2 * s))
        return int.from_bytes(period.to_bytes(width >> 3, "little") * (n * n // width), "little")

    sizes = [1 << e for e in range(n.bit_length() - 1)]
    return [(s * (n - 1), high_halves(s) & ~high_halves(s * n)) for s in sizes]


def _matvec(rows: Sequence[int], vbits: int) -> int:
    """Matrix times column vector."""
    out = 0
    for i, r in enumerate(rows):
        if (r & vbits).bit_count() & 1:
            out |= 1 << i
    return out


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """An echelon form {lowest set bit: row} of the span of the rows.

    Each row is reduced by the stored row at its lowest set bit until it is
    0 or its lowest bit is new; then it is stored there, and stored rows are
    never rewritten.  The rows depend on the row order, their lowest bits do
    not: they are the lowest bits that the vectors of the span can have.
    """
    echelon: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            p = echelon.get(low)
            if p is None:
                echelon[low] = r
                break
            r ^= p
    return echelon


def _solution(echelon: dict[int, int], rhs_bit: int) -> int | None:
    """Solution, free variables zero, of a system given by its echelon form.

    The echelon spans the rows of the system with the right-hand side at bit
    rhs_bit, a column other than the unknowns.  None when rhs_bit is itself a
    pivot: a sum of rows reads 0 = 1.  Otherwise the unknowns are set by
    back-substitution, highest pivot first: a row has no bit below its pivot,
    so the unknowns it reads above the pivot are already set.  Rows that
    carry several right-hand sides must have independent left-hand sides, so
    that no pivot lies among them.
    """
    if rhs_bit in echelon:
        return None
    x = 0
    for pivot in sorted(echelon, reverse=True):
        if parity(echelon[pivot] & (x | rhs_bit)):
            x |= pivot
    return x


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


def _kernel(echelon: dict[int, int], cols: int) -> Iterator[int]:
    """Null-space basis of the first cols columns, one vector per free column,
    built as it is read.

    The vector of free column j is e_j plus the solution whose right-hand side
    is column j.  Right-hand sides kept at bit cols and above change nothing:
    cut there, the rows with a pivot below cols are an echelon form of the
    system without them, and the rows above set no unknown.
    """
    return ((1 << j) | _solution(echelon, 1 << j)
            for j in range(cols) if 1 << j not in echelon)


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of the null space, one vector per free column, in column order."""
    return [BitVector(m.cols, x) for x in _kernel(_echelon(m.data), m.cols)]

