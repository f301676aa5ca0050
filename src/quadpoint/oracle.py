"""Independent brute-force referees, imported by no engine or CLI module.

These deliberately avoid the structural algorithms they check: group
membership by filtering the full linear group, and the Arf invariant by
counting g-values over the whole space.  No command loads this module.
"""

from __future__ import annotations

import random

from .gf2 import BitMatrix, _product, parity, rank_rows
from .orthogroup import GroupTable, OrthogonalMap, _check_dim
from .quadform import QuadraticForm, _images, _require_nondegenerate


def _evaluate_bits(f: QuadraticForm, vbits: int) -> int:
    """g(v) by polarization over the set bits: the referee of _images."""
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


def preserves_pairwise(f: QuadraticForm, data) -> bool:
    """Whether the square matrix with these rows is invertible and preserves g.

    Checks the rank, g on every column and B on every pair of columns,
    which is equivalent to g(m x) = g(x) for every x by polarization.
    """
    dim = f.dim
    if rank_rows(data) != dim:
        return False
    cols = [sum(((r >> j) & 1) << i for i, r in enumerate(data)) for j in range(dim)]
    gbits = f.basis_g.bits
    gram = f.gram.data
    for i in range(dim):
        if _evaluate_bits(f, cols[i]) != (gbits >> i) & 1:
            return False
        for j in range(i + 1, dim):
            if _bil_bits(f, cols[i], cols[j]) != (gram[i] >> j) & 1:
                return False
    return True


def filter_full_linear_group(f: QuadraticForm) -> GroupTable:
    """All invertible matrices preserving f, by scanning the full matrix space."""
    _require_nondegenerate(f)
    dim = f.dim
    _check_dim(dim, 4, "full linear group filtering")
    mask = (1 << dim) - 1
    found = []
    for code in range(1 << (dim * dim)):
        data = tuple((code >> (i * dim)) & mask for i in range(dim))
        if preserves_pairwise(f, data):
            found.append(BitMatrix(dim, dim, data))
    return GroupTable.from_elements(found)


def democratic_arf(f: QuadraticForm) -> int:
    """Arf invariant by majority vote: 0 iff g vanishes on most vectors.

    Scans all 2^dim vectors in Gray-code order so each step updates g by
    a single polarization increment.
    """
    _require_nondegenerate(f)
    _check_dim(f.dim, 20, "the democratic g-value count")
    dim = f.dim
    gram = f.gram.data
    gbits = f.basis_g.bits
    zeros = 1  # v = 0 has g = 0
    value = 0
    v = 0
    for k in range(1, 1 << dim):
        low = k & -k
        i = low.bit_length() - 1
        value ^= ((gbits >> i) & 1) ^ parity(gram[i] & v)
        v ^= low
        zeros += value ^ 1
    return 0 if 2 * zeros > (1 << dim) else 1


def random_orthogonal(f: QuadraticForm, seed: int, length: int) -> OrthogonalMap:
    """Product of `length` transvections along seeded uniform g=1 vectors,
    the first drawn applied first."""
    _require_nondegenerate(f)
    rng = random.Random(seed)
    dim = f.dim
    gram_g = _images(f)

    def steps():
        for _ in range(length):
            if dim == 0:
                raise ValueError("the zero-dimensional form has no g=1 vectors")
            while True:
                v = rng.getrandbits(dim)
                if v and _evaluate_bits(f, v):
                    break
            yield gram_g(v)[0], v

    return OrthogonalMap(f, BitMatrix(dim, dim, tuple(_product(dim, steps()))))


def orthogonal_group_order(dim: int, arf_value: int) -> int:
    """Order of the orthogonal group of a non-degenerate form over GF(2).

    Standard product formula: 2 * 2^(m(m-1)) * (2^m -+ 1) * prod (4^i - 1)
    for dim = 2m, with the sign set by the Arf invariant.
    """
    if dim % 2 or dim < 0:
        raise ValueError("dimension must be even and non-negative")
    if arf_value not in (0, 1):
        raise ValueError("arf_value must be 0 or 1")
    if dim == 0:
        if arf_value:
            raise ValueError("genus 0 only carries the trivial form")
        return 1
    m = dim // 2
    order = 2 * (1 << (m * (m - 1)))
    order *= (1 << m) - 1 if arf_value == 0 else (1 << m) + 1
    for i in range(1, m):
        order *= (1 << (2 * i)) - 1
    return order
