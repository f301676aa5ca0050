"""Independent GF(2) reference computations for checking quadpoint's answers.

Nothing here imports quadpoint.  Vectors are Python ints with coordinate i
in bit i; a matrix is a list of row ints and acts on column vectors, so
``(M x)_i = parity(row_i & x)``.  A quadratic form is a pair
``(gram, gbits)``: the Gram rows of its bilinear form and its values on
the basis vectors.

The algorithms are chosen to differ from quadpoint's: elimination pivots
on the highest set bit, g is the explicit polarization sum over pairs,
the Arf invariant is a majority count over the whole space, and group
orders come from the closed-form product.
"""

from __future__ import annotations

import random


def parity(x: int) -> int:
    return x.bit_count() & 1


def rank(rows) -> int:
    """Rank by elimination on the highest set bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def identity(dim: int) -> list[int]:
    return [1 << i for i in range(dim)]


def minus_identity(rows) -> list[int]:
    """Rows of M - Id (= M + Id over GF(2))."""
    return [r ^ (1 << i) for i, r in enumerate(rows)]


def matvec(rows, x: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        out |= parity(r & x) << i
    return out


def column(rows, j: int) -> int:
    return sum(((r >> j) & 1) << i for i, r in enumerate(rows))


def matmul(a, b) -> list[int]:
    """Product a.b: column j of the result is a applied to column j of b."""
    cols = [matvec(a, column(b, j)) for j in range(len(b))]
    return [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(len(a))]


def bil(gram, x: int, y: int) -> int:
    """B(x, y) = x^T gram y."""
    return parity(x & matvec(gram, y))


def g_value(gram, gbits: int, v: int) -> int:
    """g(v) by polarization: g(e_i) summed over the support of v, plus
    B(e_i, e_j) summed over its pairs i < j."""
    acc = parity(v & gbits)
    i = 0
    rest = v
    while rest:
        if rest & 1:
            acc ^= parity(gram[i] & (v >> (i + 1) << (i + 1)))
        rest >>= 1
        i += 1
    return acc


def transvect(gram, rows, c: int) -> list[int]:
    """Rows of T_c . M, where T_c(x) = x + B(x, c) c.

    T_c . M = M + c (c^T gram M), so every row i with c_i = 1 gains the
    row vector c^T gram M = sum of the rows of M selected by gram c.
    """
    w = matvec(gram, c)
    acc = 0
    for j, r in enumerate(rows):
        if (w >> j) & 1:
            acc ^= r
    return [r ^ acc if (c >> i) & 1 else r for i, r in enumerate(rows)]


def product(gram, start, word) -> list[int]:
    """Apply the transvections of word, first entry first, after start."""
    rows = list(start)
    for c in word:
        rows = transvect(gram, rows, c)
    return rows


def arf_majority(gram, gbits: int) -> int:
    """Arf invariant of a non-degenerate form: 1 iff g = 1 on most vectors.

    Counts over all 2^dim vectors in Gray-code order, where each step
    adds one basis vector e_i and g(v + e_i) = g(v) + g(e_i) + B(v, e_i).
    """
    dim = len(gram)
    if dim > 16:
        raise ValueError("the majority count is limited to dimension 16")
    ones = 0
    value = 0
    v = 0
    for k in range(1, 1 << dim):
        i = (k & -k).bit_length() - 1
        value ^= ((gbits >> i) & 1) ^ parity(gram[i] & v)
        v ^= 1 << i
        ones += value
    return 1 if 2 * ones > (1 << dim) else 0


def group_order(dim: int, arf_value: int) -> int:
    """Order of O(q) for a non-degenerate q of dimension 2m:
    2 . 2^(m(m-1)) . (2^m -+ 1) . prod_{i=1}^{m-1} (4^i - 1)."""
    m = dim // 2
    if m == 0:
        return 1
    order = 2 * 2 ** (m * (m - 1)) * (2 ** m + (1 if arf_value else -1))
    for i in range(1, m):
        order *= 4 ** i - 1
    return order


def standard_gram(genus: int) -> list[int]:
    """Hyperbolic blocks on the basis a_1, b_1, ..., a_n, b_n."""
    rows = []
    for i in range(genus):
        rows += [1 << (2 * i + 1), 1 << (2 * i)]
    return rows


def random_invertible(rng: random.Random, dim: int) -> list[int]:
    rows: list[int] = []
    basis: dict[int, int] = {}
    while len(rows) < dim:
        r = reduced = rng.getrandbits(dim)
        while reduced and reduced.bit_length() - 1 in basis:
            reduced ^= basis[reduced.bit_length() - 1]
        if reduced:
            basis[reduced.bit_length() - 1] = reduced
            rows.append(r)
    return rows


def pullback(gram, gbits: int, p) -> tuple[list[int], int]:
    """The form x -> g(P x): Gram P^T gram P, basis values g(P e_i)."""
    dim = len(gram)
    cols = [column(p, j) for j in range(dim)]
    gram_cols = [matvec(gram, c) for c in cols]
    new_gram = [sum(parity(ci & gc) << j for j, gc in enumerate(gram_cols)) for ci in cols]
    new_g = sum(g_value(gram, gbits, c) << i for i, c in enumerate(cols))
    return new_gram, new_g


def random_form(rng: random.Random, genus: int, arf_value: int) -> tuple[list[int], int]:
    """The standard form of the given Arf value in a random basis."""
    return pullback(standard_gram(genus), 0b11 if arf_value else 0,
                    random_invertible(rng, 2 * genus))


def random_vector(rng: random.Random, gram, gbits: int, g: int) -> int:
    """A uniform nonzero vector with g(v) = g."""
    dim = len(gram)
    while True:
        v = rng.getrandbits(dim)
        if v and g_value(gram, gbits, v) == g:
            return v


def is_orthogonal(gram, gbits: int, rows) -> bool:
    """Invertible, and g(M x) = g(x) for every x (dimension <= 8)."""
    dim = len(gram)
    if rank(rows) != dim:
        return False
    return all(g_value(gram, gbits, matvec(rows, x)) == g_value(gram, gbits, x)
               for x in range(1 << dim))


def to01(v: int, dim: int) -> str:
    return "".join(str((v >> i) & 1) for i in range(dim))


def umap(gram, gbits: int) -> list[int]:
    """The canonical swap of a dimension-4 Arf-0 form, from its definition.

    The six g = 1 vectors split into two triples, B = 1 inside a triple and
    0 across; the first triple holds the lexicographically least vector.
    With u1 < u2 the least two of the first triple and v1 < v2 those of the
    second, the swap exchanges u_i and v_i.
    """
    ones = sorted((v for v in range(1, 16) if g_value(gram, gbits, v)),
                  key=lambda v: to01(v, 4))
    first = [v for v in ones if v == ones[0] or bil(gram, ones[0], v)]
    second = [v for v in ones if v not in first]
    u1, u2 = first[:2]
    v1, v2 = second[:2]
    images = {u1: v1, u2: v2, v1: u1, v2: u2}
    cols = []
    for j in range(4):
        # e_j as a combination of the basis u1, u2, v1, v2, found by search
        coeffs = next(k for k in range(16)
                      if _combine((u1, u2, v1, v2), k) == 1 << j)
        cols.append(_combine(tuple(images[b] for b in (u1, u2, v1, v2)), coeffs))
    return [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(4)]


def _combine(vectors, coeffs: int) -> int:
    out = 0
    for k, v in enumerate(vectors):
        if (coeffs >> k) & 1:
            out ^= v
    return out


def check_decomposition(gram, gbits: int, rows, u_flag: int, word) -> tuple[str | None, int]:
    """(why (u_flag, word) is not a decomposition of rows or None, rank(W - Id)).

    W is the product of the word alone.  The word, applied after the swap
    when u_flag is 1, must rebuild rows; every word vector has g = 1; the
    length is at least rank(W - Id) and has the same parity, since each
    transvection moves that rank by one.  Without the swap W is the input
    itself.  The swap exists only in dimension 4 with Arf 0.
    """
    dim = len(gram)
    if u_flag not in (0, 1):
        return f"u flag {u_flag!r}", 0
    if u_flag and (dim != 4 or arf_majority(gram, gbits) != 0):
        return "swap flagged outside dimension 4 with Arf 0", 0
    for c in word:
        if not 0 < c < 1 << dim or g_value(gram, gbits, c) != 1:
            return f"word vector {to01(c, dim)} does not have g = 1", 0
    w_rows = product(gram, identity(dim), word)
    rebuilt = matmul(w_rows, umap(gram, gbits)) if u_flag else w_rows
    if rebuilt != list(rows):
        return "the word does not rebuild the matrix", 0
    r = rank(minus_identity(w_rows))
    if len(word) < r or (len(word) - r) % 2:
        return f"word length {len(word)} against rank(W - Id) = {r}", r
    return None, r
