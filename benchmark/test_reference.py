"""The reference checker against brute force on every case of dimension <= 4."""

import itertools
import random

import pytest

import reference as ref


def span_size(rows):
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span)


def grams(dim):
    """Every symmetric Gram matrix with zero diagonal."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for code in range(1 << len(pairs)):
        rows = [0] * dim
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield rows


def bil_brute(gram, x, y):
    return sum((x >> i) & (y >> j) & (gram[i] >> j) & 1
               for i in range(len(gram)) for j in range(len(gram))) % 2


def g_table(gram, gbits):
    """g on every vector from g(v) = g(v - e_i) + g(e_i) + B(v - e_i, e_i)."""
    table = [0]
    for v in range(1, 1 << len(gram)):
        i = (v & -v).bit_length() - 1
        rest = v ^ (1 << i)
        table.append(table[rest] ^ ((gbits >> i) & 1) ^ bil_brute(gram, rest, 1 << i))
    return table


def nondegenerate_forms(dim):
    for gram in grams(dim):
        if span_size(gram) == 1 << dim:
            for gbits in range(1 << dim):
                yield gram, gbits


def arf_brute(gram, gbits):
    """Sum of g(a) g(b) over a symplectic basis found by exhaustive search."""
    dim = len(gram)
    g = g_table(gram, gbits)
    space = list(range(1 << dim))
    arf = 0
    chosen = []
    while len(chosen) < dim // 2:
        perp = [v for v in space if all(not bil_brute(gram, v, w) for p in chosen for w in p)]
        a, b = next((a, b) for a, b in itertools.product(perp, perp) if bil_brute(gram, a, b))
        chosen.append((a, b))
        arf ^= g[a] & g[b]
    return arf


def orthogonal_group(gram, gbits):
    """Every invertible matrix with g(Mx) = g(x) for all x, by scanning all matrices."""
    dim = len(gram)
    g = g_table(gram, gbits)
    mask = (1 << dim) - 1
    out = []
    for code in range(1 << (dim * dim)):
        rows = [(code >> (dim * i)) & mask for i in range(dim)]
        if span_size(rows) != 1 << dim:
            continue
        if all(g[ref.matvec(rows, x)] == g[x] for x in range(1 << dim)):
            out.append(rows)
    return out


def test_rank_matches_span_size():
    for n in range(5):
        for code in range(1 << (n * n)):
            rows = [(code >> (n * i)) & ((1 << n) - 1) for i in range(n)]
            assert 1 << ref.rank(rows) == span_size(rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_g_by_polarization_matches_the_definition(dim):
    for gram in grams(dim):
        for gbits in range(1 << dim):
            table = g_table(gram, gbits)
            assert [ref.g_value(gram, gbits, v) for v in range(1 << dim)] == table
            for x in range(1 << dim):
                assert ref.bil(gram, x, (1 << dim) - 1 - x) == bil_brute(gram, x, (1 << dim) - 1 - x)


@pytest.mark.parametrize("dim", [2, 4])
def test_transvection_product_matches_the_pointwise_map(dim):
    rng = random.Random(dim)
    for gram in grams(dim):
        start = [rng.getrandbits(dim) for _ in range(dim)]
        for c in range(1 << dim):
            rows = ref.transvect(gram, start, c)
            for x in range(1 << dim):
                y = ref.matvec(start, x)
                assert ref.matvec(rows, x) == y ^ (c if bil_brute(gram, y, c) else 0)


@pytest.mark.parametrize("dim", [2, 4])
def test_majority_arf_matches_a_symplectic_basis(dim):
    for gram, gbits in nondegenerate_forms(dim):
        assert ref.arf_majority(gram, gbits) == arf_brute(gram, gbits)


@pytest.mark.parametrize("genus,arf_value", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)])
def test_group_order_and_half_parity_match_the_full_scan(genus, arf_value):
    gram = ref.standard_gram(genus)
    gbits = 0b11 if arf_value else 0
    group = orthogonal_group(gram, gbits)
    assert len(group) == ref.group_order(2 * genus, arf_value)
    assert all(ref.is_orthogonal(gram, gbits, m) for m in group)
    if genus:
        assert 2 * sum(ref.rank(ref.minus_identity(m)) & 1 for m in group) == len(group)


def test_random_form_has_the_requested_arf():
    rng = random.Random(7)
    for genus in (1, 2, 3):
        for arf_value in (0, 1):
            gram, gbits = ref.random_form(rng, genus, arf_value)
            assert ref.arf_majority(gram, gbits) == arf_value
            assert ref.rank(gram) == 2 * genus


def test_umap_is_the_unique_triple_swap():
    forms = [(gram, gbits) for gram, gbits in nondegenerate_forms(4)
             if ref.arf_majority(gram, gbits) == 0]
    for gram, gbits in forms:
        u = ref.umap(gram, gbits)
        assert ref.is_orthogonal(gram, gbits, u)
        assert ref.matmul(u, u) == ref.identity(4)
        ones = [v for v in range(1, 16) if ref.g_value(gram, gbits, v)]
        for v in ones:  # each image lies in the other triple
            w = ref.matvec(u, v)
            assert w in ones and not ref.bil(gram, v, w) and w != v
    gram, gbits = ref.standard_gram(2), 0
    u = ref.umap(gram, gbits)
    ones = sorted((v for v in range(1, 16) if ref.g_value(gram, gbits, v)),
                  key=lambda v: ref.to01(v, 4))
    first = [v for v in ones if v == ones[0] or ref.bil(gram, ones[0], v)]
    second = [v for v in ones if v not in first]
    swaps = [m for m in orthogonal_group(gram, gbits)
             if ref.matvec(m, first[0]) == second[0] and ref.matvec(m, first[1]) == second[1]
             and ref.matvec(m, second[0]) == first[0] and ref.matvec(m, second[1]) == first[1]]
    assert swaps == [u]


@pytest.mark.parametrize("genus,arf_value", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1)])
def test_check_decomposition_accepts_words_and_rejects_damage(genus, arf_value):
    rng = random.Random(genus * 2 + arf_value)
    gram, gbits = ref.random_form(rng, genus, arf_value)
    dim = 2 * genus
    for _ in range(30):
        word = [ref.random_vector(rng, gram, gbits, 1) for _ in range(rng.randint(1, 6))]
        rows = ref.product(gram, ref.identity(dim), word)
        problem, r = ref.check_decomposition(gram, gbits, rows, 0, word)
        assert problem is None and r <= len(word)
        assert ref.check_decomposition(gram, gbits, rows, 0, word[:-1])[0]
        assert ref.check_decomposition(gram, gbits, rows, 0, word[:-1] + [0])[0]
        if (genus, arf_value) != (1, 1):  # the only form with no nonzero g = 0 vector
            bad = ref.random_vector(rng, gram, gbits, 0)
            assert ref.check_decomposition(gram, gbits, rows, 0, word[:-1] + [bad])[0]
        assert ref.check_decomposition(gram, gbits, rows, 1, word)[0]


def test_check_decomposition_rebuilds_the_swap():
    gram, gbits = ref.standard_gram(2), 0
    u = ref.umap(gram, gbits)
    c = ref.random_vector(random.Random(3), gram, gbits, 1)
    rows = ref.matmul(ref.transvect(gram, ref.identity(4), c), u)
    assert ref.check_decomposition(gram, gbits, rows, 1, [c]) == (None, 1)
    assert ref.check_decomposition(gram, gbits, rows, 0, [c])[0]
    assert ref.check_decomposition(gram, gbits, u, 1, [])[0] is None

