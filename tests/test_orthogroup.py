"""Orthogonal group: membership, transvections, parity, decomposition."""

import hashlib
import random
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint import orthogroup, quadform
from quadpoint.gf2 import (
    BitMatrix,
    BitVector,
    _flip,
    _fold,
    _ones,
    _pack,
    _product,
    _stride,
    _symplectic_pairs,
    _transpose,
    _unpack,
    multiply,
    rank,
    rank_rows,
)
from quadpoint.mcg import UMAP, SurfacePinkallForm, evaluate_word
from quadpoint.oracle import (
    _bil_bits,
    _evaluate_bits,
    preserves_pairwise,
    random_orthogonal,
)
from quadpoint.orthogroup import (
    DimensionGuardError,
    OrthogonalMap,
    _restoration_word,
    _swap_steps,
    canonical_umap,
    decompose,
    enumerate_group,
    fixed_space,
    is_orthogonal,
    is_u_map,
    rank_parity,
    recompose,
    transvection,
    transvection_matrix,
    umap_partition,
)
from quadpoint.quadform import (
    QuadraticForm,
    _pullback_bits,
    arf,
    bilinear,
    evaluate,
    find_connector,
    pullback,
    standard_form,
)

from conftest import (
    DEG3,
    DEG4,
    all_vectors,
    bit_matrices,
    bit_product,
    dickson_parity,
    dim4_arf0_forms,
    fold_restoration_word,
    g_one_vectors,
    nondegenerate_forms,
    random_gram,
    rref_inverse,
)

F10 = standard_form(1, 0)
F11 = standard_form(1, 1)
F20 = standard_form(2, 0)
F21 = standard_form(2, 1)
GOLDEN = Path(__file__).resolve().parent / "golden"
SWAP = BitMatrix.from_strings(["01", "10"])


def seeded_form(rng, genus, arf_value):
    """The standard form in a seeded random basis, drawn row by row with
    rejection as the benchmark draws its forms."""
    dim = 2 * genus
    rows: list[int] = []
    while len(rows) < dim:
        r = rng.getrandbits(dim)
        if rank_rows(rows + [r]) == len(rows) + 1:
            rows.append(r)
    return pullback(standard_form(genus, arf_value), BitMatrix(dim, dim, tuple(rows)))


def one_bit_flipped(rng, rows):
    """The rows with one seeded entry flipped."""
    dim = len(rows)
    out = list(rows)
    out[rng.randrange(dim)] ^= 1 << rng.randrange(dim)
    return out


def checked_preserves(f, rows):
    """is_orthogonal, asserted equal to the pairwise referee's answer (on these
    non-degenerate forms, preserving g already makes the rows invertible)."""
    expected = preserves_pairwise(f, rows)
    assert is_orthogonal(f, BitMatrix(f.dim, f.dim, tuple(rows))) == expected
    return expected


class TestIsOrthogonal:
    def test_identity(self):
        assert is_orthogonal(F20, BitMatrix.identity(4))

    def test_transvections(self):
        for v in all_vectors(4):
            m = transvection_matrix(F20, v)
            expected = v.is_zero() or evaluate(F20, v) == 1
            assert is_orthogonal(F20, m) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_orthogonal(F20, BitMatrix.identity(2))

    def test_certified_constructor(self):
        with pytest.raises(ValueError):
            OrthogonalMap(F10, SWAP ^ BitMatrix.identity(2))  # singular

    def test_preserves_matches_pullback_on_small_groups(self, small_groups):
        """Every element of the dim-2 and dim-4 groups, and each of its
        one-bit perturbations, against the pullback referee."""
        for (genus, arf_value), group in small_groups.items():
            f = standard_form(genus, arf_value)
            dim = f.dim
            for m in group:
                assert checked_preserves(f, m.data)
                for k in range(dim * dim):
                    rows = list(m.data)
                    rows[k // dim] ^= 1 << k % dim
                    checked_preserves(f, rows)

    @pytest.mark.parametrize("dim", [8, 64, 66, 76])
    def test_preserves_matches_pullback_at_stride_edges(self, dim):
        """A seeded orthogonal map, seeded one-bit perturbations of it, and two
        maps that keep half of the form, all against the pullback referee.  A
        transvection along a g = 0 vector c != 0 keeps B and moves g; a swap
        of two basis vectors with equal g values keeps every g(e_i) and moves
        the Gram.  Only the first is orthogonal."""
        rng = random.Random(dim)
        f = seeded_form(rng, dim // 2, dim // 2 % 2)
        m = random_orthogonal(f, dim, 2 * dim).matrix.data
        assert checked_preserves(f, m)
        for _ in range(16):
            assert not checked_preserves(f, one_bit_flipped(rng, m))

        c = 0
        while not c or _evaluate_bits(f, c):
            c = rng.getrandbits(dim)
        rows = transvection_matrix(f, BitVector(dim, c)).data
        gram, gbits = _pullback_bits(f, rows)
        assert (gram == f.gram.data, gbits == f.basis_g.bits) == (True, False)
        assert not checked_preserves(f, rows)

        g, b = f.basis_g.bits, f.gram.data
        i, j = next((i, j) for i in range(dim) for j in range(i + 1, dim)
                    if (g >> i ^ g >> j) & 1 == 0 and (b[i] ^ b[j]) & ~(1 << i | 1 << j))
        rows = [1 << (j if k == i else i if k == j else k) for k in range(dim)]
        gram, gbits = _pullback_bits(f, rows)
        assert (gram == f.gram.data, gbits == f.basis_g.bits) == (False, True)
        assert not checked_preserves(f, rows)


class TestTransvection:
    def test_zero_gives_identity(self):
        t = transvection(F20, BitVector.zero(4))
        assert t.matrix == BitMatrix.identity(4)

    def test_swap(self):
        t = transvection(F11, BitVector.from_string("11"))
        assert t.matrix == SWAP
        # oracle: apply the defining formula to both basis vectors
        for v in all_vectors(2):
            expected = v if bilinear(F11, v, BitVector.from_string("11")) == 0 \
                else v ^ BitVector.from_string("11")
            assert t.matrix.apply(v) == expected

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(50):
            f = standard_form(rng.randint(1, 3), rng.randint(0, 1))
            ones = g_one_vectors(f)
            a = ones[rng.randrange(len(ones))]
            m = transvection(f, a).matrix
            assert multiply(m, m) == BitMatrix.identity(f.dim)

    def test_invalid_vector(self):
        with pytest.raises(ValueError):
            transvection(F20, BitVector.basis(4, 0))  # g = 0, nonzero


@given(st.data())
def test_rank_one_update_is_the_transvection_product(data):
    """T . m is a _flip of m's columns with sel = G c, add = c, and m . T a
    _flip of m's rows with sel = c, add = G c; T is built from its definition
    T e_j = e_j + B(e_j, c) c."""
    f = data.draw(st.one_of(st.just(standard_form(0, 0)), nondegenerate_forms()))
    dim = f.dim
    c = data.draw(st.sampled_from(
        [0] + [v for v in range(1, 1 << dim) if evaluate(f, BitVector(dim, v))]))
    m = data.draw(bit_matrices(rows=dim, cols=dim)).data
    gc = sum(_bil_bits(f, 1 << j, c) << j for j in range(dim))
    t = [(1 << i) ^ (gc if (c >> i) & 1 else 0) for i in range(dim)]
    n = _stride(dim)
    cols = _flip(_pack(_transpose(m, dim), n), gc, c, _ones(n, dim), _fold(n))
    assert _transpose(_unpack(cols, n, dim), dim) == bit_product(t, m)
    assert _unpack(_flip(_pack(m, n), c, gc, _ones(n, dim), _fold(n)), n, dim) == bit_product(m, t)
    assert transvection_matrix(f, BitVector(dim, c)).data == tuple(t)


@pytest.mark.parametrize("dim", [0, 1, 7, 8, 9, 24, 25, 48, 49, 63, 64, 65, 76, 96, 97,
                                 128, 129, 192, 193])
def test_flip_is_the_transvection_on_every_column(dim):
    """_flip with sel = G c and add = c maps each vector x of a block to
    x + B(x,c) c, with B from _bil_bits; edge widths of every stride."""
    rng = random.Random(dim)
    # _bil_bits reads only the Gram, so a stand-in carries it: these Grams
    # include degenerate ones and odd dims, which make no QuadraticForm.
    f = SimpleNamespace(gram=BitMatrix(dim, dim, tuple(random_gram(rng, dim))),
                        basis_g=BitVector(dim, rng.getrandbits(dim)))
    n = _stride(dim)
    for c in (0, (1 << dim) - 1, rng.getrandbits(dim), rng.getrandbits(dim)):
        gc = sum(_bil_bits(f, 1 << j, c) << j for j in range(dim))
        for count in (0, 1, dim):
            cols = [rng.getrandbits(dim) for _ in range(count - 1)] + [(1 << dim) - 1] * (count > 0)
            got = _unpack(_flip(_pack(cols, n), gc, c, _ones(n, count), _fold(n)), n, count)
            assert got == [x ^ (c if _bil_bits(f, x, c) else 0) for x in cols]


class TestDegenerateForms:
    """No entry point that takes a form meets a degenerate one: its data
    raise at construction."""

    ZERO2 = (2, BitMatrix.zero(2, 2), BitVector.zero(2))

    @pytest.mark.parametrize("f", [DEG3, DEG4, ZERO2])
    def test_rejected(self, f):
        """The data (dim, gram, basis values) of a degenerate form raise
        ValueError("degenerate form"), never a StopIteration."""
        with pytest.raises(ValueError, match="^degenerate form$"):
            QuadraticForm(*f)


class TestRankParity:
    def test_identity(self):
        assert rank_parity(BitMatrix.identity(6)) == 0

    def test_transvections(self):
        for f in (F11, F20, F21):
            for a in g_one_vectors(f):
                assert rank_parity(transvection(f, a)) == 1

    def test_word_length(self):
        rng = random.Random(9)
        for _ in range(100):
            f = standard_form(rng.randint(1, 4), rng.randint(0, 1))
            ones = g_one_vectors(f)
            k = rng.randint(0, 6)
            m = BitMatrix.identity(f.dim)
            for _ in range(k):
                m = multiply(transvection_matrix(f, rng.choice(ones)), m)
            assert rank_parity(m) == k % 2

    def test_matches_fixed_space_parity(self, small_groups):
        """And the Dickson referee, on every element of dims 2 and 4."""
        for (genus, arf_value), group in small_groups.items():
            f = standard_form(genus, arf_value)
            psi = dickson_parity(f)
            for m in group:
                t = OrthogonalMap(f, m)
                fs = len(fixed_space(t))
                assert rank_parity(t) == fs % 2 == (f.dim - fs) % 2 == psi(m.data)

    def test_dickson_referee_on_dim6_sample(self, dim6_groups):
        """A seeded sample of 2,000 elements of the two dimension-6 groups."""
        groups = dim6_groups[0]
        pool = [(a, m) for a in (0, 1) for m in sorted(groups[a], key=lambda m: m.data)]
        psis = {a: dickson_parity(standard_form(3, a)) for a in (0, 1)}
        for a, m in random.Random(6).sample(pool, 2000):
            assert rank_parity(m) == psis[a](m.data)

    @pytest.mark.parametrize("genus", [4, 8, 12, 16, 20, 24, 28, 32])
    def test_dickson_referee_on_large_seeded_maps(self, genus):
        """Dims 8 to 64: seeded words of both length parities on seeded
        forms of both Arf values; psi is also the word length mod 2."""
        rng = random.Random(genus)
        for arf_value in (0, 1):
            f = seeded_form(rng, genus, arf_value)
            psi = dickson_parity(f)
            for length in (2 * rng.randint(1, genus), 2 * rng.randint(1, genus) + 1):
                m = random_orthogonal(f, rng.getrandbits(32), length).matrix
                assert rank_parity(m) == psi(m.data) == length % 2

    def test_dickson_referee_on_the_enumerate_golden(self):
        """The psi column of the genus-2, Arf-0 enumeration golden file."""
        lines = (GOLDEN / "enumerate_g2a0.txt").read_text(encoding="utf-8").splitlines()
        psi = dickson_parity(F20)
        assert lines[0] == "order 72"
        for line in lines[1:]:
            bits, value = line.split()
            m = BitMatrix(4, 4, tuple(int(bits[i:i + 4][::-1], 2) for i in range(0, 16, 4)))
            assert rank_parity(m) == psi(m.data) == int(value)


class TestFixedSpace:
    def test_identity(self):
        t = OrthogonalMap(F20, BitMatrix.identity(4))
        assert fixed_space(t) == [BitVector.basis(4, i) for i in range(4)]

    def test_transvection_hyperplane(self):
        for a in g_one_vectors(F21):
            t = transvection(F21, a)
            basis = fixed_space(t)
            assert len(basis) == 3
            assert all(bilinear(F21, v, a) == 0 for v in basis)

    def test_swap(self):
        t = OrthogonalMap(F11, SWAP)
        assert fixed_space(t) == [BitVector.from_string("11")]


class TestUmapPartition:
    def test_standard(self):
        part1, part2 = umap_partition(F20)
        ones = set(g_one_vectors(F20))
        assert part1 | part2 == ones
        assert len(part1) == len(part2) == 3
        assert min(ones, key=BitVector.to01) in part1
        for s in (part1, part2):
            for x in s:
                for y in s:
                    assert bilinear(F20, x, y) == (x != y)
        for x in part1:
            for y in part2:
                assert bilinear(F20, x, y) == 0

    def test_wrong_arf(self):
        with pytest.raises(ValueError):
            umap_partition(F21)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            umap_partition(F11)


class TestCanonicalUmap:
    def test_properties(self):
        u0 = canonical_umap(F20)
        assert multiply(u0.matrix, u0.matrix) == BitMatrix.identity(4)
        assert is_u_map(u0)
        assert rank_parity(u0) == 0  # involutive swaps have even rank parity

    def test_exchanges_parts(self):
        u0 = canonical_umap(F20)
        part1, part2 = umap_partition(F20)
        assert {u0.matrix.apply(v) for v in part1} == set(part2)
        assert {u0.matrix.apply(v) for v in part2} == set(part1)

    def test_contract_on_every_form(self):
        """On all 280 dim-4 Arf-0 forms: u1, u2 go to v1, v2 in order, the map is
        an involution, and it is C S C^-1, the swap S of coordinates 0, 1 with
        2, 3 in the basis C = (u1, u2, v1, v2).  Its two _swap_steps commute:
        both orders give this map, which exchanges the partition triples."""
        swap = [1 << 2, 1 << 3, 1 << 0, 1 << 1]
        count = 0
        for f in dim4_arf0_forms():
            part1, part2 = umap_partition(f)
            u1, u2 = sorted(part1, key=BitVector.to01)[:2]
            v1, v2 = sorted(part2, key=BitVector.to01)[:2]
            m = canonical_umap(f).matrix
            assert (m.apply(u1), m.apply(u2)) == (v1, v2)
            assert bit_product(m.data, m.data) == [1 << i for i in range(4)]
            change = [sum(((c.bits >> i) & 1) << j for j, c in enumerate((u1, u2, v1, v2)))
                      for i in range(4)]
            assert list(m.data) == bit_product(bit_product(change, swap),
                                               rref_inverse(change))
            steps = _swap_steps(f)
            assert _product(4, steps) == _product(4, steps[::-1]) == list(m.data)
            assert {m.apply(v) for v in part1} == set(part2)
            assert {m.apply(v) for v in part2} == set(part1)
            count += 1
        assert count == 280


class TestIsUMap:
    def test_all_involutive_u_maps_have_even_parity(self, small_groups):
        found = 0
        for m in small_groups[(2, 0)]:
            t = OrthogonalMap(F20, m)
            if is_u_map(t) and multiply(m, m) == BitMatrix.identity(4):
                assert rank_parity(t) == 0
                found += 1
        assert found  # the canonical swap at least

    def test_identity_is_not(self):
        assert not is_u_map(OrthogonalMap(F20, BitMatrix.identity(4)))

    def test_transvections_are_not(self):
        for a in g_one_vectors(F20):
            assert not is_u_map(transvection(F20, a))

    def test_wrong_form(self):
        with pytest.raises(ValueError):
            is_u_map(OrthogonalMap(F21, BitMatrix.identity(4)))


# Each call with the number of Gram reductions (gf2._symplectic_pairs) it runs
# from an empty arf cache.
REDUCTIONS = {
    "evaluate_word_umap_umap": (
        lambda: evaluate_word(SurfacePinkallForm.standard(2, 0), [UMAP, UMAP]), 0),
    "enumerate_group": (lambda: enumerate_group(F20), 0),
    "recompose_swap": (lambda: recompose(F20, 1, []), 0),
    "canonical_umap": (lambda: canonical_umap(F20), 0),
    "find_connector_dim2": (
        lambda: find_connector(F11, [], BitVector(2, 0b01), BitVector(2, 0b01)), 0),
    "find_connector_dim4": (
        lambda: find_connector(F21, [], BitVector(4, 0b0001), BitVector(4, 0b1100)), 0),
    "find_connector_dim6": (
        lambda: find_connector(standard_form(3, 0), [], BitVector(6, 0b11), BitVector(6, 0b11)), 0),
    "decompose_swap": (lambda: decompose(canonical_umap(F20)), 0),
}


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_arf_is_asked_only_where_it_decides(name, monkeypatch):
    """At dimensions 2 and 4 Arf is read off the count of _g_ones: the swap
    off the six g = 1 vectors of umap_partition, enumerate_group off its six
    generators, decompose at dimension 4 and find_connector's dimension-2 and
    dimension-4 exclusions off the count.  None of them reduces a Gram."""
    call, expected = REDUCTIONS[name]
    calls = []

    def counted(rows):
        calls.append(rows)
        return _symplectic_pairs(rows)

    monkeypatch.setattr(quadform, "_symplectic_pairs", counted)
    arf.cache_clear()
    call()
    assert len(calls) == expected


class TestDecompose:
    def test_identity(self):
        assert decompose(OrthogonalMap(F20, BitMatrix.identity(4))) == (0, [])

    def test_dim2_arf0_swap(self):
        # the whole group is {Id, swap}; swap is the transvection along a+b
        group = enumerate_group(F10)
        assert group == {BitMatrix.identity(2), SWAP}
        u, word = decompose(OrthogonalMap(F10, SWAP))
        assert (u, word) == (0, [BitVector.from_string("11")])

    def test_canonical_umap(self):
        assert decompose(canonical_umap(F20)) == (1, [])

    @pytest.mark.parametrize("u_flag", [2, -1])
    def test_u_flag_outside_zero_one_rejected(self, u_flag):
        """Any other flag is rejected, not taken as the swap."""
        for f in (F20, F21):
            with pytest.raises(ValueError, match="^u_flag must be 0 or 1$"):
                recompose(f, u_flag, [])

    def test_g_zero_letter_rejected(self):
        """A nonzero letter with g(c) = 0 gives a transvection that moves g,
        so recompose refuses it rather than return a non-orthogonal product."""
        for f in (F10, F20, F21):
            c = next(v for v in all_vectors(f.dim) if not v.is_zero() and not evaluate(f, v))
            with pytest.raises(ValueError,
                               match=r"^word vector must satisfy g\(c\) = 1 or c = 0$"):
                recompose(f, 0, [c])

    def test_u_flag_only_for_u_maps(self, small_groups):
        f = F20
        for m in small_groups[(2, 0)]:
            t = OrthogonalMap(f, m)
            u, word = decompose(t)
            assert u == is_u_map(t)
            assert recompose(f, u, word) == m
            assert len(word) % 2 == rank_parity(t)
            assert all(evaluate(f, c) == 1 for c in word)

    def test_round_trip_small_groups(self, small_groups):
        for (genus, arf_value), group in small_groups.items():
            f = standard_form(genus, arf_value)
            for m in group:
                t = OrthogonalMap(f, m)
                u, word = decompose(t)
                assert recompose(f, u, word) == m
                assert len(word) % 2 == rank_parity(t)

    @settings(max_examples=60)
    @given(st.integers(1, 5), st.integers(0, 1), st.integers(0, 9), st.data())
    def test_round_trip_random(self, genus, arf_value, length, data):
        f = standard_form(genus, arf_value)
        ones = g_one_vectors(f)
        m = BitMatrix.identity(f.dim)
        for _ in range(length):
            m = multiply(transvection_matrix(f, data.draw(st.sampled_from(ones))), m)
        t = OrthogonalMap(f, m)
        u, word = decompose(t)
        assert recompose(f, u, word) == m
        assert len(word) % 2 == rank_parity(t)
        r = rank(recompose(f, 0, word) ^ BitMatrix.identity(f.dim))
        assert r <= len(word) <= 2 * r

    @pytest.mark.parametrize("dim", [16, 48, 50, 62, 64, 66, 76, 96, 98])
    def test_round_trip_at_stride_edges(self, dim):
        """Seeded forms of both Arf values and words of 4 genus transvections:
        certify, decompose and recompose; rank <= |word| <= 2 rank; and a
        one-bit perturbation is rejected by the certificate."""
        genus = dim // 2
        rng = random.Random(dim)
        for arf_value in (0, 1):
            f = seeded_form(rng, genus, arf_value)
            m = random_orthogonal(f, rng.getrandbits(32), 4 * genus).matrix
            u, word = decompose(OrthogonalMap(f, m))
            assert (u, recompose(f, u, word)) == (0, m)
            r = rank(m ^ BitMatrix.identity(dim))
            assert r <= len(word) <= 2 * r
            assert len(word) % 2 == r % 2
            flipped = BitMatrix(dim, dim, tuple(one_bit_flipped(rng, m.data)))
            with pytest.raises(ValueError, match="^matrix does not preserve the quadratic form$"):
                OrthogonalMap(f, flipped)

    def test_non_orthogonal_input_is_rejected_at_the_edge(self):
        """decompose takes certified maps alone: OrthogonalMap rejects each of
        900 seeded invertible non-orthogonal matrices in each of dims 4, 6
        and 8, drawn with the pairwise referee."""
        rng = random.Random(3)
        rejected = 0
        for dim in (4, 6, 8):
            f = standard_form(dim // 2, 1)
            drawn = 0
            while drawn < 900:
                rows = [rng.getrandbits(dim) for _ in range(dim)]
                if rank_rows(rows) != dim or preserves_pairwise(f, rows):
                    continue
                drawn += 1
                with pytest.raises(ValueError,
                                   match="^matrix does not preserve the quadratic form$"):
                    OrthogonalMap(f, BitMatrix(dim, dim, tuple(rows)))
                rejected += 1
        assert rejected == 2700


@pytest.mark.parametrize("dim", [8, 16, 24, 26, 48, 50, 64, 66, 96, 98])
def test_restoration_matches_the_fold_referee(dim):
    """The restoration, which reads every step off the carried G (T + I),
    gives the word of the referee that folds B(T e_j, w) once per push: on
    seeded forms of both Arf values at the stride edges, for maps of 128
    transvections, as the benchmark draws them, and of an odd number."""
    rng = random.Random(dim)
    for arf_value in (0, 1):
        f = seeded_form(rng, dim // 2, arf_value)
        for length in (128, 2 * dim + 1):
            t = random_orthogonal(f, rng.getrandbits(32), length)
            m = t.matrix
            word = _restoration_word(t)
            assert word == fold_restoration_word(f, m)
            assert recompose(f, 0, word) == m


def pinned_cases():
    """60 seeded (form, orthogonal map) pairs, built with the referee's g and
    B, not the engine's products, pullback or byte tables.

    54 random forms of dims 8 to 76, each with a product of 128, dim or
    2 dim + 1 random g = 1 transvections, kept as columns; and 6 Lagrangian
    involutions of test_lagrangian_dead_ends, dims 8 to 16, moved to a
    seeded basis P: the form x -> g(P x), Gram P^T G P, and P^-1 T P.  The
    Lagrangian ones are the dead ends where c lies outside Fix(T), so that
    an escape which skips the x + c test gives other words.
    """
    rng = random.Random(23)
    for k in range(54):
        dim = 2 * (4 + k * 17 % 35)
        gram = random_gram(rng, dim)
        while rank_rows(gram) != dim:
            gram = random_gram(rng, dim)
        f = QuadraticForm(dim, BitMatrix(dim, dim, tuple(gram)),
                          BitVector(dim, rng.getrandbits(dim)))
        cols = [1 << j for j in range(dim)]
        for _ in range(rng.choice((128, 2 * dim + 1, dim))):
            c = 0
            while not _evaluate_bits(f, c):
                c = rng.getrandbits(dim)
            gc = sum(_bil_bits(f, 1 << j, c) << j for j in range(dim))
            cols = [x ^ c if (x & gc).bit_count() % 2 else x for x in cols]
        yield f, BitMatrix(dim, dim, tuple(_transpose(cols, dim)))
    for genus in (4, 4, 6, 6, 8, 8):
        base, dim = standard_form(genus, 0), 2 * genus
        cols = [1 << j for j in range(dim)]
        for i in range(genus):
            cols[2 * i + 1] |= 1 << 2 * (i ^ 1)
        inverse = None
        while inverse is None:
            p = [rng.getrandbits(dim) for _ in range(dim)]
            inverse = rref_inverse(p)
        pcols = _transpose(p, dim)
        gram = [sum(_bil_bits(base, x, y) << j for j, y in enumerate(pcols)) for x in pcols]
        gbits = sum(_evaluate_bits(base, x) << j for j, x in enumerate(pcols))
        f = QuadraticForm(dim, BitMatrix(dim, dim, tuple(gram)), BitVector(dim, gbits))
        t = _transpose(cols, dim)
        yield f, BitMatrix(dim, dim, tuple(bit_product(bit_product(inverse, t), p)))


# sha256 of the pinned cases' words, one line "u_flag c1 c2 ..." (hex) per
# case, recorded before the escape worked at the rank of W.
PINNED_WORDS = "075fbeec8b3f2cff87f29ec37e6e85fa61e82e19ba36cc45707abaed85451b45"


def test_decompose_words_are_pinned():
    """decompose gives the same words, bit for bit, as when the digest was
    recorded: a faster restoration must not choose other transvections.
    Every word round-trips, and the cases take at least 20 dead ends, each
    two letters above rank(m + I)."""
    digest, dead_ends = hashlib.sha256(), 0
    for f, m in pinned_cases():
        u, word = decompose(OrthogonalMap(f, m))
        assert recompose(f, u, word) == m
        dead_ends += (len(word) - rank(m ^ BitMatrix.identity(f.dim))) // 2
        digest.update(f"{u} {' '.join(format(c.bits, 'x') for c in word)}\n".encode())
    assert dead_ends >= 20
    assert digest.hexdigest() == PINNED_WORDS


# -- word length against a breadth-first search ---------------------------------

@lru_cache(maxsize=6)
def transvection_distances(genus, arf_value):
    """The group the transvections generate, with each element's shortest word.

    A BFS from the identity over packed row blocks, one level at a time: a
    level is one block of its states, each a slot of dim * n bits, and right
    multiplication by the transvection along c is one _flip of the whole
    level with sel = c and add = G c.  A state's distance is the index of the
    level it first appears in.  G c and g(c) come from the polarization
    referees, not the form's tables.  Keys are row blocks at stride
    n = _stride(dim).
    """
    f = standard_form(genus, arf_value)
    dim = f.dim
    n = _stride(dim)
    gens = [(c, sum(_bil_bits(f, 1 << j, c) << j for j in range(dim)))
            for c in range(1, 1 << dim) if _evaluate_bits(f, c)]
    distances = {}
    level, depth = {_pack([1 << i for i in range(dim)], n)}, 0
    while level:
        distances.update(dict.fromkeys(level, depth))
        block, count = _pack(level, dim * n), len(level)
        ones = _ones(n, count * dim)
        nxt = set()
        for c, gc in gens:
            nxt.update(_unpack(_flip(block, c, gc, ones, _fold(n)), dim * n, count))
        level, depth = nxt - distances.keys(), depth + 1
    return f, distances


GROUP_CASES = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]


@pytest.mark.parametrize("genus, arf_value", GROUP_CASES)
def test_word_length_against_bfs_minimum(genus, arf_value, decompositions):
    """Every element of dims 2 to 6: round trip, parity, and
    rank(T - Id) <= |word| <= rank + 2, so at most 2 over the BFS minimum.

    At dim 4 with Arf 0 the swap coset x u is included: its word reproduces
    x, so it is held against x's rank and minimum.  Each decomposition is
    read from the shared table by matrix; an element missing from it is a
    KeyError.
    """
    f, distances = transvection_distances(genus, arf_value)
    table = decompositions[0][genus, arf_value]
    dim = f.dim
    n = _stride(dim)
    swap = canonical_umap(f).matrix if (genus, arf_value) == (2, 0) else None
    for state, minimum in distances.items():
        x = BitMatrix(dim, dim, _unpack(state, n, dim))
        r = rank(x ^ BitMatrix.identity(dim))
        for u_flag, m in [(0, x)] + ([(1, multiply(x, swap))] if swap else []):
            _, u, word, recomposed = table[m]
            assert (u, recomposed) == (u_flag, m)
            assert r <= len(word) <= r + 2
            assert len(word) <= minimum + 2
            assert len(word) % 2 == r % 2 == minimum % 2


# sha256 of every decomposition of dims 2 to 6: one line
# "genus arf rows u_flag [c1, c2, ...]" (decimal) per element, the lines sorted.
GROUP_WORDS = "ab6ff241e0d89f72b3b4fd680e09e5f4304b2a36a6d7d7b854ce74b18fcc9417"


def test_group_words_are_pinned(decompositions):
    """decompose gives the same word, bit for bit, on every element of dims 2
    to 6 as when the digest was recorded.  The round trips of c4 would pass
    another valid escape vector; the 47,514 dead ends of these groups, 7,798
    of which escape at the system's first solution, pin the choice."""
    lines = sorted(f"{genus} {arf_value} {m.data} {u} {[c.bits for c in word]}\n"
                   for (genus, arf_value), table in decompositions[0].items()
                   for m, (_, u, word, _) in table.items())
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GROUP_WORDS


@pytest.mark.parametrize("genus, arf_value", GROUP_CASES)
def test_enumerate_group_is_the_referee_closure_one_flip_per_level(genus, arf_value, monkeypatch):
    """enumerate_group without the swap returns the referee BFS's states,
    and flips each BFS level once per transvection: (depth + 1) levels, the
    last of which finds nothing new, times the g = 1 vectors."""
    f, distances = transvection_distances(genus, arf_value)
    n = _stride(f.dim)
    calls = []

    def counted_flip(*args):
        calls.append(args)
        return _flip(*args)

    monkeypatch.setattr(orthogroup, "_flip", counted_flip)
    group = enumerate_group(f, include_umap=False)
    assert group == {BitMatrix(f.dim, f.dim, _unpack(s, n, f.dim)) for s in distances}
    assert len(calls) == (max(distances.values()) + 1) * len(g_one_vectors(f))


@pytest.mark.parametrize("arf_value, count", [(0, 105), (1, 45)])
def test_rank_two_dead_ends_take_four_letters(arf_value, count):
    """The dim-6 maps whose image W = im(T + I) has rank 2 and g = 0 on it
    start on a dead end: no v has B(Tv, v) = 1.  One escape and two steps
    restore them in 4 letters, their BFS minimum."""
    f, distances = transvection_distances(3, arf_value)
    n = _stride(6)
    found = 0
    for state, minimum in distances.items():
        rows = _unpack(state, n, 6)
        cols = _transpose([r ^ 1 << i for i, r in enumerate(rows)], 6)
        if rank_rows(cols) != 2 or any(_evaluate_bits(f, c) for c in cols) \
                or any(_bil_bits(f, c, d) for c in cols for d in cols):
            continue
        found += 1
        m = BitMatrix(6, 6, rows)
        word = _restoration_word(OrthogonalMap(f, m))
        assert word == fold_restoration_word(f, m)
        assert recompose(f, 0, word).data == tuple(rows)
        assert len(word) == minimum == 4
    assert found == count


@pytest.mark.parametrize("genus", [4, 6, 8])
def test_lagrangian_dead_ends(genus):
    """Involutions I + N with a Lagrangian totally singular image, dims 8 to 16.

    On the standard Arf-0 form, whose a_i and b_i all have g = 0, N sends
    b_i to a_{i xor 1} and every a_i to 0; so Fix(T) = span(a_i) = im(T + I)
    holds no g = 1 vector, and the escape takes c outside it.  Each map is
    moved to a seeded random basis P: the form x -> g(P x) and P^-1 T P.
    """
    base = standard_form(genus, 0)
    dim = 2 * genus
    columns = [1 << j for j in range(dim)]  # a_i = e_{2i}, b_i = e_{2i+1}
    for i in range(genus):
        columns[2 * i + 1] |= 1 << 2 * (i ^ 1)
    t = _transpose(columns, dim)
    rng = random.Random(genus)
    for _ in range(8):
        inverse = None
        while inverse is None:
            p = [rng.getrandbits(dim) for _ in range(dim)]
            inverse = rref_inverse(p)
        f = pullback(base, BitMatrix(dim, dim, tuple(p)))
        m = BitMatrix(dim, dim, tuple(bit_product(bit_product(inverse, t), p)))
        cols = _transpose([r ^ 1 << i for i, r in enumerate(m.data)], dim)
        assert rank_rows(cols) == genus
        assert not any(_evaluate_bits(f, c) for c in cols)
        u, word = decompose(OrthogonalMap(f, m))
        assert word == fold_restoration_word(f, m)
        assert recompose(f, u, word) == m
        assert genus <= len(word) <= 2 * genus


class TestEnumerate:
    def test_orders(self):
        assert len(enumerate_group(F10)) == 2
        assert len(enumerate_group(F11)) == 6
        assert len(enumerate_group(F20)) == 72
        assert len(enumerate_group(F21)) == 120

    def test_index_two_subgroup(self):
        with_u = enumerate_group(F20)
        without_u = enumerate_group(F20, include_umap=False)
        assert len(without_u) == 36
        assert without_u < with_u

    def test_members_orthogonal(self):
        for m in enumerate_group(F21):
            assert is_orthogonal(F21, m)

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuardError):
            enumerate_group(standard_form(5, 0))

    @pytest.mark.parametrize("arf_value", [0, 1])
    def test_dimension_guard_dim8(self, arf_value):
        assert orthogroup.ENUMERATION_MAX_DIM == 6
        with pytest.raises(DimensionGuardError):
            enumerate_group(standard_form(4, arf_value))


class TestPsiHomomorphism:
    def test_exhaustive_dim2(self, small_groups):
        for key in ((1, 0), (1, 1)):
            group = list(small_groups[key])
            parities = {m: rank_parity(m) for m in group}
            for m1 in group:
                for m2 in group:
                    assert parities[multiply(m1, m2)] == parities[m1] ^ parities[m2]

    def test_nontrivial(self, small_groups):
        for group in small_groups.values():
            assert any(rank_parity(m) == 1 for m in group)


class TestImageFixedDuality:
    def test_small_groups(self, small_groups):
        # span of Im(T - Id) equals the orthogonal complement of the fixed space
        for (genus, arf_value), group in small_groups.items():
            f = standard_form(genus, arf_value)
            for m in group:
                t = OrthogonalMap(f, m)
                diff = m ^ BitMatrix.identity(f.dim)
                fixed = fixed_space(t)
                assert rank(diff) == f.dim - len(fixed)
                for j in range(f.dim):
                    col = diff.column(j)
                    for v in fixed:
                        assert bilinear(f, col, v) == 0


class TestFixedSpaceStep:
    def test_dim2_exhaustive(self, small_groups):
        # composing with a transvection moves the fixed dimension by exactly one
        for key in ((1, 0), (1, 1)):
            f = standard_form(key[0], key[1])
            for m in small_groups[key]:
                t = OrthogonalMap(f, m)
                d = len(fixed_space(t))
                for a in g_one_vectors(f):
                    composed = OrthogonalMap(f, multiply(m, transvection_matrix(f, a)))
                    d2 = len(fixed_space(composed))
                    contained = all(
                        bilinear(f, v, a) == 0 for v in fixed_space(t))
                    assert d2 == (d + 1 if contained else d - 1)


def test_rank_parity_not_additive_on_symplectic_maps():
    # on maps preserving only B, the parity law fails; search a witness pair
    f = standard_form(3, 0)
    rng = random.Random(1)
    vectors = [v for v in all_vectors(6) if not v.is_zero()]

    def random_symplectic():
        m = BitMatrix.identity(6)
        for _ in range(rng.randint(1, 8)):
            m = multiply(transvection_matrix(f, rng.choice(vectors)), m)
        return m

    for _ in range(500):
        s, t = random_symplectic(), random_symplectic()
        if rank_parity(multiply(s, t)) != rank_parity(s) ^ rank_parity(t):
            return
    pytest.fail("no symplectic witness pair found")
