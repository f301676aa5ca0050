"""Orthogonal group: membership, transvections, parity, decomposition."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint import orthogroup
from quadpoint.gf2 import (
    BitMatrix,
    BitVector,
    _flip,
    _pack,
    _stride,
    _transpose,
    _unpack,
    multiply,
    rank,
    rank_rows,
)
from quadpoint.oracle import democratic_arf, random_orthogonal
from quadpoint.orthogroup import (
    DimensionGuardError,
    OrthogonalMap,
    _restoration_word,
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
    _bil_bits,
    _preserves,
    arf,
    bilinear,
    evaluate,
    find_connector,
    pullback,
    standard_form,
    symplectic_basis,
)

from conftest import (
    all_vectors,
    bit_matrices,
    bit_product,
    dim4_arf0_forms,
    eliminated_connector,
    nondegenerate_forms,
    random_gram,
    rref_inverse,
)

F10 = standard_form(1, 0)
F11 = standard_form(1, 1)
F20 = standard_form(2, 0)
F21 = standard_form(2, 1)
SWAP = BitMatrix.from_strings(["01", "10"])


def g_one_vectors(f):
    return [v for v in all_vectors(f.dim) if evaluate(f, v) == 1]


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
            assert t.apply(v) == expected

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
    cols = _flip(_pack(_transpose(m, dim), n), gc, c, n, dim)
    assert _transpose(_unpack(cols, n, dim), dim) == bit_product(t, m)
    assert _unpack(_flip(_pack(m, n), c, gc, n, dim), n, dim) == bit_product(m, t)
    assert transvection_matrix(f, BitVector(dim, c)).data == tuple(t)


@pytest.mark.parametrize("dim", [0, 1, 7, 8, 9, 63, 64, 65, 76, 128, 129])
def test_flip_is_the_transvection_on_every_column(dim):
    """_flip with sel = G c and add = c maps each vector x of a block to
    x + B(x,c) c, with B from _bil_bits; edge widths of every stride."""
    rng = random.Random(dim)
    f = QuadraticForm(dim, BitMatrix(dim, dim, tuple(random_gram(rng, dim))),
                      BitVector(dim, rng.getrandbits(dim)))
    n = _stride(dim)
    for c in (0, (1 << dim) - 1, rng.getrandbits(dim), rng.getrandbits(dim)):
        gc = sum(_bil_bits(f, 1 << j, c) << j for j in range(dim))
        for count in (0, 1, dim):
            cols = [rng.getrandbits(dim) for _ in range(count - 1)] + [(1 << dim) - 1] * (count > 0)
            got = _unpack(_flip(_pack(cols, n), gc, c, n, count), n, count)
            assert got == [x ^ (c if _bil_bits(f, x, c) else 0) for x in cols]


class TestDegenerateForms:
    """Every entry point that takes a form rejects a degenerate one."""

    DEG3 = QuadraticForm(3, BitMatrix.from_strings(["010", "101", "010"]),
                         BitVector.from_string("111"))
    DEG4 = QuadraticForm(4, BitMatrix.from_strings(["0100", "1000", "0000", "0000"]),
                         BitVector.from_string("1000"))

    @pytest.mark.parametrize("f", [DEG3, DEG4])
    def test_rejected(self, f):
        """With ValueError("degenerate form"), never a StopIteration."""
        identity = BitMatrix.identity(f.dim)
        e0 = BitVector.basis(f.dim, 0)
        for call in (lambda: OrthogonalMap(f, identity),
                     lambda: is_orthogonal(f, identity),
                     lambda: recompose(f, 0, []),
                     lambda: enumerate_group(f),
                     lambda: symplectic_basis(f),
                     lambda: arf(f),
                     lambda: find_connector(f, [], e0, e0),
                     lambda: random_orthogonal(f, 0, 1),
                     lambda: democratic_arf(f)):
            with pytest.raises(ValueError, match="^degenerate form$"):
                call()


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
        for (genus, arf_value), group in small_groups.items():
            f = standard_form(genus, arf_value)
            for m in group:
                t = OrthogonalMap(f, m)
                fs = len(fixed_space(t))
                assert rank_parity(t) == fs % 2 == (f.dim - fs) % 2


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
        part = umap_partition(F20)
        ones = set(g_one_vectors(F20))
        assert part.v1 | part.v2 == ones
        assert len(part.v1) == len(part.v2) == 3
        assert min(ones, key=BitVector.to01) in part.v1
        for s in (part.v1, part.v2):
            for x in s:
                for y in s:
                    assert bilinear(F20, x, y) == (x != y)
        for x in part.v1:
            for y in part.v2:
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
        part = umap_partition(F20)
        assert {u0.apply(v) for v in part.v1} == set(part.v2)
        assert {u0.apply(v) for v in part.v2} == set(part.v1)

    def test_contract_on_every_form(self):
        """On all 280 dim-4 Arf-0 forms: u1, u2 go to v1, v2 in order, the map is
        an involution, and it is C S C^-1, the swap S of coordinates 0, 1 with
        2, 3 in the basis C = (u1, u2, v1, v2)."""
        swap = [1 << 2, 1 << 3, 1 << 0, 1 << 1]
        count = 0
        for f in dim4_arf0_forms():
            part = umap_partition(f)
            u1, u2 = sorted(part.v1, key=BitVector.to01)[:2]
            v1, v2 = sorted(part.v2, key=BitVector.to01)[:2]
            m = canonical_umap(f).matrix
            assert (m.apply(u1), m.apply(u2)) == (v1, v2)
            assert bit_product(m.data, m.data) == [1 << i for i in range(4)]
            change = [sum(((c.bits >> i) & 1) << j for j, c in enumerate((u1, u2, v1, v2)))
                      for i in range(4)]
            assert list(m.data) == bit_product(bit_product(change, swap),
                                               rref_inverse(change))
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

    def test_non_orthogonal_input_raises_value_error(self):
        """The restoration either returns or raises ValueError, also under -O.

        900 seeded invertible non-orthogonal matrices in each of dims 4, 6
        and 8; a few of them reach a connector system with no solution.
        """
        rng = random.Random(3)
        outcomes = {"returned": 0, "no connector": 0, "other ValueError": 0}
        for dim in (4, 6, 8):
            f = standard_form(dim // 2, 1)
            drawn = 0
            while drawn < 900:
                rows = [rng.getrandbits(dim) for _ in range(dim)]
                if rank_rows(rows) != dim or _preserves(f, rows):
                    continue
                drawn += 1
                try:
                    _restoration_word(f, BitMatrix(dim, dim, tuple(rows)))
                    outcomes["returned"] += 1
                except ValueError as exc:
                    key = "no connector" if "no connector" in str(exc) else "other ValueError"
                    outcomes[key] += 1
        assert outcomes["no connector"] > 0


def test_connector_steps_match_elimination(monkeypatch):
    """Every phase-1 connector with k > 0 is solve's answer on the stacked system.

    Seeded maps on seeded forms in dims 4 to 76; the connector carries the
    echelon form of G a_0 .. G a_{k-1} from step to step instead of eliminating.
    """
    steps = []
    kernel = orthogroup._connector

    def recording(f, ws, echelon, a1, a2, g1, g2):
        c = kernel(f, ws, echelon, a1, a2, g1, g2)
        steps.append((f, list(ws), a1, a2, c))
        return c

    monkeypatch.setattr(orthogroup, "_connector", recording)
    rng = random.Random(11)
    for genus in (2, 3, 4, 7, 12, 19, 26, 32, 38):
        dim = 2 * genus
        for arf_value in (0, 1):
            rows: list[int] = []
            while len(rows) < dim:
                r = rng.getrandbits(dim)
                if rank_rows(rows + [r]) == len(rows) + 1:
                    rows.append(r)
            f = pullback(standard_form(genus, arf_value), BitMatrix(dim, dim, tuple(rows)))
            t = random_orthogonal(f, seed=rng.getrandbits(32), length=4 * genus)
            u, word = decompose(t)
            assert recompose(f, u, word) == t.matrix
    with_w = [step for step in steps if step[1]]
    assert len(with_w) > 100
    for f, ws, a1, a2, c in with_w:
        assert c == eliminated_connector(f, ws, a1, a2)


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
