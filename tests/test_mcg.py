"""Surface layer: twist actions, membership, the parity invariant."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint.gf2 import BitMatrix, BitVector, multiply, rank
from quadpoint.mcg import (
    FLIP,
    UMAP,
    GENUS1_GENERATORS,
    MappingClass,
    NotRegularlyHomotopicError,
    SurfacePinkallForm,
    connected_sum,
    embedding_realizable,
    equivalent_up_to_diffeomorphism,
    evaluate_word,
    genus1_generators,
    good_map_type,
    in_orthogonal_mcg,
    mapping_class_parity,
    quadruple_point_invariant,
    regularly_homotopic,
    square,
    twist,
)
from quadpoint.oracle import filter_full_linear_group
from quadpoint.orthogroup import canonical_umap, enumerate_group, transvection_matrix
from quadpoint.quadform import direct_sum, evaluate, standard_form

from conftest import all_vectors

S0 = SurfacePinkallForm.standard(0, 0)
S10 = SurfacePinkallForm.standard(1, 0)
S11 = SurfacePinkallForm.standard(1, 1)
S20 = SurfacePinkallForm.standard(2, 0)
S21 = SurfacePinkallForm.standard(2, 1)
I2 = BitMatrix.identity(2)
J2 = BitMatrix.from_strings(["01", "10"])
ML = BitVector.from_string("11")


def twist_class(s, c):
    """The class acting on homology as the Dehn twist along c: the transvection by c."""
    return MappingClass(transvection_matrix(s.form, c), 0)


def compose(h1: MappingClass, h2: MappingClass) -> MappingClass:
    """h1 after h2."""
    return MappingClass(multiply(h1.action, h2.action), h1.epsilon ^ h2.epsilon)


def random_word(surface, rng, length):
    """A word of form-preserving twists, squares and flips."""
    ones = [v for v in all_vectors(2 * surface.genus)
            if evaluate(surface.form, v) == 1]
    tokens = []
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            tokens.append(twist(rng.choice(ones)))
        elif kind == 1:
            tokens.append(square(BitVector(2 * surface.genus,
                                           rng.getrandbits(2 * surface.genus))))
        else:
            tokens.append(FLIP)
    return tokens


class TestSurfaceType:
    def test_rejects_non_standard_gram(self):
        f = standard_form(1, 0)
        with pytest.raises(ValueError):
            SurfacePinkallForm(2, f)

    def test_from_g_values(self):
        s = SurfacePinkallForm.from_g_values(2, "1100")
        assert s.form == direct_sum(standard_form(1, 1), standard_form(1, 0))


class TestMappingClassType:
    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            MappingClass(BitMatrix.from_strings(["11", "11"]), 0)
        # invertible but pairs b_1 with a_2: B(e0, e2) = 0 != B(e0, e1)
        rows = ["1000", "0010", "0100", "0001"]
        with pytest.raises(ValueError):
            MappingClass(BitMatrix.from_strings(rows), 0)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            MappingClass(BitMatrix.identity(3), 0)


class TestDehnTwist:
    def test_null_class(self):
        h = twist_class(S10, BitVector.zero(2))
        assert h.action == I2 and h.epsilon == 0

    def test_merge_class_is_swap(self):
        # the mod-2 reduction of the integer twist matrix (0 1 / -1 2)
        reduction = BitMatrix.from_strings(["01", "10"])
        assert twist_class(S10, ML).action == reduction

    def test_square_is_trivial(self):
        for v in all_vectors(2):
            h = evaluate_word(S10, [square(v)])
            assert h.action == I2 and h.epsilon == 0


class TestGoodMapType:
    def test_square(self):
        assert good_map_type(S10, square(BitVector.zero(2))) == 1

    def test_twist_g_one(self):
        assert good_map_type(S10, twist(ML)) == 2

    def test_twist_null(self):
        assert good_map_type(S10, twist(BitVector.zero(2))) == 3

    def test_twist_not_good(self):
        assert good_map_type(S10, twist(BitVector.basis(2, 0))) is None

    def test_rejects_other_tokens(self):
        with pytest.raises(ValueError):
            good_map_type(S10, FLIP)


class TestEvaluateWord:
    def test_empty(self):
        h = evaluate_word(S10, [])
        assert h.action == I2 and h.epsilon == 0

    def test_double_flip(self):
        h = evaluate_word(S10, [FLIP, FLIP])
        assert h.action == I2 and h.epsilon == 0

    def test_twist_twice_equals_square(self):
        h = evaluate_word(S10, [twist(ML), twist(ML)])
        hs = evaluate_word(S10, [square(ML)])
        assert h == hs

    def test_umap_only_on_genus2_arf0(self):
        h = evaluate_word(S20, [UMAP])
        assert h.action == canonical_umap(S20.form).matrix
        for s in (S10, S21):
            with pytest.raises(ValueError):
                evaluate_word(s, [UMAP])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_word(S20, [twist(ML)])


class TestMembership:
    def test_identity(self):
        assert in_orthogonal_mcg(S10, MappingClass(I2, 0))

    def test_genus1_arf0_exhaustive(self):
        # of the six symplectic actions, exactly I and J preserve the form
        sp2 = [BitMatrix(2, 2, (r0, r1))
               for r0 in range(1, 4) for r1 in range(1, 4) if r0 != r1]
        assert len(sp2) == 6
        kept = [m for m in sp2 if in_orthogonal_mcg(S10, MappingClass(m, 0))]
        assert sorted(kept, key=lambda m: m.data) == sorted([I2, J2], key=lambda m: m.data)

    def test_genus1_arf1_everything(self):
        sp2 = [BitMatrix(2, 2, (r0, r1))
               for r0 in range(1, 4) for r1 in range(1, 4) if r0 != r1]
        assert all(in_orthogonal_mcg(S11, MappingClass(m, 0)) for m in sp2)


class TestParityInvariant:
    def test_genus0_reflection(self):
        assert mapping_class_parity(S0, MappingClass(BitMatrix.identity(0), 1)) == 1

    def test_genus1_arf0_generators(self):
        values = [mapping_class_parity(S10, h) for h in genus1_generators(0)]
        assert values == [0, 0, 0, 1]

    def test_genus1_arf1_generators(self):
        values = [mapping_class_parity(S11, h) for h in genus1_generators(1)]
        assert values == [0, 1]

    def test_flip_parity_by_genus(self):
        # (n+1) eps: the orientation bit counts exactly when the genus is even
        for genus in range(5):
            s = SurfacePinkallForm.standard(genus, 0)
            h = MappingClass(BitMatrix.identity(2 * genus), 1)
            assert mapping_class_parity(s, h) == (genus + 1) % 2

    def test_membership_required(self):
        bad = twist_class(S10, BitVector.basis(2, 0))
        with pytest.raises(ValueError):
            mapping_class_parity(S10, bad)

    @settings(max_examples=100)
    @given(st.integers(1, 3), st.integers(0, 1), st.data())
    def test_homomorphism(self, genus, arf_value, data):
        s = SurfacePinkallForm.standard(genus, arf_value)
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        h1 = evaluate_word(s, random_word(s, rng, rng.randint(0, 6)))
        h2 = evaluate_word(s, random_word(s, rng, rng.randint(0, 6)))
        assert mapping_class_parity(s, compose(h1, h2)) == (
            mapping_class_parity(s, h1) ^ mapping_class_parity(s, h2))


class TestQuadruplePoints:
    def test_umap_class(self):
        h = MappingClass(canonical_umap(S20.form).matrix, 0)
        assert quadruple_point_invariant(S20, h) == 0

    def test_genus1_values(self):
        a4 = genus1_generators(0)[3]
        assert quadruple_point_invariant(S10, a4) == 1
        b1, b2 = genus1_generators(1)
        assert quadruple_point_invariant(S11, b1) == 0
        assert quadruple_point_invariant(S11, b2) == 1

    def test_not_regularly_homotopic(self):
        bad = twist_class(S10, BitVector.basis(2, 0))
        with pytest.raises(NotRegularlyHomotopicError):
            quadruple_point_invariant(S10, bad)

    def test_one_membership_check_per_call(self, monkeypatch):
        from quadpoint import mcg

        calls = []
        real = mcg.in_orthogonal_mcg
        monkeypatch.setattr(mcg, "in_orthogonal_mcg",
                            lambda s, h: calls.append(h) or real(s, h))
        assert quadruple_point_invariant(S10, genus1_generators(0)[3]) == 1
        assert len(calls) == 1
        with pytest.raises(NotRegularlyHomotopicError):
            quadruple_point_invariant(S10, twist_class(S10, BitVector.basis(2, 0)))
        assert len(calls) == 2


class TestImmersionComparisons:
    def test_reflexive(self):
        assert regularly_homotopic(S10, S10)

    def test_distinct_arf(self):
        assert not regularly_homotopic(S10, S11)
        assert not equivalent_up_to_diffeomorphism(S10, S11)

    def test_equal_arf_distinct_forms(self):
        s_a = SurfacePinkallForm.from_g_values(2, "1100")
        s_b = SurfacePinkallForm.from_g_values(2, "0011")
        assert not regularly_homotopic(s_a, s_b)
        assert equivalent_up_to_diffeomorphism(s_a, s_b)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            regularly_homotopic(S10, S20)

    def test_embedding_realizable(self):
        assert embedding_realizable(S10)
        assert not embedding_realizable(S11)
        assert embedding_realizable(
            SurfacePinkallForm(2, direct_sum(standard_form(1, 1), standard_form(1, 1))))


class TestGenus1Generators:
    def test_reductions_and_orientations(self):
        a1, a2, a3, a4 = genus1_generators(0)
        assert [h.action for h in (a1, a2, a3)] == [I2, I2, I2]
        assert a4.action == J2
        assert [h.epsilon for h in (a1, a2, a3, a4)] == [0, 0, 1, 1]
        b1, b2 = genus1_generators(1)
        assert (b1.action, b1.epsilon) == (I2, 1)
        assert (b2.action, b2.epsilon) == (J2, 1)

    def test_table_determinants(self):
        for arf_value, rows in GENUS1_GENERATORS.items():
            for name, ((a, b), (c, d)) in rows:
                assert abs(a * d - b * c) == 1, name

    def test_normal_generator_relation(self):
        # B2 . B1 acts like the twist along the merge class, orientation kept
        b1_word = [FLIP]
        b2_word = [twist(ML), FLIP]
        combined = evaluate_word(S11, b1_word + b2_word)
        tw = twist_class(S11, ML)
        assert combined == tw


class TestConnectedSum:
    def test_identity_blocks(self):
        h = connected_sum(MappingClass(I2, 0), MappingClass(I2, 0))
        assert h.action == BitMatrix.identity(4) and h.epsilon == 0

    def test_epsilon_mismatch(self):
        with pytest.raises(ValueError):
            connected_sum(MappingClass(I2, 0), MappingClass(I2, 1))

    def test_rank_additivity(self):
        rng = random.Random(13)
        for _ in range(100):
            s1 = SurfacePinkallForm.standard(rng.randint(1, 2), rng.randint(0, 1))
            s2 = SurfacePinkallForm.standard(rng.randint(1, 2), rng.randint(0, 1))
            eps = rng.randint(0, 1)
            h1 = MappingClass(
                evaluate_word(s1, random_word(s1, rng, rng.randint(0, 5))).action, eps)
            h2 = MappingClass(
                evaluate_word(s2, random_word(s2, rng, rng.randint(0, 5))).action, eps)
            h = connected_sum(h1, h2)
            r = rank(h.action ^ BitMatrix.identity(h.action.rows))
            r1 = rank(h1.action ^ BitMatrix.identity(h1.action.rows))
            r2 = rank(h2.action ^ BitMatrix.identity(h2.action.rows))
            assert r == r1 + r2

    def test_parity_additivity(self):
        rng = random.Random(17)
        for _ in range(100):
            s1 = SurfacePinkallForm.standard(rng.randint(1, 2), rng.randint(0, 1))
            s2 = SurfacePinkallForm.standard(rng.randint(1, 2), rng.randint(0, 1))
            joined = SurfacePinkallForm(
                s1.genus + s2.genus, direct_sum(s1.form, s2.form))
            eps = rng.randint(0, 1)
            h1 = MappingClass(
                evaluate_word(s1, random_word(s1, rng, rng.randint(0, 5))).action, eps)
            h2 = MappingClass(
                evaluate_word(s2, random_word(s2, rng, rng.randint(0, 5))).action, eps)
            h = connected_sum(h1, h2)
            assert mapping_class_parity(joined, h) == (
                mapping_class_parity(s1, h1)
                ^ mapping_class_parity(s2, h2) ^ eps)


class TestGeneratorCoverage:
    def test_genus1_twists_generate(self):
        for arf_value in (0, 1):
            s = SurfacePinkallForm.standard(1, arf_value)
            closure = enumerate_group(s.form, include_umap=False)
            table = filter_full_linear_group(s.form)
            assert closure == set(table.elements)

    def test_genus2_arf0_needs_umap(self):
        table = filter_full_linear_group(S20.form)
        without = enumerate_group(S20.form, include_umap=False)
        assert len(without) * 2 == len(table.elements)
        assert enumerate_group(S20.form) == set(table.elements)

    def test_genus2_arf1_twists_generate(self):
        table = filter_full_linear_group(S21.form)
        assert enumerate_group(S21.form, include_umap=False) == set(table.elements)
