"""Surface layer: twist actions, membership, the parity invariant."""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint import cli
from quadpoint.gf2 import BitMatrix, BitVector, multiply, rank
from quadpoint.mcg import (
    FLIP,
    UMAP,
    GENUS1_GENERATORS,
    MappingClass,
    NotRegularlyHomotopicError,
    SurfacePinkallForm,
    _surface_arf,
    connected_sum,
    embedding_realizable,
    equivalent_up_to_diffeomorphism,
    evaluate_word,
    genus1_generators,
    in_orthogonal_mcg,
    mapping_class_parity,
    quadruple_point_invariant,
    regularly_homotopic,
    square,
    twist,
)
from quadpoint.oracle import (
    _bil_bits,
    _evaluate_bits,
    democratic_arf,
    preserves_pairwise,
)
from quadpoint.orthogroup import canonical_umap, enumerate_group, transvection_matrix
from quadpoint.quadform import (
    _columns,
    _images,
    arf,
    direct_sum,
    evaluate,
    pullback,
    standard_form,
)

from conftest import all_vectors, bit_product, filtered_table

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
        s = SurfacePinkallForm.from_g_values(2, BitVector.from_string("1100"))
        assert s.form == direct_sum(standard_form(1, 1), standard_form(1, 0))

    @pytest.mark.parametrize("arf_value", [2, -1])
    def test_standard_checks_arf_value(self, arf_value):
        with pytest.raises(ValueError, match="^arf_value must be 0 or 1$"):
            SurfacePinkallForm.standard(1, arf_value)

    @pytest.mark.parametrize("make", [
        lambda: SurfacePinkallForm.standard(-1, 0),
        lambda: SurfacePinkallForm(-1, standard_form(0, 0)),
        lambda: SurfacePinkallForm.from_g_values(-1, BitVector.zero(0)),
    ])
    def test_negative_genus_rejected(self, make):
        with pytest.raises(ValueError, match="^genus must be non-negative$"):
            make()


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
        """On every genus-2 surface, S10 and S21, the swap token is admitted
        exactly when the genus is 2 and the reduced Gram gives Arf 0, and then
        acts as canonical_umap; elsewhere it raises its exact message."""
        surfaces = [SurfacePinkallForm.from_g_values(2, BitVector(4, g)) for g in range(16)]
        admitted = 0
        for s in surfaces + [S10, S21]:
            if s.genus == 2 and arf(s.form) == 0:
                assert evaluate_word(s, [UMAP]).action == canonical_umap(s.form).matrix
                admitted += 1
            else:
                with pytest.raises(ValueError,
                                   match="^the swap token requires genus 2 with Arf 0$"):
                    evaluate_word(s, [UMAP])
        assert admitted == 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_word(S20, [twist(ML)])

    def test_umap_between_twists(self):
        """On every genus-2 Arf-0 surface, a word with the swap between twists
        is the product of the referee matrices, the later token on the left:
        a twist from its definition e_j + B(e_j, c) c with B from _bil_bits,
        the swap as canonical_umap; squares act trivially, a flip sets eps."""
        rng = random.Random(14)
        surfaces = [s for s in (SurfacePinkallForm.from_g_values(2, BitVector(4, g))
                                for g in range(16)) if arf(s.form) == 0]
        assert len(surfaces) == 10
        for s in surfaces:
            f = s.form
            ones = [v for v in all_vectors(4) if evaluate(f, v) == 1]
            for _ in range(5):
                before, after = ([twist(rng.choice(ones)) for _ in range(rng.randint(0, 3))]
                                 for _ in range(2))
                word = before + [square(BitVector(4, rng.getrandbits(4))), UMAP, FLIP] + after
                expected = [1 << i for i in range(4)]
                for token in word:
                    if token is UMAP:
                        expected = bit_product(canonical_umap(f).matrix.data, expected)
                    elif token.kind == "twist":
                        c = token.vector.bits
                        gc = sum(_bil_bits(f, 1 << j, c) << j for j in range(4))
                        t = [(1 << i) ^ (gc if (c >> i) & 1 else 0) for i in range(4)]
                        expected = bit_product(t, expected)
                h = evaluate_word(s, word)
                assert h == MappingClass(BitMatrix(4, 4, tuple(expected)), 1)


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

    def test_seeded_classes_match_the_referee(self):
        """Seeded matrices at genus 1-8: products of transvections x -> x +
        B(x,c) c of the intersection form, along vectors with g(c) = 1 on the
        surface or along any vectors, some with one entry flipped, and dense
        random ones.  MappingClass accepts exactly those with m^T J m = J,
        computed entry by entry, and in_orthogonal_mcg agrees with the
        oracle's pairwise check."""
        rng = random.Random(27)
        counts = {"rejected": 0, True: 0, False: 0}
        for _ in range(300):
            genus = rng.randint(1, 8)
            dim = 2 * genus
            j = [1 << (k ^ 1) for k in range(dim)]
            s = SurfacePinkallForm.from_g_values(genus, BitVector(dim, rng.getrandbits(dim)))
            kind = rng.randrange(4)
            if kind == 3:
                rows = [rng.getrandbits(dim) for _ in range(dim)]
            else:
                rows = [1 << i for i in range(dim)]
                for _ in range(rng.randint(1, 2 * dim)):
                    c = rng.getrandbits(dim)
                    if kind == 0 and not _evaluate_bits(s.form, c):
                        continue
                    jc = bit_product([c], j)[0]
                    rows = [r ^ c if bin(r & jc).count("1") & 1 else r for r in rows]
                if kind == 2:
                    rows[rng.randrange(dim)] ^= 1 << rng.randrange(dim)
            transpose = [sum(((r >> i) & 1) << k for k, r in enumerate(rows)) for i in range(dim)]
            m = BitMatrix(dim, dim, tuple(rows))
            if bit_product(transpose, bit_product(j, rows)) != j:
                with pytest.raises(ValueError, match="^action must preserve the intersection form$"):
                    MappingClass(m, 0)
                counts["rejected"] += 1
                continue
            member = in_orthogonal_mcg(s, MappingClass(m, 0))
            assert member == preserves_pairwise(s.form, rows)
            counts[member] += 1
        assert min(counts.values()) >= 30, counts

    def test_q_reads_one_image_table(self):
        """MappingClass builds no form and in_orthogonal_mcg reads the columns
        through the surface's tables, which evaluate_word has just built: Q
        of a word builds one _images entry."""
        rng = random.Random(3)
        s = SurfacePinkallForm.from_g_values(4, BitVector(8, rng.getrandbits(8)))
        word = random_word(s, rng, 24)
        _images.cache_clear()
        _columns.cache_clear()
        quadruple_point_invariant(s, evaluate_word(s, word))
        assert _images.cache_info().misses == 1


class TestParityInvariant:
    def test_genus0_reflection(self):
        assert mapping_class_parity(S0, MappingClass(BitMatrix.identity(0), 1)) == 1

    def test_genus1_arf0_generators(self):
        values = [mapping_class_parity(S10, h) for h in genus1_generators(0)]
        assert values == [0, 0, 0, 1]

    def test_genus1_arf1_generators(self):
        values = [mapping_class_parity(S11, h) for h in genus1_generators(1)]
        assert values == [0, 1]

    @pytest.mark.parametrize("arf_value", [2, -1])
    def test_genus1_generators_check_arf_value(self, arf_value):
        with pytest.raises(ValueError, match="^arf_value must be 0 or 1$"):
            genus1_generators(arf_value)

    def test_flip_parity_by_genus(self):
        # (n+1) eps: the orientation bit counts exactly when the genus is even
        for genus in range(5):
            s = SurfacePinkallForm.standard(genus, 0)
            h = MappingClass(BitMatrix.identity(2 * genus), 1)
            assert mapping_class_parity(s, h) == (genus + 1) % 2

    def test_membership_required(self):
        """The same refusal as quadruple_point_invariant's."""
        bad = twist_class(S10, BitVector.basis(2, 0))
        with pytest.raises(NotRegularlyHomotopicError, match="^not regularly homotopic: "
                           "the class does not preserve the induced form$"):
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


def naturality_cases(seed, count):
    """Seeded (s, h, s', h') with s' = s o phi and h' = phi^-1 h phi.

    s has genus 1 to 8 and random g-values.  phi is a word of twists along
    arbitrary classes, so it is symplectic, and phi^-1 is the reversed word.
    h is a word of twists with a random orientation bit: along g = 1 classes
    of s in half the cases (a member), along arbitrary classes in the rest.
    """
    rng = random.Random(seed)
    for _ in range(count):
        genus = rng.randint(1, 8)
        dim = 2 * genus
        s = SurfacePinkallForm.from_g_values(genus, BitVector(dim, rng.getrandbits(dim)))
        classes = [BitVector(dim, rng.getrandbits(dim)) for _ in range(rng.randint(1, 3 * dim))]
        phi = evaluate_word(s, [twist(c) for c in classes]).action
        phi_inverse = evaluate_word(s, [twist(c) for c in reversed(classes)]).action
        assert multiply(phi, phi_inverse) == BitMatrix.identity(dim)
        member = rng.getrandbits(1)
        word = [FLIP] * rng.getrandbits(1)
        for _ in range(rng.randint(0, 2 * dim)):
            c = rng.getrandbits(dim)
            while member and not _evaluate_bits(s.form, c):
                c = rng.getrandbits(dim)
            word.append(twist(BitVector(dim, c)))
        h = evaluate_word(s, word)
        s2 = SurfacePinkallForm(genus, pullback(s.form, phi))
        h2 = MappingClass(multiply(phi_inverse, multiply(h.action, phi)), h.epsilon)
        yield s, h, s2, h2


def q_line(s, h, tmp_path):
    """cli.main's (exit code, stdout, stderr) for q --surface s --matrix h."""
    path = tmp_path / "surface.txt"
    path.write_text(f"genus {s.genus}\ng {s.form.basis_g.to01()}\n")
    matrix = "/".join(h.action.to01_rows())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["q", "--surface", str(path), "--matrix", matrix,
                         "--epsilon", str(h.epsilon)])
    return code, out.getvalue(), err.getvalue()


class TestNaturality:
    """Precomposing a regular homotopy with a diffeomorphism phi keeps its
    quadruple points.  On homology, for symplectic phi and q' = q o phi: h
    preserves q exactly when phi^-1 h phi preserves q', Q_q'(phi^-1 h phi) =
    Q_q(h), and Arf(q') = Arf(q)."""

    def test_membership_q_and_arf_are_natural(self):
        counts = {True: 0, False: 0}
        for s, h, s2, h2 in naturality_cases(5, 400):
            assert arf(s2.form) == arf(s.form)
            member = in_orthogonal_mcg(s, h)
            assert in_orthogonal_mcg(s2, h2) == member
            counts[member] += 1
            if member:
                assert quadruple_point_invariant(s2, h2) == quadruple_point_invariant(s, h)
            else:
                for surface, cls in ((s, h), (s2, h2)):
                    with pytest.raises(NotRegularlyHomotopicError):
                        quadruple_point_invariant(surface, cls)
        assert min(counts.values()) >= 100, counts

    def test_cli_q_is_natural(self, tmp_path):
        answers = set()
        for s, h, s2, h2 in naturality_cases(8, 8):
            line = q_line(s, h, tmp_path)
            assert q_line(s2, h2, tmp_path) == line
            answers.add(line[1] or line[2].split(":")[0])
        assert answers == {"Q 0\n", "Q 1\n", "error membership"}


class TestImmersionComparisons:
    def test_reflexive(self):
        assert regularly_homotopic(S10, S10)

    def test_distinct_arf(self):
        assert not regularly_homotopic(S10, S11)
        assert not equivalent_up_to_diffeomorphism(S10, S11)

    def test_equal_arf_distinct_forms(self):
        s_a = SurfacePinkallForm.from_g_values(2, BitVector.from_string("1100"))
        s_b = SurfacePinkallForm.from_g_values(2, BitVector.from_string("0011"))
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

    def test_surface_arf_agrees_with_both_referees(self):
        """The Arf invariant read off the standard pairs equals quadform.arf,
        which reduces the Gram, and the majority count democratic_arf: on
        every g at genus 0-3 and on eight seeded g at each genus 4-6.  The
        two surface questions answer by it."""
        rng = random.Random(38)
        cases = [(n, g) for n in range(4) for g in range(1 << 2 * n)]
        cases += [(n, rng.getrandbits(2 * n)) for n in range(4, 7) for _ in range(8)]
        for genus, g in cases:
            s = SurfacePinkallForm.from_g_values(genus, BitVector(2 * genus, g))
            value = _surface_arf(s)
            assert value == arf(s.form) == democratic_arf(s.form), (genus, g)
            assert embedding_realizable(s) == (value == 0)
            assert equivalent_up_to_diffeomorphism(s, SurfacePinkallForm.standard(genus, value))

    def test_surface_arf_agrees_with_the_reduction_up_to_genus_64(self):
        """Four seeded g at each genus 1-64, the stride edges among them."""
        rng = random.Random(64)
        for genus in range(1, 65):
            dim = 2 * genus
            for _ in range(4):
                s = SurfacePinkallForm.from_g_values(genus, BitVector(dim, rng.getrandbits(dim)))
                assert _surface_arf(s) == arf(s.form), genus


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
            table = filtered_table(s.form)
            assert closure == set(table.elements)

    def test_genus2_arf0_needs_umap(self):
        table = filtered_table(S20.form)
        without = enumerate_group(S20.form, include_umap=False)
        assert len(without) * 2 == len(table.elements)
        assert enumerate_group(S20.form) == set(table.elements)

    def test_genus2_arf1_twists_generate(self):
        table = filtered_table(S21.form)
        assert enumerate_group(S21.form, include_umap=False) == set(table.elements)
