"""Quadratic forms: evaluation, classification, bases, connectors."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from quadpoint.gf2 import BitMatrix, BitVector, _matvec, _symplectic_pairs, multiply, rank_rows
from quadpoint.oracle import _bil_bits, _evaluate_bits, democratic_arf, random_orthogonal
from quadpoint.quadform import (
    QuadraticForm,
    _g_ones,
    _images,
    arf,
    bilinear,
    direct_sum,
    evaluate,
    find_connector,
    pullback,
    standard_form,
    standard_gram,
)

from conftest import (
    DEG4,
    all_vectors,
    eliminated_connector,
    form_or_none,
    g_one_vectors,
    invertible_matrices,
    nondegenerate_forms,
    projected_pairs,
    random_gram,
    rref,
    same_symplectic_pairs,
    zero_diagonal_grams,
)
from test_acceptance import _isotropic_tuples, _span

F10 = standard_form(1, 0)
F11 = standard_form(1, 1)
F20 = standard_form(2, 0)
F21 = standard_form(2, 1)
F30 = standard_form(3, 0)
F31 = standard_form(3, 1)


def brute_zero_count(f, vectors):
    """Direct count of the vectors, all of f's space, with g = 0 (the
    democratic oracle); callers build them once per dimension."""
    return sum(1 for v in vectors if evaluate(f, v) == 0)


class TestConstruction:
    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError):
            QuadraticForm(2, BitMatrix.from_strings(["01", "00"]), BitVector.zero(2))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            QuadraticForm(2, BitMatrix.from_strings(["10", "01"]), BitVector.zero(2))

    def test_dim_zero(self):
        f = standard_form(0, 0)
        assert _symplectic_pairs(f.gram.data) == []
        assert arf(f) == 0

    @pytest.mark.parametrize("genus, arf_value", [(1, 2), (1, -1), (2, 3), (0, 2)])
    def test_standard_form_checks_arf_value(self, genus, arf_value):
        with pytest.raises(ValueError, match="^arf_value must be 0 or 1$"):
            standard_form(genus, arf_value)

    @pytest.mark.parametrize("arf_value", [0, 1])
    def test_standard_form_checks_genus(self, arf_value):
        with pytest.raises(ValueError, match="^genus must be non-negative$"):
            standard_form(-1, arf_value)
        with pytest.raises(ValueError, match="^genus must be non-negative$"):
            standard_gram(-1)


class TestEvaluate:
    def test_zero_vector(self):
        for f in (F10, F11, F20, F21):
            assert evaluate(f, BitVector.zero(f.dim)) == 0

    def test_torus_arf0_merge_class(self):
        # g(m) = g(l) = 0, B(m,l) = 1, so g(m+l) = 1
        assert evaluate(F10, BitVector.from_string("11")) == 1

    def test_arf1_all_nonzero(self):
        for v in all_vectors(2):
            if not v.is_zero():
                assert evaluate(F11, v) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(F10, BitVector.zero(4))


class TestBilinear:
    def test_alternating(self):
        for v in all_vectors(4):
            assert bilinear(F20, v, v) == 0

    def test_standard_pairs(self):
        a1, b1, a2 = (BitVector.basis(4, i) for i in (0, 1, 2))
        assert bilinear(F20, a1, b1) == 1
        assert bilinear(F20, a1, a2) == 0

    def test_polarization_exhaustive(self):
        for f in (F10, F11, F20, F21, F30, F31):
            vs = all_vectors(f.dim)
            for x in vs:
                for y in vs:
                    assert evaluate(f, x ^ y) == (
                        evaluate(f, x) ^ evaluate(f, y) ^ bilinear(f, x, y))


@given(nondegenerate_forms(), st.data())
def test_polarization_random_forms(f, data):
    x = BitVector(f.dim, data.draw(st.integers(0, (1 << f.dim) - 1)))
    y = BitVector(f.dim, data.draw(st.integers(0, (1 << f.dim) - 1)))
    assert evaluate(f, x ^ y) == evaluate(f, x) ^ evaluate(f, y) ^ bilinear(f, x, y)


class TestNondegenerate:
    def test_standard(self):
        assert _symplectic_pairs(F30.gram.data) == [(1, 2), (4, 8), (16, 32)]

    def test_zero_gram(self):
        assert form_or_none(2, [0, 0]) is None

    def test_no_odd_dimension_candidate(self):
        """Every symmetric zero-diagonal Gram in dims 0-6 against the reference rank.

        None is non-degenerate in odd dimension.  Of all 33,868, construction
        accepts exactly those of full rank, whose symplectic basis is the
        reference projection's; on the others the projection raises
        "degenerate form" too.
        """
        count = total = 0
        for dim in range(7):
            for rows in zero_diagonal_grams(dim):
                f = form_or_none(dim, rows)
                expected = len(rref(rows, dim)[1]) == dim
                assert (f is not None) == expected
                if f is None:
                    with pytest.raises(ValueError, match="^degenerate form$"):
                        projected_pairs(rows)
                else:
                    assert same_symplectic_pairs(f)
                assert not (expected and dim % 2)
                count += expected
                total += 1
        assert (count, total) == (13918, 33868)

    @settings(max_examples=40)
    @given(st.data())
    def test_planted_radical(self, data):
        """Up to dim 80: the pullback through P D Q, D a diagonal projection that
        drops some coordinates and P, Q invertible, has a radical, so building
        it raises "degenerate form", as the reference projection does."""
        genus = data.draw(st.integers(1, 40))
        dim = 2 * genus
        dropped = data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=4))
        diagonal = BitMatrix(dim, dim, tuple(0 if i in dropped else 1 << i for i in range(dim)))
        p = multiply(multiply(data.draw(invertible_matrices(dim)), diagonal),
                     data.draw(invertible_matrices(dim)))
        base = standard_form(genus, data.draw(st.integers(0, 1)))
        gram = multiply(multiply(p.transpose(), base.gram), p).data
        assert len(rref(gram, dim)[1]) < dim
        with pytest.raises(ValueError, match="^degenerate form$"):
            pullback(base, p)
        with pytest.raises(ValueError, match="^degenerate form$"):
            projected_pairs(gram)


class TestFormCaches:
    def test_degenerate_gram_is_not_cached(self):
        """A degenerate Gram raises at construction each time, before any
        form cache sees it."""
        caches = (_images, arf)
        for _ in range(2):
            before = [cache.cache_info() for cache in caches]
            with pytest.raises(ValueError, match="^degenerate form$"):
                QuadraticForm(*DEG4)
            assert [cache.cache_info() for cache in caches] == before

    def test_arf_checks_before_building_tables(self):
        """arf never sees a degenerate form: its construction raises before
        _images, so the one cached table, another form's, stays."""
        evaluate(F20, BitVector.zero(4))
        before = _images.cache_info()
        with pytest.raises(ValueError, match="^degenerate form$"):
            arf(QuadraticForm(*DEG4))
        evaluate(F20, BitVector.zero(4))
        after = _images.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)

    def test_bounded(self):
        """Each form cache keeps the latest form alone: after many
        forms of several dimensions each holds one entry."""
        for g in range(256):
            arf(QuadraticForm(8, standard_gram(4), BitVector(8, g)))
        found = 0
        for rows in zero_diagonal_grams(6):
            f = form_or_none(6, rows)
            if f is not None:
                arf(f)
                found += 1
            if found > 8:
                break
        info = arf.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)

    def test_one_entry_serves_the_round_trip(self):
        """OrthogonalMap -> decompose -> recompose on three fresh forms of
        dimension 40: each certificate misses _columns and each restoration
        hits it, on the matrix certified one call earlier; one entry is left."""
        from quadpoint.orthogroup import OrthogonalMap, decompose, recompose
        from quadpoint.quadform import _columns

        rng = random.Random(40)
        cases = []
        while len(cases) < 3:
            f = form_or_none(40, random_gram(rng, 40), rng.getrandbits(40))
            if f is not None:
                cases.append((f, random_orthogonal(f, rng.getrandbits(32), 128).matrix))
        before = _columns.cache_info()
        for f, m in cases:
            u, word = decompose(OrthogonalMap(f, m))
            assert recompose(f, u, word) == m
        after = _columns.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (3, 3)
        assert after.currsize == 1


@settings(max_examples=60)
@given(st.data())
def test_gram_image_is_the_matvec(data):
    """G v from the form's byte tables equals the row-by-row product, g(v)
    from the same pass equals the polarization referee, and B(x, v) read off
    G v equals the referee's bilinear loop."""
    dim = data.draw(st.integers(0, 80))
    rows = [0] * dim
    for i in range(dim):
        above = data.draw(st.integers(0, (1 << (dim - 1 - i)) - 1)) << (i + 1)
        rows[i] |= above
        for j in range(i + 1, dim):
            if (above >> j) & 1:
                rows[j] |= 1 << i
    gbits = data.draw(st.integers(0, (1 << dim) - 1))
    f = form_or_none(dim, rows, gbits)
    v = data.draw(st.integers(0, (1 << dim) - 1))
    x = data.draw(st.integers(0, (1 << dim) - 1))
    if f is None:  # a degenerate Gram makes no form
        assert len(rref(rows, dim)[1]) < dim
        return
    assert _images(f)(v) == (_matvec(f.gram.data, v), _evaluate_bits(f, v))
    assert bilinear(f, BitVector(dim, x), BitVector(dim, v)) == _bil_bits(f, x, v)


def check_symplectic(f, pairs):
    n = len(pairs)
    assert 2 * n == f.dim
    a_vectors = [BitVector(f.dim, a) for a, _ in pairs]
    b_vectors = [BitVector(f.dim, b) for _, b in pairs]
    for i in range(n):
        for j in range(n):
            assert bilinear(f, a_vectors[i], a_vectors[j]) == 0
            assert bilinear(f, b_vectors[i], b_vectors[j]) == 0
            assert bilinear(f, a_vectors[i], b_vectors[j]) == (i == j)


class TestSymplecticBasis:
    def test_standard_already_reduced(self):
        pairs = _symplectic_pairs(F20.gram.data)
        assert [BitVector(4, a).to01() for a, _ in pairs] == ["1000", "0010"]
        assert [BitVector(4, b).to01() for _, b in pairs] == ["0100", "0001"]

    def test_dim_two(self):
        assert _symplectic_pairs(F11.gram.data) == [(0b01, 0b10)]

    @given(nondegenerate_forms(max_genus=40))
    def test_relations_on_random_forms(self, f):
        """Up to dim 80: the relations, and the reference projection's pairs."""
        check_symplectic(f, _symplectic_pairs(f.gram.data))
        assert same_symplectic_pairs(f)

    @pytest.mark.parametrize("genus", [1, 2, 4, 5, 8, 13, 26, 32, 33, 38])
    def test_relations_on_large_seeded_forms(self, genus):
        """Seeded forms, the stride edges 8, 16, 64, 66 and 76 among them."""
        rng = random.Random(genus)
        dim = 2 * genus
        for arf_value in (0, 1):
            rows: list[int] = []
            while len(rows) < dim:
                r = rng.getrandbits(dim)
                if rank_rows(rows + [r]) == len(rows) + 1:
                    rows.append(r)
            f = pullback(standard_form(genus, arf_value),
                         BitMatrix(dim, dim, tuple(rows)))
            pairs = _symplectic_pairs(f.gram.data)
            check_symplectic(f, pairs)
            assert rank_rows(v for pair in pairs for v in pair) == dim
            assert same_symplectic_pairs(f)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="^degenerate form$"):
            QuadraticForm(2, BitMatrix.zero(2, 2), BitVector.zero(2))


class TestArf:
    def test_standard_values(self):
        assert arf(F10) == 0
        assert arf(F11) == 1
        assert arf(F20) == 0
        assert arf(F21) == 1

    def test_additive(self):
        assert arf(direct_sum(F11, F11)) == 0
        rng = random.Random(7)
        for _ in range(200):
            f1 = standard_form(rng.randint(1, 3), rng.randint(0, 1))
            f2 = standard_form(rng.randint(1, 3), rng.randint(0, 1))
            assert arf(direct_sum(f1, f2)) == (arf(f1) ^ arf(f2))

    @given(nondegenerate_forms(max_genus=3), st.data())
    def test_basis_independent(self, f, data):
        p = data.draw(invertible_matrices(f.dim))
        assert arf(pullback(f, p)) == arf(f)

    def test_democratic_count_exhaustive(self):
        # arf = 0 exactly when g vanishes on 2^(2n-1) + 2^(n-1) vectors
        for genus in (1, 2, 3, 4):
            gram = standard_gram(genus)
            dim = 2 * genus
            expected_zeros = (1 << (dim - 1)) + (1 << (genus - 1))
            vectors = all_vectors(dim)
            for gbits in range(1 << dim):
                f = QuadraticForm(dim, gram, BitVector(dim, gbits))
                assert (arf(f) == 0) == (brute_zero_count(f, vectors) == expected_zeros)

    @pytest.mark.parametrize("dim, expected", [
        (2, {(1, 0): 3, (3, 1): 1}),
        (4, {(6, 0): 280, (10, 1): 168}),
    ])
    def test_g_one_count_decides_arf(self, dim, expected):
        """On every non-degenerate form of dimension 2 and 4, _g_ones lists
        the g = 1 vectors, and their count, 2^(2m-1) - 2^(m-1) at Arf 0 and
        2^(2m-1) + 2^(m-1) at Arf 1, agrees with arf's reduction and the
        majority count: (count, Arf) -> number of forms."""
        m = dim // 2
        arf0_count = (1 << (dim - 1)) - (1 << (m - 1))
        seen = Counter()
        for rows in zero_diagonal_grams(dim):
            for gbits in range(1 << dim):
                f = form_or_none(dim, rows, gbits)
                if f is None:
                    continue
                ones = _g_ones(f)
                assert ones == [v.bits for v in g_one_vectors(f)]
                value = int(len(ones) != arf0_count)
                assert value == arf(f) == democratic_arf(f), (rows, gbits)
                seen[len(ones), value] += 1
        assert seen == expected

    def test_democratic_count_dim10(self):
        gram = standard_gram(5)
        expected_zeros = (1 << 9) + (1 << 4)
        vectors = all_vectors(10)
        for gbits in range(1 << 10):
            f = QuadraticForm(10, gram, BitVector(10, gbits))
            assert (arf(f) == 0) == (brute_zero_count(f, vectors) == expected_zeros)


class TestDirectSum:
    def test_neutral(self):
        empty = standard_form(0, 0)
        assert direct_sum(F20, empty) == F20
        assert direct_sum(empty, F20) == F20

    def test_blocks(self):
        f = direct_sum(F11, F10)
        assert f.dim == 4
        assert f.gram == standard_gram(2)
        assert f.basis_g == BitVector.from_string("1100")

    @given(nondegenerate_forms(max_genus=2), nondegenerate_forms(max_genus=2))
    def test_nondegenerate_closed(self, f1, f2):
        assert rank_rows(direct_sum(f1, f2).gram.data) == f1.dim + f2.dim


def connector_postconditions(f, ws, a1, a2, c):
    assert evaluate(f, c) == 1
    assert bilinear(f, a1, c) == 1
    assert bilinear(f, a2, c) == 1
    for w in ws:
        assert bilinear(f, w, c) == 0


class TestFindConnector:
    def test_dim2_arf1_exhaustive(self):
        for a in all_vectors(2):
            if a.is_zero() or evaluate(F11, a) != 1:
                continue
            valid = {
                c for c in all_vectors(2)
                if evaluate(F11, c) == 1 and bilinear(F11, a, c) == 1
            }
            assert len(valid) == 2  # both non-a nonzero vectors qualify
            c = find_connector(F11, [], a, a)
            assert c in valid
            assert find_connector(F11, [], a, a) == c  # deterministic

    def test_dim4_arf1_standard_vector(self):
        a1 = BitVector.basis(4, 0)
        c = find_connector(F21, [], a1, a1)
        connector_postconditions(F21, [], a1, a1, c)
        assert c == BitVector.basis(4, 1)  # the dual partner, by construction

    def test_dim6_arf0_randomized(self):
        rng = random.Random(3)
        f = F30
        ones = [v for v in all_vectors(6) if evaluate(f, v) == 1]
        trials = 0
        while trials < 1000:
            w = ones[rng.randrange(len(ones))]
            candidates = [
                v for v in ones
                if bilinear(f, v, w) == 0 and v != w
            ]
            if not candidates:
                continue
            a1 = candidates[rng.randrange(len(candidates))]
            a2s = [v for v in candidates if bilinear(f, v, a1) == 0]
            if not a2s:
                continue
            a2 = a2s[rng.randrange(len(a2s))]
            c = find_connector(f, [w], a1, a2)
            connector_postconditions(f, [w], a1, a2, c)
            trials += 1

    @pytest.mark.parametrize("ws,a1,a2,message", [
        ("10", "1000", "1000", "length mismatch"),
        ("0010", "1000", "1000", "w[0] must have g = 1"),
        ("1000/0100", "1000", "1000", "w[0] and w[1] must be orthogonal"),
        ("1000/1000", "1000", "1000", "w vectors must be independent"),
        ("1000", "0100", "0100", "a1 must be orthogonal to w[0]"),
        ("1000", "1000", "1000", "a1 must lie outside the span of the w vectors"),
        ("", "1000", "0100", "a1 and a2 must be orthogonal"),
    ])
    def test_rejected_inputs(self, ws, a1, a2, message):
        """On F21, where g(e_0) = g(e_1) = 1, g(e_2) = 0 and B(e_0, e_1) = 1;
        ws lists the w vectors, separated by slashes."""
        vectors = [BitVector.from_string(w) for w in ws.split("/") if w]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_connector(F21, vectors, BitVector.from_string(a1), BitVector.from_string(a2))

    def test_excluded_dim2_arf0(self):
        a = BitVector.from_string("11")  # the only g=1 vector
        with pytest.raises(ValueError, match="excluded"):
            find_connector(F10, [], a, a)

    def test_excluded_dim4_arf0_distinct(self):
        ones = [v for v in all_vectors(4) if evaluate(F20, v) == 1]
        pairs = [(x, y) for x in ones for y in ones
                 if x != y and bilinear(F20, x, y) == 0]
        assert pairs
        for a1, a2 in pairs:
            with pytest.raises(ValueError, match="requires k > 0 or a1 = a2"):
                find_connector(F20, [], a1, a2)

    def test_dim4_arf0_subcases_allowed(self):
        ones = [v for v in all_vectors(4) if evaluate(F20, v) == 1]
        # equal vectors are fine with k = 0
        for a in ones:
            c = find_connector(F20, [], a, a)
            connector_postconditions(F20, [], a, a, c)
        # and any k > 0 configuration is fine
        found = 0
        for w in ones:
            rest = [v for v in ones if bilinear(F20, v, w) == 0 and v != w]
            for a1 in rest:
                for a2 in rest:
                    if bilinear(F20, a1, a2) == 0:
                        c = find_connector(F20, [w], a1, a2)
                        connector_postconditions(F20, [w], a1, a2, c)
                        found += 1
        assert found

    @pytest.mark.parametrize("genus, arf_value", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_matches_elimination(self, genus, arf_value):
        """With w vectors, every acceptance c7 configuration gets solve's answer."""
        f = standard_form(genus, arf_value)
        ones = [v for v in all_vectors(f.dim) if evaluate(f, v) == 1]
        checked = 0
        for ws in _isotropic_tuples(f, ones, genus):
            w_span = {v.bits for v in _span(ws, f.dim)}
            candidates = [v for v in ones if v.bits not in w_span
                          and not any(bilinear(f, v, w) for w in ws)]
            wbits = [w.bits for w in ws]
            for a1 in candidates:
                for a2 in candidates:
                    if not bilinear(f, a1, a2):
                        c = find_connector(f, ws, a1, a2)
                        assert c.bits == eliminated_connector(f, wbits, a1.bits, a2.bits)
                        checked += 1
        assert checked

    @pytest.mark.parametrize("genus", [4, 7, 12, 19, 26, 32, 38])
    def test_matches_elimination_on_seeded_bases(self, genus):
        """With w vectors, seeded configurations in dims 8 to 76 get solve's answer.

        On a standard form under a seeded change of basis, the a_i of its
        symplectic basis, each with g(a_i) = 0 replaced by b_i if g(b_i) = 1
        and by a_i + b_i if not, are independent, pairwise orthogonal and of
        g = 1.  ws = a_0 .. a_{k-1}, a1 = a_k and a2 = a_{k+1} or a_k, for
        every k from 0 to genus - 2.  The elimination referee covers k >= 1;
        at k = 0 the answer is checked for its postconditions and for
        determinism.
        """
        rng = random.Random(genus)
        dim = 2 * genus
        checked = 0
        for arf_value in (0, 1):
            rows: list[int] = []
            while len(rows) < dim:
                r = rng.getrandbits(dim)
                if rank_rows(rows + [r]) == len(rows) + 1:
                    rows.append(r)
            f = pullback(standard_form(genus, arf_value), BitMatrix(dim, dim, tuple(rows)))
            a_vectors = []
            for a, b in ((BitVector(dim, a), BitVector(dim, b))
                         for a, b in _symplectic_pairs(f.gram.data)):
                if not evaluate(f, a):
                    a = b if evaluate(f, b) else a ^ b
                a_vectors.append(a)
            for k in range(genus - 1):
                ws = a_vectors[:k]
                for a2 in (a_vectors[k + 1], a_vectors[k]):
                    c = find_connector(f, ws, a_vectors[k], a2)
                    connector_postconditions(f, ws, a_vectors[k], a2, c)
                    if ws:
                        assert c.bits == eliminated_connector(
                            f, [w.bits for w in ws], a_vectors[k].bits, a2.bits)
                    else:
                        assert find_connector(f, ws, a_vectors[k], a2) == c
                    checked += 1
        assert checked == 4 * (genus - 1)

    def test_precondition_reporting(self):
        a = BitVector.basis(4, 0)
        with pytest.raises(ValueError, match="g = 1"):
            find_connector(F20, [], a, a)  # g(a1) = 0 in the Arf-0 form


class TestPullback:
    def test_identity(self):
        assert pullback(F20, BitMatrix.identity(4)) == F20

    @settings(max_examples=40)
    @given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.data())
    def test_matches_brute_force(self, genus, seed, data):
        """Gram entries B(p e_i, p e_j) and values g(p e_i), for any square p:
        a singular p leaves a degenerate Gram, which raises at construction."""
        dim = 2 * genus
        rng = random.Random(seed)
        while True:
            gram = [0] * dim
            for i in range(dim):
                gram[i] |= rng.getrandbits(dim) >> (i + 1) << (i + 1)
                for j in range(i + 1, dim):
                    gram[j] |= ((gram[i] >> j) & 1) << i
            if rank_rows(gram) == dim:
                break
        f = QuadraticForm(dim, BitMatrix(dim, dim, tuple(gram)),
                          BitVector(dim, rng.getrandbits(dim)))
        p = BitMatrix(dim, dim, tuple(
            data.draw(st.integers(0, (1 << dim) - 1)) for _ in range(dim)))
        columns = [p.column(i).bits for i in range(dim)]
        gram = tuple(sum(_bil_bits(f, ci, cj) << j for j, cj in enumerate(columns))
                     for ci in columns)
        if len(rref(gram, dim)[1]) < dim:
            with pytest.raises(ValueError, match="^degenerate form$"):
                pullback(f, p)
            return
        g = pullback(f, p)
        assert g.gram.data == gram
        assert g.basis_g.bits == sum(_evaluate_bits(f, c) << i for i, c in enumerate(columns))

    @given(nondegenerate_forms(max_genus=2), st.data())
    def test_matches_pointwise(self, f, data):
        p = data.draw(invertible_matrices(f.dim))
        g = pullback(f, p)
        for v in all_vectors(f.dim):
            assert evaluate(g, v) == evaluate(f, p.apply(v))
