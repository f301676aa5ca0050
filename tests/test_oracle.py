"""Brute-force engines: filtering and counting."""

import random

import pytest

from quadpoint import oracle, orthogroup
from quadpoint.gf2 import BitMatrix, BitVector, rank_rows
from quadpoint.oracle import (
    democratic_arf,
    filter_full_linear_group,
    orthogonal_group_order,
    preserves_pairwise,
    random_orthogonal,
)
from quadpoint.orthogroup import (
    DimensionGuardError,
    GroupTable,
    enumerate_group,
    is_orthogonal,
    matrix_key,
    rank_parity,
)
from quadpoint.quadform import QuadraticForm, arf, pullback, standard_form, standard_gram

F10 = standard_form(1, 0)
F11 = standard_form(1, 1)
F20 = standard_form(2, 0)
F21 = standard_form(2, 1)


class TestFilter:
    def test_orders(self):
        assert len(filter_full_linear_group(F10).elements) == 2
        assert len(filter_full_linear_group(F11).elements) == 6
        assert len(filter_full_linear_group(F20).elements) == 72

    def test_canonical_order(self):
        table = filter_full_linear_group(F11)
        keys = [matrix_key(m) for m in table.elements]
        assert keys == sorted(keys)

    def test_members_orthogonal(self):
        table = filter_full_linear_group(F21)
        assert len(table.elements) == 120
        assert all(is_orthogonal(F21, m) for m in table.elements)

    def test_matches_closure(self):
        for f in (F10, F11, F20, F21):
            assert set(filter_full_linear_group(f).elements) == enumerate_group(f)

    def test_guard(self):
        with pytest.raises(DimensionGuardError):
            filter_full_linear_group(standard_form(3, 0))


class TestPairwiseReferee:
    """is_orthogonal (m^T gram m = gram, g on columns, no rank test) against
    the pairwise polarization check."""

    @pytest.mark.parametrize("f", [F20, F21])
    def test_every_4x4_matrix(self, f):
        members = 0
        for code in range(1 << 16):
            data = tuple((code >> (4 * i)) & 0b1111 for i in range(4))
            expected = preserves_pairwise(f, data)
            assert is_orthogonal(f, BitMatrix(4, 4, data)) == expected, data
            members += expected
        assert members == orthogonal_group_order(4, arf(f))

    @pytest.mark.parametrize("genus", [3, 4, 5, 6])
    @pytest.mark.parametrize("arf_value", [0, 1])
    def test_seeded_maps_and_one_bit_perturbations(self, genus, arf_value):
        dim = 2 * genus
        rng = random.Random(10 * genus + arf_value)
        basis: list[int] = []
        while len(basis) < dim:
            row = rng.getrandbits(dim)
            if rank_rows(basis + [row]) == len(basis) + 1:
                basis.append(row)
        f = pullback(standard_form(genus, arf_value), BitMatrix(dim, dim, tuple(basis)))
        for seed in range(3):
            m = random_orthogonal(f, seed, rng.randint(0, 3 * dim)).matrix
            assert is_orthogonal(f, m) and preserves_pairwise(f, m.data)
            for i in range(dim):
                for j in range(dim):
                    rows = list(m.data)
                    rows[i] ^= 1 << j
                    bent = BitMatrix(dim, dim, tuple(rows))
                    assert is_orthogonal(f, bent) == preserves_pairwise(f, bent.data)


class TestDemocraticArf:
    def test_dim2(self):
        assert democratic_arf(F10) == 0  # zeros 3, ones 1
        assert democratic_arf(F11) == 1  # zeros 1, ones 3

    def test_dim4(self):
        assert democratic_arf(F20) == 0  # zeros 10, ones 6

    def test_agrees_with_arf_exhaustively(self):
        for genus in (1, 2, 3):
            gram = standard_gram(genus)
            for gbits in range(1 << (2 * genus)):
                f = QuadraticForm(2 * genus, gram, BitVector(2 * genus, gbits))
                assert democratic_arf(f) == arf(f)

    def test_degenerate_rejected(self):
        f = QuadraticForm(2, BitMatrix.zero(2, 2), BitVector.zero(2))
        with pytest.raises(ValueError):
            democratic_arf(f)

    def test_guard(self):
        with pytest.raises(DimensionGuardError, match=r"^the democratic g-value count "
                           r"is capped at dimension 20 \(requested 22\)$"):
            democratic_arf(standard_form(11, 0))

    def test_guard_ignores_environment(self, monkeypatch):
        """The caps are fixed: the old override variable changes none."""
        monkeypatch.setenv("ARF_ENGINE_MAX_DIM", "100")
        with pytest.raises(DimensionGuardError):
            democratic_arf(standard_form(11, 0))


class TestRandomOrthogonal:
    def test_length_zero(self):
        t = random_orthogonal(F20, seed=0, length=0)
        assert t.matrix == BitMatrix.identity(4)

    def test_parity_matches_length(self):
        for seed in range(20):
            for length in (1, 2, 5, 8):
                t = random_orthogonal(F21, seed, length)
                assert rank_parity(t) == length % 2

    def test_reproducible(self):
        a = random_orthogonal(standard_form(4, 1), seed=42, length=9)
        b = random_orthogonal(standard_form(4, 1), seed=42, length=9)
        assert a.matrix == b.matrix


class TestGroupOrderFormula:
    def test_matches_filter(self):
        assert orthogonal_group_order(2, 0) == 2
        assert orthogonal_group_order(2, 1) == 6
        assert orthogonal_group_order(4, 0) == 72
        assert orthogonal_group_order(4, 1) == 120

    def test_dim_zero(self):
        assert orthogonal_group_order(0, 0) == 1

    def test_dim_zero_has_no_arf_one_form(self):
        with pytest.raises(ValueError, match="^genus 0 only carries the trivial form$"):
            orthogonal_group_order(0, 1)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_group_order(3, 0)

    @pytest.mark.parametrize("dim, arf_value", [(4, 2), (4, -1), (2, 3), (0, 2)])
    def test_arf_value_checked(self, dim, arf_value):
        with pytest.raises(ValueError, match="^arf_value must be 0 or 1$"):
            orthogonal_group_order(dim, arf_value)


class TestGroupTable:
    def test_from_elements_sorted(self):
        table = GroupTable.from_elements(enumerate_group(F10))
        assert [matrix_key(m) for m in table.elements] == ["0110", "1001"]
        assert table.psi_values == (1, 0)

    def test_oracle_returns_the_engine_class(self):
        # filter_full_linear_group returns the table enumerate prints, and
        # benchmark/tracer.py wraps oracle.GroupTable.from_elements: the name
        # must stay bound in oracle, to the one class.
        assert oracle.GroupTable is orthogroup.GroupTable
