"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import quadpoint
from quadpoint.gf2 import BitMatrix, BitVector
from quadpoint.guards import ENV_VAR
from quadpoint.orthogroup import enumerate_group
from quadpoint.quadform import pullback, standard_form

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.large_base_example,
        HealthCheck.filter_too_much,
    ],
)
settings.load_profile("suite")


@st.composite
def bit_matrices(draw, max_rows=6, max_cols=6, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(0, max_rows))
    c = cols if cols is not None else draw(st.integers(0, max_cols))
    data = tuple(draw(st.integers(0, (1 << c) - 1)) for _ in range(r))
    return BitMatrix(r, c, data)


@st.composite
def bit_vectors(draw, length=None, max_length=8):
    n = length if length is not None else draw(st.integers(0, max_length))
    return BitVector(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def invertible_matrices(draw, n):
    """Random invertible n x n matrix, built row by row."""
    from quadpoint.gf2 import rank_rows

    rows: list[int] = []
    while len(rows) < n:
        candidate = draw(st.integers(1, (1 << n) - 1))
        if rank_rows(rows + [candidate]) == len(rows) + 1:
            rows.append(candidate)
    return BitMatrix(n, n, tuple(rows))


@st.composite
def nondegenerate_forms(draw, max_genus=3):
    """A standard form twisted by a random change of basis."""
    genus = draw(st.integers(1, max_genus))
    arf_value = draw(st.integers(0, 1))
    base = standard_form(genus, arf_value)
    p = draw(invertible_matrices(2 * genus))
    return pullback(base, p)


def all_vectors(dim: int):
    return [BitVector(dim, b) for b in range(1 << dim)]


STANDARD_CASES = [(1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.fixture(scope="session")
def small_groups():
    """Enumerated orthogonal groups for dimensions 2 and 4, both Arf values."""
    return {
        (genus, arf_value): enumerate_group(standard_form(genus, arf_value))
        for genus, arf_value in STANDARD_CASES
    }


# Directory that holds the quadpoint package this process imported: src/ in a
# checkout, site-packages when installed.
SOURCE_ROOT = Path(quadpoint.__file__).resolve().parents[1]


def child_env():
    """The caller's environment, made to run the package under test.

    SOURCE_ROOT goes first on PYTHONPATH, so a child process imports the same
    quadpoint whatever the working directory or a relative PYTHONPATH says;
    the guard override is dropped, so the documented default caps apply.
    """
    env = dict(os.environ)
    env.pop(ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p)
    return env
