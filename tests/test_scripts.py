"""Smoke tests of the scripts: each runs to completion and reports
figures that agree with each other."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from quadpoint.gf2 import BitMatrix, multiply
from quadpoint.orthogroup import rank_parity

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    res = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                         capture_output=True, text=True, env=child_env(), timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    return res.stdout.splitlines()


def test_group_orders():
    header, *rows = run_script("group_orders.py", "--max-dim", "4")
    assert header.split() == ["dim", "arf", "formula", "closure", "filter",
                              "psi=0", "psi=1", "secs"]
    table = [row.split() for row in rows]
    assert [(int(r[0]), int(r[1])) for r in table] == [(2, 0), (2, 1), (4, 0), (4, 1)]
    for dim, arf_value, formula, closure, filtered, even, odd, _ in table:
        assert formula == closure == filtered, (dim, arf_value)
        assert int(even) + int(odd) == int(closure)
        assert even == odd  # rank parity is onto Z/2, so it splits the group evenly


def test_group_orders_refuses_dimension_above_cap():
    res = subprocess.run([sys.executable, str(SCRIPTS / "group_orders.py"), "--max-dim", "8"],
                         capture_output=True, text=True, env=child_env(), timeout=60)
    assert (res.returncode, res.stdout) == (2, "")
    usage, error = res.stderr.splitlines()  # argparse's usage line, then the error
    assert usage.startswith("usage: group_orders.py")
    assert error == "group_orders.py: error: --max-dim 8 is above the enumeration cap 6"


def test_parity_on_symplectic():
    lines = run_script("parity_on_symplectic.py", "--genus", "2", "--tries", "200")
    assert lines[0].startswith("witness found after ")
    assert lines[1] == "S =" and lines[7] == "T ="
    s = BitMatrix.from_strings(lines[2:6])
    t = BitMatrix.from_strings(lines[8:12])
    ps, pt, pst = rank_parity(s), rank_parity(t), rank_parity(multiply(s, t))
    assert lines[6] == f"psi(S) = {ps}"
    assert lines[12] == f"psi(T) = {pt}"
    assert lines[13] == f"psi(S T) = {pst} != {ps ^ pt}"
    assert pst != ps ^ pt


@pytest.mark.parametrize("genus", ["0", "-1"])
def test_parity_on_symplectic_refuses_genus_below_one(genus):
    res = subprocess.run([sys.executable, str(SCRIPTS / "parity_on_symplectic.py"),
                          "--genus", genus],
                         capture_output=True, text=True, env=child_env(), timeout=60)
    assert (res.returncode, res.stdout) == (2, "")
    usage, error = res.stderr.splitlines()  # argparse's usage line, then the error
    assert usage.startswith("usage: parity_on_symplectic.py")
    assert error == (f"parity_on_symplectic.py: error: --genus {genus} is below 1, "
                     "the least genus with a nonzero vector")


def test_reach_allow_list_holds_its_lines():
    """Each line that reach.py allows to go unreached is named by its file and
    stripped text, which occurs exactly once in that file: the key names one
    line wherever code above it moves it."""
    reach = runpy.run_path(str(SCRIPTS / "reach.py"))
    for name, text in reach["ALLOWED"]:
        source = (reach["PACKAGE"] / name).read_text(encoding="utf-8").splitlines()
        assert [line.strip() for line in source].count(text) == 1, (name, text)
