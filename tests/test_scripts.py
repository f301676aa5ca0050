"""Smoke tests of the scripts: each runs to completion and reports
figures that agree with each other."""

import subprocess
import sys
from pathlib import Path

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
