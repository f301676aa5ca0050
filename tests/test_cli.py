"""CLI behaviour: golden outputs, determinism, exit codes."""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import child_env

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

GOLDEN_COMMANDS = {
    "arf_g1a0": ["arf", "--form", "data/form_g1a0.txt"],
    "arf_g1a1": ["arf", "--form", "data/form_g1a1.txt"],
    "psi_swap": ["psi", "--form", "data/form_g1a0.txt", "--matrix", "data/swap2.txt"],
    "q_a4": ["q", "--surface", "data/surf_g1a0.txt", "--word", "data/a4.word"],
    "q_identity": ["q", "--surface", "data/surf_g1a0.txt", "--word", "data/empty.word"],
    "q_genus0_flip": ["q", "--surface", "data/surf_g0.txt", "--word", "data/flip.word"],
    "q_umap_matrix": ["q", "--surface", "data/surf_g2a0.txt",
                      "--matrix", "data/u0.txt", "--epsilon", "0"],
    "decompose_swap": ["decompose", "--form", "data/form_g1a0.txt",
                       "--matrix", "data/swap2.txt"],
    "decompose_u0": ["decompose", "--form", "data/form_g2a0.txt",
                     "--matrix", "data/u0.txt"],
    "verify_swap": ["verify", "--form", "data/form_g1a0.txt",
                    "--matrix", "data/swap2.txt",
                    "--decomposition", "data/dec_swap.txt"],
    "check_rh": ["check-rh", "--surface", "data/surf_g1a0.txt",
                 "--surface", "data/surf_g1a1.txt"],
    "check_rh_same": ["check-rh", "--surface", "data/surf_g1a1.txt",
                      "--surface", "data/surf_g1a1.txt"],
    "enumerate_g1a1": ["enumerate", "--form", "data/form_g1a1.txt"],
    "enumerate_g2a0": ["enumerate", "--form", "data/form_g2a0.txt"],
    "catalog_arf0": ["catalog", "--genus", "1", "--arf", "0"],
    "catalog_arf1": ["catalog", "--genus", "1", "--arf", "1"],
}


def run_cli(argv, cwd=HERE):
    return subprocess.run(
        [sys.executable, "-m", "quadpoint", *argv],
        capture_output=True, text=True, cwd=cwd, env=child_env())


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden(name):
    argv = GOLDEN_COMMANDS[name]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout  # byte-identical across runs
    assert first.stdout == (GOLDEN / f"{name}.txt").read_text()
    assert first.stderr == ""


def test_inline_matrix_argument():
    res = run_cli(["psi", "--form", "data/form_g1a0.txt", "--matrix", "01/10"])
    assert res.returncode == 0
    assert res.stdout == "psi 1\n"


class TestErrors:
    def test_membership_failure(self):
        res = run_cli(["q", "--surface", "data/surf_g1a0.txt",
                       "--word", "data/bad.word"])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error membership:")

    def test_not_orthogonal_matrix(self):
        # invertible, but sends l to m+l which has the wrong g-value
        res = run_cli(["psi", "--form", "data/form_g1a0.txt", "--matrix", "11/01"])
        assert res.returncode == 2
        assert res.stderr.startswith("error precondition:")

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a form\n")
        res = run_cli(["arf", "--form", str(bad)])
        assert res.returncode == 1
        assert res.stderr.startswith("error parse:")

    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        res = run_cli(["arf", "--form", str(bad)])
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error parse:")
        assert res.stderr.count("\n") == 1

    def test_missing_file(self):
        res = run_cli(["arf", "--form", "data/never_written.txt"])
        assert res.returncode == 1
        assert res.stderr.startswith("error parse:")

    def test_usage_error(self):
        res = run_cli(["arf"])
        assert res.returncode == 1
        assert res.stderr.startswith("error usage:")

    def test_catalog_wrong_genus(self):
        res = run_cli(["catalog", "--genus", "2", "--arf", "0"])
        assert res.returncode == 2
        assert res.stderr.startswith("error precondition:")

    def test_genus_mismatch(self):
        res = run_cli(["check-rh", "--surface", "data/surf_g1a0.txt",
                       "--surface", "data/surf_g2a0.txt"])
        assert res.returncode == 2
        assert res.stderr.startswith("error precondition:")

    def test_verify_fail(self, tmp_path):
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("u 0\n")
        res = run_cli(["verify", "--form", "data/form_g1a0.txt",
                       "--matrix", "data/swap2.txt",
                       "--decomposition", str(wrong)])
        assert res.returncode == 2
        assert res.stdout == "verify fail\n"

    @pytest.mark.parametrize("form,matrix", [
        ("data/form_deg3.txt", "100/010/001"),
        ("data/form_deg4.txt", "1000/0100/0010/0001"),
    ])
    @pytest.mark.parametrize("command", ["psi", "decompose", "verify", "enumerate"])
    def test_degenerate_form(self, command, form, matrix):
        argv = [command, "--form", form]
        if command != "enumerate":
            argv += ["--matrix", matrix]
        if command == "verify":
            argv += ["--decomposition", "data/dec_empty.txt"]
        res = run_cli(argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error precondition: degenerate form\n"

    def test_enumerate_guard(self, tmp_path):
        from quadpoint.formats import dump_form
        from quadpoint.quadform import standard_form

        big = tmp_path / "big.txt"
        big.write_text(dump_form(standard_form(5, 0)))
        res = run_cli(["enumerate", "--form", str(big)])
        assert res.returncode == 2
        assert res.stderr.startswith("error guard:")


def test_decompose_verify_round_trip(tmp_path):
    dec = tmp_path / "dec.txt"
    res = run_cli(["decompose", "--form", "data/form_g2a0.txt", "--matrix", "data/u0.txt"])
    assert res.returncode == 0
    dec.write_text(res.stdout)
    check = run_cli(["verify", "--form", "data/form_g2a0.txt",
                     "--matrix", "data/u0.txt", "--decomposition", str(dec)])
    assert check.returncode == 0
    assert check.stdout == "verify ok\n"


@pytest.mark.parametrize("genus,arf_value,seed", [(1, 1, 3), (2, 0, 4), (3, 1, 5)])
def test_decompose_verify_random(tmp_path, genus, arf_value, seed):
    from quadpoint.formats import dump_form, dump_matrix
    from quadpoint.oracle import random_orthogonal
    from quadpoint.quadform import standard_form

    f = standard_form(genus, arf_value)
    form_file = tmp_path / "form.txt"
    form_file.write_text(dump_form(f))
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(dump_matrix(random_orthogonal(f, seed, 2 * genus + 1).matrix))
    dec = tmp_path / "dec.txt"
    res = run_cli(["decompose", "--form", str(form_file), "--matrix", str(matrix_file)])
    assert res.returncode == 0
    dec.write_text(res.stdout)
    check = run_cli(["verify", "--form", str(form_file),
                     "--matrix", str(matrix_file), "--decomposition", str(dec)])
    assert check.returncode == 0
    assert check.stdout == "verify ok\n"


def test_closed_stdout_exits_quietly(tmp_path):
    from quadpoint.formats import dump_form
    from quadpoint.quadform import standard_form

    form = tmp_path / "form.txt"
    form.write_text(dump_form(standard_form(3, 0)))  # 40,320 lines: more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadpoint", "enumerate", "--form", str(form)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=HERE,
        env=child_env())
    assert proc.stdout.readline() == "order 40320\n"
    proc.stdout.close()
    try:
        returncode = proc.wait(timeout=120)
    finally:
        proc.kill()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert "Traceback" not in stderr
    assert (returncode, stderr) == (0, "")


# Every subcommand that reads files, with valid fixtures, and the argv
# positions of its file arguments.
FUZZ_COMMANDS = [
    (["arf", "--form", "data/form_g1a1.txt"], (2,)),
    (["psi", "--form", "data/form_g1a0.txt", "--matrix", "data/swap2.txt"], (2, 4)),
    (["decompose", "--form", "data/form_g2a0.txt", "--matrix", "data/u0.txt"], (2, 4)),
    (["verify", "--form", "data/form_g1a0.txt", "--matrix", "data/swap2.txt",
      "--decomposition", "data/dec_swap.txt"], (2, 4, 6)),
    (["q", "--surface", "data/surf_g1a0.txt", "--word", "data/a4.word"], (2, 4)),
    (["q", "--surface", "data/surf_g2a0.txt", "--matrix", "data/u0.txt"], (2, 4)),
    (["check-rh", "--surface", "data/surf_g1a0.txt",
      "--surface", "data/surf_g1a1.txt"], (2, 4)),
]
FUZZ_TARGETS = [(argv, pos) for argv, positions in FUZZ_COMMANDS for pos in positions]
# Fragments of the formats, so that mutations often stay close to valid input.
FRAGMENTS = [b"0", b"1", b"\n", b" ", b"/", b"2", b"4", b"16", b"-1", b"form",
             b"genus", b"g", b"u", b"twist", b"square", b"flip", b"umap"]


@st.composite
def mutated(draw, original):
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "delete":
            del data[pos:pos + draw(st.integers(1, 6))]
            continue
        chunk = draw(st.sampled_from(FRAGMENTS) | st.binary(min_size=1, max_size=6))
        end = pos + len(chunk) if op == "replace" else pos
        data[pos:end] = chunk
    return bytes(data)


@st.composite
def fuzzed_invocations(draw):
    argv, pos = draw(st.sampled_from(FUZZ_TARGETS))
    original = (HERE / argv[pos]).read_bytes()
    content = draw(st.binary(max_size=200) | mutated(original))
    return argv, pos, content


@settings(max_examples=40, deadline=None)
@given(fuzzed_invocations())
def test_error_contract_under_fuzzing(invocation):
    """Any file content gives exit 0, 1 or 2 and at most one error line.

    A failure prints exactly one ``error <kind>: <detail>`` line on stderr;
    the one non-zero exit without it is verify's documented "verify fail".
    """
    argv, pos, content = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.txt"
        path.write_bytes(content)
        res = run_cli([*argv[:pos], str(path), *argv[pos + 1:]])
    assert "Traceback" not in res.stderr
    assert res.returncode in (0, 1, 2)
    if res.returncode == 0:
        assert res.stderr == ""
    elif argv[0] == "verify" and res.stdout == "verify fail\n":
        assert (res.returncode, res.stderr) == (2, "")
    else:
        assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
        assert re.match(r"^error [a-z-]+: ", res.stderr)
