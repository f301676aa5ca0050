"""CLI behaviour: golden outputs, determinism, exit codes."""

import contextlib
import io
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bit_product, child_env, rref

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


def test_matrix_epsilon_defaults_to_zero():
    argv = ["q", "--surface", "data/surf_g2a0.txt", "--matrix", "data/u0.txt"]
    default, zero, one = (run_cli(argv + extra) for extra in ([], ["--epsilon", "0"],
                                                             ["--epsilon", "1"]))
    assert default.returncode == zero.returncode == one.returncode == 0
    assert default.stdout == zero.stdout == (GOLDEN / "q_umap_matrix.txt").read_text()
    assert one.stdout != zero.stdout  # genus 2: (n+1) epsilon flips Q


def test_inline_matrix_argument():
    res = run_cli(["psi", "--form", "data/form_g1a0.txt", "--matrix", "01/10"])
    assert res.returncode == 0
    assert res.stdout == "psi 1\n"


def test_inline_matrix_rows_of_unequal_length(monkeypatch):
    """Each inline row is read at the first row's length, as a file's rows."""
    monkeypatch.chdir(HERE)
    assert run_main(["psi", "--form", "data/form_g1a0.txt", "--matrix", "01/1"]) == (
        1, "", "error parse: inline matrix row of length 1, expected 2\n")


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

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_epsilon_with_word(self, epsilon):
        """A word's flips give epsilon, so --epsilon beside --word is refused."""
        res = run_cli(["q", "--surface", "data/surf_g2a0.txt",
                       "--word", "data/flip.word", "--epsilon", epsilon])
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error usage: argument --epsilon: not allowed with argument --word\n"

    @pytest.mark.parametrize("flag", ["--form", "--matrix"])
    def test_empty_path(self, flag):
        argv = {"--form": ["arf", "--form", ""],
                "--matrix": ["psi", "--form", "data/form_g1a0.txt", "--matrix", ""]}[flag]
        res = run_cli(argv)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith("error parse: ") and res.stderr.count("\n") == 1

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

    def test_verify_g_zero_letter(self, tmp_path):
        """11/01 is the transvection along e_0, where g(e_0) = 0: not orthogonal,
        so the decomposition naming e_0 is refused, not verified."""
        dec = tmp_path / "dec.txt"
        dec.write_text("u 0\n10\n")
        res = run_cli(["verify", "--form", "data/form_g1a0.txt", "--matrix", "11/01",
                       "--decomposition", str(dec)])
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == ("error precondition: word vector must satisfy "
                              "g(c) = 1 or c = 0\n")

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

    @pytest.mark.parametrize("arf_value", [0, 1])
    def test_enumerate_guard_dim8(self, tmp_path, arf_value):
        from quadpoint.formats import dump_form
        from quadpoint.quadform import standard_form

        form = tmp_path / "dim8.txt"
        form.write_text(dump_form(standard_form(4, arf_value)))
        res = run_cli(["enumerate", "--form", str(form)])
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == ("error guard: group enumeration is capped at dimension 6 "
                              "(requested 8)\n")


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


def _rank_plus_identity(rows):
    """rank(M + Id) of a square matrix, by conftest's reference elimination."""
    return len(rref([r ^ 1 << i for i, r in enumerate(rows)], len(rows))[1])


def _twist_rows(gram, c):
    """Rows of x -> x + B(x, c) c: row i is e_i, plus G c when c_i = 1."""
    gc = sum(((r & c).bit_count() & 1) << i for i, r in enumerate(gram))
    return [1 << i ^ (gc if c >> i & 1 else 0) for i in range(len(gram))]


def test_cli_answers(tmp_path):
    """psi, q --matrix, q --word and decompose then verify, through cli.main,
    on seeded forms in random bases and surfaces at dims 2 to 16, maps of
    both length parities and non-members.  Each answer is the library's and
    agrees with rank(M + Id) mod 2 by reference elimination; a non-member
    (by the pairwise referee) is an error with exit 2."""
    from quadpoint import mcg
    from quadpoint.formats import dump_decomposition, dump_form, dump_matrix, parse_word
    from quadpoint.gf2 import BitMatrix, BitVector
    from quadpoint.oracle import preserves_pairwise, random_orthogonal
    from quadpoint.orthogroup import OrthogonalMap, decompose, rank_parity
    from quadpoint.quadform import pullback, standard_form

    rng, seen = random.Random(26), Counter()
    form_file, surface_file = tmp_path / "form.txt", tmp_path / "surface.txt"
    matrix_file, word_file, dec_file = (tmp_path / name for name in ("m.txt", "w.txt", "d.txt"))
    for trial in range(48):
        genus = 1 + trial % 8
        dim = 2 * genus
        while True:
            p = [rng.getrandbits(dim) for _ in range(dim)]
            if len(rref(p, dim)[1]) == dim:
                break
        f = pullback(standard_form(genus, rng.randint(0, 1)), BitMatrix(dim, dim, tuple(p)))
        length = rng.randint(0, 2 * dim)
        m = random_orthogonal(f, trial, length).matrix
        if trial % 4 == 3:  # invertible, and almost never orthogonal
            m = BitMatrix(dim, dim, tuple(p))
        member = preserves_pairwise(f, m.data)
        assert member or trial % 4 == 3
        form_file.write_text(dump_form(f))
        matrix_file.write_text(dump_matrix(m))
        psi = run_main(["psi", "--form", str(form_file), "--matrix", str(matrix_file)])
        dec = run_main(["decompose", "--form", str(form_file), "--matrix", str(matrix_file)])
        seen["psi", member] += 1
        if not member:
            error = (2, "", "error precondition: matrix does not preserve the quadratic form\n")
            assert psi == dec == error
            continue
        answer = _rank_plus_identity(m.data) & 1
        assert answer == rank_parity(OrthogonalMap(f, m))
        assert answer == length & 1 or trial % 4 == 3
        assert psi == (0, f"psi {answer}\n", "")
        u_flag, word = decompose(OrthogonalMap(f, m))
        assert dec == (0, dump_decomposition(u_flag, word), "")
        assert len(word) & 1 == answer
        dec_file.write_text(dec[1])
        verify = ["verify", "--form", str(form_file), "--matrix", str(matrix_file),
                  "--decomposition", str(dec_file)]
        assert run_main(verify) == (0, "verify ok\n", "")
        if word:  # one transvection fewer is another map
            dec_file.write_text(dump_decomposition(u_flag, word[1:]))
            assert run_main(verify) == (2, "verify fail\n", "")

        s = mcg.SurfacePinkallForm.from_g_values(genus, BitVector(dim, rng.getrandbits(dim)))
        gram = s.form.gram.data
        surface_file.write_text(f"genus {genus}\ng {s.form.basis_g.to01()}\n")
        action = random_orthogonal(s.form, trial, rng.randint(0, 2 * dim)).matrix.data
        if trial % 3 == 2:  # a twist along a random vector: a member when g(c) = 1
            action = bit_product(_twist_rows(gram, rng.getrandbits(dim) | 1), action)
        tokens = [(rng.choice(["twist", "twist", "square", "flip"]), rng.getrandbits(dim))
                  for _ in range(rng.randint(0, 12))]
        word_file.write_text("".join("flip\n" if kind == "flip" else
                                     f"{kind} {BitVector(dim, c).to01()}\n" for kind, c in tokens))
        product = [1 << i for i in range(dim)]  # squares act trivially on homology
        for kind, c in tokens:
            if kind == "twist":
                product = bit_product(_twist_rows(gram, c), product)
        flips = sum(kind == "flip" for kind, _ in tokens) & 1
        cases = [(["--matrix", "/".join(BitMatrix(dim, dim, tuple(action)).to01_rows()),
                   "--epsilon", str(trial & 1)], action, trial & 1),
                 (["--word", str(word_file)], product, flips)]
        for extra, rows, eps in cases:
            got = run_main(["q", "--surface", str(surface_file), *extra])
            member = preserves_pairwise(s.form, rows)
            seen[extra[0], member] += 1
            if not member:
                assert got[0] == 2 and got[2].startswith("error membership: ")
                continue
            answer = (_rank_plus_identity(rows) + (genus + 1) * eps) & 1
            h = (mcg.evaluate_word(s, parse_word(word_file.read_text())) if extra[0] == "--word"
                 else mcg.MappingClass(BitMatrix(dim, dim, tuple(rows)), eps))
            assert got == (0, f"Q {answer}\n", "")
            assert mcg.quadruple_point_invariant(s, h) == answer
    assert len(seen) == 6  # members and non-members of every command


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


def run_main(argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    from quadpoint import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def readme_synopsis():
    """The sh block of the README's CLI section."""
    text = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## CLI"):]
    start = block.index("```sh\n") + len("```sh\n")
    return block[start:block.index("```", start)]


COMMANDS_LISTED = ("'arf', 'psi', 'q', 'decompose', 'verify', 'check-rh', 'enumerate', "
                   "'catalog'")
FORM, SURFACE = str(DATA / "form_g1a0.txt"), str(DATA / "surf_g2a0.txt")
WORD, MATRIX = str(DATA / "flip.word"), str(DATA / "u0.txt")
BIG = "1" * 5000  # past the interpreter's 4,300-digit limit on int()
# The usage errors of the argparse parser this grammar replaced, byte for byte.
USAGE_ERRORS = {
    "no-command": ([], "the following arguments are required: command"),
    "unknown-command": (["nope"], "argument command: invalid choice: 'nope' "
                                  f"(choose from {COMMANDS_LISTED})"),
    "missing-option": (["arf"], "the following arguments are required: --form"),
    "missing-options": (["catalog"], "the following arguments are required: --genus, --arf"),
    "missing-value": (["arf", "--form"], "argument --form: expected one argument"),
    "option-as-value": (["arf", "--form", "--form"], "argument --form: expected one argument"),
    "unknown-option": (["arf", "--form", FORM, "--bogus"], "unrecognized arguments: --bogus"),
    "unknown-argument": (["arf", "--form", FORM, "extra"], "unrecognized arguments: extra"),
    "epsilon-2": (["q", "--surface", SURFACE, "--matrix", MATRIX, "--epsilon", "2"],
                  "argument --epsilon: invalid choice: 2 (choose from 0, 1)"),
    "genus-x": (["catalog", "--genus", "x", "--arf", "0"],
                "argument --genus: invalid int value: 'x'"),
    "genus-oversized": (["catalog", "--genus", BIG, "--arf", "0"],
                        f"argument --genus: invalid int value: {BIG!r}"),
    "arf=2": (["catalog", "--genus", "1", "--arf=2"],
              "argument --arf: invalid choice: 2 (choose from 0, 1)"),
    "word-and-matrix": (["q", "--surface", SURFACE, "--word", WORD, "--matrix", MATRIX],
                        "argument --matrix: not allowed with argument --word"),
    "neither-word-nor-matrix": (["q", "--surface", SURFACE],
                                "one of the arguments --word --matrix is required"),
    "q-missing-surface": (["q", "--word", WORD],
                          "the following arguments are required: --surface"),
    "word-then-epsilon": (["q", "--surface", SURFACE, "--word", WORD, "--epsilon", "0"],
                          "argument --epsilon: not allowed with argument --word"),
    "epsilon-then-word": (["q", "--surface", SURFACE, "--epsilon", "1", "--word", WORD],
                          "argument --epsilon: not allowed with argument --word"),
    "no-surface": (["check-rh"], "the following arguments are required: --surface"),
    "one-surface": (["check-rh", "--surface", SURFACE],
                    "check-rh needs exactly two --surface arguments"),
    "three-surfaces": (["check-rh", *["--surface", SURFACE] * 3],
                       "check-rh needs exactly two --surface arguments"),
}
# Where the table deliberately parts from argparse (CHANGES.md lists each).
CHANGED_USAGE_ERRORS = {
    "no-abbreviation": (["arf", "--fo", FORM], "unrecognized arguments: --fo"),
    "unknown-before-missing": (["arf", "--bogus"], "unrecognized arguments: --bogus"),
    "flag-as-command": (["-x"], f"argument command: invalid choice: '-x' "
                                f"(choose from {COMMANDS_LISTED})"),
    "int-with-space": (["catalog", "--genus", " 1", "--arf", "0"],
                       "argument --genus: invalid int value: ' 1'"),
    "dash-as-value": (["arf", "--form", "-"], "argument --form: expected one argument"),
    "non-ascii-digit": (["catalog", "--genus", "\u0661", "--arf", "\u0660"],
                        "argument --genus: invalid int value: '\u0661'"),
}


@pytest.mark.parametrize("case", [*USAGE_ERRORS, *CHANGED_USAGE_ERRORS])
def test_usage_error_messages(case):
    argv, message = {**USAGE_ERRORS, **CHANGED_USAGE_ERRORS}[case]
    assert run_main(argv) == (1, "", f"error usage: {message}\n")


@pytest.mark.parametrize("argv", [["arf", "--form=data/form_g1a1.txt"],
                                  ["catalog", "--genus=1", "--arf", "1"],
                                  ["arf", "--form", "data/form_g1a0.txt",
                                   "--form", "data/form_g1a1.txt"]])
def test_equals_form_and_repeats(argv, monkeypatch):
    """--name=value reads as --name value; a repeated single option keeps
    its last value, as under argparse."""
    monkeypatch.chdir(HERE)
    name = "catalog_arf1" if argv[0] == "catalog" else "arf_g1a1"
    assert run_main(argv) == (0, (GOLDEN / f"{name}.txt").read_text(), "")


def test_help_prints_the_readme_synopsis():
    res = run_cli(["--help"])
    assert (res.returncode, res.stdout, res.stderr) == (0, readme_synopsis(), "")
    for argv in (["q", "-h"], ["-h"], ["arf", "--form", "-h"], ["nope", "--help"]):
        assert run_main(argv) == (0, readme_synopsis(), "")


NAMES = ["arf", "psi", "q", "decompose", "verify", "check-rh", "enumerate", "catalog"]
FLAGS = ["--form", "--matrix", "--surface", "--word", "--epsilon", "--decomposition",
         "--genus", "--arf"]
VALUES = ["0", "1", "2", "-1", "x", "", "01/10", BIG,
          *(str(DATA / name) for name in ("form_g1a0.txt", "form_g2a0.txt", "form_deg4.txt",
                                          "surf_g1a0.txt", "surf_g2a0.txt", "a4.word",
                                          "flip.word", "swap2.txt", "u0.txt", "dec_swap.txt"))]
UNKNOWN = ["--fo", "--bogus", "-x", "--", "-"]  # refused anywhere, even as a value
HELP = ["-h", "--help"]
# One valid command line per command, to edit.
VALID = [[word if word.startswith("-") or "/" not in word else str(HERE / word)
          for word in argv] for argv, _ in FUZZ_COMMANDS] + [
    ["enumerate", "--form", FORM], ["catalog", "--genus", "1", "--arf", "0"],
    ["q", "--surface", SURFACE, "--matrix", MATRIX, "--epsilon", "1"]]


@st.composite
def argvs(draw):
    """Either a valid command line with up to three edits (one or two words
    dropped, a token inserted, an option and its value joined by "="), or a command
    name and tokens from the grammar; unknown and help flags are rarer."""
    plain = st.sampled_from(NAMES + FLAGS + VALUES)
    token = plain | st.builds("{}={}".format, st.sampled_from(FLAGS), plain)
    any_token = st.one_of(token, token, token, st.sampled_from(UNKNOWN + HELP))
    if draw(st.booleans()):
        words = list(draw(st.sampled_from(VALID)))
        for _ in range(draw(st.integers(0, 3))):
            pos = draw(st.integers(0, len(words)))
            edit = draw(st.sampled_from(["drop", "insert", "join"]))
            if edit == "insert":
                words.insert(pos, draw(any_token))
            elif pos + 1 < len(words) and edit == "join":
                words[pos:pos + 2] = [f"{words[pos]}={words[pos + 1]}"]
            else:
                del words[pos:pos + draw(st.integers(1, 2))]
        return words
    words = draw(st.lists(any_token, max_size=8))
    head = draw(st.sampled_from(NAMES + ["nope"]))
    return [head, *words] if draw(st.integers(0, 9)) else words


def _int_option_given(argv, value):
    """Whether some int option is given this value, as "--opt value" or "--opt=value"."""
    return any(f"{opt}={value}" in argv or any(a == opt and b == value
                                               for a, b in zip(argv, argv[1:]))
               for opt in ("--genus", "--arf", "--epsilon"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
@example(["catalog", "--genus", BIG, "--arf", "0"])
@example(["q", "--surface", SURFACE, "--matrix", MATRIX, f"--epsilon={BIG}"])
def test_argv_contract(argv):
    """Any argv gives exit 0, 1 or 2 and lets no exception escape main.  A
    help flag prints the synopsis; an unknown command, option or flag is a
    usage error: exactly one "error usage:" line and exit 1; so is an int
    option given more digits than int() converts."""
    try:
        code, out, err = run_main(argv)
    except BaseException as exc:  # SystemExit included: main must return
        pytest.fail(f"{argv!r} raised {exc!r}")
    if set(argv) & set(HELP):
        assert (code, out, err) == (0, readme_synopsis(), "")
        return
    assert code in (0, 1, 2)
    if not argv or argv[0] not in NAMES or set(argv) & set(UNKNOWN) \
            or _int_option_given(argv, BIG):
        assert code == 1 and err.startswith("error usage: ")
    if code == 0:
        assert err == ""
    elif argv[:1] == ["verify"] and out == "verify fail\n":
        assert (code, err) == (2, "")
    else:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert re.match(r"^error [a-z-]+: ", err)
        assert code == 1 or not err.startswith("error usage:")
