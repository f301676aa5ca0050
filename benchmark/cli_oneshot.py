"""The one-shot CLI workload: one ``python -m quadpoint`` child per operation.

Set-up writes the inputs of every round to files; a round is one call of
each entry of ``COMMANDS``, with inputs of dimension at most 16.  Each
operation runs one child and waits for it, so there is never more than
one.  The output of every child is checked against the reference module.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = HERE / "cli_entry.py"

COMMANDS = ("q_word", "q_matrix", "decompose", "verify_ok", "verify_fail",
            "psi", "arf", "check_rh", "catalog", "enumerate")

# Surfaces and forms have dimension 2 * GENUS = 16, so that operations are of
# one size; generated maps are products of MAP_LENGTH random transvections,
# enough that their decompositions have a steady length.
GENUS = 8
MAP_LENGTH = 24

# Torus generators as printed by `catalog`: the mod-2 parity on each line is
# recomputed from the integer matrix and epsilon printed on that same line.
CATALOG_LINES = {0: 4, 1: 2}


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's src first on the path
    and the dimension-cap override removed, so the default caps apply."""
    env = dict(os.environ)
    env.pop("ARF_ENGINE_MAX_DIM", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _matrix_text(rows, dim: int) -> str:
    return f"{dim} {dim}\n" + "".join(ref.to01(r, dim) + "\n" for r in rows)


def _form_text(gram, gbits: int) -> str:
    dim = len(gram)
    return f"form {dim}\ng {ref.to01(gbits, dim)}\n" + "".join(
        ref.to01(r, dim) + "\n" for r in gram)


def _surface_text(genus: int, gbits: int) -> str:
    return f"genus {genus}\ng {ref.to01(gbits, 2 * genus)}\n"


def _lines(out: str) -> list[str]:
    return out.splitlines()


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


class CliOneshot:
    name = "cli_oneshot"
    ops_per_second = 6
    round_size = len(COMMANDS)

    def __init__(self, seed: int, indices: range, workdir: Path, trace: bool = False) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.env = child_env()
        self.trace = trace
        self.word_lengths: list[int] = []
        self.excess: list[int] = []
        self.child_extras: list[dict] = []
        self.items = []
        for r in range(indices.start // self.round_size, indices.stop // self.round_size):
            self.rng = random.Random(f"{seed}:{r}")
            for name in COMMANDS:
                self.items.append(getattr(self, "_make_" + name)(r))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- input generation: each returns (argv, checker) --------------------

    def _write(self, r: int, name: str, text: str) -> str:
        path = self.dir / f"r{r}_{name}"
        path.write_text(text)
        return str(path)

    def _random_map(self, gram, gbits):
        word = [ref.random_vector(self.rng, gram, gbits, 1) for _ in range(MAP_LENGTH)]
        return word, ref.product(gram, ref.identity(len(gram)), word)

    def _random_form(self):
        gram, gbits = ref.random_form(self.rng, GENUS, self.rng.getrandbits(1))
        return gram, gbits

    def _make_q_word(self, r):
        genus = GENUS
        dim = 2 * genus
        gram, gbits = ref.standard_gram(genus), self.rng.getrandbits(dim)
        lines, twists, flips = [], 0, 0
        for _ in range(16):
            kind = self.rng.choice(("twist", "twist", "square", "flip"))
            if kind == "flip":
                flips += 1
                lines.append("flip")
            elif kind == "square":
                lines.append(f"square {ref.to01(self.rng.getrandbits(dim), dim)}")
            else:
                twists += 1
                lines.append(f"twist {ref.to01(ref.random_vector(self.rng, gram, gbits, 1), dim)}")
        argv = ["q", "--surface", self._write(r, "q_word.surface", _surface_text(genus, gbits)),
                "--word", self._write(r, "q_word.word", "\n".join(lines) + "\n")]
        return argv, self._expect(0, [f"Q {(twists + (genus + 1) * flips) % 2}"])

    def _make_q_matrix(self, r):
        genus = GENUS
        gram, gbits = ref.standard_gram(genus), self.rng.getrandbits(2 * genus)
        _, rows = self._random_map(gram, gbits)
        eps = self.rng.getrandbits(1)
        q = (ref.rank(ref.minus_identity(rows)) + (genus + 1) * eps) % 2
        argv = ["q", "--surface", self._write(r, "q_matrix.surface", _surface_text(genus, gbits)),
                "--matrix", self._write(r, "q_matrix.matrix", _matrix_text(rows, 2 * genus)),
                "--epsilon", str(eps)]
        return argv, self._expect(0, [f"Q {q}"])

    def _make_decompose(self, r):
        gram, gbits = self._random_form()
        _, rows = self._random_map(gram, gbits)
        argv = ["decompose", "--form", self._write(r, "decompose.form", _form_text(gram, gbits)),
                "--matrix", self._write(r, "decompose.matrix", _matrix_text(rows, len(gram)))]

        def check(rc, out, err):
            if rc != 0 or err:
                return f"exit {rc}, stderr {err!r}"
            lines = _lines(out)
            if not lines or lines[0] not in ("u 0", "u 1"):
                return f"bad decomposition header {lines[:1]!r}"
            try:
                word = [int(ln[::-1], 2) for ln in lines[1:]]
            except ValueError:
                return "bad word line"
            if any(len(ln) != len(gram) for ln in lines[1:]):
                return "word vector of the wrong length"
            problem, rk = ref.check_decomposition(gram, gbits, rows, int(lines[0][2]), word)
            if problem is None:
                self.word_lengths.append(len(word))
                self.excess.append(len(word) - rk)
            return problem

        return argv, check

    def _make_verify(self, r, tag, drop):
        gram, gbits = self._random_form()
        word, rows = self._random_map(gram, gbits)
        if drop:
            del word[self.rng.randrange(len(word))]
        dec = "u 0\n" + "".join(ref.to01(c, len(gram)) + "\n" for c in word)
        argv = ["verify", "--form", self._write(r, tag + ".form", _form_text(gram, gbits)),
                "--matrix", self._write(r, tag + ".matrix", _matrix_text(rows, len(gram))),
                "--decomposition", self._write(r, tag + ".dec", dec)]
        return argv, (self._expect(2, ["verify fail"]) if drop else self._expect(0, ["verify ok"]))

    def _make_verify_ok(self, r):
        return self._make_verify(r, "verify_ok", drop=False)

    def _make_verify_fail(self, r):
        return self._make_verify(r, "verify_fail", drop=True)

    def _make_psi(self, r):
        gram, gbits = self._random_form()
        _, rows = self._random_map(gram, gbits)
        argv = ["psi", "--form", self._write(r, "psi.form", _form_text(gram, gbits)),
                "--matrix", self._write(r, "psi.matrix", _matrix_text(rows, len(gram)))]
        return argv, self._expect(0, [f"psi {ref.rank(ref.minus_identity(rows)) & 1}"])

    def _make_arf(self, r):
        gram, gbits = self._random_form()
        argv = ["arf", "--form", self._write(r, "arf.form", _form_text(gram, gbits))]

        def check(rc, out, err):
            return self._expect(0, [f"arf {ref.arf_majority(gram, gbits)}"])(rc, out, err)

        return argv, check

    def _make_check_rh(self, r):
        dim = 2 * GENUS
        gram = ref.standard_gram(GENUS)
        g1 = self.rng.getrandbits(dim)
        g2 = g1 if self.rng.getrandbits(1) else self.rng.getrandbits(dim)

        def check(rc, out, err):
            a1, a2 = ref.arf_majority(gram, g1), ref.arf_majority(gram, g2)
            expected = [f"regularly-homotopic {_bool(g1 == g2)}",
                        f"diffeo-equivalent {_bool(a1 == a2)}",
                        f"embedding-realizable {_bool(a1 == 0)}"]
            return self._expect(0, expected)(rc, out, err)

        argv = ["check-rh",
                "--surface", self._write(r, "rh1.surface", _surface_text(GENUS, g1)),
                "--surface", self._write(r, "rh2.surface", _surface_text(GENUS, g2))]
        return argv, check

    def _make_catalog(self, r):
        arf_value = self.rng.getrandbits(1)

        def check(rc, out, err):
            if rc != 0 or err:
                return f"exit {rc}, stderr {err!r}"
            lines = _lines(out)
            if len(lines) != CATALOG_LINES[arf_value]:
                return f"{len(lines)} catalog lines"
            for ln in lines:
                parts = ln.split()
                if len(parts) != 10 or [parts[1], parts[6], parts[8]] != ["matrix", "epsilon", "Psi"]:
                    return f"bad catalog line {ln!r}"
                a, b, c, d = (int(x) for x in parts[2:6])
                eps, psi = int(parts[7]), int(parts[9])
                if eps != (1 if a * d - b * c < 0 else 0):
                    return f"{parts[0]}: epsilon {eps} for determinant {a * d - b * c}"
                rows = [(a & 1) | (b & 1) << 1, (c & 1) | (d & 1) << 1]
                # genus 1: (n + 1) eps = 2 eps vanishes mod 2
                if psi != (ref.rank(ref.minus_identity(rows)) + 2 * eps) % 2:
                    return f"{parts[0]}: Psi {psi}"
            return None

        return ["catalog", "--genus", "1", "--arf", str(arf_value)], check

    def _make_enumerate(self, r):
        arf_value = self.rng.getrandbits(1)
        gram, gbits = ref.random_form(self.rng, 2, arf_value)
        order = ref.group_order(4, arf_value)

        def check(rc, out, err):
            if rc != 0 or err:
                return f"exit {rc}, stderr {err!r}"
            lines = _lines(out)
            if not lines or lines[0] != f"order {order}" or len(lines) != order + 1:
                return f"order line {lines[:1]!r} with {len(lines) - 1} elements, expected {order}"
            keys = set()
            psi_ones = 0
            for ln in lines[1:]:
                key, _, p = ln.partition(" ")
                if len(key) != 16 or set(key) - {"0", "1"} or p not in ("0", "1"):
                    return f"bad element line {ln!r}"
                rows = [int(key[4 * i:4 * i + 4][::-1], 2) for i in range(4)]
                if not ref.is_orthogonal(gram, gbits, rows):
                    return f"element {key} is not orthogonal"
                if int(p) != ref.rank(ref.minus_identity(rows)) & 1:
                    return f"element {key}: psi {p}"
                keys.add(key)
                psi_ones += int(p)
            if len(keys) != order or 2 * psi_ones != order:
                return f"{len(keys)} distinct elements, psi = 1 on {psi_ones}"
            return None

        argv = ["enumerate", "--form", self._write(r, "enumerate.form", _form_text(gram, gbits))]
        return argv, check

    @staticmethod
    def _expect(code: int, lines: list[str]):
        def check(rc, out, err):
            if rc != code or err or _lines(out) != lines:
                return f"exit {rc}, stdout {out!r}, stderr {err!r}; expected exit {code}, {lines}"
            return None
        return check

    # -- operations ----------------------------------------------------------

    def command(self, i: int) -> list[str]:
        argv = self.items[i][0]
        if self.trace:
            return [sys.executable, str(ENTRY), str(self.dir / "child.trace"), *argv]
        return [sys.executable, "-m", "quadpoint", *argv]

    def run(self, i):
        done = subprocess.run(self.command(i), capture_output=True, text=True,
                              cwd=ROOT, env=self.env, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def check(self, i, out) -> str | None:
        return self.items[i][1](*out)

    def finish(self) -> str | None:
        return None

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest child."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def interp_floor_ms(env, runs: int = 20) -> float:
    """Median wall time of a bare `python -c pass`."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)
