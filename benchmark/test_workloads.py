"""Each workload passes the program's real answers and counts a wrong one as
failed; the runner agrees with BENCHMARK.json and refuses a tree without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inproc
import run
import worker
from cli_oneshot import COMMANDS, CliOneshot
from quadpoint import orthogroup


def dropping_last(decompose):
    def wrong(t):
        u_flag, word = decompose(t)
        return u_flag, word[:-1]
    return wrong


def test_decompose_large(monkeypatch):
    workload = inproc.DecomposeLarge(3, range(2))
    assert worker.run_loop(workload, 2)["failed"] == 0
    monkeypatch.setattr(orthogroup, "decompose", dropping_last(orthogroup.decompose))
    assert worker.run_loop(workload, 2)["failed"] == 2


def tamper(name, out):
    """A wrong answer for each subcommand: a flipped bit, a dropped line or
    the wrong exit code."""
    rc, stdout, stderr = out
    lines = stdout.splitlines()
    if name == "decompose":
        lines = lines[:-1] if len(lines) > 1 else lines + [lines[-1]]
    elif name == "verify_fail":
        return 0, stdout, stderr
    elif name == "enumerate":
        lines[1] = lines[1][:-1] + "10"[int(lines[1][-1])]
    else:
        lines[-1] = lines[-1][:-1] + {"0": "1", "1": "0", "e": "t"}.get(lines[-1][-1], "?")
    return rc, "\n".join(lines) + "\n", stderr


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    workload = CliOneshot(5, range(len(COMMANDS)), tmp_path_factory.mktemp("cli"))
    outputs = [workload.run(i) for i in range(len(COMMANDS))]
    yield workload, outputs
    workload.close()


def test_cli_real_answers_pass(cli_round):
    workload, outputs = cli_round
    for i, out in enumerate(outputs):
        assert workload.check(i, out) is None, (COMMANDS[i], out)


@pytest.mark.parametrize("i", range(len(COMMANDS)), ids=COMMANDS)
def test_cli_counts_a_wrong_answer(cli_round, i):
    workload, outputs = cli_round
    assert workload.check(i, tamper(COMMANDS[i], outputs[i])) is not None


def test_cli_run_loop_counts_failures(cli_round, monkeypatch):
    workload, outputs = cli_round
    monkeypatch.setattr(workload, "run", lambda i: tamper(COMMANDS[i], outputs[i]))
    result = worker.run_loop(workload, len(COMMANDS))
    assert (result["failed"], result["correct"]) == (len(COMMANDS), False)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "cli_oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_shares_split_whole_rounds():
    for cls in (*inproc.WORKLOADS.values(), CliOneshot):
        shares = [worker.share(cls, 50, k, run.SHARES) for k in range(run.SHARES)]
        assert shares[0].start == 0 and all(a.stop == b.start for a, b in zip(shares, shares[1:]))
        assert len({len(r) for r in shares}) == 1 and len(shares[0]) % cls.round_size == 0
        assert shares[-1].stop >= 100


def test_a_share_builds_the_same_inputs_as_the_whole_run():
    whole = inproc.DecomposeLarge(4, range(4))
    part = inproc.DecomposeLarge(4, range(2, 4))
    assert [m for _, _, _, m in whole.items[2:]] == [m for _, _, _, m in part.items]
