"""One workload process: set up, report readiness, run its share of the operations.

Usage: ``python worker.py WORKLOAD SEED SECONDS MODE SHARD SHARDS``.  MODE
is ``run``, or ``trace`` to wrap every public quadpoint function (spans go
to ``.bench_out/``).  The run's operations are split into SHARDS equal
shares of whole rounds; this process builds the inputs of share SHARD only
and runs them.

The worker prints ``ready`` once set-up is done, so the parent can time
set-up from process start, and at the end one JSON line with the raw
measurements.  A closed loop with one caller: operation i + 1 starts when
operation i has returned and been checked.  Only the operation is timed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_quadpoint() -> None:
    """Import the checkout's quadpoint, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadpoint

    if Path(quadpoint.__file__).resolve().parent != SRC / "quadpoint":
        raise SystemExit(f"imported quadpoint from {quadpoint.__file__}, not from {SRC}")


def share(cls, seconds: int, shard: int, shards: int) -> range:
    """The operation indices of one share of a run.

    A run does a fixed number of operations: ops_per_second for each
    second of --seconds, never fewer than 100, in whole rounds of
    round_size that split evenly into the shares.  ops_per_second is set so
    that the measured phases last about --seconds at the speed of the code
    the benchmark was written for.  The count does not follow the speed of
    the code under test, so every run of a seed does the same work, and
    peak_rss_mb (which grows with each form decomposed) compares.
    """
    rounds = -(-max(100, seconds * cls.ops_per_second) // cls.round_size)
    rounds = -(-rounds // shards) * shards
    per_share = rounds // shards * cls.round_size
    return range(shard * per_share, (shard + 1) * per_share)


def make_workload(name: str, seed: int, seconds: int, shard: int, shards: int, trace: bool):
    if name == "cli_oneshot":
        from cli_oneshot import CliOneshot

        OUT.mkdir(exist_ok=True)
        return CliOneshot(seed, share(CliOneshot, seconds, shard, shards), OUT, trace=trace)
    _import_quadpoint()
    from inproc import WORKLOADS

    cls = WORKLOADS[name]
    return cls(seed, share(cls, seconds, shard, shards))


def run_loop(workload, n_ops: int, absorb=None) -> dict:
    """Run and check every operation; return the raw measurements."""
    latencies_ms = []
    failed = wrong = 0
    problems = []
    for i in range(n_ops):
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception as exc:  # an operation that raises is failed, the run goes on
            latencies_ms.append((time.perf_counter() - t0) * 1000)
            failed += 1
            problems.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        latencies_ms.append((time.perf_counter() - t0) * 1000)
        if absorb is not None:
            absorb()
        try:
            problem = workload.check(i, out)
        except Exception as exc:  # output the checker cannot read is wrong
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            wrong += 1
            problems.append(f"op {i}: {problem}")
    run_problem = workload.finish()
    if run_problem is not None:
        problems.append(run_problem)
    return {
        "latencies_ms": latencies_ms,
        "failed": failed,
        "correct": wrong == 0 and run_problem is None,
        "problems": problems[:10],
        "word_lengths": workload.word_lengths,
        "excess": workload.excess,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    shard, shards = int(argv[4]), int(argv[5])
    cli = name == "cli_oneshot"
    tracer = None
    if mode == "trace":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        if not cli:  # CLI children install their own tracer
            _import_quadpoint()
            tracer.install()
    workload = make_workload(name, seed, seconds, shard, shards, tracer is not None)
    try:
        print("ready", flush=True)
        absorb = None
        if tracer is not None and cli:
            def absorb():
                workload.child_extras.append(tracer.absorb(workload.dir / "child.trace"))

        result = run_loop(workload, len(workload.items), absorb)
        result["peak_rss_mb"] = workload.peak_rss_mb()
        if tracer is not None:
            floor = 0.0
            if cli:
                from cli_oneshot import interp_floor_ms

                floor = interp_floor_ms(workload.env)
            excess = statistics.fmean(workload.excess) if workload.excess else 0.0
            result["layers"] = layer_metrics(tracer, workload.child_extras if cli else None,
                                             floor, excess)
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace_{name}_{seed}.spans", extra={"layers": result["layers"]})
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
