"""quadpoint benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the workload imports quadpoint from the
checkout's ``src/``.  With ``--trace 0`` the run's operations are split
into SHARES shares, each set up and measured in a fresh interpreter, one
after another; the metrics pool the shares' operations, and ``setup_s`` is
the median of the shares' set-up times.  Spreading the measured phases
over the whole run averages over more of the machine's speed swings than
one long phase at the end would.  With ``--trace 1`` the first half of the
run's operations runs in one untraced and one traced process, so the run
lasts about as long as a ``--trace 0`` run; the traced one gives the
per-layer figures and the difference between the two is the tracing
overhead.  Every process is started and waited for one at a time.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# The number of shares a --trace 0 run is split into.  Each share sets up
# once, so setup_s is a median over this many set-ups.
SHARES = 6
WORKLOADS = ("decompose_large", "cli_oneshot")
DEADLINE_S = 170  # a run that is not done by then is killed and reported as an error

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "word_len": "transvections",
}

PER_LAYER = {
    "gf2.multiply.calls": "count",
    "gf2.multiply.self_ms": "ms",
    "gf2.rank.calls": "count",
    "gf2.rank.self_ms": "ms",
    "gf2.solve.calls": "count",
    "gf2.solve.self_ms": "ms",
    "gf2.kernel_basis.calls": "count",
    "gf2.kernel_basis.self_ms": "ms",
    "gf2.BitMatrix.new": "count",
    "quadform.find_connector.calls": "count",
    "quadform.find_connector.self_ms": "ms",
    "quadform.symplectic_basis.self_ms": "ms",
    "quadform.cache_hits": "count",
    "quadform.cache_entries": "count",
    "orthogroup.is_orthogonal.calls": "count",
    "orthogroup.is_orthogonal.self_ms": "ms",
    "orthogroup.decompose.self_ms": "ms",
    "orthogroup.recompose.self_ms": "ms",
    "orthogroup.transvection_matrix.calls": "count",
    "orthogroup.word_excess": "transvections",
    "orthogroup.enumerate_group.self_ms": "ms",
    "oracle.GroupTable.self_ms": "ms",
    "mcg.evaluate_word.self_ms": "ms",
    "mcg.quadruple_point_invariant.self_ms": "ms",
    "mcg.MappingClass.new": "count",
    "formats.parse.self_ms": "ms",
    "formats.dump.self_ms": "ms",
    "cli.interp_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
}
PER_LAYER.update({f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()})


class RunError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: int, mode: str, shard: int, shards: int,
               deadline: float) -> tuple[float, dict]:
    """Start one worker and wait for it: (set-up seconds, raw measurements).

    Set-up is timed from just before the process starts to its ``ready``
    line, so it covers interpreter start, imports and input generation.
    """
    env = dict(os.environ)
    env.pop("ARF_ENGINE_MAX_DIM", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), str(seconds), mode,
         str(shard), str(shards)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready != "ready\n" or code != 0:
        raise RunError(f"{mode} worker {shard} for {workload} exited with code {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def summarize(setups: list[float], results: list[dict]) -> dict:
    """End-to-end figures of the operations pooled over results."""
    latencies = [t for r in results for t in r["latencies_ms"]]
    lengths = [n for r in results for n in r["word_lengths"]]
    return {
        "attempted": len(latencies),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
        "ops_per_s": len(latencies) / (sum(latencies) / 1000),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "word_len": statistics.fmean(lengths) if lengths else 0.0,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    runs = [run_worker(workload, seed, seconds, "run", shard, SHARES, deadline)
            for shard in range(SHARES)]
    summary = summarize([s for s, _ in runs], [r for _, r in runs])
    summary["metrics"] = {name: _metric(summary[name], unit) for name, unit in END_TO_END.items()}
    return summary


def trace(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    base_setup, base = run_worker(workload, seed, seconds, "run", 0, 2, deadline)
    traced_setup, traced = run_worker(workload, seed, seconds, "trace", 0, 2, deadline)
    base_summary = summarize([base_setup], [base])
    summary = summarize([traced_setup], [traced])
    metrics = {name: _metric(traced["layers"][name], PER_LAYER[name])
               for name in PER_LAYER if not name.startswith("trace.")}
    for name, unit in END_TO_END.items():
        metrics[f"trace.overhead.{name}"] = _metric(summary[name] - base_summary[name], unit)
    summary["metrics"] = metrics
    summary["correct"] = summary["correct"] and base_summary["correct"]
    summary["problems"] += base_summary["problems"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quadpoint" / "__init__.py").is_file():
        print(f"error: no quadpoint sources under {ROOT / 'src'}; "
              "run from the root of a quadpoint checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = (trace if args.trace else measure)(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"wrong: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
