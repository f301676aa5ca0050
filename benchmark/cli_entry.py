"""Traced stand-in for ``python -m quadpoint``.

Usage: ``python cli_entry.py TRACE_PATH [quadpoint arguments...]``

Times ``import quadpoint.cli``, installs the tracer's wrappers, calls
``quadpoint.cli.main`` with the remaining arguments, writes the spans to
TRACE_PATH and exits with main's return code.
"""

import sys
import time
from pathlib import Path

from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import quadpoint.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1000
tracer = Tracer()
tracer.install()
code = quadpoint.cli.main(sys.argv[2:])
sys.stdout.flush()
per_name, _ = tracer.totals(("gf2.rank", "gf2.rank_rows"))
hits, entries = tracer.cache_info()
tracer.dump(sys.argv[1], extra={
    "import_ms": import_ms,
    "main_self_ms": per_name["cli.main"][1] / 1e6,
    "cache_hits": hits,
    "cache_entries": entries,
})
sys.exit(code)
