"""benchmark/tracer.py still installs against the package: the functions it
wraps, the form cache it reads, the GroupTable it spans through oracle and
the construction hooks it counts all exist."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]

# Run in a child: install() rebinds module attributes for good.
CHILD = """\
import json, sys
sys.path.insert(0, "benchmark")
from tracer import Tracer
import quadpoint.cli
tracer = Tracer()
tracer.install()
code = quadpoint.cli.main(["arf", "--form", "tests/data/form_g1a0.txt"])
spans = sorted({tracer.names[i] for i in tracer.name_ids})
print(json.dumps([code, tracer.cache_info(), dict(tracer.counts), spans]))
"""


def test_tracer_installs_and_counts():
    """One traced `arf` run: the answer, arf's one cache entry, the parsed
    Gram counted as a BitMatrix construction, and a span per layer."""
    res = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    answer, record = res.stdout.splitlines()
    code, cache_info, counts, spans = json.loads(record)
    assert (answer, code) == ("arf 0", 0)
    assert cache_info == [0, 1]
    assert counts["gf2.BitMatrix.new"] >= 1
    assert {"cli.main", "formats.parse_form", "quadform.arf"} <= set(spans)
