"""Test set-up for the benchmark's own tests: ``python3 -m pytest benchmark``.

The benchmark modules import each other by plain name and quadpoint from
the checkout's ``src/``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
