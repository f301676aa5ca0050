#!/usr/bin/env python3
"""Print every line of src/quadpoint that the test suite never runs.

Runs the tier-1 suite (``python -m pytest`` at the root of the checkout, no
cache, a fixed Hypothesis seed) under a sys.settrace line tracer.  A
sitecustomize.py on PYTHONPATH installs the tracer in the pytest process and
in every Python child that inherits the path (the CLI and script tests'
children); each process writes the lines it ran when it exits.  Children
started with -S skip sitecustomize and run untraced.  A code object is no
longer traced once all its lines have run.

The executable lines are those of the compiled code objects (co_lines), so a
docstring or a nonlocal statement, which runs no instruction, never counts.
Each unreached line is printed as ``file:line: text``, with the reason when
ALLOWED names it by its file and stripped text.  The exit status is 1 when
any other line is printed, or an allowed line ran, and the suite's own
status when it fails.  The suite's output goes to stderr.

Usage: python3 scripts/reach.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "quadpoint"

# (file, the line's stripped text) -> why no input reaches it.  Keyed by text, so
# an edit above the line leaves its key as it is.
ALLOWED = {
    ("orthogroup.py", 'raise ValueError("restoration failed to reach the identity")'):
        "fault guard: each push lowers rank(T + I), and each dead end costs two "
        "letters at a lower even rank, so a certified map ends within 2 dim pushes",
    ("orthogroup.py", 'raise ValueError("restoration found no escape from a dead end")'):
        "fault guard: at a certified map's dead end some solution v of the "
        "escape's system lies outside span(Fix(T), c), and were s0 and every "
        "s0 + k inside that span, every solution would be",
}

TRACER = '''\
import atexit, os, sys

_SRC, _OUT = os.environ["REACH_SRC"], os.environ["REACH_OUT"]
_todo = {}  # id of a code object -> (the code object, its lines not yet run)


def _lines(code):
    return {line for _, _, line in code.co_lines() if line}


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_SRC):
        return None
    entry = _todo.get(id(code))
    if entry is None:
        entry = _todo[id(code)] = (code, _lines(code))
    todo = entry[1]
    if not todo:
        return None

    def local(frame, event, arg):
        todo.discard(frame.f_lineno)
        return local if todo else None

    return local(frame, event, arg)


@atexit.register
def _write():
    sys.settrace(None)
    ran = {f"{code.co_filename}:{line}\\n"
           for code, todo in _todo.values() for line in _lines(code) - todo}
    with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "w") as out:
        out.writelines(ran)


sys.settrace(_global)
'''


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the file."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(TRACER)
        env = dict(os.environ, REACH_SRC=str(PACKAGE) + os.sep, REACH_OUT=str(out))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(SRC), env.get("PYTHONPATH")) if p)
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, stdout=sys.stderr)
        if suite.returncode:
            print(f"the suite failed (exit {suite.returncode}); no verdict")
            return suite.returncode
        ran = set()
        for record in out.iterdir():
            ran.update(record.read_text().splitlines())
    failed = False
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            key, reached = (path.name, text[line - 1].strip()), f"{path}:{line}" in ran
            shown = f"{path.name}:{line}: {key[1]}"
            if key in ALLOWED:
                print(f"{shown}  [allowed, yet reached]" if reached
                      else f"{shown}  [allowed: {ALLOWED[key]}]")
                failed |= reached
            elif not reached:
                print(shown)
                failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
