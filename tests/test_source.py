"""Properties of the package source itself."""

import ast
from pathlib import Path

import quadpoint

PACKAGE = Path(quadpoint.__file__).resolve().parent


def test_no_assert_statements():
    """Control flow must not depend on assert, which python -O strips."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
