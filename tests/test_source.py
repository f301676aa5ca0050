"""Properties of the package source itself."""

import ast
from pathlib import Path

import quadpoint

PACKAGE = Path(quadpoint.__file__).resolve().parent


def _nodes():
    """(file name, node) for every AST node of the package source."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements():
    """Control flow must not depend on assert, which python -O strips."""
    assert not [f"{name}:{node.lineno}" for name, node in _nodes()
                if isinstance(node, ast.Assert)]


def test_next_calls_pass_a_default():
    """An exhausted next() without a default raises StopIteration, which is not
    a ValueError: it would escape the CLI's error contract as a traceback."""
    assert not [f"{name}:{node.lineno}" for name, node in _nodes()
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "next" and len(node.args) < 2]
