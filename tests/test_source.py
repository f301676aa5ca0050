"""Properties of the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import quadpoint

from conftest import child_env

PACKAGE = Path(quadpoint.__file__).resolve().parent
# Modules a CLI process does not need at start-up: quadpoint.oracle (and the
# random module it uses) serves enumerate alone and is imported there.
NOT_AT_STARTUP = ("dataclasses", "inspect", "typing", "pathlib", "random", "quadpoint.oracle")


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


def test_no_environment_reads():
    """Behaviour depends on arguments and input alone: no module reads the
    process environment, so no variable can change a cap or an answer."""
    names = {"environ", "environb", "getenv", "getenvb"}
    assert not [f"{name}:{node.lineno}" for name, node in _nodes()
                if (isinstance(node, ast.Attribute) and node.attr in names)
                or (isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.alias) and node.name in names)]


def test_no_unused_imports():
    """Every name a module imports is used in it (the package's __init__,
    which imports to re-export, aside)."""
    imported, used = {}, set()
    for name, node in _nodes():
        if name == "__init__.py":
            continue
        if isinstance(node, ast.Name):
            used.add((name, node.id))
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module != "__future__"):
            for alias in node.names:
                imported[name, alias.asname or alias.name.split(".")[0]] = node.lineno
    assert not [f"{name}:{line} {alias}" for (name, alias), line in imported.items()
                if (name, alias) not in used]


def _loaded(imports, modules):
    """Which of the modules `import <imports>` loads.  The child runs with -S,
    so that no site hook has loaded them first."""
    code = (f"import sys, {imports}; "
            f"print(*(m for m in {modules!r} if m in sys.modules))")
    res = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=child_env(), timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    return res.stdout.split()


def test_cli_import_set():
    """import quadpoint.cli loads none of NOT_AT_STARTUP."""
    assert _loaded("quadpoint.cli", NOT_AT_STARTUP) == []


def test_enumerate_import_set():
    """enumerate, which also imports quadpoint.oracle, loads none of the
    standard-library modules in NOT_AT_STARTUP but random."""
    assert _loaded("quadpoint.cli, quadpoint.oracle",
                   ("dataclasses", "inspect", "typing", "pathlib")) == []


def test_caches_are_bounded():
    """Every lru_cache in the package has a finite maxsize, given as an int or
    as a module-level int constant: no cache grows without bound.  functools'
    unbounded cache is not used at all."""
    constants = {target.id: node.value.value for _, node in _nodes()
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}

    def name_of(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    caches, unbounded = 0, []
    for name, node in _nodes():
        if isinstance(node, ast.alias) and node.name == "cache" or name_of(node) == "cache":
            unbounded.append(f"{name}:{getattr(node, 'lineno', '?')} functools.cache")
        if not (isinstance(node, ast.Call) and name_of(node.func) == "lru_cache"):
            continue
        caches += 1
        size = next((k.value for k in node.keywords if k.arg == "maxsize"),
                    node.args[0] if node.args else ast.Constant(128))
        value = constants.get(size.id) if isinstance(size, ast.Name) else getattr(size, "value", None)
        if not (isinstance(value, int) and not isinstance(value, bool) and value > 0):
            unbounded.append(f"{name}:{node.lineno} maxsize {ast.unparse(size)}")
    assert caches and not unbounded


def _users(names):
    """The package modules that name any of the given names."""
    return {name for name, node in _nodes()
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and node.name in names)}


def test_private_names_have_users():
    """Every module-level private name (one leading underscore) of the package
    is named somewhere other than its definition: nothing is kept that no
    caller reaches."""
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, node.lineno, t.id)
                            for t in targets if isinstance(t, ast.Name)]
    named = set()
    for _, node in _nodes():
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert not [f"{name}:{line} {ident}" for name, line, ident in defined
                if ident.startswith("_") and not ident.startswith("__")
                and ident not in named]


def test_packed_block_stays_behind_gf2_and_orthogroup():
    """Only gf2 and orthogroup know the packed block; every other module
    turns a word into a matrix through gf2._product.  Only gf2 and quadform
    multiply rows by byte tables, and only the oracle referee evaluates g and
    B by its own polarization loops.  _transpose alone calls
    _transpose_block, the one kernel that needs a power-of-two stride."""
    block = {"_pack", "_unpack", "_flip", "_stride", "_identity_block", "_transpose_block",
             "_parities", "_ones"}
    assert _users(block) <= {"gf2.py", "orthogroup.py"}
    callers = {f"{name}:{func.name}" for name, func in _nodes()
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Name) and node.id == "_transpose_block"}
    assert callers == {"gf2.py:_transpose"}
    assert _users({"_tables", "_lookup"}) <= {"gf2.py", "quadform.py"}
    assert _users({"_bil_bits", "_evaluate_bits"}) <= {"oracle.py"}
