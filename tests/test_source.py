"""Properties of the package source itself."""

import ast
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import quadpoint

from conftest import child_env

PACKAGE = Path(quadpoint.__file__).resolve().parent
# Modules a CLI process does not load: quadpoint.oracle (and the random module
# it uses) is the referee, which no package module imports, and the command
# line is read by the table in quadpoint.cli, not by argparse (which loads
# gettext and, on its first parser, locale).
NOT_AT_STARTUP = ("dataclasses", "inspect", "typing", "pathlib", "argparse", "gettext", "locale",
                  "random", "quadpoint.oracle")


@lru_cache(maxsize=1)
def _trees():
    """(file name, module tree) for every module of the package, parsed once
    for the whole file: the tests read the trees and change none."""
    return tuple((path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
                 for path in sorted(PACKAGE.glob("*.py")))


def _nodes():
    """(file name, node) for every AST node of the package source."""
    for name, tree in _trees():
        for node in ast.walk(tree):
            yield name, node


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


def _loaded(imports, modules, then=""):
    """Which of the modules `import <imports>` loads, after the statement
    then, if given, has run.  The child runs with -S, so that no site hook
    has loaded them first."""
    code = (f"import sys, {imports}\n{then}\n"
            f"print(*(m for m in {modules!r} if m in sys.modules))")
    res = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=child_env(), timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    return res.stdout.split()


def test_cli_import_set():
    """import quadpoint.cli loads none of NOT_AT_STARTUP."""
    assert _loaded("quadpoint.cli", NOT_AT_STARTUP) == []


def test_cli_run_import_set():
    """A whole command, read by the grammar table, loads none of
    NOT_AT_STARTUP nor _locale: the child prints the command's line alone."""
    form = Path(__file__).parent / "data" / "form_g1a0.txt"
    run = f"quadpoint.cli.main(['arf', '--form', {str(form)!r}])"
    assert _loaded("quadpoint.cli", NOT_AT_STARTUP + ("_locale",), run) == ["arf", "0"]


def test_enumerate_import_set():
    """enumerate prints its table, sorted with each element's rank parity,
    and loads none of NOT_AT_STARTUP: neither quadpoint.oracle nor random."""
    tests = Path(__file__).parent
    form = tests / "data" / "form_g1a1.txt"
    run = f"quadpoint.cli.main(['enumerate', '--form', {str(form)!r}])"
    golden = (tests / "golden" / "enumerate_g1a1.txt").read_text(encoding="utf-8")
    assert _loaded("quadpoint.cli", NOT_AT_STARTUP, run) == golden.split()


def test_no_module_imports_the_oracle():
    """The referee stays outside what it referees: no package module imports
    quadpoint.oracle, whether as from .oracle import ..., from . import
    oracle or import quadpoint.oracle."""
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("oracle" in path.split(".") for path in paths):
            found.append(f"{name}:{node.lineno}")
    assert not found


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


def test_one_cache_per_fact():
    """The lru_cache functions of the package are exactly these, each with
    its literal maxsize: in gf2 the transpose masks, 16; per form the
    tables, one matrix's columns and the Arf invariant, each keeping the
    latest form.  The repunits and the dimension-4 partition are computed
    afresh.  No wrapper caches a fact that one of them already holds,
    nothing is cached per Gram, and no module reaches past a cache through
    __wrapped__."""
    cached = {f"{name[:-3]}.{node.name}": ast.unparse(d) for name, node in _nodes()
              if isinstance(node, ast.FunctionDef)
              for d in node.decorator_list if "lru_cache" in ast.unparse(d)}
    assert cached == {"gf2._transpose_masks": "lru_cache(maxsize=16)",
                      "quadform._images": "lru_cache(maxsize=1)",
                      "quadform._columns": "lru_cache(maxsize=1)",
                      "quadform.arf": "lru_cache(maxsize=1)"}
    assert not _users({"__wrapped__"})


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
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, node.lineno, t.id)
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


def test_non_degeneracy_is_certified_at_construction():
    """QuadraticForm.__init__ checks the Gram's rank once: no module names
    _require_nondegenerate, and the greedy symplectic pairs serve the Arf
    invariant alone: quadform.arf is the one caller of _symplectic_pairs."""
    assert "quadform.py:QuadraticForm.__init__" in _callers("rank_rows")
    assert not _users({"_require_nondegenerate"})
    assert _users({"_symplectic_pairs"}) == {"quadform.py"}
    assert set(_callers("_symplectic_pairs")) == {"quadform.py:arf"}


def test_surfaces_read_arf_off_their_standard_pairs():
    """A surface's Gram is the standard one, whose symplectic pairs are
    (e_2i, e_2i+1): mcg reads the Arf invariant off them and names neither
    quadform.arf nor the reduction _symplectic_pairs."""
    assert "mcg.py" not in _users({"arf", "_symplectic_pairs"})


def test_arf_is_called_where_it_decides():
    """The engine reads Arf at dimensions 2 and 4 off the count of
    quadform._g_ones, which umap_partition and enumerate_group list through,
    and decompose and find_connector count: no package function but the arf
    command names arf, and orthogroup does not import it."""
    assert set(_callers("arf")) == {"cli.py:_cmd_arf"}
    assert set(_callers("_g_ones")) == {
        "quadform.py:find_connector", "orthogroup.py:umap_partition",
        "orthogroup.py:decompose", "orthogroup.py:enumerate_group"}
    assert "orthogroup.py" not in _users({"arf"})


def test_mcg_certifies_each_half_once():
    """MappingClass proves m^T J m = J itself and in_orthogonal_mcg reads only
    the g half off _columns: mcg never names the form-level certificate."""
    users = _users({"_pullback_bits"})
    assert users and "mcg.py" not in users


def _callers(name):
    """{"module:function": [its calls of name]} for every module-level function
    or Class.method of the package that names name, bare or through its
    module (quadform.name)."""
    modules = {module[:-3] for module, _ in _trees()}
    callers = {}
    for module, tree in _trees():
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                funcs = [(f"{top.name}.{f.name}", f) for f in top.body
                         if isinstance(f, ast.FunctionDef)]
            elif isinstance(top, ast.FunctionDef):
                funcs = [(top.name, top)]
            else:
                continue
            for qualname, func in funcs:
                refs = [node for node in ast.walk(func)
                        if (isinstance(node, ast.Name) and node.id == name)
                        or (isinstance(node, ast.Attribute) and node.attr == name
                            and isinstance(node.value, ast.Name) and node.value.id in modules)]
                if refs:
                    callers[f"{module}:{qualname}"] = [
                        node for node in ast.walk(func)
                        if isinstance(node, ast.Call) and node.func in refs]
    return callers


def test_rank_counts_the_echelon_rows():
    """gf2 eliminates in one loop: rank_rows counts the rows of _echelon's
    forward pass, which _solution back-substitutes."""
    assert _callers("_echelon").get("gf2.py:rank_rows")


def test_packed_block_stays_behind_gf2_and_orthogroup():
    """Only gf2 and orthogroup know the packed block; every other module
    turns a word into a matrix through gf2._product and multiplies a matrix
    it multiplies once through the rows-level block product gf2._mul_rows,
    as multiply and _pullback_bits alone do.  Byte tables serve only the
    form's _images, where one row set serves many lookups, and only the
    oracle referee evaluates g and B by its own polarization loops.
    _transpose alone calls _transpose_block, the one kernel that needs a
    power-of-two stride.

    Word products have one orientation: _product and enumerate_group alone
    call _flip, each as _flip(block, add, sel, ...), which right-multiplies
    a row block by the step (sel, add).  No product transposes: _transpose
    serves BitMatrix.transpose, the Gram's symmetry check, the columns of m
    that _columns keeps for the pullback and the restoration, and the
    restoration's transpose of H alone; the restoration reads Fix(T) and
    tests the escape's candidates off H, and masks its diagonal with the
    identity block."""
    block = {"_pack", "_unpack", "_flip", "_stride", "_transpose_block", "_parities", "_ones",
             "_fold"}
    assert _users(block) <= {"gf2.py", "orthogroup.py"}
    assert set(_callers("_mul_rows")) == {"gf2.py:multiply", "quadform.py:_pullback_bits"}
    assert set(_callers("_tables")) == set(_callers("_lookup")) == {"quadform.py:_images"}
    assert set(_callers("_transpose_block")) == {"gf2.py:_transpose"}
    flips = _callers("_flip")
    assert set(flips) == {"gf2.py:_product", "orthogroup.py:enumerate_group"}
    assert {ast.unparse(call.args[1]) + ", " + ast.unparse(call.args[2])
            for found in flips.values() for call in found} == {"add, sel"}
    assert set(_callers("_transpose")) == {
        "gf2.py:BitMatrix.transpose", "quadform.py:QuadraticForm.__init__",
        "quadform.py:_columns", "orthogroup.py:_restoration_word"}
    assert not _users({"diagonal"})
    assert _users({"_tables", "_lookup"}) <= {"gf2.py", "quadform.py"}
    assert _users({"_bil_bits", "_evaluate_bits"}) <= {"oracle.py"}
