"""The domain contract of every public entry point that takes a form.

A form is non-degenerate by construction: QuadraticForm rejects a Gram of
rank below its dimension with ValueError("degenerate form"), and a
SurfacePinkallForm carries the standard Gram, which has full rank.  So no
entry point meets a degenerate form, and none checks again.  Every public
function, class and method of the package whose signature annotates a
parameter as a QuadraticForm or a SurfacePinkallForm is listed in
ENTRY_POINTS exactly once, with a call on a form.  A new public name that
takes a form fails test_every_form_entry_point_is_listed until it is listed.
REJECTIONS adds the other preconditions no other test breaks, each with the
exact message it raises.
"""

import importlib
import inspect
import pkgutil
import random
import re

import pytest

import quadpoint
from quadpoint import formats, mcg, oracle, orthogroup, quadform
from quadpoint.gf2 import BitMatrix, BitVector
from quadpoint.mcg import MappingClass, SurfacePinkallForm
from quadpoint.quadform import QuadraticForm, pullback, standard_form

from conftest import DEG3, DEG4, random_gram, rref

DEGENERATE = "degenerate form"


def _on_surface(call):
    """A call on a form, made through the surface that carries it."""
    return lambda f: call(SurfacePinkallForm(f.dim // 2, f))


# name: a call on a form f.
ENTRY_POINTS = {
    "quadform.arf": quadform.arf,
    "quadform.evaluate": lambda f: quadform.evaluate(f, BitVector.zero(f.dim)),
    "quadform.bilinear": lambda f: quadform.bilinear(f, BitVector.zero(f.dim),
                                                     BitVector.zero(f.dim)),
    "quadform.direct_sum": lambda f: quadform.direct_sum(f, f),
    "quadform.pullback": lambda f: quadform.pullback(f, BitMatrix.identity(f.dim)),
    "quadform.find_connector": lambda f: quadform.find_connector(
        f, [], BitVector(f.dim, 0b11), BitVector(f.dim, 0b11)),
    "orthogroup.transvection_matrix": lambda f: orthogroup.transvection_matrix(
        f, BitVector.basis(f.dim, 0)),
    "orthogroup.is_orthogonal": lambda f: orthogroup.is_orthogonal(f, BitMatrix.identity(f.dim)),
    "orthogroup.OrthogonalMap": lambda f: orthogroup.OrthogonalMap(f, BitMatrix.identity(f.dim)),
    "orthogroup.transvection": lambda f: orthogroup.transvection(f, BitVector.zero(f.dim)),
    "orthogroup.umap_partition": orthogroup.umap_partition,
    "orthogroup.canonical_umap": orthogroup.canonical_umap,
    "orthogroup.recompose": lambda f: orthogroup.recompose(f, 0, []),
    "orthogroup.enumerate_group": orthogroup.enumerate_group,
    "oracle.filter_full_linear_group": oracle.filter_full_linear_group,
    "oracle.democratic_arf": oracle.democratic_arf,
    "oracle.random_orthogonal": lambda f: oracle.random_orthogonal(f, 0, 1),
    "oracle.preserves_pairwise": lambda f: oracle.preserves_pairwise(
        f, BitMatrix.identity(f.dim).data),
    "formats.dump_form": formats.dump_form,
    "mcg.SurfacePinkallForm": _on_surface(lambda s: s),
    "mcg.evaluate_word": _on_surface(lambda s: mcg.evaluate_word(s, [])),
    "mcg.in_orthogonal_mcg": _on_surface(lambda s: mcg.in_orthogonal_mcg(
        s, MappingClass(BitMatrix.identity(2 * s.genus), 0))),
    "mcg.mapping_class_parity": _on_surface(lambda s: mcg.mapping_class_parity(
        s, MappingClass(BitMatrix.identity(2 * s.genus), 0))),
    "mcg.quadruple_point_invariant": _on_surface(lambda s: mcg.quadruple_point_invariant(
        s, MappingClass(BitMatrix.identity(2 * s.genus), 0))),
    "mcg.regularly_homotopic": _on_surface(lambda s: mcg.regularly_homotopic(s, s)),
    "mcg.equivalent_up_to_diffeomorphism": _on_surface(
        lambda s: mcg.equivalent_up_to_diffeomorphism(s, s)),
    "mcg.embedding_realizable": _on_surface(mcg.embedding_realizable),
}
# name: call on a form f with a vector or matrix of length n != f.dim, or a
# genus n too large, for the entry points that take one beside the form.
MISMATCHED = {
    "quadform.pullback": lambda f, n: quadform.pullback(f, BitMatrix.identity(n)),
    "quadform.find_connector": lambda f, n: quadform.find_connector(
        f, [], BitVector.basis(n, 0), BitVector.basis(n, 0)),
    "orthogroup.transvection_matrix": lambda f, n: orthogroup.transvection_matrix(
        f, BitVector.basis(n, 0)),
    "orthogroup.is_orthogonal": lambda f, n: orthogroup.is_orthogonal(f, BitMatrix.identity(n)),
    "orthogroup.OrthogonalMap": lambda f, n: orthogroup.OrthogonalMap(f, BitMatrix.identity(n)),
    "orthogroup.transvection": lambda f, n: orthogroup.transvection(f, BitVector.basis(n, 0)),
    "orthogroup.recompose": lambda f, n: orthogroup.recompose(f, 0, [BitVector.zero(n)]),
    "mcg.SurfacePinkallForm": lambda f, n: mcg.SurfacePinkallForm(f.dim // 2 + n, f),
}
FORM_TYPES = re.compile(r"\b(QuadraticForm|SurfacePinkallForm)\b")


def _takes_a_form(obj) -> bool:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # exception classes have no signature
        return False
    return any(FORM_TYPES.search(str(p.annotation)) for p in params)


def _form_entry_points():
    """module.name of every public function, class and class method of the
    package that annotates a parameter with a form type."""
    found = set()
    for info in pkgutil.iter_modules(quadpoint.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"quadpoint.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else ()
            for qualname, fn in [(name, obj), *((f"{name}.{attr}", member)
                                                for attr, member in members)]:
                fn = getattr(fn, "__func__", fn)  # classmethods
                if not qualname.rpartition(".")[2].startswith("_") and callable(fn) \
                        and _takes_a_form(fn):
                    found.add(f"{info.name}.{qualname}")
    return found


def test_every_form_entry_point_is_listed():
    assert _form_entry_points() == ENTRY_POINTS.keys()


def test_entry_point_calls_run():
    """Each listed call runs on a form: the genus-2 Arf-0 standard form, on
    which the swap exists, or for the full-linear-group scan genus 1."""
    for name, call in ENTRY_POINTS.items():
        call(standard_form(1 if name == "oracle.filter_full_linear_group" else 2, 0))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_degenerate_forms(name):
    """The call never runs on DEG3 or DEG4: the form it would take raises
    ValueError("degenerate form") at construction."""
    for data in (DEG3, DEG4):
        with pytest.raises(ValueError, match=f"^{DEGENERATE}$"):
            ENTRY_POINTS[name](QuadraticForm(*data))


def _random_form_data(rng, dim, degenerate):
    """The data (dim, gram, basis values) of a seeded random form of this
    dimension whose Gram has rank below dim (degenerate) or equal to it."""
    while True:
        gram = random_gram(rng, dim)
        if (len(rref(gram, dim)[1]) < dim) == degenerate:
            return dim, BitMatrix(dim, dim, tuple(gram)), BitVector(dim, rng.getrandbits(dim))


def test_contract_holds_on_seeded_inputs():
    """Beyond DEG3 and DEG4: random degenerate forms of dimensions 1-10, odd
    ones included, raise "degenerate form" at construction; and vectors,
    matrices or genera of a mismatched size beside non-degenerate forms
    raise ValueError (DimensionGuardError is one): a call never returns a
    result and never raises another exception."""
    assert MISMATCHED.keys() <= ENTRY_POINTS.keys()
    rng = random.Random(59)
    calls = []
    for _ in range(150):
        dim = rng.randint(1, 10)
        data = _random_form_data(rng, dim, degenerate=True)
        with pytest.raises(ValueError, match=f"^{DEGENERATE}$"):
            QuadraticForm(*data)
        g = QuadraticForm(*_random_form_data(rng, 2 * rng.randint(0, 4), degenerate=False))
        # Once the size of the degenerate form's mismatched calls: drawn still,
        # so that every later draw stays the same.
        rng.choice([k for k in range(1, 11) if k != dim])
        n = rng.choice([k for k in range(1, 11) if k != g.dim])
        calls += [(name, g, lambda call=call, g=g, n=n: call(g, n))
                  for name, call in MISMATCHED.items()]
    for name, f, call in calls:
        try:
            result = call()
        except ValueError:
            continue
        pytest.fail(f"{name} returned {result!r} on {f!r}")


S10 = SurfacePinkallForm.standard(1, 0)
# name: (a call that breaks one precondition, the exact message it raises).
REJECTIONS = {
    "rank_parity non-square": (
        lambda: orthogroup.rank_parity(BitMatrix.zero(2, 3)), "square matrix required"),
    "equivalent genus mismatch": (
        lambda: mcg.equivalent_up_to_diffeomorphism(S10, SurfacePinkallForm.standard(2, 0)),
        "genus mismatch"),
    "evaluate_word unknown token": (
        lambda: mcg.evaluate_word(S10, [mcg.Token("spin")]), "unknown token kind: spin"),
    "in_orthogonal_mcg dimension": (
        lambda: mcg.in_orthogonal_mcg(S10, MappingClass(BitMatrix.identity(4), 0)),
        "dimension mismatch"),
    "standard_form genus 0 arf 1": (
        lambda: standard_form(0, 1), "genus 0 only carries the trivial form"),
    "QuadraticForm gram shape": (
        lambda: QuadraticForm(2, BitMatrix.zero(2, 3), BitVector.zero(2)),
        "Gram matrix does not match the dimension"),
    "QuadraticForm basis length": (
        lambda: QuadraticForm(2, BitMatrix.zero(2, 2), BitVector.zero(3)),
        "basis value vector does not match the dimension"),
    "QuadraticForm gram diagonal": (
        lambda: QuadraticForm(2, BitMatrix.identity(2), BitVector.zero(2)),
        "Gram diagonal must vanish (row 0)"),
    "QuadraticForm gram asymmetric": (
        lambda: QuadraticForm(2, BitMatrix(2, 2, (0b10, 0)), BitVector.zero(2)),
        "Gram matrix must be symmetric"),
    "pullback shape": (
        lambda: pullback(standard_form(1, 0), BitMatrix.identity(4)),
        "change of basis must be square of matching dimension"),
    "transvection g(a) = 0": (
        lambda: orthogroup.transvection(standard_form(1, 0), BitVector.basis(2, 0)),
        "transvection vector must satisfy g(a) = 1 or a = 0"),
    "bilinear length": (
        lambda: quadform.bilinear(standard_form(1, 0), BitVector.zero(3), BitVector.zero(2)),
        "length mismatch"),
    "BitVector negative length": (lambda: BitVector(-1, 0), "length must be non-negative"),
    "BitVector.basis index": (
        lambda: BitVector.basis(3, 3), "basis index 3 out of range for length 3"),
    "BitVector xor length": (lambda: BitVector.zero(2) ^ BitVector.zero(3), "length mismatch"),
    "BitMatrix negative rows": (
        lambda: BitMatrix(-1, 2, ()), "matrix dimensions must be non-negative"),
    "BitMatrix row count": (lambda: BitMatrix(2, 2, (0,)), "row count does not match data"),
    "BitMatrix.apply length": (
        lambda: BitMatrix.identity(2).apply(BitVector.zero(3)), "length mismatch"),
    "BitMatrix xor shape": (
        lambda: BitMatrix.identity(2) ^ BitMatrix.zero(2, 3), "shape mismatch"),
    "random_orthogonal dimension 0": (
        lambda: oracle.random_orthogonal(standard_form(0, 0), 1, 1),
        "the zero-dimensional form has no g=1 vectors"),
    "umap_partition dimension": (
        lambda: orthogroup.umap_partition(standard_form(1, 0)),
        "the partition exists only in dimension 4"),
    "canonical_umap dimension": (
        lambda: orthogroup.canonical_umap(standard_form(1, 0)),
        "the partition exists only in dimension 4"),
    "SurfacePinkallForm dimension": (
        lambda: SurfacePinkallForm(2, standard_form(1, 0)),
        "form dimension must be twice the genus"),
    "SurfacePinkallForm gram": (  # the standard form with e_1 and e_2 swapped
        lambda: SurfacePinkallForm(2, pullback(standard_form(2, 0), BitMatrix(
            4, 4, (0b0001, 0b0100, 0b0010, 0b1000)))),
        "Gram matrix must be the standard intersection form"),
    "MappingClass epsilon float": (
        lambda: MappingClass(BitMatrix.identity(2), 1.0), "epsilon must be 0 or 1"),
    "MappingClass odd dimension": (
        lambda: MappingClass(BitMatrix.identity(3), 0), "action must be square of even dimension"),
    "connected_sum epsilon": (
        lambda: mcg.connected_sum(MappingClass(BitMatrix.identity(2), 0),
                                  MappingClass(BitMatrix.identity(2), 1)),
        "epsilon mismatch"),
    "orthogonal_group_order odd dimension": (
        lambda: oracle.orthogonal_group_order(3, 0), "dimension must be even and non-negative"),
    "BitVector.from_string digit": (
        lambda: BitVector.from_string("012"), "not a bit string: '012'"),
    "standard_form arf float": (lambda: standard_form(1, 1.0), "arf_value must be 0 or 1"),
    "genus1_generators arf float": (
        lambda: mcg.genus1_generators(1.0), "arf_value must be 0 or 1"),
    "orthogonal_group_order arf float": (
        lambda: oracle.orthogonal_group_order(2, 1.0), "arf_value must be 0 or 1"),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejections_name_their_precondition(name):
    """Each broken precondition raises ValueError with exactly its message."""
    call, message = REJECTIONS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
