"""The domain contract of every public entry point that takes a form.

Every public function, class and method of the package whose signature
annotates a parameter as a QuadraticForm or a SurfacePinkallForm is listed
here exactly once: either it rejects a degenerate form with the ValueError
named below, or it is form-agnostic, for the reason given.  A new public
name that takes a form fails test_every_form_entry_point_is_listed until it
is listed.  REJECTIONS adds the other preconditions no other test breaks,
each with the exact message it raises.
"""

import importlib
import inspect
import pkgutil
import random
import re

import pytest

import quadpoint
from quadpoint import mcg, oracle, orthogroup, quadform
from quadpoint.gf2 import BitMatrix, BitVector
from quadpoint.mcg import MappingClass, SurfacePinkallForm
from quadpoint.quadform import QuadraticForm, standard_form

from conftest import DEG3, DEG4, random_gram, rref

DEGENERATE = "degenerate form"

# name: (call on a degenerate form f, the message for DEG3, for DEG4).
REJECTS = {
    "quadform.arf": (quadform.arf, DEGENERATE, DEGENERATE),
    "quadform.pullback": (lambda f: quadform.pullback(f, BitMatrix.identity(f.dim)),
                          DEGENERATE, DEGENERATE),
    "quadform.find_connector": (
        lambda f: quadform.find_connector(f, [], BitVector.basis(f.dim, 0),
                                          BitVector.basis(f.dim, 0)),
        DEGENERATE, DEGENERATE),
    "orthogroup.transvection_matrix": (
        lambda f: orthogroup.transvection_matrix(f, BitVector.basis(f.dim, 0)),
        DEGENERATE, DEGENERATE),
    "orthogroup.is_orthogonal": (
        lambda f: orthogroup.is_orthogonal(f, BitMatrix.identity(f.dim)),
        DEGENERATE, DEGENERATE),
    "orthogroup.OrthogonalMap": (
        lambda f: orthogroup.OrthogonalMap(f, BitMatrix.identity(f.dim)),
        DEGENERATE, DEGENERATE),
    "orthogroup.transvection": (
        lambda f: orthogroup.transvection(f, BitVector.zero(f.dim)), DEGENERATE, DEGENERATE),
    "orthogroup.umap_partition": (orthogroup.umap_partition,
                                  "the partition exists only in dimension 4", DEGENERATE),
    "orthogroup.canonical_umap": (orthogroup.canonical_umap,
                                  "the partition exists only in dimension 4", DEGENERATE),
    "orthogroup.recompose": (lambda f: orthogroup.recompose(f, 0, []), DEGENERATE, DEGENERATE),
    "orthogroup.enumerate_group": (orthogroup.enumerate_group, DEGENERATE, DEGENERATE),
    "mcg.SurfacePinkallForm": (lambda f: mcg.SurfacePinkallForm(f.dim // 2, f),
                               "form dimension must be twice the genus",
                               "Gram matrix must be the standard intersection form"),
    "oracle.filter_full_linear_group": (oracle.filter_full_linear_group,
                                        DEGENERATE, DEGENERATE),
    "oracle.democratic_arf": (oracle.democratic_arf, DEGENERATE, DEGENERATE),
    "oracle.random_orthogonal": (lambda f: oracle.random_orthogonal(f, 0, 1),
                                 DEGENERATE, DEGENERATE),
}
# name: call on a form f with a vector or matrix of length n != f.dim, or a
# genus n too large, for the REJECTS entry points that take one beside the form.
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
SURFACE = "its SurfacePinkallForm carries the standard Gram, which is non-degenerate"
FORM_AGNOSTIC = {
    "quadform.evaluate": "reads g at one vector, by polarization over any Gram",
    "quadform.bilinear": "reads B at one pair of vectors, for any Gram",
    "quadform.direct_sum": "joins two forms block-diagonally, degenerate or not",
    "oracle.preserves_pairwise": "the referee checks the definition, for any form",
    "formats.dump_form": "writes any form the text format can hold",
    "mcg.evaluate_word": SURFACE,
    "mcg.in_orthogonal_mcg": SURFACE,
    "mcg.mapping_class_parity": SURFACE,
    "mcg.quadruple_point_invariant": SURFACE,
    "mcg.regularly_homotopic": SURFACE,
    "mcg.equivalent_up_to_diffeomorphism": SURFACE,
    "mcg.embedding_realizable": SURFACE,
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
    assert not REJECTS.keys() & FORM_AGNOSTIC.keys()
    assert _form_entry_points() == REJECTS.keys() | FORM_AGNOSTIC.keys()


@pytest.mark.parametrize("name", sorted(REJECTS))
def test_rejects_degenerate_forms(name):
    """A ValueError with the named message, never a result or another exception."""
    call, *messages = REJECTS[name]
    for f, message in zip((DEG3, DEG4), messages):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(f)


def _random_form(rng, dim, degenerate):
    """A seeded random form of this dimension whose Gram has rank below dim
    (degenerate) or equal to it, with random basis values."""
    while True:
        gram = random_gram(rng, dim)
        if (len(rref(gram, dim)[1]) < dim) == degenerate:
            return QuadraticForm(dim, BitMatrix(dim, dim, tuple(gram)),
                                 BitVector(dim, rng.getrandbits(dim)))


def test_contract_holds_on_seeded_inputs():
    """Beyond DEG3 and DEG4: random degenerate forms of dimensions 1-10, odd
    ones included, and vectors, matrices or genera of a mismatched size
    beside degenerate and non-degenerate forms.  Every call raises
    ValueError (DimensionGuardError is one): it never returns a result and
    never raises another exception."""
    assert MISMATCHED.keys() <= REJECTS.keys()
    rng = random.Random(59)
    calls = []
    for _ in range(150):
        dim = rng.randint(1, 10)
        f = _random_form(rng, dim, degenerate=True)
        calls += [(name, f, lambda call=call, f=f: call(f))
                  for name, (call, *_) in REJECTS.items()]
        for g in (f, _random_form(rng, 2 * rng.randint(0, 4), degenerate=False)):
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
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejections_name_their_precondition(name):
    """Each broken precondition raises ValueError with exactly its message."""
    call, message = REJECTIONS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
