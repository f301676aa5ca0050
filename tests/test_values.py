"""Value semantics of the immutable domain classes, and the README example.

Each class behaves as the frozen dataclass it replaced: equal fields give
equal objects with the hash of the field tuple, fields cannot be assigned
or deleted, and pickle, copy and repr go through the fields.
"""

import copy
import pickle
from collections import Counter
from pathlib import Path

import pytest

from quadpoint.gf2 import BitMatrix, BitVector, multiply
from quadpoint.mcg import (
    FLIP,
    MappingClass,
    SurfacePinkallForm,
    Token,
    evaluate_word,
)
from quadpoint.orthogroup import GroupTable, OrthogonalMap
from quadpoint.quadform import QuadraticForm, arf

README = Path(__file__).resolve().parents[1] / "README.md"


def _swap():
    return BitMatrix.from_strings(["01", "10"])


def _form():
    return QuadraticForm(2, _swap(), BitVector(2, 0b11))


# One builder per value class; each call builds a new, equal instance.
BUILDERS = {
    BitVector: lambda: BitVector(4, 0b1010),
    BitMatrix: _swap,
    QuadraticForm: _form,
    OrthogonalMap: lambda: OrthogonalMap(_form(), _swap()),
    SurfacePinkallForm: lambda: SurfacePinkallForm(1, _form()),
    MappingClass: lambda: MappingClass(_swap(), 1),
    Token: lambda: Token("twist", BitVector(2, 1)),
    GroupTable: lambda: GroupTable((BitMatrix.identity(2), _swap()), (0, 1)),
}
CLASSES = sorted(BUILDERS, key=lambda cls: cls.__name__)


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_equal_values(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))  # the frozen dataclass hash
    assert a != _fields(a)


def test_equal_fields_across_classes_differ():
    pair = ((BitVector(2, 1),), (BitVector(2, 2),))
    assert GroupTable(*pair) != Token(*pair)
    assert BitVector(2, 1) != Token(2, 1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_immutable(cls):
    value = BUILDERS[cls]()
    before = _fields(value)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert _fields(value) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy(cls):
    value = BUILDERS[cls]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_the_fields(cls):
    value = BUILDERS[cls]()
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls.__slots__)
    assert repr(value) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(BitVector(4, 0b1010)) == "BitVector(length=4, bits=10)"
    assert repr(FLIP) == "Token(kind='flip', vector=None)"
    assert repr(_swap()) == "BitMatrix(rows=2, cols=2, data=(2, 1))"


def test_keyword_construction():
    assert MappingClass(action=_swap(), epsilon=1) == MappingClass(_swap(), 1)
    assert BitVector(length=3, bits=5) == BitVector(3, 5)
    assert Token("flip") == FLIP and Token("flip").vector is None
    assert Token(kind="twist", vector=BitVector(2, 1)) == BUILDERS[Token]()


def test_list_data_is_stored_as_a_tuple():
    m = BitMatrix(2, 2, [1, 2])
    assert m.data == (1, 2)
    assert m == BitMatrix(2, 2, (1, 2)) and hash(m) == hash(BitMatrix(2, 2, (1, 2)))
    f = QuadraticForm(2, BitMatrix(2, 2, [2, 1]), BitVector(2, 3))
    assert arf(f) == 1


def test_validation_messages():
    with pytest.raises(ValueError, match="^set bits beyond declared length$"):
        BitVector(2, 4)
    with pytest.raises(ValueError, match="^row has set bits beyond declared width$"):
        BitMatrix(1, 1, (2,))
    with pytest.raises(ValueError, match="^epsilon must be 0 or 1$"):
        MappingClass(_swap(), 2)
    with pytest.raises(ValueError, match="^matrix does not preserve the quadratic form$"):
        OrthogonalMap(QuadraticForm(2, _swap(), BitVector(2, 0)),
                      BitMatrix.from_strings(["11", "01"]))


def test_post_init_sees_every_construction(monkeypatch):
    """Replacing __post_init__ on BitMatrix or MappingClass sees every
    construction, and the replacement still validates: the benchmark's
    tracer counts constructions this way."""
    m = _swap()
    h = MappingClass(m, 1)
    s = SurfacePinkallForm(1, _form())
    builds = [
        (BitMatrix, lambda: BitMatrix(1, 1, (1,))),
        (BitMatrix, lambda: BitMatrix.identity(3)),
        (BitMatrix, m.transpose),
        (BitMatrix, lambda: multiply(m, m)),
        (BitMatrix, lambda: copy.copy(m)),
        (MappingClass, lambda: MappingClass(action=m, epsilon=0)),
        (MappingClass, lambda: evaluate_word(s, [FLIP])),
        (MappingClass, lambda: pickle.loads(pickle.dumps(h))),
    ]
    counts = Counter()
    for cls in (BitMatrix, MappingClass):
        def counted(obj, validate=cls.__post_init__):
            counts[type(obj)] += 1
            validate(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for cls, build in builds:
        before = counts[cls]
        assert type(build()) is cls
        assert counts[cls] == before + 1
    with pytest.raises(ValueError, match="declared width"):
        BitMatrix(1, 1, (2,))
    with pytest.raises(ValueError, match="epsilon"):
        MappingClass(m, 2)


def test_readme_library_example():
    """The fenced python block under "Library example" runs as documented."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "MappingClass(" in code
    exec(compile(code, str(README), "exec"), {})
