"""Mapping classes of closed orientable surfaces on the homology level.

A mapping class is reduced to the pair (action on H_1 with Z/2
coefficients, orientation bit); an immersed surface is reduced to the
quadratic form it induces on H_1, refining the intersection form.  For a
class h preserving the form of a genus-n surface, the parity of
quadruple points of any regular homotopy from the immersion to its
h-composition equals rank(h* - Id) + (n+1) eps(h) mod 2.
"""

from __future__ import annotations

from .gf2 import BitMatrix, BitVector, _product, _Value, multiply
from .orthogroup import _swap_steps, rank_parity
from .quadform import QuadraticForm, _columns, _images, arf, standard_form, standard_gram


class NotRegularlyHomotopicError(ValueError):
    """The two immersions compared are not regularly homotopic."""


class SurfacePinkallForm(_Value):
    """Genus plus the induced quadratic form over the intersection Gram."""

    __slots__ = ("genus", "form")

    def __init__(self, genus: int, form: QuadraticForm) -> None:
        gram = standard_gram(genus)  # rejects a negative genus first
        if form.dim != 2 * genus:
            raise ValueError("form dimension must be twice the genus")
        if form.gram != gram:
            raise ValueError("Gram matrix must be the standard intersection form")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "form", form)

    @classmethod
    def from_g_values(cls, genus: int, g: BitVector) -> "SurfacePinkallForm":
        return cls(genus, QuadraticForm(2 * genus, standard_gram(genus), g))

    @classmethod
    def standard(cls, genus: int, arf_value: int) -> "SurfacePinkallForm":
        return cls(genus, standard_form(genus, arf_value))


class MappingClass(_Value):
    """Pair (action on homology, orientation bit).

    The action must preserve the intersection form, i.e. be symplectic;
    whether it preserves a given quadratic refinement is a separate
    question answered by in_orthogonal_mcg.
    """

    __slots__ = ("action", "epsilon")

    def __init__(self, action: BitMatrix, epsilon: int) -> None:
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "epsilon", epsilon)
        self.__post_init__()

    # Run by every construction; benchmark/tracer.py counts them by replacing it.
    def __post_init__(self) -> None:
        if self.epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")
        m = self.action
        if not m.is_square() or m.rows % 2:
            raise ValueError("action must be square of even dimension")
        # J swaps each basis pair, so row k of J m is row k ^ 1 of m.
        jm = BitMatrix(m.rows, m.rows, tuple(m.data[k ^ 1] for k in range(m.rows)))
        if multiply(m.transpose(), jm) != standard_gram(m.rows // 2):
            raise ValueError("action must preserve the intersection form")


class Token(_Value):
    """One generator in a mapping-class word."""

    __slots__ = ("kind", "vector")

    def __init__(self, kind: str, vector: BitVector | None = None) -> None:
        object.__setattr__(self, "kind", kind)  # "twist" | "square" | "flip" | "umap"
        object.__setattr__(self, "vector", vector)


def twist(c: BitVector) -> Token:
    return Token("twist", c)


def square(c: BitVector) -> Token:
    return Token("square", c)


FLIP = Token("flip")
UMAP = Token("umap")


def evaluate_word(s: SurfacePinkallForm, word) -> MappingClass:
    """Left-to-right product of token actions; epsilon counts the flips.

    Squared twists act trivially on homology; the swap token is only
    admitted on genus 2 with Arf invariant 0 and contributes the canonical
    involution with epsilon 0.  Twists and swaps become the steps of one
    _product.
    """
    dim = 2 * s.genus
    gram_g = _images(s.form)
    steps = []
    eps = 0
    for token in word:
        if token.kind in ("twist", "square"):
            c = token.vector
            if c is None or c.length != dim:
                raise ValueError(f"{token.kind} vector must have length {dim}")
            if token.kind == "twist":
                steps.append((gram_g(c.bits)[0], c.bits))
        elif token.kind == "flip":
            eps ^= 1
        elif token.kind == "umap":
            if s.genus != 2 or arf(s.form) != 0:
                raise ValueError("the swap token requires genus 2 with Arf 0")
            steps += _swap_steps(s.form)
        else:
            raise ValueError(f"unknown token kind: {token.kind}")
    return MappingClass(BitMatrix(dim, dim, tuple(_product(dim, steps))), eps)


def in_orthogonal_mcg(s: SurfacePinkallForm, h: MappingClass) -> bool:
    """Whether the class preserves the surface's quadratic form.

    The class preserves the intersection form, the form's Gram, by
    construction, so only the g half of the certificate can fail: g(m e_i)
    = g(e_i) for every i, read off _columns.
    """
    if h.action.rows != s.form.dim:
        raise ValueError("dimension mismatch")
    return _columns(s.form, h.action.data)[2] == s.form.basis_g.bits


def quadruple_point_invariant(s: SurfacePinkallForm, h: MappingClass) -> int:
    """Parity of quadruple points between the immersion and its h-composition:
    rank(h* - Id) + (genus + 1) eps(h), mod 2.

    Defined only when the two are regularly homotopic, i.e. when h
    preserves the induced form (in_orthogonal_mcg checks the dimension).
    """
    if not in_orthogonal_mcg(s, h):
        raise NotRegularlyHomotopicError(
            "not regularly homotopic: the class does not preserve the induced form")
    return (rank_parity(h.action) + (s.genus + 1) * h.epsilon) & 1


def mapping_class_parity(s: SurfacePinkallForm, h: MappingClass) -> int:
    """rank(h* - Id) + (genus + 1) eps(h), mod 2: the quadruple point invariant."""
    return quadruple_point_invariant(s, h)


def regularly_homotopic(s1: SurfacePinkallForm, s2: SurfacePinkallForm) -> bool:
    """Immersions are regularly homotopic iff they induce the same form."""
    if s1.genus != s2.genus:
        raise ValueError("genus mismatch")
    return s1.form.basis_g == s2.form.basis_g


def equivalent_up_to_diffeomorphism(s1: SurfacePinkallForm, s2: SurfacePinkallForm) -> bool:
    """Equivalence after composing with some diffeomorphism: equal Arf."""
    if s1.genus != s2.genus:
        raise ValueError("genus mismatch")
    return arf(s1.form) == arf(s2.form)


def embedding_realizable(s: SurfacePinkallForm) -> bool:
    """Whether an embedding induces this form: Arf invariant 0."""
    return arf(s.form) == 0


GENUS1_GENERATORS: dict[int, tuple[tuple[str, tuple[tuple[int, int], tuple[int, int]]], ...]] = {
    0: (
        ("A1", ((1, 2), (0, 1))),
        ("A2", ((1, 0), (2, 1))),
        ("A3", ((-1, 0), (0, 1))),
        ("A4", ((0, 1), (1, 0))),
    ),
    1: (
        ("B1", ((-1, 2), (0, 1))),
        ("B2", ((0, 1), (1, 0))),
    ),
}


def genus1_generators(arf_value: int) -> list[MappingClass]:
    """Mod-2 reductions of the torus generator matrices, with orientation
    bits from the sign of the integer determinant."""
    if arf_value not in (0, 1):
        raise ValueError("arf_value must be 0 or 1")
    return [MappingClass(BitMatrix(2, 2, ((a & 1) | (b & 1) << 1, (c & 1) | (d & 1) << 1)),
                         0 if a * d - b * c > 0 else 1)
            for _, ((a, b), (c, d)) in GENUS1_GENERATORS[arf_value]]


def connected_sum(h1: MappingClass, h2: MappingClass) -> MappingClass:
    """Block-diagonal join of two classes with matching orientation bits."""
    if h1.epsilon != h2.epsilon:
        raise ValueError("epsilon mismatch")
    d1 = h1.action.rows
    d2 = h2.action.rows
    rows = tuple(h1.action.data) + tuple(r << d1 for r in h2.action.data)
    return MappingClass(BitMatrix(d1 + d2, d1 + d2, rows), h1.epsilon)
