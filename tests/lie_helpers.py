"""Constructions only the tests use: random Lie elements and right-nested
brackets of generators and of frame fields."""

from fractions import Fraction

from goh_atlas.freelie import LieElement, LyndonBasis, bracket, lie_single
from goh_atlas.polyfield import Frame, PolyVec, _nested_brackets


def random_lie_element(basis: LyndonBasis, rng) -> LieElement:
    """Small random rational element: numerators in -4..4, denominators in
    1..6."""
    out: LieElement = {}
    for i in range(basis.dim):
        num = rng.randrange(-4, 5)
        if num:
            out[i] = Fraction(num, rng.randrange(1, 7))
    return out


def iterated_bracket_index(basis: LyndonBasis, J) -> LieElement:
    """Right-nested bracket [X_{j1},[X_{j2},[...,X_{jk}]]] of generators."""
    J = tuple(J)
    if not J:
        raise ValueError("multi-index must be nonempty")
    if any(j < 1 or j > basis.rank for j in J):
        raise ValueError("multi-index entries must lie in 1..rank")
    out = lie_single(basis, (J[-1],))
    for j in reversed(J[:-1]):
        out = bracket(lie_single(basis, (j,)), out, basis)
    return out


def iterated_bracket_fields(frame: Frame, J) -> PolyVec:
    """Right-nested bracket of frame fields over the multi-index J."""
    J = tuple(J)
    if not J:
        raise ValueError("multi-index must be nonempty")
    if any(j < 1 or j > frame.r for j in J):
        raise ValueError("multi-index entries must lie in 1..r")
    return _nested_brackets(frame)(J)
