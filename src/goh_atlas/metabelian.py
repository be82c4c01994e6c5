"""Metabelian property checks: frame brackets, algebra structure,
coefficient dependence, and translation invariance.

Four routes to the same verdict.  At frame level the defining bracket
condition [X_I, X_J] = 0 is swept over multi-indices; at algebra level the
derived subalgebra must be abelian; in normal form the two coincide with
the coefficients depending only on the first r coordinates, equivalently
with invariance under vertical translations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .freelie import StructureTable
from .polyfield import Frame, _nested_brackets, lie_bracket_fields
from .normalform import verify_normal_form


@dataclass
class MetabelianVerdict:
    metabelian: bool
    depth: int
    witness: tuple | None = None  # (I, J) multi-indices, 1-based entries
    nonzero_component: int | None = None  # 1-based coordinate index

    def __bool__(self):
        return self.metabelian

    def to_json(self) -> dict:
        data = {
            "schema": "goh-atlas/1",
            "type": "metabelian_verdict",
            "metabelian": self.metabelian,
            "depth": self.depth,
        }
        if self.witness is not None:
            data["witness"] = {
                "I": list(self.witness[0]),
                "J": list(self.witness[1]),
                "nonzero_component": self.nonzero_component,
            }
        return data


def is_metabelian(frame: Frame, depth: int) -> MetabelianVerdict:
    """Sweep [X_I, X_J] = 0 for 2 <= |I| <= |J|, |I| + |J| <= depth.

    Pairs are deduplicated by antisymmetry; the returned witness is the
    first failure in (|I|, |J|, I, J) lexicographic order.  For nilpotent
    frames depth = step is conclusive; otherwise the verdict only covers
    brackets up to the given depth.
    """
    if depth < 4:
        raise ValueError("depth must be at least 4 (shortest candidate pair)")
    r = frame.r
    nested = _nested_brackets(frame)

    for a in range(2, depth // 2 + 1):
        for b in range(a, depth - a + 1):
            for index_i in itertools.product(range(1, r + 1), repeat=a):
                fi = nested(index_i)
                if fi.is_zero():
                    continue
                for index_j in itertools.product(range(1, r + 1), repeat=b):
                    if b == a and index_j < index_i:
                        continue
                    fj = nested(index_j)
                    if fj.is_zero():
                        continue
                    g = lie_bracket_fields(fi, fj)
                    if not g.is_zero():
                        comp = next(k for k, p in enumerate(g.comps) if p)
                        return MetabelianVerdict(
                            False, depth, (index_i, index_j), comp + 1)
    return MetabelianVerdict(True, depth)


def is_metabelian_algebra(table: StructureTable) -> bool:
    """True iff brackets of weight >= 2 basis elements all vanish."""
    basis = table.basis
    n = basis.dim
    heavy = [i for i in range(n) if basis.weight(i) >= 2]
    for i in heavy:
        for j in heavy:
            if j > i and table.table[i][j]:
                return False
    return True


def coefficient_dependence(frame: Frame) -> bool:
    """True iff every normal-form coefficient uses only x_1..x_r."""
    if not verify_normal_form(frame)["ok"]:
        raise ValueError("frame is not in normal form")
    r = frame.r
    for field in frame.fields:
        for comp in field.comps:
            if any(v >= r for v in comp.variables()):
                return False
    return True


def translation_invariance(frame: Frame, samples) -> float:
    """sup over samples of |X_i(x + (0, tau)) - X_i(x)|_inf, i <= r.

    Each sample is (x, tau) with x in R^n and tau in R^{n-r}.  Exactly zero
    for rational samples iff the coefficients ignore the vertical block.
    """
    if not verify_normal_form(frame)["ok"]:
        raise ValueError("frame is not in normal form")
    n, r = frame.n, frame.r
    worst = Fraction(0)
    for x, tau in samples:
        if len(x) != n or len(tau) != n - r:
            raise ValueError("sample dimensions must be (n, n - r)")
        shifted = list(x[:r]) + [xi + ti for xi, ti in zip(x[r:], tau)]
        for field in frame.fields:
            for comp in field.comps:
                d = abs(comp.eval(shifted) - comp.eval(list(x)))
                if d > worst:
                    worst = d
    return float(worst)


__all__ = [
    "MetabelianVerdict",
    "coefficient_dependence",
    "is_metabelian",
    "is_metabelian_algebra",
    "translation_invariance",
]
