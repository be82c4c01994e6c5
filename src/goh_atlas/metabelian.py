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
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import PreconditionError
from .freelie import StructureTable
from .polyfield import Frame, _nested_brackets, lie_bracket_fields
from .normalform import verify_normal_form
from .serialize import artifact


@dataclass
class MetabelianVerdict:
    metabelian: bool
    depth: int
    witness: tuple | None = None  # (I, J) multi-indices, 1-based entries
    nonzero_component: int | None = None  # 1-based coordinate index

    def __bool__(self):
        return self.metabelian

    def to_json(self) -> dict:
        data = artifact("metabelian_verdict", {
            "metabelian": self.metabelian,
            "depth": self.depth,
        })
        if self.witness is not None:
            data["witness"] = {
                "I": list(self.witness[0]),
                "J": list(self.witness[1]),
                "nonzero_component": self.nonzero_component,
            }
        return data


def is_metabelian(frame: Frame, depth: int) -> MetabelianVerdict:
    """Sweep [X_I, X_J] = 0 for 2 <= |I| <= |J|, |I| + |J| <= depth.

    Pairs are deduplicated by antisymmetry, and [X_I, X_I] = 0 is not
    formed; the returned witness is the first failure in (|I|, |J|, I, J)
    lexicographic order.  For nilpotent frames depth = step is conclusive;
    otherwise the verdict only covers brackets up to the given depth.
    X_J = [X_j, X_K] for J = (j, *K) is zero wherever X_K is, so the sweep
    stops at the first length with no nonzero X_J: its cost is bounded by
    the nonzero brackets, not by the depth.  Each X_J is found once, when
    the sweep first gets there, and the pairs bracketed are the full
    sweep's but for each X_I with itself.
    A depth that is not an integer (a bool included) raises a TypeError.
    """
    if isinstance(depth, bool) or not isinstance(depth, Integral):
        raise TypeError(f"depth must be an integer, got {depth!r}")
    depth = int(depth)
    if depth < 4:
        raise ValueError("depth must be at least 4 (shortest candidate pair)")
    letters = range(1, frame.r + 1)
    nested = _nested_brackets(frame)
    sweeps: dict = {}  # length -> a tee over its nonzero X_J, J ascending

    def nonzero(length: int, start: int = 0):
        """The nonzero (J, tree, X_J) with |J| = length from the start-th on:
        a copy of one tee per length, which finds each X_J once."""
        if length not in sweeps:
            candidates = (((j,), j) for j in letters) if length == 1 else (
                ((j, *K), (j, tree))
                for j in letters for K, tree, _ in nonzero(length - 1))
            sweeps[length] = itertools.tee((
                (J, tree, f) for J, tree in candidates
                for f in [nested(tree)] if not f.is_zero()), 1)[0]
        return itertools.islice(copy(sweeps[length]), start, None)

    def any_nonzero(length: int) -> bool:
        return next(nonzero(length), None) is not None

    for a in itertools.takewhile(any_nonzero, range(2, depth // 2 + 1)):
        for b in itertools.takewhile(any_nonzero, range(a, depth - a + 1)):
            for pos, (index_i, _, fi) in enumerate(nonzero(a)):
                for index_j, _, fj in nonzero(b, pos + 1 if b == a else 0):
                    g = lie_bracket_fields(fi, fj)
                    if not g.is_zero():
                        comp = next(k for k, p in enumerate(g.comps) if p)
                        return MetabelianVerdict(
                            False, depth, (index_i, index_j), comp + 1)
    return MetabelianVerdict(True, depth)


def is_metabelian_algebra(table: StructureTable) -> bool:
    """True iff brackets of weight >= 2 basis elements all vanish."""
    heavy = [i for i, w in enumerate(table.weights) if w >= 2]
    return not any(table.table[i][j] for i in heavy for j in heavy if j > i)


def coefficient_dependence(frame: Frame) -> bool:
    """True iff every normal-form coefficient uses only x_1..x_r; a frame
    not in normal form is a PreconditionError."""
    if not verify_normal_form(frame)["ok"]:
        raise PreconditionError("frame is not in normal form")
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
    A frame not in normal form is a PreconditionError.
    """
    if not verify_normal_form(frame)["ok"]:
        raise PreconditionError("frame is not in normal form")
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
