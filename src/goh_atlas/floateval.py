"""Float evaluation of exact polynomials: one polynomial from its list of
terms (_float_evaluator) and the batched CompiledPolys, whose coefficients
both convert by _float_coef; and _first_fault, the one check of every float
input.  The one module of polyfield's layer that imports numpy; the exact
layers never do.
"""

from __future__ import annotations

import math
from operator import index

import numpy as np

from .polyfield import Poly


def _float_coef(e: tuple, c) -> float:
    """c as a float; one too large is a ValueError naming its term e."""
    try:
        return float(c)
    except OverflowError:
        raise ValueError(f"the coefficient of the term {e} is too large for "
                         f"a float") from None


def _float_evaluator(p: "Poly"):
    """x -> p(x) in float arithmetic, from p's list of terms: each its
    coefficient, converted once, and its factors in variable order, x[i]
    for k = 1, else np.float_power(x[i], k), made once per call for each
    distinct power.  A call multiplies each term out left to right and sums
    the terms in dict order from 0.0.  C ``pow`` on every element, as
    scalar ``**`` does, gives a point in an array, or a node of the
    per-axis grid (xs[None, :], ys[:, None]) that broadcasts to the
    (len(ys), len(xs)) grid, the bits it gets alone on Python floats (an
    np.float64 once a power enters); an overflowing power is inf.  No update
    is in place, so x may hold arrays that broadcast.  An exponent that is
    not an integer is a TypeError.  Rebuild after a change of p.
    """
    powers: dict = {}  # (i, k) with k >= 2 -> its slot in a call's powers
    terms = []  # (coefficient, [(i, -1 for x[i] itself, else x[i]^k's slot)])
    for e, c in p.terms.items():
        ks = [(i, index(k)) for i, k in enumerate(e) if k]
        terms.append((_float_coef(e, c), [
            (i, -1 if k == 1 else powers.setdefault((i, k), len(powers)))
            for i, k in ks]))

    def evaluate(x):
        made = [np.float_power(x[i], k) for i, k in powers]
        total = 0.0
        for value, factors in terms:
            for i, s in factors:
                value = value * (x[i] if s < 0 else made[s])
            total = total + value
        return total

    return evaluate


def _first_fault(name: str, data, depth: int, width: int | None = None):
    """data as a float array of depth (1 or 2) nested lists of finite
    numbers, the innermost of length width (at depth 2, of one length if
    width is None); at depth 0, data as a finite float.

    One np.array call converts data.  Only when it raises, or gives another
    shape or a non-finite entry, is data walked in order, to raise the
    ValueError that names the first fault by index, in one of the shapes
    points[2] is not a list: 1.0, points[2] has length 3, not 2,
    points[2][0] is not a number: 'x', points[2][0] is too large for a float
    and points[2][0] is not finite: nan; a row's length before its entries.
    """
    if not depth:
        try:
            value = float(data)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        except (TypeError, ValueError):
            raise ValueError(f"{name} is not a number: {data!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
        return value
    try:
        out = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is not None and out.ndim == depth and width in (None, out.shape[-1]) \
            and np.isfinite(out).all():
        return out
    if not isinstance(data, (list, tuple)) and np.ndim(data) == 0:
        raise ValueError(f"{name} is not a list: {data!r}")
    if depth == 1 and width is not None and len(data) != width:
        raise ValueError(f"{name} has length {len(data)}, not {width}")
    for i, item in enumerate(data):
        row = _first_fault(f"{name}[{i}]", item, depth - 1, width)
        if depth == 2:  # later rows take the first one's length
            width = len(row)
    return out.reshape(0, width or 0)  # only an empty list of rows gets here


EVAL_ROWS = 256  # points per block of a batched evaluation (bounds temporaries)


class CompiledPolys:
    """Batch float evaluator for a list of polynomials.

    A point x of shape (n,) gives shape (count,); an (M, n) array of points
    gives (M, count), each row bit for bit what the single-point call gives.
    Only the variables that occur are raised to powers, by x^k = x^(k-1) * x
    from 1.0; each distinct monomial is multiplied out once, left to right
    over its factors in variable order; a term is its coefficient times its
    monomial; and each output sums its terms in term order from 0.0, one
    add per term rank (so a zero sum is +0.0).  Intermediates hold one row
    per power, monomial or term and one column per point of a block.
    """

    def __init__(self, polys: list[Poly]):
        self.count = len(polys)
        monos: dict = {}  # exponent tuple -> index, first seen first
        terms = [[(monos.setdefault(e, len(monos)), _float_coef(e, c))
                  for e, c in p.terms.items()] for p in polys]
        self.used = sorted({i for e in monos for i, k in enumerate(e) if k})
        self.top = max((k for e in monos for k in e), default=0)
        # row 0 of the power table is 1.0; row 1 + (k - 1) * len(used) + s
        # is x^k of the s-th used variable
        slot = {v: 1 + s for s, v in enumerate(self.used)}
        factors = [[(k - 1) * len(self.used) + slot[i]
                    for i, k in enumerate(e) if k] or [0] for e in monos]
        # monomials widest first, so factor c multiplies a prefix of them
        wide = sorted(range(len(monos)), key=lambda m: -len(factors[m]))
        self.factors = [np.array([factors[m][c] for m in wide
                                  if len(factors[m]) > c], dtype=np.intp)
                        for c in range(max(map(len, factors), default=0))]
        # outputs with the most terms first, so term k adds onto a prefix
        outs = sorted(range(self.count), key=lambda o: -len(terms[o]))
        self.order = np.argsort(np.array(outs, dtype=np.intp))
        self.ranks = [sum(len(terms[o]) > k for o in outs)
                      for k in range(max(map(len, terms), default=0))]
        ranked = [terms[o][k] for k, size in enumerate(self.ranks)
                  for o in outs[:size]]
        row = {m: r for r, m in enumerate(wide)}
        self.mono_of = np.array([row[m] for m, _ in ranked], dtype=np.intp)
        self.coefs = np.array([c for _, c in ranked])[:, None]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 1:
            return self(x[None])[0]
        out = np.empty((len(x), self.count))
        for lo in range(0, len(x), EVAL_ROWS):
            out[lo:lo + EVAL_ROWS] = self._block(
                x[lo:lo + EVAL_ROWS]).take(self.order, axis=0).T
        return out

    def _block(self, x: np.ndarray) -> np.ndarray:
        """(count, M) sums at an (M, n) block, outputs most terms first."""
        total = np.zeros((self.count, len(x)))
        if not self.ranks:
            return total
        xs = x[:, self.used].T
        width = len(xs)
        pows = np.empty((1 + self.top * width, len(x)))
        pows[0] = 1.0
        prev = pows[:1]
        for k in range(self.top):
            prev = np.multiply(prev, xs,
                               out=pows[1 + k * width:1 + (k + 1) * width])
        monos = pows.take(self.factors[0], axis=0)
        for rows in self.factors[1:]:
            monos[:len(rows)] *= pows.take(rows, axis=0)
        terms = monos.take(self.mono_of, axis=0)
        terms *= self.coefs
        lo = 0
        for size in self.ranks:
            total[:size] += terms[lo:lo + size]
            lo += size
        return total
