"""Float evaluation of exact polynomials: generated straight-line functions
(_float_evaluator) and the batched CompiledPolys, whose coefficients both
convert by _float_coef; and _first_fault, the one check of every float
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


def _float_evaluator(*polys: "Poly"):
    """x -> p(x) in float arithmetic for one polynomial, x -> (p1(x), ...,
    pm(x)) for several, as one generated straight-line function.

    Each value is summed in dict order from 0.0, one statement per term
    (one long expression overflows the compiler's recursion limit), each
    term its coefficient, converted once, times the power of x[i] for every
    nonzero exponent k in variable order: x[i] itself for k = 1, else
    np.float_power(x[i], k), computed once per distinct power before the
    sums.  np.float_power calls C ``pow`` on every element as scalar ``**``
    does, so a point in an array, or a node of the per-axis grid
    (xs[None, :], ys[:, None]) whose result broadcasts to the
    (len(ys), len(xs)) grid, gets the bits it gets alone on Python floats
    (as np.float64 once a power enters); an overflowing power is inf, not
    OverflowError.  No update is in place, so x may hold arrays that
    broadcast.  An exponent that is not an integer is a TypeError, so only
    int literals enter the source.  Build once per polynomial (about
    0.1 ms), not once per point; the evaluator holds a copy of the terms:
    rebuild after a change.
    """
    powers: dict = {}  # source of a power with k >= 2 -> the name terms read
    sums, coefs = [], []
    for out, p in enumerate(polys):
        sums.append(f"    t{out} = 0.0")
        for e, c in p.terms.items():
            factors = ""
            for i, k in enumerate(e):
                if not k:
                    continue
                k = index(k)
                text = f"x[{i}]" if k == 1 else powers.setdefault(
                    f"pow(x[{i}], {k})", f"p{len(powers)}")
                factors += " * " + text
            sums.append(f"    t{out} = t{out} + c[{len(coefs)}]{factors}")
            coefs.append(_float_coef(e, c))
    lines = [f"    {name} = {text}" for text, name in powers.items()] + sums
    totals = ", ".join(f"t{out}" for out in range(len(polys)))
    scope = {"c": coefs, "pow": np.float_power}
    exec("def evaluate(x):\n" + "\n".join(lines) + f"\n    return {totals}\n",
         scope)
    return scope["evaluate"]


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
