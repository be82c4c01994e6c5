"""Exact multivariate polynomials, polynomial vector fields, and frames.

Poly stores a sparse map exponent-tuple -> Fraction over a fixed ambient
dimension.  A product packs every exponent tuple into one int (a field per
variable, wide enough that no sum carries), so a monomial product is one
integer addition, and accumulates integer numerators over a common
denominator (packed exponent vectors: Monagan & Pearce, CASC 2007).  The
insertion order of the terms is part of the result: float evaluators sum
terms in dict order.  PolyVec is one polynomial per coordinate; Frame is r
fields on R^n.  Exact flows come from Picard iteration on the polynomial
flow map, which stabilizes exactly when the field is nilpotent in the
iteration sense; everything else raises NotNilpotentError.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress
from math import lcm
from operator import or_

import numpy as np

from .errors import NotNilpotentError

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(c)  # exact binary value
    raise TypeError(f"cannot coerce {type(c).__name__} to Fraction")


# (field width in bytes, array typecode), narrowest first
_WIDTHS = sorted({array(code).itemsize: code for code in "QLIHB"}.items())


def _packed_keys(a: dict, b: dict, n: int):
    """(conv, key bytes, keys of a, keys of b) for the product a * b.

    Each exponent gets a field of the narrowest width that holds
    max_a + max_b, the largest entry of any product exponent, so the sum of
    two keys never carries from one field into the next.  conv turns an
    exponent tuple into the native bytes of its fields, and the bytes of a
    key back into the tuple (bytes itself for one-byte fields).  One-byte
    fields are tried first: they hold every sum when no entry has its top
    bit set, which is cheaper to test than the largest entries.  Negative
    exponents raise OverflowError or ValueError.
    """
    order, from_bytes = sys.byteorder, int.from_bytes
    try:
        ka = [from_bytes(bytes(e), order) for e in a]
        kb = [from_bytes(bytes(e), order) for e in b]
        top_bits = from_bytes(b"\x80" * n, order)
        if not (reduce(or_, ka) | reduce(or_, kb)) & top_bits:
            return bytes, n, ka, kb
    except ValueError:  # an entry outside 0..255
        pass
    top = max(map(max, a)) + max(map(max, b))
    for size, code in _WIDTHS:
        if top < 1 << (8 * size):
            conv = bytes if size == 1 else partial(array, code)
            return (conv, n * size, [from_bytes(conv(e), order) for e in a],
                    [from_bytes(conv(e), order) for e in b])
    raise OverflowError(f"exponent sum {top} does not fit in 64 bits")


class Poly:
    """Sparse exact polynomial in n variables (exponent tuple -> Fraction)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_frac(c)
                if c:
                    if len(e) != n:
                        raise ValueError("exponent length mismatch")
                    self.terms[tuple(e)] = c

    # constructors ---------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n)

    @staticmethod
    def const(n: int, c) -> "Poly":
        return Poly(n, {(0,) * n: _as_frac(c)})

    @staticmethod
    def var(n: int, i: int) -> "Poly":
        e = [0] * n
        e[i] = 1
        return Poly(n, {tuple(e): ONE})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.const(n, 1)

    # ring ops -------------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.n == other.n and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.n, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.n = self.n
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _as_frac(other)
            if not c:
                return Poly(self.n)
            p = Poly.__new__(Poly)
            p.n = self.n
            p.terms = {e: cc * c for e, cc in self.terms.items()}
            return p
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, {}
        a, b = self.terms, other.terms
        if not a or not b:
            return p
        conv, nbytes, ka, kb = _packed_keys(a, b, self.n)
        da = lcm(*[c.denominator for c in a.values()])
        db = lcm(*[c.denominator for c in b.values()])
        ib = [(k, c.numerator * (db // c.denominator))
              for k, c in zip(kb, b.values())]
        # running integer sums in the order of the pairs; a key whose sum
        # hits zero is dropped, so it re-enters at the end if it comes back
        out: dict[int, int] = {}
        get = out.get
        for k1, c in zip(ka, a.values()):
            c1 = c.numerator * (da // c.denominator)
            for k2, c2 in ib:
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        d, order = da * db, sys.byteorder
        p.terms = {tuple(conv(k.to_bytes(nbytes, order))): Fraction(s, d)
                   for k, s in out.items()}
        return p

    __rmul__ = __mul__

    # calculus -------------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    def integrate(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] += 1
            out[tuple(e2)] = c / e2[i]
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    def eval(self, x):
        """Evaluate at a point; exact for Fraction/int inputs."""
        total = None
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * x[i] ** k
            total = v if total is None else total + v
        if total is None:
            return ZERO
        return total

    def eval_float(self, x) -> float:
        total = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for i, k in enumerate(e):
                if k:
                    v *= x[i] ** k
            total += v
        return total

    def compose(self, values: list["Poly"]) -> "Poly":
        """Substitute values[i] for variable i."""
        if len(values) != self.n:
            raise ValueError("need one replacement per variable")
        m = values[0].n if values else self.n
        out = Poly.zero(m)
        powers: dict[tuple[int, int], Poly] = {}

        def power(i, k):
            if k == 0:
                return Poly.one(m)
            got = powers.get((i, k))
            if got is None:
                got = power(i, k - 1) * values[i]
                powers[(i, k)] = got
            return got

        for e, c in self.terms.items():
            term = Poly.const(m, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def weighted_degree(self, weights) -> int:
        return max((sum(w * k for w, k in zip(weights, e)) for e in self.terms),
                   default=0)

    def variables(self) -> set[int]:
        return set(chain.from_iterable(compress(range(self.n), e)
                                       for e in self.terms))

    def restrict(self, m: int) -> "Poly":
        """Reduce ambient dimension to m (requires support in first m vars)."""
        out = {}
        for e, c in self.terms.items():
            if any(e[m:]):
                raise ValueError("polynomial involves discarded variables")
            out[e[:m]] = c
        return Poly(m, out)

    def extend(self, m: int) -> "Poly":
        if m < self.n:
            raise ValueError("cannot shrink by extend")
        pad = (0,) * (m - self.n)
        return Poly(m, {e + pad: c for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k)
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)

    # serialization --------------------------------------------------------
    def to_json(self) -> list:
        return [{"exp": list(e), "coef": f"{c.numerator}/{c.denominator}"}
                for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(n: int, data: list) -> "Poly":
        terms = {}
        for t, term in enumerate(data, 1):
            e = term["exp"]
            if (not isinstance(e, list) or len(e) != n
                    or any(type(k) is not int or k < 0 for k in e)):
                raise ValueError(f"term {t}: exponent {e!r} is not a list of "
                                 f"{n} non-negative integers")
            try:
                terms[tuple(e)] = Fraction(term["coef"])
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(f"term {t}: coefficient {term['coef']!r} is "
                                 f"not a rational number") from None
        return Poly(n, terms)


# ---------------------------------------------------------------------------

class PolyVec:
    """Polynomial vector field on R^n: one Poly per coordinate."""

    __slots__ = ("n", "comps")

    def __init__(self, comps: list[Poly]):
        if not comps:
            raise ValueError("empty vector field")
        self.n = len(comps)
        if any(p.n != self.n for p in comps):
            raise ValueError("components must live on R^n with n = len(comps)")
        self.comps = list(comps)

    @staticmethod
    def zero(n: int) -> "PolyVec":
        return PolyVec([Poly.zero(n) for _ in range(n)])

    @staticmethod
    def coordinate(n: int, j: int) -> "PolyVec":
        comps = [Poly.zero(n) for _ in range(n)]
        comps[j] = Poly.one(n)
        return PolyVec(comps)

    def __eq__(self, other):
        return isinstance(other, PolyVec) and self.comps == other.comps

    def __add__(self, other):
        return PolyVec([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return PolyVec([a - b for a, b in zip(self.comps, other.comps)])

    def __mul__(self, c):
        return PolyVec([p * c for p in self.comps])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comps)

    def eval(self, x):
        return [p.eval(x) for p in self.comps]

    def eval_float(self, x):
        return np.array([p.eval_float(x) for p in self.comps])

    def __repr__(self):
        return "PolyVec[" + ", ".join(repr(p) for p in self.comps) + "]"

    def to_json(self) -> list:
        return [p.to_json() for p in self.comps]

    @staticmethod
    def from_json(n: int, data: list) -> "PolyVec":
        comps = []
        for j, comp in enumerate(data, 1):
            try:
                comps.append(Poly.from_json(n, comp))
            except ValueError as exc:
                raise ValueError(f"component {j}, {exc}") from None
        return PolyVec(comps)


def lie_bracket_fields(x: PolyVec, y: PolyVec) -> PolyVec:
    """[X, Y]_j = sum_i (X_i d_i Y_j - Y_i d_i X_j)."""
    if x.n != y.n:
        raise ValueError("fields live on different spaces")
    n = x.n
    xvars = [p.variables() for p in x.comps]
    yvars = [p.variables() for p in y.comps]
    out = []
    for j in range(n):
        acc = Poly.zero(n)
        yj, xj = y.comps[j], x.comps[j]
        # d_i of a component vanishes unless it contains x_i
        for i in sorted(xvars[j] | yvars[j]):
            if x.comps[i] and i in yvars[j]:
                acc = acc + x.comps[i] * yj.diff(i)
            if y.comps[i] and i in xvars[j]:
                acc = acc - y.comps[i] * xj.diff(i)
        out.append(acc)
    return PolyVec(out)


# ---------------------------------------------------------------------------

@dataclass
class Frame:
    """r polynomial vector fields on R^n, optionally weight-graded."""

    fields: list[PolyVec]
    weights: tuple[int, ...] | None = None
    normal_form: bool = False
    labels: tuple | None = None  # e.g. basis words for realized frames

    def __post_init__(self):
        if not self.fields:
            raise ValueError("frame needs at least one field")
        n = self.fields[0].n
        if any(f.n != n for f in self.fields):
            raise ValueError("all frame fields must share the ambient space")
        if self.weights is not None:
            self.weights = tuple(self.weights)
            if len(self.weights) != n:
                raise ValueError("need one weight per coordinate")

    @property
    def n(self) -> int:
        return self.fields[0].n

    @property
    def r(self) -> int:
        return len(self.fields)

    def to_json(self) -> dict:
        data = {
            "schema": "goh-atlas/1",
            "type": "frame",
            "n": self.n,
            "r": self.r,
            "fields": [f.to_json() for f in self.fields],
        }
        if self.weights is not None:
            data["weights"] = list(self.weights)
        if self.normal_form:
            data["normal_form"] = True
        if self.labels is not None:
            data["labels"] = ["".join(map(str, w)) for w in self.labels]
        return data

    @staticmethod
    def from_json(data: dict) -> "Frame":
        n = data["n"]
        fields = []
        for k, f in enumerate(data["fields"], 1):
            try:
                fields.append(PolyVec.from_json(n, f))
            except ValueError as exc:
                raise ValueError(f"field {k}, {exc}") from None
        labels = data.get("labels")
        if labels is not None:
            labels = tuple(tuple(int(c) for c in w) for w in labels)
        return Frame(
            fields,
            weights=tuple(data["weights"]) if "weights" in data else None,
            normal_form=bool(data.get("normal_form", False)),
            labels=labels,
        )


def heisenberg_frame() -> Frame:
    n = 3
    x1 = Poly.var(n, 0)
    f1 = PolyVec.coordinate(n, 0)
    f2 = PolyVec([Poly.zero(n), Poly.one(n), x1])
    return Frame([f1, f2], weights=(1, 1, 2), normal_form=True)


def martinet_frame() -> Frame:
    n = 3
    x1 = Poly.var(n, 0)
    f1 = PolyVec.coordinate(n, 0)
    f2 = PolyVec([Poly.zero(n), Poly.one(n), x1 * x1 * Fraction(1, 2)])
    return Frame([f1, f2], weights=(1, 1, 3), normal_form=True)


def iterated_bracket_fields(frame: Frame, J) -> PolyVec:
    """Right-nested bracket of frame fields over the multi-index J."""
    J = tuple(J)
    if not J:
        raise ValueError("multi-index must be nonempty")
    if any(j < 1 or j > frame.r for j in J):
        raise ValueError("multi-index entries must lie in 1..r")
    return _nested_brackets(frame)(J)


def _nested_brackets(frame: Frame):
    """Memoized J -> [X_{j1}, [X_{j2}, ... X_{jk}]] (1-based entries).

    The memo lives as long as the returned function, so each caller keeps
    its own and nothing is stored on the frame.
    """
    cache: dict[tuple, PolyVec] = {}

    def nested(J: tuple) -> PolyVec:
        got = cache.get(J)
        if got is None:
            if len(J) == 1:
                got = frame.fields[J[0] - 1]
            else:
                got = lie_bracket_fields(frame.fields[J[0] - 1], nested(J[1:]))
            cache[J] = got
        return got

    return nested


# ---------------------------------------------------------------------------
# exact flows

def flow_map(x_field: PolyVec, bound: int = 10) -> list[Poly]:
    """Polynomial flow map Phi(x, t) of an exactly-integrable field.

    Returned as n polynomials in n+1 variables (time last).  Picard
    iteration from the identity; raises NotNilpotentError if it has not
    stabilized after `bound` rounds.
    """
    n = x_field.n
    m = n + 1
    lifted = [p.extend(m) for p in x_field.comps]
    phi = [Poly.var(m, j) for j in range(n)]
    for _ in range(bound + 1):
        nxt = [Poly.var(m, j) + lifted[j].compose(phi + [Poly.var(m, n)]).integrate(n)
               for j in range(n)]
        if nxt == phi:
            return phi
        phi = nxt
    raise NotNilpotentError(
        f"flow did not stabilize within {bound} Picard iterations")


def exact_flow(x_field: PolyVec, x0, t, bound: int = 10):
    """Exact time-t flow point from x0 (rational in, rational out)."""
    phi = flow_map(x_field, bound)
    pt = [_as_frac(v) for v in x0] + [_as_frac(t)]
    return [p.eval(pt) for p in phi]


def rk4_nodes(rhs, grid, state, substeps: int = 1):
    """Classical RK4 on a list of state arrays, yielded at every grid node.

    rhs(t, state) returns one derivative array per state array.  Each grid
    interval is split into `substeps` equal steps.  The first yield is the
    initial state.  No array is modified in place, so callers may keep the
    yielded arrays without copying.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    state = list(state)
    yield state
    for i in range(len(grid) - 1):
        h = (grid[i + 1] - grid[i]) / substeps
        t = grid[i]
        for _ in range(substeps):
            k1 = rhs(t, state)
            k2 = rhs(t + 0.5 * h, [s + 0.5 * h * k for s, k in zip(state, k1)])
            k3 = rhs(t + 0.5 * h, [s + 0.5 * h * k for s, k in zip(state, k2)])
            k4 = rhs(t + h, [s + h * k for s, k in zip(state, k3)])
            state = [s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
            t += h
        yield state


def rk4_flow(x_field: PolyVec, x0, t: float, steps: int = 256) -> np.ndarray:
    """Numeric time-t flow of an autonomous polynomial field (RK4)."""
    x = np.array([float(v) for v in x0], dtype=float)
    ev = compile_polyvec(x_field)
    *_, (x,) = rk4_nodes(lambda _, s: [ev(s[0])], (0.0, t), [x],
                         substeps=steps)
    return x


# ---------------------------------------------------------------------------
# growth vector via exact rank

def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by fraction-free (Bareiss-style) elimination."""
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < cols:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] * inv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def growth_vector(frame: Frame, p, depth: int) -> list[int]:
    """dim span{X_J(p) : |J| <= k} for k = 1..depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    point = [_as_frac(v) for v in p]
    bracket_field = _nested_brackets(frame)
    dims = []
    rows: list[list[Fraction]] = []
    indices = [()]
    for k in range(1, depth + 1):
        indices = [J + (i,) for J in indices for i in range(1, frame.r + 1)]
        for J in indices:
            f = bracket_field(J)
            if not f.is_zero():
                rows.append([_as_frac(v) for v in f.eval(point)])
        dims.append(_exact_rank(rows))
    return dims


# ---------------------------------------------------------------------------
# compiled float evaluators (hot loops in the trajectory code)

EVAL_ROWS = 128  # points per block of a batched evaluation (bounds temporaries)


class CompiledPolys:
    """Batch float evaluator for a list of polynomials.

    Flattens every term into index arrays so evaluating all polynomials is
    a handful of vectorized numpy ops; used by RK4/variational loops.  A
    point x of shape (n,) gives shape (count,); an (M, n) array of points
    gives (M, count), each row bit for bit what the single-point call gives
    (same power recurrence and products, terms summed in the same order).
    """

    def __init__(self, polys: list[Poly]):
        self.count = len(polys)
        rows, var_cols, exp_cols, coefs = [], [], [], []
        width = 1
        for p in polys:
            for e in p.terms:
                width = max(width, sum(1 for k in e if k))
        self.max_exp = 0
        for idx, p in enumerate(polys):
            for e, c in p.terms.items():
                vs = [i for i, k in enumerate(e) if k]
                ks = [e[i] for i in vs]
                self.max_exp = max(self.max_exp, max(ks, default=0))
                vs += [0] * (width - len(vs))
                ks += [0] * (width - len(ks))
                rows.append(idx)
                var_cols.append(vs)
                exp_cols.append(ks)
                coefs.append(float(c))
        if rows:
            self.rows = np.array(rows, dtype=np.intp)
            self.vars = np.array(var_cols, dtype=np.intp)
            self.exps = np.array(exp_cols, dtype=np.intp)
            self.coefs = np.array(coefs)
        else:
            self.rows = np.zeros(0, dtype=np.intp)
            self.vars = np.zeros((0, 1), dtype=np.intp)
            self.exps = np.zeros((0, 1), dtype=np.intp)
            self.coefs = np.zeros(0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2 and len(x) > EVAL_ROWS:
            return np.concatenate([self(x[lo:lo + EVAL_ROWS])
                                   for lo in range(0, len(x), EVAL_ROWS)])
        if not len(self.rows):
            return np.zeros(x.shape[:-1] + (self.count,))
        pows = np.ones(x.shape + (self.max_exp + 1,))
        for k in range(1, self.max_exp + 1):
            pows[..., k] = pows[..., k - 1] * x
        vals = self.coefs * np.prod(pows[..., self.vars, self.exps], axis=-1)
        if x.ndim == 1:
            return np.bincount(self.rows, weights=vals, minlength=self.count)
        m = len(x)
        bins = (np.arange(m)[:, None] * self.count + self.rows).ravel()
        return np.bincount(bins, weights=vals.ravel(),
                           minlength=m * self.count).reshape(m, self.count)


def compile_polyvec(field: PolyVec):
    ev = CompiledPolys(field.comps)
    return lambda x: ev(x)


def compile_jacobian(field: PolyVec):
    """Evaluator for the n x n Jacobian matrix D field(x)."""
    n = field.n
    ev = CompiledPolys([field.comps[j].diff(i) for j in range(n) for i in range(n)])
    return lambda x: ev(x).reshape(n, n)


__all__ = [
    "Poly", "PolyVec", "Frame",
    "lie_bracket_fields", "iterated_bracket_fields",
    "flow_map", "exact_flow", "rk4_nodes", "rk4_flow", "growth_vector",
    "heisenberg_frame", "martinet_frame",
    "CompiledPolys", "compile_polyvec", "compile_jacobian",
]
