"""Exact multivariate polynomials, polynomial vector fields, and frames.

Poly stores a sparse map exponent-tuple -> Fraction over a fixed ambient
dimension.  Products and substitution run packed: _Ring packs every
exponent tuple into one int (a field per variable, wide enough that no sum
carries), so a monomial product is one integer addition, and _Packed keeps
integer numerators over one denominator (packed exponent vectors: Monagan
& Pearce, CASC 2007); the realization runs on them throughout.  Realized
frames come out with their terms sorted by exponent tuple, and a frame
read from JSON keeps the file's order, which to_json writes sorted.
PolyVec is one polynomial per coordinate; Frame is r fields on R^n.  No
numpy: float evaluation is in floateval, which Poly.eval_float and
compile_polyvec load when called.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, compress
from math import gcd, lcm
from numbers import Integral
from operator import index, or_

from .freelie import _accumulate, generate_basis, lie_scale, \
    standard_factorization
from .serialize import _ratio, _words_from_json, _words_to_json, artifact, \
    check_artifact

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str, float)):
        return Fraction(c)  # a float's exact binary value
    raise TypeError(f"cannot coerce {type(c).__name__} to Fraction")


def _check_length(point, n: int, what: str) -> None:
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates; the {what} "
                         f"lives on R^{n}, so it needs n = {n}")


# (field width in bytes, array typecode), narrowest first
_WIDTHS = sorted({array(code).itemsize: code for code in "QLIHB"}.items())


def _bad_exponent(terms) -> ValueError | None:
    """ValueError naming the first exponent tuple with an entry that is not
    a non-negative integer; None if there is none."""
    for e in terms:
        for k in e:
            try:
                if index(k) >= 0:
                    continue
            except TypeError:
                pass
            return ValueError(f"exponent {e!r} has entry {k!r}; exponents "
                              "must be non-negative integers")


def _product(a, b) -> dict:
    """The product of two packed polynomials given as (key, integer
    numerator) pairs of one _Ring; b is iterated once per pair of a, so it
    must be a list or a view.

    Running integer sums in the order of the pairs, a's outer: a key whose
    sum hits zero is dropped, so it re-enters at the end if it comes back.
    This is the one product loop (Poly.__mul__, _Packed, so _substitute too).
    """
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a:
        for k2, c2 in b:
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class _Ring:
    """The one layout of packed exponent keys: each of n variables gets a
    field of the narrowest width that holds top, in native byte order, and
    entries up to limit.  A top past 64 bits raises OverflowError.  There is
    one ring per n and width, which _Ring(n, top) returns.
    """

    _made: dict = {}

    def __new__(cls, n: int, top: int):
        for size, code in _WIDTHS:
            if top < 1 << 8 * size:
                break
        else:
            raise OverflowError(f"exponent sum {top} does not fit in 64 bits")
        ring = cls._made.get((n, size))
        if ring is None:
            ring = cls._made[n, size] = super().__new__(cls)
            ring.n, ring.nbytes = n, n * size
            ring.limit = (1 << 8 * size) - 1  # the largest entry a field holds
            ring.conv = bytes if size == 1 else partial(array, code)
            fields = range(n) if sys.byteorder == "little" else range(n)[::-1]
            ring.shifts = [8 * size * f for f in fields]  # of variables 0..n-1
            ring.top_bits = sum(1 << s + 8 * size - 1 for s in ring.shifts)
        return ring

    def pack(self, poly: "Poly", top: int) -> "_Packed":
        """poly packed, its terms in the same order; top bounds its entries.
        An entry that is negative or not an integer raises a ValueError
        naming its exponent tuple; one above limit, OverflowError."""
        order, conv, terms = sys.byteorder, self.conv, poly.terms
        den = lcm(*[c.denominator for c in terms.values()])
        p = _Packed.__new__(_Packed)  # in lowest terms already: no gcd
        p.den, p.top, p.ring = den, top, self
        try:
            p.terms = {int.from_bytes(conv(e), order):
                       c.numerator * (den // c.denominator)
                       for e, c in terms.items()}
        except (ValueError, OverflowError, TypeError):
            raise _bad_exponent(terms) or OverflowError(
                f"an exponent entry exceeds {self.limit}") from None
        return p

    def unpack(self, terms: dict, den: int) -> "Poly":
        """The Poly of packed {key: numerator} over den, in the same order."""
        order, conv, nbytes = sys.byteorder, self.conv, self.nbytes
        return Poly._wrap(self.n, {tuple(conv(k.to_bytes(nbytes, order))):
                                   Fraction(s, den) for k, s in terms.items()})

    def const(self, c) -> "_Packed":
        c = _as_frac(c)
        return _Packed({0: c.numerator} if c else {}, c.denominator, 0, self)

    def var(self, i: int) -> "_Packed":
        return _Packed({1 << self.shifts[i]: 1}, 1, 1, self)


_UNIT = {0: 1}  # the terms of the polynomial 1 over the denominator 1


class _Packed:
    """Exact polynomial on a _Ring: {packed exponent key: int numerator}
    over one positive denominator, reduced by a gcd after each operation,
    with top an upper bound on every exponent entry.

    +, -, unary -, * (by a _Packed or a rational) and bool keep the term
    order of the same Poly operations: sums run on freelie._accumulate,
    products on _product.  A product whose bound exceeds the ring's limit
    raises OverflowError instead of carrying into the next variable.

    Values are immutable: no code changes terms after construction.  So a
    product by the unit 1 returns the other factor itself, and a sum takes
    a side scaled by 1 or -1 as it is, copied or negated, instead of
    multiplying each term.
    """

    __slots__ = ("terms", "den", "top", "ring")

    def __init__(self, terms: dict, den: int, top: int, ring: _Ring):
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: v // g for k, v in terms.items()}
        self.terms, self.den, self.top, self.ring = terms, den, top, ring

    def __bool__(self):
        return bool(self.terms)

    def _add(self, other, sign: int) -> "_Packed":
        if not isinstance(other, _Packed):
            other = self.ring.const(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a, b = self.terms, other.terms.items()
        out = _accumulate(
            dict(a) if fa == 1 else {k: v * fa for k, v in a.items()},
            b if fb == 1 else [(k, -v) for k, v in b] if fb == -1
            else [(k, v * fb) for k, v in b])
        return _Packed(out, den, max(self.top, other.top), self.ring)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return _Packed({k: -v for k, v in self.terms.items()}, self.den,
                       self.top, self.ring)

    def __mul__(self, other):
        if type(other) is not _Packed:  # an int or a Fraction
            if not other:
                return _Packed({}, 1, 0, self.ring)
            num = other.numerator
            return _Packed({k: v * num for k, v in self.terms.items()},
                           self.den * other.denominator, self.top, self.ring)
        if not self.terms or not other.terms:
            return _Packed({}, 1, 0, self.ring)
        top = self.top + other.top
        if top > self.ring.limit:
            raise OverflowError(f"exponent bound {top} does not fit in a "
                                f"field of {self.ring.limit.bit_length()} "
                                f"bits")
        if self.terms == _UNIT and self.den == 1 and other.top == top:
            return other
        if other.terms == _UNIT and other.den == 1 and self.top == top:
            return self
        return _Packed(_product(self.terms.items(), other.terms.items()),
                       self.den * other.den, top, self.ring)

    __rmul__ = __mul__

    def to_poly(self) -> "Poly":
        return self.ring.unpack(self.terms, self.den)


def _substitute(terms, values, ring: _Ring) -> _Packed:
    """The sum over the (exponent tuple e, c) pairs of terms, in order, of
    c * values[i]^e[i] * ..., multiplied in variable order, each power made
    once as values[i]^(k-1) * values[i] from 1: the one substitution loop.
    values maps each variable that occurs to a _Packed on ring; every
    exponent entry must be a non-negative integer."""
    out, one = ring.const(0), ring.const(1)
    powers: dict[int, list[_Packed]] = {}  # variable -> [1, v, v^2, ...]

    for e, c in terms:
        term = ring.const(c)
        for i, k in enumerate(e):
            if k:
                got = powers.setdefault(i, [one])
                while len(got) <= k:
                    got.append(got[-1] * values[i])
                term = term * got[k]
        out = out + term
    return out


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
    def _wrap(n: int, terms: dict) -> "Poly":
        """The Poly holding terms itself: no check, no copy."""
        p = Poly.__new__(Poly)
        p.n, p.terms = n, terms
        return p

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
        return Poly._wrap(self.n, _accumulate(dict(self.terms),
                                              other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._wrap(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly._wrap(self.n, lie_scale(self.terms, _as_frac(other)))
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if not self.terms or not other.terms:
            return Poly(self.n)
        # one-byte fields hold every sum when no entry has its top bit set,
        # which is cheaper to test than the largest entries
        ring = _Ring(self.n, 255)
        try:
            a, b = ring.pack(self, 255), ring.pack(other, 255)
            wide = ring.top_bits & reduce(or_, chain(a.terms, b.terms))
        except OverflowError:
            wide = True
        if wide:
            ta, tb = max(map(max, self.terms)), max(map(max, other.terms))
            ring = _Ring(self.n, ta + tb)
            a, b = ring.pack(self, ta), ring.pack(other, tb)
        return ring.unpack(_product(a.terms.items(), b.terms.items()),
                           a.den * b.den)

    __rmul__ = __mul__

    # calculus -------------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly._wrap(self.n, out)

    def eval(self, x):
        """Evaluate at a point; exact for Fraction/int inputs."""
        _check_length(x, self.n, "polynomial")
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
        # builds an evaluator per call: for many points, build one and reuse
        from .floateval import _float_evaluator
        return _float_evaluator(self)(x)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

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
        return [{"exp": list(e), "coef": _ratio(c)}
                for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(n: int, data: list) -> "Poly":
        if not isinstance(data, list):
            raise ValueError(f"terms {data!r} are not a list")
        terms = {}
        for t, term in enumerate(data, 1):
            for key in ("exp", "coef"):
                if not isinstance(term, dict) or key not in term:
                    raise ValueError(f"term {t}: missing key {key!r}")
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
        _check_length(x, self.n, "field")
        return [p.eval(x) for p in self.comps]

    def __repr__(self):
        return "PolyVec[" + ", ".join(repr(p) for p in self.comps) + "]"

    def to_json(self) -> list:
        return [p.to_json() for p in self.comps]

    @staticmethod
    def from_json(n: int, data: list) -> "PolyVec":
        if not isinstance(data, list):
            raise ValueError(f"components {data!r} are not a list")
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

@dataclass(frozen=True)
class Frame:
    """r polynomial vector fields on R^n, optionally weight-graded.

    A frame is frozen, its fields a tuple: the trajectory layer compiles its
    stepping evaluators once per frame and keeps them on it.
    """

    fields: tuple[PolyVec, ...]
    weights: tuple[int, ...] | None = None
    normal_form: bool = False
    labels: tuple | None = None  # e.g. basis words for realized frames

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "_evaluators", {})  # trajectories._compiled
        if not self.fields:
            raise ValueError("frame needs at least one field")
        n = self.fields[0].n
        if any(f.n != n for f in self.fields):
            raise ValueError("all frame fields must share the ambient space")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != n:
                raise ValueError(f"weights must have n = {n} entries")

    @property
    def n(self) -> int:
        return self.fields[0].n

    @property
    def r(self) -> int:
        return len(self.fields)

    def to_json(self) -> dict:
        data = artifact("frame", {
            "n": self.n,
            "r": self.r,
            "fields": [f.to_json() for f in self.fields],
        })
        if self.weights is not None:
            data["weights"] = list(self.weights)
        if self.normal_form:
            data["normal_form"] = True
        if self.labels is not None:
            data["labels"] = _words_to_json(self.labels)
        return data

    @staticmethod
    def from_json(data: dict) -> "Frame":
        check_artifact(data, "frame", "n", "fields")
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if not isinstance(data["fields"], list):
            raise ValueError(f"fields must be a list, got {data['fields']!r}")
        fields = []
        for k, f in enumerate(data["fields"], 1):
            try:
                fields.append(PolyVec.from_json(n, f))
            except ValueError as exc:
                raise ValueError(f"field {k}, {exc}") from None
        r, weights = data.get("r", len(fields)), data.get("weights")
        if type(r) is not int or r != len(fields):
            raise ValueError(f"r is {r!r}; the frame has {len(fields)} fields")
        if "weights" in data and not isinstance(weights, list):
            raise ValueError(f"weights must be a list, got {weights!r}")
        for i, w in enumerate(weights or (), 1):
            if type(w) is not int or w < 1:
                raise ValueError(f"weights entry {i}: {w!r} is not a "
                                 f"positive integer")
        labels = data.get("labels")
        if labels is not None:
            labels = _words_from_json(labels, "label")
        frame = Frame(
            fields,
            weights=weights,
            normal_form=bool(data.get("normal_form", False)),
            labels=labels,
        )
        if frame.normal_form:
            from .normalform import verify_normal_form  # imports polyfield

            bad = verify_normal_form(frame)["violations"]
            if bad:
                raise ValueError(f"field {bad[0]['k']}, component "
                                 f"{bad[0]['j']}: not the normal form that "
                                 f"normal_form claims")
        return frame


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


def _nested_brackets(frame: Frame):
    """Memoized bracket tree -> frame field.  A tree is a 1-based letter j
    (the field X_j) or a pair (left, right) (the bracket [X_left, X_right]).

    The memo lives as long as the returned function, so each caller keeps
    its own and nothing is stored on the frame.
    """
    cache: dict = dict(enumerate(frame.fields, 1))

    def nested(tree) -> PolyVec:
        got = cache.get(tree)
        if got is None:
            got = cache[tree] = lie_bracket_fields(nested(tree[0]),
                                                   nested(tree[1]))
        return got

    return nested


# ---------------------------------------------------------------------------
# growth vector via exact rank

def growth_vector(frame: Frame, p, depth: int) -> list[int]:
    """dim span{X_J(p) : |J| <= k} for k = 1..depth.

    The Lyndon brackets of length k span the degree-k part of the free Lie
    algebra, as the right-nested ones do (Reutenauer, Free Lie Algebras,
    1993, ch. 4-5), so only they are bracketed, each Lyndon word w = uv as
    [X_u, X_v] of its standard factorization.  Each value at p is reduced
    against the rows kept so far (one running echelon form over Q) and kept
    if anything is left; once the rank reaches n nothing more is bracketed.
    """
    if isinstance(depth, bool) or not isinstance(depth, Integral):
        raise TypeError(f"depth must be an integer, got {depth!r}")
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = frame.n
    _check_length(p, n, "frame")
    point = [_as_frac(v) for v in p]
    bracket_field = _nested_brackets(frame)
    trees: dict = {}  # Lyndon word -> bracket tree
    # (column, row): row is 1 at column and 0 at every earlier pivot's one
    pivots: list[tuple[int, list[Fraction]]] = []
    ranks = [0] * depth
    for w in generate_basis(frame.r, depth).words:
        if len(pivots) == n:
            break
        if len(w) == 1:
            trees[w] = w[0]
        else:
            u, v = standard_factorization(w)
            trees[w] = (trees[u], trees[v])
        f = bracket_field(trees[w])
        if not f.is_zero():
            row = [_as_frac(v) for v in f.eval(point)]
            for col, pivot in pivots:
                c = row[col]
                if c:
                    row = [a - c * b for a, b in zip(row, pivot)]
            col = next((j for j, a in enumerate(row) if a), None)
            if col is not None:
                inv = 1 / row[col]
                pivots.append((col, [a * inv for a in row]))
        ranks[len(w) - 1] = len(pivots)
    return list(accumulate(ranks, max))


def compile_polyvec(field: PolyVec):
    from .floateval import CompiledPolys
    ev = CompiledPolys(field.comps)
    return lambda x: ev(x)


__all__ = [
    "Poly", "PolyVec", "Frame",
    "lie_bracket_fields",
    "growth_vector",
    "heisenberg_frame", "martinet_frame",
    "compile_polyvec",
]
