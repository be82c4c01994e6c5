"""Goh-variety polynomials F^{h,k} and plane-curve tracing for rank 2.

For a normal-form frame whose coefficients depend only on x_1..x_r, the
second-order (Goh) annihilation conditions along a trajectory reduce to
polynomial constraints on the base projection: F^{h,k}(x) built from the
lambda-weighted curls of the coefficient matrix.  The rank-2 variety
{F^{1,2} = 0} is traced by marching squares: the segment graph of the
crossed cells is built with integer arrays from one code-to-segments table,
its vertices refined by a bisection of every crossed edge at once, and it
is chained into polylines on Python int lists.  Its singular points are
found exactly, from F's rational coefficients, by gcds, subresultants and
Sturm sequences on integers.  The grid is evaluated one block of rows at a
time, so the only grid-sized float array of a trace is F's values.
"""

from __future__ import annotations

import math
from itertools import count, zip_longest
from operator import floordiv, mul, sub
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import PreconditionError
from .metabelian import coefficient_dependence
from .floateval import _first_fault, _float_evaluator
from .options import RES_MAX, check_resolution
from .polyfield import Frame, Poly
from .serialize import _ratio, artifact

# points per lock-step block of bisection (bounds temporaries)
SCAN_ROWS = 4096


@dataclass
class GohSystem:
    """Antisymmetric family F[h][k] on R^r, stored upper-triangular."""

    r: int
    lam: list
    polys: dict  # (h, k) with 1 <= h < k <= r -> Poly in r variables

    def poly(self, h: int, k: int) -> Poly:
        if not (1 <= h <= self.r and 1 <= k <= self.r):
            raise ValueError("field indices out of range")
        if h == k:
            return Poly.zero(self.r)
        if h < k:
            return self.polys[(h, k)]
        return -self.polys[(k, h)]

    def to_json(self) -> dict:
        return artifact("goh_system", {
            "r": self.r,
            "lambda": [_ratio(c) for c in self.lam],
            "polys": {
                f"{h},{k}": p.to_json() for (h, k), p in sorted(self.polys.items())
            },
        })


def goh_polynomials(frame: Frame, lam) -> GohSystem:
    """F^{h,k}(x) = sum_{j>r} lambda_j (dA_{k,j}/dx_h - dA_{h,j}/dx_k).

    Requires the metabelian normal-form shape: triangular frame whose
    coefficients live on x_1..x_r (otherwise the reduction to base
    polynomials is not valid) and a nonzero covector of n exact entries or
    finite floats, each fault a ValueError in _first_fault's shapes.
    """
    n, r = frame.n, frame.r
    lam = list(lam)
    if len(lam) != n:
        raise ValueError(f"lam has length {len(lam)}, not {n}")
    for i, c in enumerate(lam):
        if isinstance(c, float):
            _first_fault(f"lam[{i}]", c, 0)  # finite, or a located error
            continue
        try:
            lam[i] = Fraction(c)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"lam[{i}] is not a number: {c!r}") from None
    if not any(lam):
        raise ValueError("covector must be nonzero")
    if not coefficient_dependence(frame):  # PreconditionError if not normal
        raise PreconditionError(
            "normal-form coefficients depend on vertical coordinates; "
            "the variety reduction needs the metabelian shape")

    polys = {}
    for h in range(1, r + 1):
        for k in range(h + 1, r + 1):
            acc = Poly.zero(n)
            for j in range(r, n):
                if not lam[j]:
                    continue
                curl = (frame.fields[k - 1].comps[j].diff(h - 1)
                        - frame.fields[h - 1].comps[j].diff(k - 1))
                if curl:
                    acc = acc + curl * lam[j]
            polys[(h, k)] = acc.restrict(r)
    return GohSystem(r, lam, polys)


def variety_membership(sys: GohSystem, curve) -> float:
    """sup over curve samples and pairs (h,k) of |F^{h,k}(point)|.

    The points are checked in full first: one that is not r finite
    numbers is a ValueError naming it (_first_fault).  Then a point where
    some F^{h,k} overflows (a power overflows, a product gives inf, a sum
    of opposite infinities NaN) is one naming the point's index and the
    pair.  Each F^{h,k} is evaluated at all points as float64 arrays, so
    every value has the bits a scalar loop gives it on Python floats; the
    overflow raised is the one that loop meets first, points outermost,
    then the pairs in order.
    """
    x = _first_fault("points", getattr(curve, "points", curve), 2, sys.r)
    cols = x.T.copy()  # one contiguous array per coordinate
    pairs = list(sys.polys)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        values = [np.abs(np.broadcast_to(_float_evaluator(p)(cols), len(x)))
                  for p in sys.polys.values()]
    faults = ~np.isfinite(np.reshape(values, (len(pairs), len(x))))
    hit = np.flatnonzero(faults.any(axis=0))
    if hit.size:
        idx = int(hit[0])
        h, k = pairs[int(np.argmax(faults[:, idx]))]
        raise ValueError(f"F^({h},{k}) overflows at curve point {idx}: "
                         f"{x[idx].tolist()}")
    return max((float(np.max(v)) for v in values if v.size), default=0.0)


# ---------------------------------------------------------------------------
# plane tracing (r = 2)

@dataclass
class VarietyTrace:
    window: tuple  # (x_min, x_max, y_min, y_max)
    resolution: int
    polylines: list = field(default_factory=list)
    singular_candidates: list = field(default_factory=list)
    whole_plane: bool = False
    tolerance: float = 0.0

    def to_json(self) -> dict:
        return artifact("variety_trace", {
            "window": list(self.window),
            "resolution": self.resolution,
            "whole_plane": self.whole_plane,
            "tolerance": self.tolerance,
            "polylines": [[[p[0], p[1]] for p in line]
                          for line in self.polylines],
            "singular_candidates": [[p[0], p[1]]
                                    for p in self.singular_candidates],
        })

    def to_csv(self) -> str:
        lines = ["x1,x2,branch_id"]
        for bid, chain in enumerate(self.polylines):
            for x, y in chain:
                lines.append(f"{format(x, '.17g')},{format(y, '.17g')},{bid}")
        return "\n".join(lines) + "\n"


def _edge_vertices(evaluate, xs, ys, vals, edges, tol) -> list:
    """The vertex (x, y) of each crossed edge (k, i, j) in edges, bisected
    on evaluate, the evaluator of F, from grid node (i, j), the a end, to
    (i + 1 - k, j + k), the b end.

    The scalar rule: the a end if |F| <= tol there, else the b end if so;
    else up to 200 midpoints 0.5 * (a + b), the first with |F| <= tol the
    vertex, any other replacing a (and F(a)) if F there has the sign of
    F(a), b if not; after 200, the midpoint of the last a and b.  Blocks of
    SCAN_ROWS edges run it in lock step, with an index array of the edges
    still running, so each vertex gets the bits the rule gives it alone on
    Python floats.  A midpoint where F is not finite is a ValueError naming
    its edge.
    """
    out: list = []
    for lo in range(0, len(edges), SCAN_ROWS):
        k, i, j = np.array(edges[lo:lo + SCAN_ROWS]).T
        ends = xs[i], ys[j], xs[i + 1 - k], ys[j + k]
        va, at_a = vals[j, i], np.abs(vals[j, i]) <= tol
        vx, vy = np.where(at_a, *ends[::2]), np.where(at_a, *ends[1::2])
        act = np.flatnonzero(~at_a & (np.abs(vals[j + k, i + 1 - k]) > tol))
        ax, ay, bx, by, va = (e[act] for e in (*ends, va))
        for _ in range(200):
            if not act.size:
                break
            mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
            with np.errstate(over="ignore", invalid="ignore"):  # checked next
                vm = np.broadcast_to(evaluate((mx, my)), va.shape)
            if not np.isfinite(vm).all():
                c = np.argmin(np.isfinite(vm))
                u, v, s, t = (e[act[c]].item() for e in ends)
                raise ValueError(
                    f"F is not finite at {mx[c].item(), my[c].item()} on the "
                    f"grid edge from {u, v} to {s, t}: {vm[c].item()!r}")
            hit = np.abs(vm) <= tol
            vx[act[hit]], vy[act[hit]] = mx[hit], my[hit]
            same = (vm > 0) == (va > 0)
            ax, ay, va = (np.where(same, new, old) for new, old in
                          ((mx, ax), (my, ay), (vm, va)))
            bx, by = np.where(same, bx, mx), np.where(same, by, my)
            act, ax, ay, bx, by, va = (e[~hit] for e in
                                       (act, ax, ay, bx, by, va))
        vx[act], vy[act] = 0.5 * (ax + bx), 0.5 * (ay + by)
        out += zip(vx.tolist(), vy.tolist())
    return out


def _row_blocks(shape) -> list:
    """Slices of the rows of a grid of this shape, each of about
    8 * SCAN_ROWS nodes (256 KB of float64), so a pass over the grid block
    by block keeps its temporaries in cache."""
    rows, cols = shape
    step = max(1, 8 * SCAN_ROWS // cols)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


# A crossed cell's segments by its code, as edge slots a0 b0 a1 b1 (-1 for
# no second segment).  Slot 0 bottom, 1 top, 2 left, 3 right of the cell
# at node (i, j) is the edge (kind, i + di, j + dj) in _SLOT_EDGES, kind 0
# running right from its node, 1 up.  Rows 5 and 10 are saddles with
# F(centre) >= 0; a saddle below 0 takes the row of code ^ 15, which pairs
# its edges the other way (any other code has its complement's segments).
_SEGMENTS = np.array([
    [-1, -1, -1, -1], [2, 0, -1, -1], [0, 3, -1, -1], [2, 3, -1, -1],
    [1, 3, -1, -1], [2, 1, 0, 3], [0, 1, -1, -1], [2, 1, -1, -1],
    [2, 1, -1, -1], [0, 1, -1, -1], [2, 0, 1, 3], [1, 3, -1, -1],
    [2, 3, -1, -1], [0, 3, -1, -1], [2, 0, -1, -1], [-1, -1, -1, -1]])
_SLOT_EDGES = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 1, 0]])


def trace_variety(sys: GohSystem, window=(-2.0, 2.0, -2.0, 2.0),
                  resolution: int = 512) -> VarietyTrace:
    """Marching-squares trace of {F^{1,2} = 0} with refined vertices, and
    the singular points of F in the closed window.

    g = gcd(F, F_x1, F_x2) from F's exact coefficients (a float converts
    exactly).  For a square-free F (g constant), every emitted vertex is
    driven by bisection to |F| <= 1e-9 (1 + max|F| over the grid), zero
    corner values count as positive so curves through grid nodes are kept,
    and singular_candidates are F's singular points (_singular_points).
    Otherwise the trace is that of q = F / g, whose zero set is F's and
    which changes sign across it, with its tolerance times 1 + a bound of
    |F / q| over the window, so that it bounds |F| at every vertex; and the
    candidates are q's singular points, then the vertices of the grid trace
    of gcd(q, g), whose zero set is the curve of F's singular points.  F
    identically zero reports the whole plane.
    """
    if sys.r != 2:
        raise ValueError("plane tracing needs a rank-2 system")
    F = sys.poly(1, 2)
    x0, x1, y0, y1 = window
    x0, x1, y0, y1 = (_first_fault(f"window {k}", v, 0) for k, v in zip(
        ("x_min", "x_max", "y_min", "y_max"), (x0, x1, y0, y1)))
    if not (x0 < x1 and y0 < y1):
        raise ValueError("window must satisfy x_min < x_max, y_min < y_max")
    for name, lo, hi in (("x", x0, x1), ("y", y0, y1)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"window {name} width is not finite: "
                             f"{name}_max - {name}_min = {hi - lo!r}")
    res = check_resolution(resolution)

    trace = VarietyTrace(window=(x0, x1, y0, y1), resolution=res)
    if F.is_zero():
        trace.whole_plane = True
        return trace
    exact, den = _integer_rows(F)
    g = _bgcd(_bgcd(exact, _dx(exact)), _dy(exact))
    if len(g) > 1 or len(g[0]) > 1:
        q = _quo(exact, g, _ZY)
        trace.polylines, tol = _grid_trace(_poly(q), trace.window, res)
        edge = Fraction(max(map(abs, trace.window)))
        trace.tolerance = tol * (1.0 + float(sum(
            abs(c) * edge ** (a + b) for a, r in enumerate(g)
            for b, c in enumerate(r)) / den))
        # coprime integers, the last positive: the curve's trace does not
        # depend on the sign and scale the gcd came out with
        r = _bgcd(q, g)
        k = math.gcd(*(c for row in r for c in row)) * (-1) ** (r[-1][-1] < 0)
        curve, _ = _grid_trace(_poly([[c // k for c in row] for row in r]),
                               trace.window, res)
        trace.singular_candidates = _singular_points(q, trace.window) + [
            v for line in curve for v in line]
        return trace
    trace.polylines, trace.tolerance = _grid_trace(F, trace.window, res)
    trace.singular_candidates = _singular_points(exact, trace.window)
    return trace


def _grid_trace(F: Poly, window: tuple, res: int) -> tuple:
    """(polylines, tolerance): the marching-squares trace of {F = 0} on the
    (res + 1)^2 grid of window, as trace_variety describes it.

    F is evaluated into one grid array, one block of rows at a time
    (_row_blocks), with the same elementwise operations at every node as
    on the whole grid; the one evaluator of F serves the grid, the saddle
    centres and the bisection.  Crossed cells take their segments from
    _SEGMENTS; crossed edges get integer ids, in the order first met, and
    neighbours as arrays, and are chained into polylines on Python int
    lists, open paths first, then loops, each closed on its start.
    """
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, res + 1)
    ys = np.linspace(y0, y1, res + 1)
    feval = _float_evaluator(F)
    # per-axis grid, rows indexed by y, one block of rows at a time; F's
    # values broadcast to every node of the block
    vals = np.empty((res + 1, res + 1))
    tops = []
    with np.errstate(over="ignore", invalid="ignore"):  # grid checked next
        for rows in _row_blocks(vals.shape):
            vals[rows] = feval((xs[None, :], ys[rows, None]))
            tops.append(np.max(np.abs(vals[rows])))
        scale = float(np.max(tops))
        if not math.isfinite(scale):  # np.max passes a NaN on
            j, i = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"F is not finite at grid node "
                             f"({float(xs[i])!r}, {float(ys[j])!r}): "
                             f"{float(vals[j, i])!r}")

        # a cell is crossed when its bottom, top or left edge changes sign
        # (zeros count as positive); its code has bit 1 bottom-left, 2
        # bottom-right, 4 top-right, 8 top-left set where F >= 0.  A saddle
        # whose centre value is not >= 0 (NaN too) takes the complement;
        # one array call gives each centre the bits it gets alone.
        pos = vals >= 0.0
        across = pos[:, :-1] != pos[:, 1:]
        crossed = across[:-1] | across[1:]
        crossed |= pos[:-1, :-1] != pos[1:, :-1]
        cells = np.flatnonzero(crossed)
        row, col = np.divmod(cells, res)
        node, pos = cells + row, pos.ravel().view(np.uint8)
        code = pos[node] | pos[node + 1] << 1 | pos[node + res + 2] << 2 \
            | pos[node + res + 1] << 3
        sad = np.flatnonzero((code == 5) | (code == 10))
        i, j = col[sad], row[sad]
        mid = np.broadcast_to(feval((0.5 * (xs[i] + xs[i + 1]),
                                     0.5 * (ys[j] + ys[j + 1]))), sad.shape)
        code[sad[~(mid >= 0.0)]] ^= 15
    tol = 1e-9 * (1.0 + scale)

    # the segment graph.  Edges are seen in segments a0 b0 a1 b1 ..., cells
    # in row-major order; an edge's id is the rank of its first sighting.
    # A left (bottom) edge off the border is seen second, as the right (top)
    # edge of the cell beside (below) it, which the same order lists k-th
    # among those off the border when the left (bottom) one is k-th: so the
    # sightings pair without a sort.
    slots = _SEGMENTS[code].ravel()
    seen = np.flatnonzero(slots >= 0)
    cell, slot = seen >> 2, slots[seen]
    ci, cj = col[cell], row[cell]
    left, bottom = (slot == 2) & (ci > 0), (slot == 0) & (cj > 0)
    first = ~(left | bottom)
    eid = np.cumsum(first) - 1
    eid[left] = eid[(slot == 3) & (ci < res - 1)]
    eid[bottom] = eid[(slot == 1) & (cj < res - 1)]
    edges = _SLOT_EDGES[slot[first]]
    edges[:, 1:] += np.column_stack((ci, cj))[first]
    near = np.full((2, len(edges)), -1)
    other = eid[np.arange(len(seen)) ^ 1]
    near[0, eid[first]], near[1, eid[~first]] = other[first], other[~first]
    verts = _edge_vertices(feval, xs, ys, vals, edges, tol)

    # chain the graph, from the edges with one neighbour first.  A walk goes
    # on to an edge's first unused neighbour (a missing one, -1, reads as
    # used).  A vertex equal to the one before it (a grid node the curve
    # passes diagonally) is left out.
    (n0, n1), polylines = near.tolist(), []
    used = bytearray(len(n0)) + b"\x01"
    for start in np.flatnonzero(near[1] < 0).tolist() + list(range(len(n0))):
        if used[start]:
            continue
        used[start], chain, key = 1, [start], start
        while True:
            nxt = n0[key]
            if used[nxt]:
                nxt = n1[key]
                if used[nxt]:
                    break
            used[nxt], key = 1, nxt
            chain.append(key)
        if len(chain) > 2 and start in (n0[key], n1[key]):
            chain.append(start)
        line = [verts[k] for k in chain]
        polylines.append([v for v, u in zip(line, [None] + line) if v != u])
    return polylines, tol


# ---------------------------------------------------------------------------
# exact singular points.  A polynomial in one variable over Z is the list of
# its coefficients, lowest degree first, with no zero at the end ([] is 0);
# one in x and y ("rows") is the list, by power of x, of its coefficients in
# y.  Zero sets ignore constant factors, so gcds and quotients are taken up
# to one.

def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _add(p, q) -> list:
    return _trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def _neg(p) -> list:
    return [-c for c in p]


def _sub(p, q) -> list:
    return _add(p, _neg(q))


def _mul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _deriv(p) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _prim(p) -> list:
    """p over the gcd of its coefficients (so its sign is kept)."""
    k = math.gcd(*p)
    return [c // k for c in p] if k > 1 else list(p)


def _prem(a, b, ring=(mul, sub)) -> list:
    """lc(b)^(deg a - deg b + 1) a mod b, with coefficients in Z, or in
    Z[y] for ring = (_mul, _sub)."""
    times, minus = ring
    for k in reversed(range(len(a) - len(b) + 1)):
        c = a[k + len(b) - 1]
        a = [minus(times(x, b[-1]), times(c, b[i - k]))
             if 0 <= i - k < len(b) else times(x, b[-1])
             for i, x in enumerate(a)]
    return _trim(list(a))


def _quo(a, b, ring=(mul, sub, floordiv)) -> list:
    """a / b, where b divides a, likewise."""
    times, minus, over = ring
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = over(a[k + len(b) - 1], b[-1])
        for i, c in enumerate(b):
            a[k + i] = minus(a[k + i], times(q[k], c))
    return _trim(q)


_ZY = (_mul, _sub, _quo)  # the ring ops of _prem and _quo on Z[y]


def _ugcd(a, b) -> list:
    """gcd(a, b) by the primitive remainder sequence ([] if both are 0)."""
    a, b = _prim(a), _prim(b)
    while b:
        a, b = b, _prim(_prem(a, b))
    return a


def _squarefree(p) -> list:
    return _quo(p, _ugcd(p, _deriv(p)))


def _integer_rows(F: Poly) -> tuple:
    """(rows, den): den F as rows, den the lcm of F's denominators."""
    terms = {e: Fraction(c) for e, c in F.terms.items()}
    den = math.lcm(*(c.denominator for c in terms.values()))
    return _rows({e: int(c * den) for e, c in terms.items()}), den


def _rows(terms: dict) -> list:
    rows = [[] for _ in range(1 + max(a for a, _ in terms))]
    for (a, b), c in terms.items():
        rows[a] += [0] * (b + 1 - len(rows[a]))
        rows[a][b] += c
    return _trim([_trim(r) for r in rows])


def _poly(rows) -> Poly:
    return Poly(2, {(a, b): c for a, r in enumerate(rows)
                    for b, c in enumerate(r) if c})


def _dx(p) -> list:
    return [[c * a for c in r] for a, r in enumerate(p)][1:]


def _dy(p) -> list:
    return _trim([_deriv(r) for r in p])


def _bgcd(a, b) -> list:
    """gcd(a, b): the gcd of their contents in Z[y] times that of their
    primitive parts, by the primitive remainder sequence in x."""
    def split(p):  # (content in Z[y], primitive part)
        c = []
        for r in p:
            c = _ugcd(c, r)
        p = [_quo(r, c) for r in p]
        k = math.gcd(*(v for r in p for v in r))
        return c, [[v // k for v in r] for r in p]

    (ca, a), (cb, b) = split(a), split(b)
    while b:
        a, b = b, split(_prem(a, b, _ZY[:2]))[1]
    return [_mul(_ugcd(ca, cb), r) for r in a]


def _det(m: list) -> list:
    """The determinant of a square matrix over Z[y], by Bareiss."""
    sign, prev = 1, [1]
    for k in range(len(m) - 1):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return []
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = _quo(_sub(_mul(m[i][j], m[k][k]),
                                    _mul(m[i][k], m[k][j])), prev)
        prev = m[k][k]
    return [sign * c for c in m[-1][-1]] if m else [1]


def _subresultant(a, b, k: int = 0, j: int = 0) -> list:
    """The coefficient of x^j in the k-th subresultant in x of a and b,
    with their formal degrees len - 1: a determinant over Z[y]; the
    resultant for k = j = 0."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[[]] * i + a[::-1] + [[]] * (n - k - 1 - i) for i in range(n - k)]
    rows += [[[]] * i + b[::-1] + [[]] * (m - k - 1 - i) for i in range(m - k)]
    keep = [*range(m + n - 2 * k - 1), m + n - k - 1 - j]
    return _det([[r[c] for c in keep] for r in rows])


def _hvalue(p, v: Fraction) -> int:
    """d^deg(p) p(n / d) for v = n / d, in integers by Horner."""
    acc, dp = 0, 1
    for c in reversed(p):
        acc, dp = acc * v.numerator + c * dp, dp * v.denominator
    return acc


def _sturm(p) -> list:
    """The Sturm sequence of the square-free p, each member primitive."""
    seq = [p, _deriv(p)]
    while len(seq[-1]) > 1:
        a, b = seq[-2:]
        r = _prem(a, b)  # lc(b)^(deg a - deg b + 1) times the remainder
        seq.append(_prim(r if b[-1] < 0 and (len(a) - len(b)) % 2 == 0
                         else _neg(r)))
    return seq


def _changes(seq, v: Fraction) -> int:
    """Sign changes of the Sturm sequence at v, zeros left out:
    _changes(seq, a) - _changes(seq, b) roots of seq[0] lie in (a, b]."""
    signs = [s > 0 for s in map(_hvalue, seq, [v] * len(seq)) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _real_roots(p, lo: Fraction, hi: Fraction) -> list:
    """The real roots of the square-free p in [lo, hi], in increasing
    order: each rational one as a Fraction, each other as (seq, a, b), seq
    the Sturm sequence and (a, b] an interval holding only that root.

    An interval holding more than one root is halved; one holding one, until
    it is shorter than 1 / L for L = |lc(p)| or ends at the root.  The
    denominator of a rational root of the integer p divides L, so the root
    is then the one multiple of 1 / L in (a, b].
    """
    seq, big = _sturm(p), abs(p[-1])
    out, todo = [lo] if not _hvalue(p, lo) else [], [(lo, hi)]
    while todo:
        a, b = todo.pop()
        k = _changes(seq, a) - _changes(seq, b)
        if k > 1:
            todo += [((a + b) / 2, b), (a, (a + b) / 2)]
        elif k:
            while _hvalue(p, b) and (b - a) * big >= 1:
                m = (a + b) / 2
                a, b = (a, m) if _changes(seq, a) > _changes(seq, m) \
                    else (m, b)
            c = Fraction(math.floor(a * big) + 1, big)
            out.append(b if not _hvalue(p, b) else c
                       if c <= b and not _hvalue(p, c) else (seq, a, b))
    return out


def _zero_at(u, root) -> bool:
    """Whether u is 0 at the root of _real_roots, a Fraction or (seq, a, b)."""
    if isinstance(root, Fraction):
        return not _hvalue(u, root)
    seq, a, b = root
    g = _ugcd(u, seq[0])
    return len(g) > 1 and _changes(seq := _sturm(g), a) > _changes(seq, b)


def _rounded(root, coords) -> tuple:
    """The floats of the coordinates N(s) / D(s), (N, D) in coords, at the
    root s of _real_roots: rounded once at a rational s; for (seq, a, b),
    those at a once they are those at b, bisecting (a, b] until then.  A
    coordinate whose ends round to two neighbouring floats is first tested
    for their mean exactly (N - mean D is 0 at s), as no bisection sets the
    two apart, and is then that mean rounded once, ties to even."""
    n = max(len(u) for c in coords for u in c)

    def at(v):
        return [float(Fraction(*(_hvalue(u + [0] * (n - len(u)), v)
                                 for u in c))) for c in coords]

    if isinstance(root, Fraction):
        return tuple(at(root))
    seq, a, b = root
    ties: dict = {}  # coordinate -> the float of the mean it equals
    while True:
        try:
            ends = at(a), at(b)
        except ZeroDivisionError:  # at is a quotient with a pole near root
            pass
        else:
            for k, (u, w) in enumerate(zip(*ends)):
                half, (N, D) = (Fraction(u) + Fraction(w)) / 2, coords[k]
                if k not in ties and u != w and math.nextafter(u, w) == w \
                        and _zero_at(_sub(_mul(N, [half.denominator]),
                                          _mul(D, [half.numerator])), root):
                    ties[k] = float(half)
            lo, hi = ([ties.get(k, u) for k, u in enumerate(e)] for e in ends)
            if lo == hi:
                return tuple(lo)
        m = (a + b) / 2
        a, b = (a, m) if _changes(seq, a) > _changes(seq, m) else (m, b)


def _singular_points(p, window) -> list:
    """The points where p = p_x = p_y = 0 in the closed window, for a
    square-free p, each coordinate rounded to float once, in order of y
    then x.

    In the sheared coordinates (x, s = y + t x), t = 0, 1, ..., with
    A(x, s) = p(x, s - t x): h is the gcd of the nonzero resultants in x
    of (A_x, A_s), (A, A_x) and (A, A_s), so every singular point has an s
    among h's real roots (isolated by Sturm sequences in the window's
    s-range), and there is none when h is constant.  Above each root s
    where A's leading coefficient in x is not 0, the first subresultant
    S_k in x of A and A_x whose leading coefficient S_kk is not 0 at s is
    their gcd at s.  If it is S_kk (x - x0)^k there, x0 = P / Q with
    P = -S_k,k-1 and Q = k S_kk is the one common zero of A and A_x in the
    fibre, singular where N(s) = Q^deg A_s(x0, s) is 0.  If S_k is not
    that power, or the leading coefficient is 0, the fibre is not in
    generic position (Gonzalez-Vega and Necula, CAGD 2002) and the loop
    takes the next t.  Each test is exact at s (_zero_at).
    A coordinate that is 0 is exactly 0, the other then exactly s or s / t;
    each is rounded from its value at a rational s, else from both ends of
    an interval (_rounded).  A point counts when its rounded coordinates
    lie in the window.
    """
    if not _dx(p) or not _dy(p):  # then the square-free p has none
        return []
    x0, x1, y0, y1 = map(Fraction, window)
    for t in count():
        A = _shear(p, t) if t else p
        Ax, As = _dx(A), _dy(A)
        h: list = []
        for a, b in ((Ax, As), (A, Ax), (A, As)):
            if a and b:
                h = _ugcd(h, _subresultant(a, b))
                if len(h) == 1:
                    return []
        sub = cache(lambda k, j: _subresultant(A, Ax, k, j))  # S_kj
        points = []
        for s in _real_roots(_squarefree(h), y0 + t * x0, y1 + t * x1):
            if _zero_at(A[-1], s):
                break
            k = next(k for k in count(1) if not _zero_at(sub(k, k), s))
            P, Q = _neg(sub(k, k - 1)), [k * c for c in sub(k, k)]
            # S_k = S_kk (x - P / Q)^k iff S_k' (Q x - P) = k Q S_k
            if not all(_zero_at(_add(
                    _mul(Q, [(k - j) * c for c in sub(k, j)]),
                    _mul(P, [(j + 1) * c for c in sub(k, j + 1)])), s)
                    for j in range(k - 1)):
                break
            N, power = [], [1]  # sum of As's c_a P^a Q^(deg - a)
            for c in reversed(As):
                N, power = _add(_mul(N, P), _mul(c, power)), _mul(power, Q)
            if not _zero_at(N, s):
                continue
            Y = _sub([0] + Q, [t * c for c in P])  # y = s - t x = Y / Q
            zx, zy = _zero_at(P, s), _zero_at(Y, s)
            # a coordinate that is 0 is exactly 0, the other s or s / t
            points.append(_rounded(s, (([], [1]), ([0, 1], [1])) if zx else
                                   (([0, 1], [t]), ([], [1])) if zy and t
                                   else ((P, Q), (Y, Q))))
        else:
            return sorted((pt for pt in points
                           if x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1),
                          key=lambda pt: (pt[1], pt[0]))


def _shear(p, t: int) -> list:
    """p(x, s - t x) as rows in x and s."""
    terms: dict = {}
    for a, r in enumerate(p):
        for b, c in enumerate(r):
            for k in range(b + 1):
                terms[a + k, b - k] = terms.get((a + k, b - k), 0) \
                    + c * math.comb(b, k) * (-t) ** k
    return _rows(terms)


__all__ = [
    "GohSystem",
    "VarietyTrace",
    "check_resolution",
    "goh_polynomials",
    "trace_variety",
    "variety_membership",
]
