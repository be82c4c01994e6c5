"""Goh-variety polynomials F^{h,k} and plane-curve tracing for rank 2.

For a normal-form frame whose coefficients depend only on x_1..x_r, the
second-order (Goh) annihilation conditions along a trajectory reduce to
polynomial constraints on the base projection: F^{h,k}(x) built from the
lambda-weighted curls of the coefficient matrix.  The rank-2 variety
{F^{1,2} = 0} is traced by marching squares, its vertices refined by a
bisection of every crossed edge at once, with a singular-candidate scan.
The grid passes run one block of rows at a time, so the only grid-sized
float array of a trace is F's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .metabelian import coefficient_dependence
from .floateval import _float_evaluator, _float_rows
from .normalform import verify_normal_form
from .options import RES_MAX, check_resolution
from .polyfield import Frame, Poly
from .serialize import _ratio, artifact

# points per lock-step block of Newton and bisection (bounds temporaries)
SCAN_ROWS = 4096


def _as_exact(c):
    if isinstance(c, (Fraction, int, str)):
        return Fraction(c)
    return c  # float stays float; polynomials then carry float coefficients


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
    polynomials is not valid) and a nonzero covector.
    """
    n, r = frame.n, frame.r
    lam = [_as_exact(c) for c in lam]
    if len(lam) != n:
        raise ValueError(f"covector needs {n} entries")
    if not any(lam):
        raise ValueError("covector must be nonzero")
    if not verify_normal_form(frame)["ok"]:
        raise PreconditionError("frame is not in normal form")
    if not coefficient_dependence(frame):
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

    A point whose length is not r is a ValueError naming its index and
    length; so is a point that is not finite, or where some F^{h,k}
    overflows (a power overflows, a product gives inf, a sum of opposite
    infinities NaN), naming the point's index and the pair.  The points
    are converted once and each F^{h,k} is evaluated at all of them as
    float64 arrays, so every value has the bits a scalar loop gives it on
    Python floats; the error raised is the one that loop meets first,
    points outermost, then the pairs in order, and at one point a wrong
    length before a non-finite entry before an overflow.
    """
    points = getattr(curve, "points", curve)
    x, bad = _float_rows(points, sys.r)
    cols = x.T.copy()  # one contiguous array per coordinate
    pairs = list(sys.polys)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        values = [np.abs(np.broadcast_to(_float_evaluator(p)(cols), len(x)))
                  for p in sys.polys.values()]
    # row 0: the point is not finite; row 1 + m: F of pair m is not
    faults = np.vstack([~np.isfinite(x).all(axis=1)]
                       + [~np.isfinite(v) for v in values])
    hit = np.flatnonzero(faults.any(axis=0))
    if hit.size:
        idx = int(hit[0])
        pt = x[idx].tolist()
        if faults[0, idx]:
            raise ValueError(f"curve point {idx} is not finite: {pt}")
        h, k = pairs[int(np.argmax(faults[1:, idx]))]
        raise ValueError(f"F^({h},{k}) overflows at curve point {idx}: {pt}")
    if bad is not None:
        raise ValueError(f"curve point {bad} has {len(points[bad])} "
                         f"coordinates, not {sys.r}")
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


def _edge_vertices(evaluate, xs, ys, vals, edges: list, tol) -> list:
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


def _crossed_cells(vals: np.ndarray):
    """(j, i, code) of every cell the zero set crosses, in row-major order.

    Bits of the marching-squares code mark the corners with F >= 0 (zeros
    count as positive): 1 bottom-left, 2 bottom-right, 4 top-right, 8 top-left.
    Codes 0 and 15 are left out.  The codes, one byte per cell, are computed
    for the whole grid at once and die with the call; the crossed cells are
    found by flat index (a 2-D np.nonzero costs about ten times as much).
    """
    pos = (vals >= 0.0).view(np.uint8)
    codes = pos[:-1, :-1] | pos[:-1, 1:] << 1 | pos[1:, 1:] << 2 \
        | pos[1:, :-1] << 3
    cells = np.flatnonzero((codes != 0) & (codes != 15))
    rows, cols = np.divmod(cells, codes.shape[1])
    return zip(rows.tolist(), cols.tolist(), codes.ravel()[cells].tolist())


# The segments of a crossed cell, by its code, as pairs of edges (kind, di,
# dj) of the cell whose lower-left node is (i, j): kind 0 runs from node
# (i + di, j + dj) to the right, kind 1 upwards.  So bottom is (0, 0, 0),
# top (0, 0, 1), left (1, 0, 0) and right (1, 1, 0).  The saddle codes 5
# and 10 are keyed with F(centre) >= 0.
_SEGMENTS = {
    1: (((1, 0, 0), (0, 0, 0)),),
    2: (((0, 0, 0), (1, 1, 0)),),
    3: (((1, 0, 0), (1, 1, 0)),),
    4: (((0, 0, 1), (1, 1, 0)),),
    6: (((0, 0, 0), (0, 0, 1)),),
    7: (((1, 0, 0), (0, 0, 1)),),
    8: (((1, 0, 0), (0, 0, 1)),),
    9: (((0, 0, 0), (0, 0, 1)),),
    11: (((0, 0, 1), (1, 1, 0)),),
    12: (((1, 0, 0), (1, 1, 0)),),
    13: (((0, 0, 0), (1, 1, 0)),),
    14: (((1, 0, 0), (0, 0, 0)),),
    (5, True): (((1, 0, 0), (0, 0, 1)), ((0, 0, 0), (1, 1, 0))),
    (5, False): (((1, 0, 0), (0, 0, 0)), ((0, 0, 1), (1, 1, 0))),
    (10, True): (((1, 0, 0), (0, 0, 0)), ((0, 0, 1), (1, 1, 0))),
    (10, False): (((1, 0, 0), (0, 0, 1)), ((0, 0, 0), (1, 1, 0))),
}


def trace_variety(sys: GohSystem, window=(-2.0, 2.0, -2.0, 2.0),
                  resolution: int = 512) -> VarietyTrace:
    """Marching-squares trace of {F^{1,2} = 0} with refined vertices.

    Every emitted vertex is driven by bisection to |F| <= 1e-9 (1 + max|F|
    over the grid).  Zero corner values count as positive so curves through
    grid nodes are kept.  F identically zero reports the whole plane.  F is
    evaluated into one grid array, one block of rows at a time (_row_blocks),
    with the same elementwise operations at every node as on the whole grid;
    the one evaluator of F serves the grid, the saddle centres and the
    bisection.
    """
    if sys.r != 2:
        raise ValueError("plane tracing needs a rank-2 system")
    F = sys.poly(1, 2)
    x0, x1, y0, y1 = (float(v) for v in window)
    for name, v in zip(("x_min", "x_max", "y_min", "y_max"), (x0, x1, y0, y1)):
        if not math.isfinite(v):
            raise ValueError(f"window {name} is not finite: {v!r}")
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

        # the segment graph: each crossed edge (kind, i, j) and its
        # neighbours.  Saddle centres run on Python floats: the same IEEE
        # operations as on np.float64 scalars, at less cost per operation.
        px, py = xs.tolist(), ys.tolist()
        links: dict[tuple, list] = {}
        for j, i, code in _crossed_cells(vals):
            if code in (5, 10):
                centre = 0.5 * (px[i] + px[i + 1]), 0.5 * (py[j] + py[j + 1])
                code = (code, feval(centre) >= 0.0)
            for (ka, da, ea), (kb, db, eb) in _SEGMENTS[code]:
                a, b = (ka, i + da, j + ea), (kb, i + db, j + eb)
                links.setdefault(a, []).append(b)
                links.setdefault(b, []).append(a)
    tol = 1e-9 * (1.0 + scale)
    trace.tolerance = tol

    edges = list(links)
    verts = dict(zip(edges, _edge_vertices(feval, xs, ys, vals, edges, tol)))

    # chain the graph into polylines, open paths first, then loops.  An edge
    # has at most two neighbours and the one a walk came from is used, so
    # the walk goes on to the unused one.
    ends = [k for k, adj in links.items() if len(adj) == 1]
    used = set()
    for start in ends + list(links):
        chain, key = [], start
        while key not in used:
            used.add(key)
            chain.append(key)
            key = next((k for k in links[key] if k not in used), key)
        if len(chain) > 2 and start in links[key]:
            chain.append(start)
        if chain:
            trace.polylines.append([verts[k] for k in chain])

    trace.singular_candidates = _singular_candidates(F, xs, ys, vals, scale,
                                                     tol)
    return trace


def _pre_candidates(grad, xs, ys, vals, scale: float, cell) -> tuple:
    """(nodes, gscale): the flat row-major indices of the grid nodes where
    |F| <= (1 + scale) cell and |grad F| <= (1 + gscale) cell 4, in order,
    and gscale, the largest |grad F| = hypot(F_x, F_y) over the grid, for
    the evaluator grad of (F_x, F_y).

    scale is max |F| over the grid.  The gradient is evaluated one block of
    rows at a time, and hypot runs only where its value is needed: on the
    nodes of the |F| band, and on a block's nodes whose s = F_x^2 + F_y^2
    is within a factor 1 - 2^-40 of the block's largest s.  hypot and
    fl(s) each lie within a few ulp of the exact |grad F| and its square,
    so the node where hypot is largest is among those.  Where the block's
    largest s is not finite (an overflow, a NaN) or near the underflow
    range, where fl(s) is no such bound, hypot runs on the whole block.
    gscale is the np.max of the block maxima, so a NaN passes on as it does
    on the whole grid.
    """
    small = (1.0 + scale) * cell
    tops, band, norms = [], [], []
    for rows in _row_blocks(vals.shape):
        block = vals[rows]
        gx, gy = (np.broadcast_to(g, block.shape)
                  for g in grad((xs[None, :], ys[rows, None])))
        with np.errstate(over="ignore"):  # an inf square takes the whole block
            s = gx * gx + gy * gy
        top = np.max(s)
        if 2.0 ** -800 < top < math.inf:  # False for a NaN
            near = s >= top * (1.0 - 2.0 ** -40)
            tops.append(np.max(np.hypot(gx[near], gy[near])))
        else:
            tops.append(np.max(np.hypot(gx, gy)))
        inband = np.abs(block) <= small
        band.append(np.flatnonzero(inband) + rows.start * vals.shape[1])
        norms.append(np.hypot(gx[inband], gy[inband]))
    gscale = float(np.max(tops))
    nodes = np.concatenate(band)
    return nodes[np.concatenate(norms) <= (1.0 + gscale) * cell * 4.0], gscale


def _singular_candidates(F: Poly, xs, ys, vals, scale: float, tol) -> list:
    """Singular points of {F = 0} near the grid, in grid order.

    Every grid node where F and its gradient are small at the node scale is
    a pre-candidate (_pre_candidates; scale is max |F| over the grid).  From
    each, damped Newton solves three 2x2 systems:
    (F, F_x), (F, F_y) and (F_x, F_y).  A solution counts if |F| <= tol and
    |grad F| <= gtol there; of those the first with the least |grad F| wins,
    and a winner within a cell of an earlier one is dropped.  Pre-candidates
    run in blocks of SCAN_ROWS, each block's solves in lock step as arrays,
    so every point gets the bits it gets alone as Python floats; a value
    that overflows is inf, not an error.
    """
    fx, fy = F.diff(0), F.diff(1)
    grad = _float_evaluator(fx, fy)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    nodes, gscale = _pre_candidates(grad, xs, ys, vals, scale, cell)
    if nodes.size == 0:
        return []

    # each system's residual pair and Jacobian come from one evaluator each
    # (the third's pair is the gradient's); fxy and fyx may order their
    # terms differently, so each keeps its own
    fxx, fxy, fyx, fyy = fx.diff(0), fx.diff(1), fy.diff(0), fy.diff(1)
    systems = [(_float_evaluator(F, fx), _float_evaluator(fx, fy, fxx, fxy)),
               (_float_evaluator(F, fy), _float_evaluator(fx, fy, fyx, fyy)),
               (grad, _float_evaluator(fxx, fxy, fyx, fyy))]
    accept = _float_evaluator(F, fx, fy)

    gtol = 1e-7 * (1.0 + gscale)
    found: list = []
    for lo in range(0, len(nodes), SCAN_ROWS):
        j, i = np.divmod(nodes[lo:lo + SCAN_ROWS], len(xs))
        x0, y0 = xs[i], ys[j]
        best = np.full(len(x0), np.inf)
        has = np.zeros(len(x0), dtype=bool)
        bx, by = np.empty_like(x0), np.empty_like(x0)
        with np.errstate(over="ignore", invalid="ignore"):  # inf fails below
            for pq, jac in systems:
                x, y, ok = _newton(pq, jac, x0, y0)
                f, gx, gy = _at(accept, x, y)
                score = np.hypot(gx, gy)
                take = ok & (np.abs(f) <= tol) & (score <= gtol) \
                    & (~has | (score < best))
                best[take], bx[take], by[take] = score[take], x[take], y[take]
                has |= take
            _dedupe(found, bx[has], by[has], cell)
    return found


def _dedupe(found: list, x, y, cell) -> None:
    """Append to found, in order, each point (x[m], y[m]) that lies farther
    than cell from every point found before it."""
    for u, v in found:
        far = np.hypot(x - u, y - v) > cell
        x, y = x[far], y[far]
    while x.size:  # the first point left is found; it drops itself (cell > 0)
        found.append((float(x[0]), float(y[0])))
        far = np.hypot(x - x[0], y - y[0]) > cell
        x, y = x[far], y[far]


def _at(evaluate, x, y) -> list:
    """Each value of evaluate at the points (x, y) as an array of their shape
    (a constant polynomial evaluates to one float)."""
    return [v if np.shape(v) == x.shape else np.full(x.shape, v)
            for v in evaluate((x, y))]


def _newton(pq, jac, x, y):
    """(x, y, ok): damped Newton on the 2x2 system pq from every point
    (x[m], y[m]) at once, the Jacobian rows read from jac.

    Each point runs the scalar rule alone: at most 60 iterations; stop at a
    zero residual |r0| + |r1|; fail (ok False) on a zero or non-finite
    determinant; try the steps 1, 1/2, ... down to 1e-6 and take the first
    that lowers the residual, carrying its residuals on; stop where none
    does.  An index array holds the points still iterating.
    """
    x, y = x.copy(), y.copy()
    ok = np.ones(len(x), dtype=bool)
    act = np.arange(len(x))
    r0, r1 = _at(pq, x, y)
    for _ in range(60):
        res = np.abs(r0) + np.abs(r1)
        live = res != 0.0
        act, res, r0, r1 = act[live], res[live], r0[live], r1[live]
        if not act.size:
            break
        px, py = x[act], y[act]
        j00, j01, j10, j11 = _at(jac, px, py)
        det = j00 * j11 - j01 * j10
        live = (det != 0.0) & np.isfinite(det)
        ok[act[~live]] = False
        act, res, r0, r1, px, py, j00, j01, j10, j11, det = (
            a[live] for a in (act, res, r0, r1, px, py, j00, j01, j10, j11,
                              det))
        dx = (r0 * j11 - r1 * j01) / det
        dy = (j00 * r1 - j10 * r0) / det
        # todo indexes the points whose line search goes on
        todo = np.arange(len(act))
        step = 1.0
        while step > 1e-6 and todo.size:
            nx, ny = px[todo] - step * dx[todo], py[todo] - step * dy[todo]
            n0, n1 = _at(pq, nx, ny)
            down = np.abs(n0) + np.abs(n1) < res[todo]
            hit = todo[down]
            px[hit], py[hit], r0[hit], r1[hit] = nx[down], ny[down], \
                n0[down], n1[down]
            todo = todo[~down]
            step *= 0.5
        x[act], y[act] = px, py
        act, r0, r1 = (np.delete(a, todo) for a in (act, r0, r1))
    return x, y, ok


__all__ = [
    "GohSystem",
    "VarietyTrace",
    "check_resolution",
    "goh_polynomials",
    "trace_variety",
    "variety_membership",
]
