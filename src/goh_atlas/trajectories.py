"""Numeric trajectory layer: control flows, horizontal lifts, variational
and adjoint propagation, extremal residuals, covector recovery, the
log-phase spiral, and the polynomial non-containment probe.

Controls are piecewise linear on a uniform grid (callables are accepted
wherever a control is, for convergence studies with exact derivatives).
The five integrators (flow, Jacobians, pushforward residual, extremal
residuals, recovery) share one classical RK4 scheme (configurable
sub-stepping) on the drift sum_k u_k X_k and its Jacobian
A = sum_k u_k DX_k, and give the bits of the plain step loop.

Component j of a field reads some coordinates.  When that graph has no
cycle (realized and normal-form frames are triangular, weights or not),
the coordinates split into levels that read only lower ones, and x is
integrated one level at a time over all steps of a window of the grid:
the level's four stage derivatives from the known lower-level stage
states, its node values by np.add.accumulate (the loop's own order of
additions), then its stage states.  All else steps through the one
sequential stepper `_rk4`: x of a frame with a cycle, on the control
values at the stage times, and in `_propagate` the linear matrix states
(J, the adjoint row, K), one product per stage with A batch-evaluated at
the recorded stage states.  Windows end at grid nodes, where the step loop
restarts anyway, and bound the memory on long grids.  Each integrator
checks its state for non-finite values at every grid node; the adjoint
row is paired once per window.  The covector is always propagated by the
adjoint equation rather than by inverting Jacobians.  A frame's
evaluators are compiled on its first use and kept on it (`_compiled`).

A frame also keeps the x path of its latest trajectory under a Control
whose grid fits one window (WINDOW_STEPS // substeps steps), keyed by the
exact bytes of the control's ts and values, of x0 and of substeps: step
sizes, node and stage states, stage controls and, once a matrix state has
needed them, A's pattern values at the stages.  The integrators along one
curve thus integrate x and evaluate A once, each with a cold call's bits
(the same arrays meet the same operations).  A frame holds one window at
most (2.4 MB at n = 41); callable controls, longer grids and paths that
blow up are not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby, islice

import numpy as np

from . import floateval
from .errors import NumericsError
from .floateval import CompiledPolys
from .options import DEGREE_MAX
from .polyfield import Frame, compile_polyvec, lie_bracket_fields
from .serialize import artifact, check_artifact


def _float_list(xs):
    return [float(x) for x in xs]


def _from_function(cls, f, t0: float, t1: float, n_steps: int):
    """cls(ts, rows) with f sampled at n_steps + 1 uniform nodes t0..t1."""
    ts = np.linspace(t0, t1, n_steps + 1)
    return cls(ts, [_float_list(f(t)) for t in ts])


def _first_fault(name: str, data, depth: int) -> None:
    """Raise a ValueError naming the first entry, by index, that keeps data
    from being depth nested lists of finite numbers in rows of one length;
    return if there is none."""
    if not depth:
        try:
            value = float(data)
        except (TypeError, ValueError):
            raise ValueError(f"{name} is not a number: {data!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    elif not isinstance(data, (list, tuple)) and np.ndim(data) == 0:
        raise ValueError(f"{name} is not a list: {data!r}")
    else:
        for i, item in enumerate(data):
            _first_fault(f"{name}[{i}]", item, depth - 1)
            if depth == 2 and len(item) != len(data[0]):
                raise ValueError(f"{name}[{i}] has length {len(item)}, not "
                                 f"{len(data[0])}")


def _sampled(kind: str, ts, rows, least: int) -> tuple:
    """(ts, rows) as float arrays if ts is a grid of finite, strictly
    increasing nodes, at least least of them, and rows one row of finite
    numbers per node; otherwise a ValueError naming the first bad entry by
    field, row and column, as in "curve values[3][1]"."""
    try:
        t, values = np.asarray(ts, dtype=float), np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        t = values = None
    if t is None or t.ndim != 1 or values.ndim != 2 \
            or not (np.isfinite(t).all() and np.isfinite(values).all()):
        _first_fault(f"{kind} t", ts, 1)
        _first_fault(f"{kind} values", rows, 2)
        if t is None or values.size:  # an empty list fails the count below
            raise ValueError(f"{kind} values is not a list of rows")
    if len(t) < least:
        raise ValueError(f"{kind} t needs at least {least} nodes, got {len(t)}")
    down = np.flatnonzero(t[1:] <= t[:-1])
    if down.size:
        i = int(down[0])
        raise ValueError(f"{kind} t is not strictly increasing: t[{i + 1}] = "
                         f"{t[i + 1].item()!r} after t[{i}] = {t[i].item()!r}")
    if len(values) != len(t):
        raise ValueError(f"{kind} values has {len(values)} rows, not one per "
                         f"node of t ({len(t)})")
    return t, values


@dataclass
class Control:
    """Piecewise-linear control values on a uniform time grid."""

    ts: np.ndarray
    values: np.ndarray  # shape (N+1, r)

    def __post_init__(self):
        self.ts, self.values = _sampled("control", self.ts, self.values, 2)
        d = np.diff(self.ts)
        if np.max(np.abs(d - d[0])) > 1e-9 * (self.ts[-1] - self.ts[0]):
            raise ValueError("control t must be uniform")

    @property
    def r(self) -> int:
        return self.values.shape[1]

    def __call__(self, t: float) -> np.ndarray:
        return np.array([np.interp(t, self.ts, self.values[:, k])
                         for k in range(self.values.shape[1])])

    from_function = classmethod(_from_function)

    def to_json(self) -> dict:
        return artifact("control", {"t": self.ts.tolist(),
                                    "values": self.values.tolist()})

    @staticmethod
    def from_json(data: dict) -> "Control":
        check_artifact(data, "control", "t", "values")
        return Control(data["t"], data["values"])


@dataclass
class SampledCurve:
    ts: np.ndarray
    points: np.ndarray  # shape (N+1, m)

    def __post_init__(self):
        self.ts, self.points = _sampled("curve", self.ts, self.points, 1)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    from_function = classmethod(_from_function)

    def to_json(self) -> dict:
        return artifact("curve", {"t": self.ts.tolist(),
                                  "values": self.points.tolist()})

    @staticmethod
    def from_json(data: dict) -> "SampledCurve":
        check_artifact(data, "curve", "t", "values")
        # a flow may end on one node, but lift and contain read two or more
        return SampledCurve(*_sampled("curve", data["t"], data["values"], 2))


@dataclass
class JacobianPath:
    ts: np.ndarray
    mats: list  # n x n arrays, mats[0] = identity
    dets: np.ndarray


def _non_finite(what: str, node: int, t):
    return NumericsError(f"{what} produced non-finite values at node {node} "
                         f"(t = {float(t):.6g})")


def _finite(values, name: str) -> np.ndarray:
    """values as a float array; ValueError naming the first non-finite one."""
    out = np.array(_float_list(values), dtype=float)
    if not np.isfinite(out).all():
        _first_fault(name, out.tolist(), 1)
    return out


WINDOW_STEPS = 512  # RK4 steps integrated together (bounds the stage arrays)


def _rk4(deriv, y, h, inputs, negate=False):
    """Classical RK4 of ydot = deriv(a, y), or of -deriv(a, y) if negate.

    One step per entry of h, on its four stage inputs a from inputs.  The
    stage states are y + c*k, and k1 + 2 k2 + 2 k3 + k4 is summed in place
    in k1, so deriv returns a new array; negate folds the sign in exactly
    (c*(-k) is -(c*k), y + (-z) is y - z).  Yields each step's four stage
    states and its end state, never written again: callers may keep them.
    """
    add = np.subtract if negate else np.add
    for hs, (a1, a2, a3, a4) in zip(h, inputs):
        k1 = deriv(a1, y)
        y2 = add(y, (0.5 * hs) * k1)
        k2 = deriv(a2, y2)
        y3 = add(y, (0.5 * hs) * k2)
        k3 = deriv(a3, y3)
        y4 = add(y, hs * k3)
        k4 = deriv(a4, y4)
        stages = (y, y2, y3, y4)
        if negate:
            np.negative(k1, out=k1)
        add(k1, 2.0 * k2, out=k1)
        add(k1, 2.0 * k3, out=k1)
        add(k1, k4, out=k1)
        y = y + (hs / 6.0) * k1
        yield stages, y


def _drift(evs, uk, pts):
    """Rows sum_k uk[:, k] * ev_k(pts): the drift at a batch of points.

    evs are compiled per field (all on the same component list), so this is
    sum_k u_k X_k, or sum_k u_k DX_k on a Jacobian pattern.  Terms with
    u_k = 0 are skipped, and so are all-zero fields (DX_1 = 0): a sum from
    zeros is never -0.0, so adding +-0.0 (u_k is finite) changes nothing.
    """
    out = np.zeros((len(pts), evs[0].count))
    for k, ev in enumerate(evs):
        if not ev.ranks:  # no terms
            continue
        c = uk[:, k]
        live = c != 0.0
        if live.all():
            out += c[:, None] * ev(pts)
        elif live.any():
            out[live] += c[live, None] * ev(pts[live])
    return out


def _dependencies(frame: Frame) -> list[list[int]]:
    """The coordinates that component j of some frame field reads, per j."""
    return [sorted(set().union(*(f.comps[j].variables() for f in frame.fields)))
            for j in range(frame.n)]


def _levels(deps: list[list[int]]) -> list[np.ndarray] | None:
    """Coordinates grouped by dependency level, or None on a cycle.

    Level 0 reads no coordinate; level L reads only levels below L, so in
    a weight-graded frame a coordinate's level is below its weight.
    """
    level: dict[int, int] = {}
    todo = set(range(len(deps)))
    while todo:
        ready = {j for j in todo if all(i in level for i in deps[j])}
        if not ready:
            return None
        for j in ready:
            level[j] = max((level[i] + 1 for i in deps[j]), default=0)
        todo -= ready
    return [np.array(sorted(j for j in level if level[j] == lv))
            for lv in range(max(level.values()) + 1)]


def _compiled(frame: Frame, what: str):
    """The stepping evaluators `what` of frame, compiled on its first use.

    They are kept on the frame, which is not mutated after construction,
    so every integrator call on one frame shares them:
    - "levels": (levels, evaluators), with one evaluator per field on each
      level's components, or (None, one evaluator per field) on a cycle;
    - "jacobian": (flat indices into n x n of the union pattern of the
      fields' Jacobians, one evaluator per field on that pattern);
    - "pairings": X_k for each k, then [X_h, X_k] for each h < k.

    `_windows` keeps its one-window x path there too, under "path".
    """
    got = frame._evaluators.get(what)
    if got is None:
        got = frame._evaluators[what] = _COMPILE[what](frame)
    return got


def _compile_levels(frame: Frame):
    levels = _levels(_dependencies(frame))
    if levels is None:
        return None, [CompiledPolys(f.comps) for f in frame.fields]
    return levels, [[CompiledPolys([f.comps[j] for j in cols])
                     for f in frame.fields] for cols in levels]


def _compile_jacobian(frame: Frame):
    pattern = [(j, i) for j, deps in enumerate(_dependencies(frame))
               for i in deps]
    return ([j * frame.n + i for j, i in pattern],
            [CompiledPolys([f.comps[j].diff(i) for j, i in pattern])
             for f in frame.fields])


def _compile_pairings(frame: Frame):
    f = frame.fields
    return [compile_polyvec(v) for v in f] + [
        compile_polyvec(lie_bracket_fields(f[h], f[k]))
        for h, k in combinations(range(len(f)), 2)]


_COMPILE = {"levels": _compile_levels, "jacobian": _compile_jacobian,
            "pairings": _compile_pairings}


@dataclass(eq=False)  # windows are told apart by identity
class _Window:
    """RK4 data of the grid intervals lo..hi-1 (nodes lo..hi).

    A kept window is shared by every call that finds it on its frame, so
    no caller writes into its arrays.
    """

    lo: int
    grid: np.ndarray      # the grid nodes lo..hi
    substeps: int
    h: np.ndarray         # (S,) sizes of the window's S steps
    nodes: np.ndarray     # (hi - lo + 1, n) states at those nodes
    stages: np.ndarray    # (S, 4, n) stage states of the window's S steps
    controls: np.ndarray  # (S, 4, r) control values at the stage times
    drift: np.ndarray | None = None  # (4S, pattern) A, once first needed

    @property
    def first(self) -> int:
        """Index of the first node the previous window has not given."""
        return 1 if self.lo else 0


def _stage_controls(u, r: int, grid, substeps: int):
    """Step sizes (S,) and control values (S, 4, r) at the stage times.

    Stage times are those of the step loop: t += h per step (summed in
    that order by np.add.accumulate), and t + 0.5*h, t + h inside a step.
    A Control is interpolated once per column over all of them; a callable
    is called once per stage, in order.
    """
    h = (grid[1:] - grid[:-1]) / substeps
    t = np.add.accumulate(np.column_stack(
        [grid[:-1], np.repeat(h[:, None], substeps - 1, axis=1)]), axis=1)
    hs = h[:, None]
    times = np.stack([t, t + 0.5 * hs, t + 0.5 * hs, t + hs],
                     axis=-1).reshape(-1, 4)
    if isinstance(u, Control):
        vals = np.stack([np.interp(times, u.ts, u.values[:, k])
                         for k in range(r)], axis=-1)
    else:
        vals = np.empty(times.shape + (r,))
        for idx, t in np.ndenumerate(times):
            row = _float_list(u(t))
            if len(row) != r:
                raise ValueError(f"control returned {len(row)} values at "
                                 f"t = {t:.6g}, but the frame has r = {r} "
                                 f"fields")
            vals[idx] = row
        bad = np.argwhere(~np.isfinite(vals))  # the first in call order
        if len(bad):
            i, k = tuple(bad[0, :2]), bad[0, 2]
            raise ValueError(f"control value u_{k + 1} = {vals[i][k]} at "
                             f"t = {times[i]:.6g} is not finite")
    return np.repeat(h, substeps), vals


def _windows(frame: Frame, u, x0, substeps: int, ts):
    """(grid, iterator of _Window): RK4 of xdot = sum_k u_k X_k(x).

    The grid is cut into windows of about WINDOW_STEPS steps; a window
    starts from its predecessor's last node, as the step loop does at
    every grid node.  When the frame's coordinates have dependency levels,
    each level is integrated over the window's steps at once (see the
    module docstring); a frame with a dependency cycle steps through
    _rk4 instead.  Both give the bits of the plain loop.  A finite path
    under a Control that fits one window is kept (module docstring).
    """
    x0 = _finite(x0, "x0")
    n, r = frame.n, frame.r
    if len(x0) != n:
        raise ValueError(f"x0 has {len(x0)} entries, but the frame lives in "
                         f"R^{n}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if isinstance(u, Control):
        grid = u.ts.copy()  # a result's grid is its own, not the control's
        if u.r != r:
            raise ValueError(f"control has {u.r} columns, but the frame has "
                             f"r = {r} fields")
    elif callable(u):
        if ts is None:
            raise ValueError("callable controls need an explicit time grid")
        grid = np.array(ts, dtype=float)
    else:
        raise TypeError("control must be a Control or a callable t -> values")
    levels, evs = _compiled(frame, "levels")
    span = max(1, WINDOW_STEPS // substeps)
    key = None
    if isinstance(u, Control) and len(grid) - 1 <= span:
        key = (u.ts.tobytes(), u.values.tobytes(), x0.tobytes(), substeps)
        kept = frame._evaluators.get("path")
        if kept is not None and kept[0] == key:
            return grid, iter([kept[1]])
        frame._evaluators.pop("path", None)  # never two windows on a frame

    def windows():
        x = x0
        for lo in range(0, max(len(grid) - 1, 1), span):
            g = grid[lo:lo + span + 1].copy()  # a kept window outlives u
            h, controls = _stage_controls(u, r, g, substeps)
            uk = controls.reshape(-1, r)
            if levels is None:
                steps = list(_rk4(lambda a, y: _drift(evs, a[None], y[None])[0],
                                  x, h, controls))
                stages = np.reshape([s for s, _ in steps], (len(h), 4, n))
                nodes = np.array([x] + [y for _, y in steps])[::substeps]
            else:
                stages = np.zeros((len(h), 4, n))
                states = np.empty((len(h) + 1, n))
                half = (0.5 * h)[:, None]
                for cols, level_evs in zip(levels, evs):
                    k = _drift(level_evs, uk, stages.reshape(-1, n))
                    k = k.reshape(len(h), 4, len(cols))
                    incr = (h / 6.0)[:, None] * (
                        k[:, 0] + 2.0 * k[:, 1] + 2.0 * k[:, 2] + k[:, 3])
                    y = np.add.accumulate(np.vstack([x[cols][None], incr]),
                                          axis=0)
                    states[:, cols] = y
                    start = y[:-1]
                    stages[:, 0, cols] = start
                    stages[:, 1, cols] = start + half * k[:, 0]
                    stages[:, 2, cols] = start + half * k[:, 1]
                    stages[:, 3, cols] = start + h[:, None] * k[:, 2]
                nodes = states[::substeps]
            w = _Window(lo, g, substeps, h, nodes, stages, controls)
            if key is not None and np.isfinite(nodes).all():
                frame._evaluators["path"] = (key, w)
            yield w
            x = nodes[-1]

    return grid, windows()


def _stage_matrices(jevs, flat, n: int, w: _Window):
    """A = sum_k u_k DX_k at the four stages of each step of w, in order.

    jevs evaluate the Jacobians on their union nonzero pattern (flat
    indices into n x n), for a window's stages once, block by block, and
    the values stay on the window (a kept one serves later calls; the rows
    of a drift do not depend on the batch they are in).  A is scattered
    into one block of whole steps, zeroed once and reused, so no block
    touches fresh pages: 64 rows at EVAL_ROWS = 256, since 128 read 5 %
    more peak RSS on spiral-f27 at n = 41 and gained little.  A step's four
    matrices are a (4, n, n) view of it, valid until the next step's.
    """
    pts = w.stages.reshape(-1, n)
    uk = w.controls.reshape(len(pts), -1)
    rows = 4 * max(1, floateval.EVAL_ROWS // 16)
    if w.drift is None:
        drift = np.empty((len(pts), len(flat)))
        for lo in range(0, len(pts), rows):
            drift[lo:lo + rows] = _drift(jevs, uk[lo:lo + rows],
                                         pts[lo:lo + rows])
        w.drift = drift  # only once complete: a drift may raise
    block = np.zeros((min(rows, len(pts)), n * n))
    for lo in range(0, len(pts), rows):
        amat = block[:len(pts[lo:lo + rows])]
        amat[:, flat] = w.drift[lo:lo + rows]
        yield from amat.reshape(-1, 4, n, n)


def _propagate(frame: Frame, windows, m, adjoint: bool, what: str):
    """RK4 of Mdot = A M, or of the adjoint Mdot = -M A, from M = m.

    `_rk4` steps M, one product per stage on each window's stage matrices.
    Yields (window, i, M) at each new node i; M is checked there, so
    propagation stops at the first non-finite one.
    """
    flat, jevs = _compiled(frame, "jacobian")
    product = (lambda a, y: y @ a) if adjoint else np.matmul
    for w in windows:
        steps = _rk4(product, m, w.h, _stage_matrices(jevs, flat, frame.n, w),
                     adjoint)
        for i in range(w.first, len(w.grid)):
            for _, m in islice(steps, w.substeps if i else 0):
                pass
            if not np.isfinite(m).all():
                raise _non_finite(what, w.lo + i, w.grid[i])
            yield w, i, m


def flow_control(frame: Frame, u, x0, substeps: int = 1, ts=None) -> SampledCurve:
    """RK4 trajectory of xdot = sum_k u_k(t) X_k(x) on the control grid."""
    grid, windows = _windows(frame, u, x0, substeps, ts)
    out = []
    for w in windows:
        bad = ~np.isfinite(w.nodes).all(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise _non_finite("control flow", w.lo + i, w.grid[i])
        out.append(w.nodes[w.first:])
    return SampledCurve(grid, np.concatenate(out))


def lift_control(kappa: SampledCurve) -> Control:
    """Difference-quotient control of a base curve (symmetric inside)."""
    ts, pts = kappa.ts, kappa.points
    if len(ts) < 2:
        raise ValueError("need at least two samples")
    vals = np.empty_like(pts)
    vals[0] = (pts[1] - pts[0]) / (ts[1] - ts[0])
    vals[-1] = (pts[-1] - pts[-2]) / (ts[-1] - ts[-2])
    if len(ts) > 2:
        vals[1:-1] = (pts[2:] - pts[:-2]) / (ts[2:] - ts[:-2])[:, None]
    return Control(ts, vals)


def horizontal_lift(frame: Frame, kappa: SampledCurve,
                    x0) -> tuple[SampledCurve, Control]:
    """Unique frame trajectory over a base curve, via its derivative control."""
    if kappa.m != frame.r:
        raise ValueError("base curve must live in R^r")
    x0 = _float_list(x0)
    start = kappa.points[0]
    if max(abs(a - b) for a, b in zip(x0[:frame.r], start)) \
            > 1e-9 * (1.0 + float(np.max(np.abs(start)))):
        raise ValueError("x0 does not project onto the start of the curve")
    u = lift_control(kappa)
    return flow_control(frame, u, x0), u


def jacobian_flow(frame: Frame, u, x0, substeps: int = 1,
                  ts=None) -> JacobianPath:
    """J(t_i) of the flow, by RK4 on Jdot = DX_u(t, gamma(t)) J."""
    grid, windows = _windows(frame, u, x0, substeps, ts)
    mats = [m for _, _, m in _propagate(frame, windows, np.eye(frame.n),
                                        False, "variational flow")]
    dets = np.array([np.linalg.det(m) for m in mats])
    return JacobianPath(grid, mats, dets)


def pushforward_identity_residual(frame: Frame, u, x0, substeps: int = 1,
                                  ts=None) -> float:
    """sup_t max_{i>r} |J(t) e_i - e_i|_inf (exact zero iff metabelian shape).

    A running max over the Jacobians as they are integrated, so no path of
    N+1 matrices is kept.
    """
    _, windows = _windows(frame, u, x0, substeps, ts)
    r, eye = frame.r, np.eye(frame.n)
    return max(float(np.max(np.abs(m[:, r:] - eye[:, r:]))) for _, _, m in
               _propagate(frame, windows, eye, False, "variational flow"))


@dataclass
class ExtremalReport:
    ts: np.ndarray
    rho: np.ndarray           # (N+1, r) pulled-back frame pairings
    sigma: np.ndarray         # (N+1, #pairs) bracket pairings
    pairs: list
    sup_abnormal: float
    sup_goh: float

    def to_json(self) -> dict:
        return artifact("extremal_residuals", {
            "t": self.ts.tolist(),
            "rho": self.rho.tolist(),
            "sigma": self.sigma.tolist(),
            "pairs": [list(p) for p in self.pairs],
            "sup_abnormal": self.sup_abnormal,
            "sup_goh": self.sup_goh,
        })


def extremal_residuals(frame: Frame, u, x0, lam, substeps: int = 1,
                       ts=None) -> ExtremalReport:
    """PMP and Goh pairings along the flow of u.

    rho_i(t) pairs the transported covector with X_i(gamma(t)); sigma_hk(t)
    pairs it with [X_h, X_k](gamma(t)).  The covector row is propagated by
    the adjoint equation, so no Jacobian is ever inverted.
    """
    lam = _finite(lam, "lam")
    if len(lam) != frame.n or not np.any(lam):
        raise ValueError("covector must be nonzero with n entries")
    pairs = list(combinations(range(1, frame.r + 1), 2))
    pairings = _compiled(frame, "pairings")
    grid, windows = _windows(frame, u, x0, substeps, ts)
    nodes = _propagate(frame, windows, lam, True, "adjoint propagation")
    vals = []
    for w, group in groupby(nodes, lambda node: node[0]):
        # one (1, n) @ (n, 1) product per node and pairing: row @ v[i]
        rows = np.array([row for _, _, row in group])[:, None]
        vals.append(np.hstack([rows @ ev(w.nodes)[w.first:, :, None]
                               for ev in pairings])[:, :, 0])
    vals = np.concatenate(vals)
    rho, sigma = vals[:, :frame.r], vals[:, frame.r:]
    return ExtremalReport(
        grid, rho, sigma, pairs,
        float(np.max(np.abs(rho))) if rho.size else 0.0,
        float(np.max(np.abs(sigma))) if sigma.size else 0.0,
    )


@dataclass
class RecoveryResult:
    candidates: list            # unit covectors (np arrays)
    singular_values: np.ndarray  # descending
    threshold: float
    stack_rows: int

    def to_json(self) -> dict:
        return artifact("covector_recovery", {
            "threshold": self.threshold,
            "stack_rows": self.stack_rows,
            "singular_values": self.singular_values.tolist(),
            "candidates": [c.tolist() for c in self.candidates],
        })


def recover_abnormal_covector(frame: Frame, u, x0, substeps: int = 1,
                              threshold: float = 1e-6,
                              ts=None) -> RecoveryResult:
    """Null covectors of the stacked annihilation constraints.

    Rows (K(t_i) X_k(gamma(t_i)))^T for all nodes and k <= r, with K the
    inverse Jacobian propagated by Kdot = -K A.  Candidates are the right
    singular vectors below the sigma ratio threshold; an empty list means
    no abnormal covector is visible at this grid resolution.
    """
    if not (np.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be a finite positive number, got "
                         f"{threshold}")
    n = frame.n
    fields = _compiled(frame, "pairings")[:frame.r]
    _, windows = _windows(frame, u, x0, substeps, ts)
    rows = []
    for w, group in groupby(_propagate(
            frame, windows, np.eye(n), True, "inverse-Jacobian propagation"),
            lambda node: node[0]):
        at_nodes = [ev(w.nodes) for ev in fields]
        rows += [kmat @ v[i] for _, i, kmat in group for v in at_nodes]

    stack = np.array(rows)
    if stack.shape[0] < n:
        stack = np.vstack([stack, np.zeros((n - stack.shape[0], n))])
    _, svals, vt = np.linalg.svd(stack, full_matrices=False)
    smax = svals[0]  # the stack has at least n >= 1 rows
    candidates = [v for s, v in zip(svals, vt)
                  if smax == 0.0 or s / smax < threshold]
    return RecoveryResult(candidates, svals, threshold, stack.shape[0])


def spiral_curve(eps: float, n_steps: int) -> SampledCurve:
    """The unit-speed-up-to-sqrt(2) log-phase spiral t e^{-i log t} on [eps, 1]."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if n_steps < 2:
        raise ValueError("need at least two sample steps")
    ts = np.linspace(eps, 1.0, n_steps + 1)
    phase = -np.log(ts)
    pts = np.stack([ts * np.cos(phase), ts * np.sin(phase)], axis=1)
    return SampledCurve(ts, pts)


def polynomial_containment(points, degree: int,
                           threshold: float = 1e-8) -> dict:
    """Numeric test for a degree-d algebraic curve through the points.

    Columns of the evaluation matrix are the monomials of total degree at
    most `degree`, unit-normalized; the null-space dimension counts the
    singular values below threshold * sigma_max.  A degree outside 0 to
    options.DEGREE_MAX (refused before the points are read), a point that
    is not a pair, or a threshold that is not finite and positive, is a
    ValueError naming it.
    """
    if not 0 <= degree <= DEGREE_MAX:
        raise ValueError(f"degree must be from 0 to {DEGREE_MAX}, got "
                         f"{degree}")
    if not (np.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be a finite positive number, got "
                         f"{threshold}")
    pts, bad = floateval._float_rows(points, 2)
    if bad is not None:
        raise ValueError(f"point {bad} has {len(points[bad])} coordinates, "
                         f"not 2")
    n_mono = (degree + 1) * (degree + 2) // 2
    if len(pts) < 3 * n_mono:
        raise ValueError(
            f"need at least {3 * n_mono} points for degree {degree}")
    if not np.isfinite(pts).all():
        _first_fault("points", pts.tolist(), 2)
    exps = [(total - i, i) for total in range(degree + 1)
            for i in range(total + 1)]
    x, y = pts[:, 0], pts[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mat = np.stack([x ** a * y ** b for a, b in exps], axis=1)
        norms = np.linalg.norm(mat, axis=0)
    bad = ~np.isfinite(norms)
    if bad.any():  # an inf norm would scale its column to zero
        k = int(bad.argmax())
        idx = int(np.argmax(np.abs(mat[:, k])))  # first nan, else largest
        raise ValueError(f"monomial x^{exps[k][0]} y^{exps[k][1]} overflows "
                         f"at point {idx}: {pts[idx].tolist()}")
    norms[norms == 0.0] = 1.0
    svals = np.linalg.svd(mat / norms, compute_uv=False)
    smax = svals[0]
    null_dim = int(np.sum(svals < threshold * smax)) if smax > 0 else n_mono
    return {
        "null_space_dim": null_dim,
        "sigma_min_ratio": float(svals[-1] / smax) if smax > 0 else 0.0,
        "singular_values": svals.tolist(),
        "degree": degree,
        "threshold": threshold,
    }


__all__ = [
    "Control",
    "ExtremalReport",
    "JacobianPath",
    "RecoveryResult",
    "SampledCurve",
    "extremal_residuals",
    "flow_control",
    "horizontal_lift",
    "jacobian_flow",
    "lift_control",
    "polynomial_containment",
    "pushforward_identity_residual",
    "recover_abnormal_covector",
    "spiral_curve",
]
