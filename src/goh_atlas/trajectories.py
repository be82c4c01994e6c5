"""Numeric trajectory layer: control flows, horizontal lifts, variational
and adjoint propagation, extremal residuals, covector recovery, the
log-phase spiral, and the polynomial non-containment probe.

Controls are piecewise linear on a uniform grid (callables are accepted
wherever a control is, for convergence studies with exact derivatives).
The four integrators share one classical RK4 scheme (configurable
sub-stepping) on the drift sum_k u_k X_k and its Jacobian
A = sum_k u_k DX_k, and give the bits of the plain step loop.

Component j of a field reads some coordinates.  When that graph has no
cycle (realized and normal-form frames are triangular, weights or not),
the coordinates split into levels that read only lower ones, and x is
integrated one level at a time over all steps of a window of the grid:
the level's four stage derivatives from the known lower-level stage
states, its node values by np.add.accumulate (the loop's own order of
additions), then its stage states.  A frame with a cycle steps x through
`polyfield.rk4_nodes` instead.  The matrix states (J, the adjoint row,
K) then step through `rk4_nodes` with their per-step products, reading A
batch-evaluated at the recorded stage states.  Windows end at grid
nodes, where the step loop restarts anyway, and bound the memory on long
grids.  Each integrator checks its state for non-finite values at every
grid node.  The covector is always propagated by the adjoint equation
rather than by inverting Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, NumericsError
from .polyfield import (
    CompiledPolys,
    Frame,
    compile_polyvec,
    lie_bracket_fields,
    rk4_nodes,
)


def _float_list(xs):
    return [float(x) for x in xs]


@dataclass
class Control:
    """Piecewise-linear control values on a uniform time grid."""

    ts: np.ndarray
    values: np.ndarray  # shape (N+1, r)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.ts.ndim != 1 or len(self.ts) < 2:
            raise ValueError("control grid needs at least two nodes")
        if self.values.ndim != 2 or len(self.values) != len(self.ts):
            raise ValueError("one value row per grid node required")
        if not np.all(np.isfinite(self.ts)) or not np.all(np.isfinite(self.values)):
            raise ValueError("control data must be finite")
        d = np.diff(self.ts)
        if np.any(d <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.max(np.abs(d - d[0])) > 1e-9 * (self.ts[-1] - self.ts[0]):
            raise ValueError("grid must be uniform")

    @property
    def r(self) -> int:
        return self.values.shape[1]

    def __call__(self, t: float) -> np.ndarray:
        return np.array([np.interp(t, self.ts, self.values[:, k])
                         for k in range(self.values.shape[1])])

    @staticmethod
    def from_function(f, t0: float, t1: float, n_steps: int) -> "Control":
        ts = np.linspace(t0, t1, n_steps + 1)
        return Control(ts, np.array([_float_list(f(t)) for t in ts]))

    def to_json(self) -> dict:
        return {"schema": "goh-atlas/1", "type": "control",
                "t": self.ts.tolist(), "values": self.values.tolist()}

    @staticmethod
    def from_json(data: dict) -> "Control":
        return Control(np.array(data["t"]), np.array(data["values"]))


@dataclass
class SampledCurve:
    ts: np.ndarray
    points: np.ndarray  # shape (N+1, m)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or len(self.points) != len(self.ts):
            raise ValueError("one point per grid node required")
        if not np.all(np.isfinite(self.ts)) or not np.all(np.isfinite(self.points)):
            raise ValueError("curve data must be finite")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("grid must be strictly increasing")

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @staticmethod
    def from_function(f, t0: float, t1: float, n_steps: int) -> "SampledCurve":
        ts = np.linspace(t0, t1, n_steps + 1)
        return SampledCurve(ts, np.array([_float_list(f(t)) for t in ts]))

    def projection(self, m: int) -> "SampledCurve":
        return SampledCurve(self.ts, self.points[:, :m])

    def to_json(self) -> dict:
        return {"schema": "goh-atlas/1", "type": "curve",
                "t": self.ts.tolist(), "values": self.points.tolist()}

    @staticmethod
    def from_json(data: dict) -> "SampledCurve":
        return SampledCurve(np.array(data["t"]), np.array(data["values"]))


@dataclass
class JacobianPath:
    ts: np.ndarray
    mats: list  # n x n arrays, mats[0] = identity
    dets: np.ndarray = field(default=None)

    def to_json(self) -> dict:
        return {"schema": "goh-atlas/1", "type": "jacobian_path",
                "t": self.ts.tolist(),
                "dets": self.dets.tolist() if self.dets is not None else None,
                "mats": [m.tolist() for m in self.mats]}


def _check_finite(arr, what: str, node: int, t, error=NumericsError):
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} produced non-finite values at node {node} "
                    f"(t = {float(t):.6g})")


WINDOW_STEPS = 512   # RK4 steps integrated together (bounds the stage arrays)
A_CHUNK_STEPS = 16   # RK4 steps whose stage matrices are evaluated together


def _drift(evs, uk, pts):
    """Rows sum_k uk[:, k] * ev_k(pts): the drift at a batch of points.

    evs are compiled per field (all on the same component list), so this is
    sum_k u_k X_k, or sum_k u_k DX_k on a Jacobian pattern.  Terms with
    u_k = 0 are skipped, and the sum starts from zeros.
    """
    out = np.zeros((len(pts), evs[0].count))
    for k, ev in enumerate(evs):
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


@dataclass
class _Window:
    """RK4 data of the grid intervals lo..hi-1 (nodes lo..hi)."""

    lo: int
    grid: np.ndarray      # the grid nodes lo..hi
    substeps: int
    nodes: np.ndarray     # (hi - lo + 1, n) states at those nodes
    stages: np.ndarray    # (S, 4, n) stage states of the window's S steps
    controls: np.ndarray  # (S, 4, r) control values at the stage times
    at_nodes: list        # the at_nodes evaluators' values at the nodes

    @property
    def first(self) -> int:
        """Index of the first node the previous window has not given."""
        return 1 if self.lo else 0


def _stage_controls(u, r: int, grid, substeps: int):
    """Step sizes (S,) and control values (S, 4, r) at the stage times.

    Stage times are built as rk4_nodes builds them: t += h per step, and
    t + 0.5*h, t + h inside a step.  A Control is interpolated once per
    column over all of them; a callable is called once per stage, in order.
    """
    h = (grid[1:] - grid[:-1]) / substeps
    t = grid[:-1]
    times = np.empty((len(h), substeps, 4))
    for j in range(substeps):
        times[:, j] = np.stack([t, t + 0.5 * h, t + 0.5 * h, t + h], axis=1)
        t = t + h
    times = times.reshape(-1, 4)
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
    return np.repeat(h, substeps), vals


def _windows(frame: Frame, u, x0, substeps: int, ts, at_nodes=()):
    """(grid, iterator of _Window): RK4 of xdot = sum_k u_k X_k(x).

    The grid is cut into windows of about WINDOW_STEPS steps; a window
    starts from its predecessor's last node, as the step loop does at
    every grid node.  When the frame's coordinates have dependency levels,
    each level is integrated over the window's steps at once (see the
    module docstring); a frame with a dependency cycle steps through
    rk4_nodes instead.  Both give the bits of the plain loop.  Each
    at_nodes evaluator is batch-evaluated at every window's nodes.
    """
    x0 = np.array(_float_list(x0), dtype=float)
    n, r = frame.n, frame.r
    if len(x0) != n:
        raise ValueError(f"x0 has {len(x0)} entries, but the frame lives in "
                         f"R^{n}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if isinstance(u, Control):
        grid = u.ts
        if u.r != r:
            raise ValueError(f"control has {u.r} columns, but the frame has "
                             f"r = {r} fields")
    elif callable(u):
        if ts is None:
            raise ValueError("callable controls need an explicit time grid")
        grid = np.asarray(ts, dtype=float)
    else:
        raise TypeError("control must be a Control or a callable t -> values")
    levels = _levels(_dependencies(frame))
    if levels is None:
        evs = [CompiledPolys(f.comps) for f in frame.fields]
    else:
        evs = [[CompiledPolys([f.comps[j] for j in cols])
                for f in frame.fields] for cols in levels]
    span = max(1, WINDOW_STEPS // substeps)

    def windows():
        x = x0
        for lo in range(0, max(len(grid) - 1, 1), span):
            g = grid[lo:lo + span + 1]
            h, controls = _stage_controls(u, r, g, substeps)
            uk = controls.reshape(-1, r)
            if levels is None:
                feed = iter(uk[:, None])
                stages = []

                def rhs(t, s):
                    stages.append(s[0])
                    return [_drift(evs, next(feed), s[0][None])[0]]

                nodes = np.array([y for (y,) in rk4_nodes(rhs, g, [x],
                                                          substeps)])
                stages = np.reshape(stages, (len(h), 4, n))
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
            yield _Window(lo, g, substeps, nodes, stages, controls,
                          [ev(nodes) for ev in at_nodes])
            x = nodes[-1]

    return grid, windows()


def _stage_matrices(jevs, flat, n: int, w: _Window):
    """A = sum_k u_k DX_k at every stage of w, in the order rk4_nodes asks.

    jevs evaluate the Jacobians on their union nonzero pattern (flat
    indices into n x n); A is scattered into zeros, A_CHUNK_STEPS steps at
    a time.
    """
    pts = w.stages.reshape(-1, n)
    uk = w.controls.reshape(len(pts), -1)
    chunk = 4 * A_CHUNK_STEPS
    for lo in range(0, len(pts), chunk):
        amat = np.zeros((len(pts[lo:lo + chunk]), n * n))
        amat[:, flat] = _drift(jevs, uk[lo:lo + chunk], pts[lo:lo + chunk])
        yield from amat.reshape(-1, n, n)


def _propagate(frame: Frame, windows, m0, product, what: str, error):
    """RK4 of Mdot = product(A, M) along the windows.

    Yields (window, i, M) at each new node i of each window; M is checked
    there, so propagation stops at the first non-finite one.
    """
    n = frame.n
    pattern = [(j, i) for j, deps in enumerate(_dependencies(frame))
               for i in deps]
    flat = [j * n + i for j, i in pattern]
    jevs = [CompiledPolys([f.comps[j].diff(i) for j, i in pattern])
            for f in frame.fields]
    m = m0
    for w in windows:
        amats = _stage_matrices(jevs, flat, n, w)
        for i, (m,) in enumerate(rk4_nodes(
                lambda t, s, a=amats: [product(next(a), s[0])], w.grid, [m],
                w.substeps)):
            if i >= w.first:
                _check_finite(m, what, w.lo + i, w.grid[i], error)
                yield w, i, m


def _forward(amat, m):
    return amat @ m


def _adjoint(amat, m):
    return -(m @ amat)


def flow_control(frame: Frame, u, x0, substeps: int = 1, ts=None) -> SampledCurve:
    """RK4 trajectory of xdot = sum_k u_k(t) X_k(x) on the control grid."""
    grid, windows = _windows(frame, u, x0, substeps, ts)
    out = []
    for w in windows:
        bad = ~np.isfinite(w.nodes).all(axis=1)
        if bad.any():
            i = int(bad.argmax())
            _check_finite(w.nodes[i], "control flow", w.lo + i, w.grid[i])
        out.append(w.nodes[w.first:])
    return SampledCurve(grid, np.concatenate(out))


def lift_control(kappa: SampledCurve) -> Control:
    """Difference-quotient control of a base curve (symmetric inside)."""
    ts = kappa.ts
    pts = kappa.points
    n_nodes = len(ts)
    if n_nodes < 2:
        raise ValueError("need at least two samples")
    vals = np.empty_like(pts)
    vals[0] = (pts[1] - pts[0]) / (ts[1] - ts[0])
    vals[-1] = (pts[-1] - pts[-2]) / (ts[-1] - ts[-2])
    if n_nodes > 2:
        vals[1:-1] = (pts[2:] - pts[:-2]) / (ts[2:] - ts[:-2])[:, None]
    return Control(ts, vals)


def horizontal_lift(frame: Frame, kappa: SampledCurve, x0,
                    substeps: int = 1) -> tuple[SampledCurve, Control]:
    """Unique frame trajectory over a base curve, via its derivative control."""
    if kappa.m != frame.r:
        raise ValueError("base curve must live in R^r")
    x0 = _float_list(x0)
    start = kappa.points[0]
    if max(abs(a - b) for a, b in zip(x0[:frame.r], start)) \
            > 1e-9 * (1.0 + float(np.max(np.abs(start)))):
        raise ValueError("x0 does not project onto the start of the curve")
    u = lift_control(kappa)
    return flow_control(frame, u, x0, substeps=substeps), u


def jacobian_flow(frame: Frame, u, x0, substeps: int = 1,
                  ts=None) -> JacobianPath:
    """J(t_i) of the flow, by RK4 on Jdot = DX_u(t, gamma(t)) J."""
    grid, windows = _windows(frame, u, x0, substeps, ts)
    mats = [m for _, _, m in _propagate(frame, windows, np.eye(frame.n),
                                        _forward, "variational flow",
                                        NumericsError)]
    dets = np.array([np.linalg.det(m) for m in mats])
    return JacobianPath(grid, mats, dets)


def pushforward_identity_residual(frame: Frame, u, x0, substeps: int = 1,
                                  ts=None) -> float:
    """sup_t max_{i>r} |J(t) e_i - e_i|_inf (exact zero iff metabelian shape).

    A running max over the Jacobians as they are integrated, so no path of
    N+1 matrices is kept.
    """
    _, windows = _windows(frame, u, x0, substeps, ts)
    r, n = frame.r, frame.n
    worst = 0.0
    eye = np.eye(n)
    for _, _, m in _propagate(frame, windows, eye, _forward,
                              "variational flow", NumericsError):
        d = np.max(np.abs(m[:, r:] - eye[:, r:]))
        worst = max(worst, float(d))
    return worst


def _pair_list(r: int) -> list[tuple[int, int]]:
    return [(h, k) for h in range(1, r + 1) for k in range(h + 1, r + 1)]


@dataclass
class ExtremalReport:
    ts: np.ndarray
    rho: np.ndarray           # (N+1, r) pulled-back frame pairings
    sigma: np.ndarray         # (N+1, #pairs) bracket pairings
    pairs: list
    sup_abnormal: float
    sup_goh: float

    def to_json(self) -> dict:
        return {
            "schema": "goh-atlas/1",
            "type": "extremal_residuals",
            "t": self.ts.tolist(),
            "rho": self.rho.tolist(),
            "sigma": self.sigma.tolist(),
            "pairs": [list(p) for p in self.pairs],
            "sup_abnormal": self.sup_abnormal,
            "sup_goh": self.sup_goh,
        }


def extremal_residuals(frame: Frame, u, x0, lam, substeps: int = 1,
                       ts=None) -> ExtremalReport:
    """PMP and Goh pairings along the flow of u.

    rho_i(t) pairs the transported covector with X_i(gamma(t)); sigma_hk(t)
    pairs it with [X_h, X_k](gamma(t)).  The covector row is propagated by
    the adjoint equation, so no Jacobian is ever inverted.
    """
    lam = np.array(_float_list(lam))
    if len(lam) != frame.n or not np.any(lam):
        raise ValueError("covector must be nonzero with n entries")
    pairs = _pair_list(frame.r)
    pairings = [compile_polyvec(f) for f in frame.fields] + [
        compile_polyvec(lie_bracket_fields(frame.fields[h - 1],
                                           frame.fields[k - 1]))
        for h, k in pairs]
    grid, windows = _windows(frame, u, x0, substeps, ts, pairings)
    rho_rows, sigma_rows = [], []
    for w, i, row in _propagate(frame, windows, lam, _adjoint,
                                "adjoint propagation", ConditioningError):
        vals = [float(row @ v[i]) for v in w.at_nodes]
        rho_rows.append(vals[:frame.r])
        sigma_rows.append(vals[frame.r:])
    rho = np.array(rho_rows)
    sigma = np.array(sigma_rows) if pairs else np.zeros((len(grid), 0))
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
        return {
            "schema": "goh-atlas/1",
            "type": "covector_recovery",
            "threshold": self.threshold,
            "stack_rows": self.stack_rows,
            "singular_values": self.singular_values.tolist(),
            "candidates": [c.tolist() for c in self.candidates],
        }


def recover_abnormal_covector(frame: Frame, u, x0, substeps: int = 1,
                              threshold: float = 1e-6,
                              ts=None) -> RecoveryResult:
    """Null covectors of the stacked annihilation constraints.

    Rows (K(t_i) X_k(gamma(t_i)))^T for all nodes and k <= r, with K the
    inverse Jacobian propagated by Kdot = -K A.  Candidates are the right
    singular vectors below the sigma ratio threshold; an empty list means
    no abnormal covector is visible at this grid resolution.
    """
    n = frame.n
    _, windows = _windows(frame, u, x0, substeps, ts,
                          [compile_polyvec(f) for f in frame.fields])
    rows = [kmat @ v[i] for w, i, kmat in _propagate(
        frame, windows, np.eye(n), _adjoint, "inverse-Jacobian propagation",
        ConditioningError) for v in w.at_nodes]

    stack = np.array(rows)
    if stack.shape[0] < n:
        stack = np.vstack([stack, np.zeros((n - stack.shape[0], n))])
    _, svals, vt = np.linalg.svd(stack, full_matrices=False)
    smax = svals[0] if len(svals) else 0.0
    candidates = []
    for idx in range(vt.shape[0]):
        s = svals[idx] if idx < len(svals) else 0.0
        if smax == 0.0 or s / smax < threshold:
            candidates.append(vt[idx])
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
    singular values below threshold * sigma_max.
    """
    pts = np.asarray([[float(a), float(b)] for a, b in points])
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n_mono = (degree + 1) * (degree + 2) // 2
    if len(pts) < 3 * n_mono:
        raise ValueError(
            f"need at least {3 * n_mono} points for degree {degree}")
    cols = []
    x, y = pts[:, 0], pts[:, 1]
    for total in range(degree + 1):
        for i in range(total + 1):
            cols.append(x ** (total - i) * y ** i)
    mat = np.stack(cols, axis=1)
    norms = np.linalg.norm(mat, axis=0)
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
