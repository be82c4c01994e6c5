"""Numeric trajectory layer: control flows, horizontal lifts, variational
and adjoint propagation, extremal residuals, covector recovery, the
log-phase spiral, and the polynomial non-containment probe.

Controls are piecewise linear on a uniform grid (callables are accepted
wherever a control is, for convergence studies with exact derivatives).
All four integrators step with the shared classical RK4 generator
`polyfield.rk4_nodes` (configurable sub-stepping) on the drift
sum_k u_k X_k and, where needed, its Jacobian; each checks its state for
non-finite values at every grid node.  The covector is always propagated
by the adjoint equation rather than by inverting Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, NumericsError
from .polyfield import (
    Frame,
    compile_jacobian,
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


def _control_callable(u, ts=None):
    """(time grid, u(t) function) from a Control or a plain callable."""
    if isinstance(u, Control):
        return u.ts, u
    if callable(u):
        if ts is None:
            raise ValueError("callable controls need an explicit time grid")
        return np.asarray(ts, dtype=float), u
    raise TypeError("control must be a Control or a callable t -> values")


def _check_finite(arr, what: str, grid, i: int, error=NumericsError):
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} produced non-finite values at node {i} "
                    f"(t = {float(grid[i]):.6g})")


def _drift(frame: Frame, ufn, jacobian: bool):
    """(drift, evs): drift(t, x) = (sum_k u_k X_k(x), sum_k u_k DX_k(x)).

    Terms with u_k(t) = 0 are skipped; the matrix is None unless
    `jacobian`.  evs are the compiled frame fields, for per-node pairings.
    """
    evs = [compile_polyvec(f) for f in frame.fields]
    jevs = [compile_jacobian(f) for f in frame.fields] if jacobian else None
    n = frame.n

    def drift(t, x):
        uv = ufn(t)
        dx = np.zeros(n)
        amat = np.zeros((n, n)) if jacobian else None
        for k, ev in enumerate(evs):
            c = float(uv[k])
            if c:
                dx += c * ev(x)
                if jacobian:
                    amat += c * jevs[k](x)
        return dx, amat

    return drift, evs


def flow_control(frame: Frame, u, x0, substeps: int = 1, ts=None) -> SampledCurve:
    """RK4 trajectory of xdot = sum_k u_k(t) X_k(x) on the control grid."""
    grid, ufn = _control_callable(u, ts)
    drift, _ = _drift(frame, ufn, jacobian=False)
    x = np.array(_float_list(x0), dtype=float)
    if len(x) != frame.n:
        raise ValueError("x0 must live in the frame's ambient space")
    out = []
    nodes = rk4_nodes(lambda t, s: [drift(t, s[0])[0]], grid, [x], substeps)
    for i, (x,) in enumerate(nodes):
        _check_finite(x, "control flow", grid, i)
        out.append(x)
    return SampledCurve(grid, np.array(out))


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
    grid, ufn = _control_callable(u, ts)
    drift, _ = _drift(frame, ufn, jacobian=True)

    def rhs(t, state):
        dx, amat = drift(t, state[0])
        return [dx, amat @ state[1]]

    x = np.array(_float_list(x0), dtype=float)
    mats = []
    for i, (_, jmat) in enumerate(
            rk4_nodes(rhs, grid, [x, np.eye(frame.n)], substeps)):
        _check_finite(jmat, "variational flow", grid, i)
        mats.append(jmat)
    dets = np.array([np.linalg.det(m) for m in mats])
    return JacobianPath(grid, mats, dets)


def pushforward_identity_residual(frame: Frame, u, x0, substeps: int = 1,
                                  ts=None) -> float:
    """sup_t max_{i>r} |J(t) e_i - e_i|_inf (exact zero iff metabelian shape)."""
    path = jacobian_flow(frame, u, x0, substeps=substeps, ts=ts)
    r, n = frame.r, frame.n
    worst = 0.0
    eye = np.eye(n)
    for m in path.mats:
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
    grid, ufn = _control_callable(u, ts)
    drift, evs = _drift(frame, ufn, jacobian=True)
    pairs = _pair_list(frame.r)
    bevs = [compile_polyvec(
        lie_bracket_fields(frame.fields[h - 1], frame.fields[k - 1]))
        for h, k in pairs]

    def rhs(t, state):
        dx, amat = drift(t, state[0])
        return [dx, -(state[1] @ amat)]

    x = np.array(_float_list(x0), dtype=float)
    rho_rows, sigma_rows = [], []
    for i, (x, row) in enumerate(rk4_nodes(rhs, grid, [x, lam], substeps)):
        _check_finite(row, "adjoint propagation", grid, i, ConditioningError)
        rho_rows.append([float(row @ ev(x)) for ev in evs])
        sigma_rows.append([float(row @ bev(x)) for bev in bevs])
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
    grid, ufn = _control_callable(u, ts)
    drift, evs = _drift(frame, ufn, jacobian=True)
    n = frame.n

    def rhs(t, state):
        dx, amat = drift(t, state[0])
        return [dx, -(state[1] @ amat)]

    x = np.array(_float_list(x0), dtype=float)
    rows = []
    for i, (x, kmat) in enumerate(rk4_nodes(rhs, grid, [x, np.eye(n)], substeps)):
        _check_finite(kmat, "inverse-Jacobian propagation", grid, i,
                      ConditioningError)
        rows.extend(kmat @ ev(x) for ev in evs)

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
