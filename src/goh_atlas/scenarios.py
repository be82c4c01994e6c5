"""End-to-end demo pipelines: realize a frame, check the commuting-bracket
property, build the variety polynomials, lift curves, and run the
residual/recovery layer.  Each scenario returns a report whose hard checks
decide the exit status; informational rows carry measured values that are
interesting but not load-bearing.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .floateval import _float_evaluator
from .freelie import generate_basis, structure_table
from .goh import goh_polynomials, trace_variety, variety_membership
from .metabelian import (
    coefficient_dependence,
    is_metabelian,
    is_metabelian_algebra,
    translation_invariance,
)
from .normalform import realize_frame, verify_normal_form
from .options import SCENARIO_NAMES, check_resolution
from .polyfield import (
    Poly,
    PolyVec,
    growth_vector,
    heisenberg_frame,
    martinet_frame,
)
from .serialize import artifact
from .trajectories import (
    Control,
    SampledCurve,
    extremal_residuals,
    flow_control,
    horizontal_lift,
    lift_control,
    polynomial_containment,
    pushforward_identity_residual,
    recover_abnormal_covector,
    spiral_curve,
)

class _Report:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[dict] = []
        self.artifacts: dict[str, object] = {}

    def check(self, name: str, ok: bool, **info) -> bool:
        self.checks.append({"name": name, "ok": bool(ok), **info})
        return ok

    def info(self, name: str, **info):
        self.checks.append({"name": name, "ok": None, **info})

    def artifact(self, name: str, obj):
        self.artifacts[name] = obj

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks if c["ok"] is not None)

    def to_json(self) -> dict:
        return artifact("scenario_report", {
            "scenario": self.name,
            "ok": self.ok,
            "checks": self.checks,
            "artifacts": sorted(self.artifacts),
        })


def _rational_samples(frame, rng, count=8):
    n, r = frame.n, frame.r
    out = []
    for _ in range(count):
        x = [Fraction(int(v), 7) for v in rng.integers(-9, 10, size=n)]
        tau = [Fraction(int(v), 5) for v in rng.integers(-9, 10, size=n - r)]
        out.append((x, tau))
    return out


def _metabelian_block(rep, frame, table, depth, rng, expect: bool,
                      witness=None):
    verdict = is_metabelian(frame, depth)
    rep.artifact("metabelian.json", verdict)
    rep.check("metabelian_frame_level", verdict.metabelian == expect,
              metabelian=verdict.metabelian,
              witness=None if verdict.witness is None
              else [list(w) for w in verdict.witness])
    if witness is not None:
        rep.check("metabelian_witness", verdict.witness == witness,
                  expected=[list(w) for w in witness])
    if table is not None:
        alg = is_metabelian_algebra(table)
        rep.check("metabelian_algebra_level", alg == expect, value=alg)
    dep = coefficient_dependence(frame)
    rep.check("coefficient_dependence", dep == expect, value=dep)
    gap = translation_invariance(frame, _rational_samples(frame, rng))
    if expect:
        rep.check("translation_invariance", gap == 0.0, sup=gap)
    else:
        rep.check("translation_dependence_visible", gap > 0.0, sup=gap)
    return verdict


def _circle(n_steps: int) -> SampledCurve:
    return SampledCurve.from_function(
        lambda t: (math.cos(t), math.sin(t)), 0.0, 2.0 * math.pi, n_steps)


def scenario_heisenberg(cfg: dict) -> _Report:
    rep = _Report("heisenberg")
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    frame = heisenberg_frame()
    rep.artifact("frame.json", frame)
    rep.check("growth_vector", growth_vector(frame, [0, 0, 0], 2) == [2, 3])
    _metabelian_block(rep, frame, structure_table(generate_basis(2, 2)), 4,
                      rng, True)

    lam = [0.0, 0.0, 1.0]
    sysm = goh_polynomials(frame, lam)
    rep.artifact("goh.json", sysm)
    rep.check("goh_constant_one", sysm.poly(1, 2) == Poly.one(2))
    trace = trace_variety(sysm, resolution=cfg["res"])
    rep.artifact("trace.json", trace)
    rep.check("variety_empty",
              not trace.whole_plane and not trace.polylines,
              polylines=len(trace.polylines))

    kappa = _circle(cfg["samples"])
    curve, u = horizontal_lift(frame, kappa, [1.0, 0.0, 0.0])
    rep.artifact("lift.json", {"curve": curve, "control": u})
    endpoint = curve.points[-1]
    rep.check("circle_lift_area",
              abs(endpoint[2] - math.pi) < 1e-3,
              endpoint=endpoint.tolist())
    rep.check("pushforward_identity",
              pushforward_identity_residual(frame, u, [1.0, 0.0, 0.0]) < tol)
    rec = recover_abnormal_covector(frame, u, [1.0, 0.0, 0.0])
    rep.artifact("recovery.json", rec)
    rep.check("no_abnormal_candidate", not rec.candidates,
              sigma_ratio=float(rec.singular_values[-1]
                                / rec.singular_values[0]))
    return rep


def _f23_closed_form() -> PolyVec:
    n = 5
    x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
    return PolyVec([Poly.zero(n), Poly.one(n), x1,
                    x1 * x1 * Fraction(1, 2), x1 * x2])


def scenario_f23_line(cfg: dict) -> _Report:
    rep = _Report("f23-line")
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    frame, maps = realize_frame(generate_basis(2, 3))
    rep.artifact("realization.json", maps)
    rep.check("normal_form", verify_normal_form(frame)["ok"])
    rep.check("closed_form_second_field",
              (frame.fields[1] - _f23_closed_form()).is_zero())
    _metabelian_block(rep, frame, maps.basis.table, 6, rng, True)

    n_steps = cfg["samples"]
    kappa = SampledCurve.from_function(lambda t: (0.0, t), 0.0, 1.0, n_steps)
    curve, u = horizontal_lift(frame, kappa, [0.0] * 5)
    rep.artifact("lift.json", {"curve": curve, "control": u})

    rec = recover_abnormal_covector(frame, u, [0.0] * 5)
    rep.artifact("recovery.json", rec)
    aligned = bool(rec.candidates) and abs(rec.candidates[0][3]) >= 1.0 - 1e-6
    rep.check("recovered_vertical_direction",
              len(rec.candidates) == 1 and aligned,
              candidates=len(rec.candidates))

    lam = [0.0, 0.0, 0.0, 1.0, 0.0]
    res = extremal_residuals(frame, u, [0.0] * 5, lam)
    rep.artifact("residuals.json", res)
    rep.check("abnormal_pairing", res.sup_abnormal <= tol,
              sup=res.sup_abnormal)
    rep.check("bracket_pairing", res.sup_goh <= tol, sup=res.sup_goh)

    sysm = goh_polynomials(frame, lam)
    rep.artifact("goh.json", sysm)
    rep.check("variety_polynomial_is_x1",
              sysm.poly(1, 2) == Poly.var(2, 0))
    trace = trace_variety(sysm, resolution=cfg["res"])
    rep.artifact("trace.json", trace)
    on_axis = bool(trace.polylines) and all(
        abs(p[0]) <= trace.tolerance
        for line in trace.polylines for p in line)
    rep.check("trace_is_vertical_line", on_axis,
              polylines=len(trace.polylines))
    rep.check("curve_inside_variety",
              variety_membership(sysm, kappa) <= tol)
    return rep


def scenario_f24(cfg: dict) -> _Report:
    rep = _Report("f24")
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    frame, maps = realize_frame(generate_basis(2, 4))
    rep.artifact("realization.json", maps)
    rep.check("normal_form", verify_normal_form(frame)["ok"])
    rep.check("growth_vector",
              growth_vector(frame, [0] * frame.n, 4) == [2, 3, 5, 8])
    _metabelian_block(rep, frame, maps.basis.table, 8, rng, True)

    worst_push = 0.0
    worst_dyn = 0.0
    trials = 5
    for _ in range(trials):
        ts = np.linspace(0.0, 1.0, 21)
        u = Control(ts, rng.uniform(-1.0, 1.0, size=(21, 2)))
        x0 = rng.uniform(-0.5, 0.5, size=frame.n)
        worst_push = max(worst_push,
                         pushforward_identity_residual(frame, u, x0))
        lam = rng.uniform(-1.0, 1.0, size=frame.n)
        sysm = goh_polynomials(frame, lam)
        res = extremal_residuals(frame, u, x0, lam)
        curve = flow_control(frame, u, x0)
        fvals = _float_evaluator(sysm.poly(1, 2))(curve.points.T[:2])
        worst_dyn = max(worst_dyn, float(np.max(np.abs(
            res.sigma[:, 0] - fvals))))
    rep.check("pushforward_identity", worst_push <= tol, sup=worst_push,
              trials=trials)
    rep.check("goh_residual_matches_variety_values", worst_dyn <= tol,
              sup=worst_dyn, trials=trials)
    return rep


def scenario_f25(cfg: dict) -> _Report:
    rep = _Report("f25")
    rng = np.random.default_rng(cfg["seed"])
    frame, maps = realize_frame(generate_basis(2, 5))
    rep.artifact("realization.json", maps)
    rep.check("normal_form", verify_normal_form(frame)["ok"])
    _metabelian_block(rep, frame, maps.basis.table, 10, rng, False,
                      witness=((1, 2), (1, 1, 2)))

    try:
        goh_polynomials(frame, [0.0] * (frame.n - 1) + [1.0])
        rep.check("variety_reduction_rejected", False)
    except PreconditionError as exc:
        rep.check("variety_reduction_rejected", True, message=str(exc))

    ts = np.linspace(0.0, 2.0, 81)
    res = pushforward_identity_residual(
        frame, lambda t: (math.cos(t), math.sin(t)), [0.0] * frame.n,
        substeps=2, ts=ts)
    rep.check("pushforward_identity_fails", res > 1e-3, sup=res)
    return rep


def scenario_martinet(cfg: dict) -> _Report:
    rep = _Report("martinet")
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    frame = martinet_frame()
    rep.artifact("frame.json", frame)
    rep.check("growth_vector_at_origin",
              growth_vector(frame, [0, 0, 0], 3) == [2, 2, 3])
    rep.check("growth_vector_off_axis",
              growth_vector(frame, [1, 0, 0], 2) == [2, 3])
    _metabelian_block(rep, frame, None, 4, rng, True)

    lam = [0.0, 0.0, 1.0]
    sysm = goh_polynomials(frame, lam)
    rep.artifact("goh.json", sysm)
    rep.check("variety_polynomial_is_x1",
              sysm.poly(1, 2) == Poly.var(2, 0))
    trace = trace_variety(sysm, resolution=cfg["res"])
    rep.artifact("trace.json", trace)
    on_axis = bool(trace.polylines) and all(
        abs(p[0]) <= trace.tolerance
        for line in trace.polylines for p in line)
    rep.check("trace_is_vertical_line", on_axis)

    n_steps = cfg["samples"]
    kappa = SampledCurve.from_function(lambda t: (0.0, t), 0.0, 1.0, n_steps)
    curve, u = horizontal_lift(frame, kappa, [0.0] * 3)
    rep.artifact("lift.json", {"curve": curve, "control": u})
    rep.check("curve_inside_variety",
              variety_membership(sysm, kappa) <= tol)
    rec = recover_abnormal_covector(frame, u, [0.0] * 3)
    rep.artifact("recovery.json", rec)
    aligned = bool(rec.candidates) and abs(rec.candidates[0][2]) >= 1.0 - 1e-6
    rep.check("recovered_vertical_direction",
              len(rec.candidates) == 1 and aligned)
    res = extremal_residuals(frame, u, [0.0] * 3, lam)
    rep.artifact("residuals.json", res)
    rep.check("abnormal_pairing", res.sup_abnormal <= tol)
    rep.check("bracket_pairing", res.sup_goh <= tol)
    return rep


def scenario_f27_spiral(cfg: dict) -> _Report:
    rep = _Report("f27-spiral")
    rng = np.random.default_rng(cfg["seed"])
    threshold = cfg["tol"]
    eps = cfg["eps"]
    n_steps = cfg["samples"]
    frame, maps = realize_frame(generate_basis(2, 7))
    rep.check("dimension", frame.n == 41, n=frame.n)
    rep.check("normal_form", verify_normal_form(frame)["ok"])
    _metabelian_block(rep, frame, maps.basis.table, 14, rng, False,
                      witness=((1, 2), (1, 1, 2)))

    spiral = spiral_curve(eps, n_steps)
    rep.artifact("spiral.json", spiral)
    u = lift_control(spiral)
    x0 = [spiral.points[0, 0], spiral.points[0, 1]] + [0.0] * (frame.n - 2)
    rec = recover_abnormal_covector(frame, u, x0, threshold=threshold)
    rep.artifact("recovery.json", rec)
    ratio = float(rec.singular_values[-1] / rec.singular_values[0])
    rep.check("abnormality_sigma_ratio", ratio < threshold, ratio=ratio,
              candidates=len(rec.candidates))

    if rec.candidates:
        lam = rec.candidates[-1]
        fine = spiral_curve(eps, 4 * n_steps)
        u4 = lift_control(fine)
        x04 = [fine.points[0, 0], fine.points[0, 1]] + [0.0] * (frame.n - 2)
        res = extremal_residuals(frame, u4, x04, lam)
        rep.artifact("residuals.json", res)
        rep.check("revalidation_on_finer_grid",
                  max(res.sup_abnormal, res.sup_goh) <= 1e-5,
                  sup_abnormal=res.sup_abnormal, sup_goh=res.sup_goh)

    probe = spiral_curve(1e-3, 5000)
    contain = []
    for degree in range(1, 7):
        out = polynomial_containment(probe.points, degree)
        contain.append(out)
        if degree <= 4:
            rep.check(f"containment_degree_{degree}",
                      out["null_space_dim"] == 0,
                      sigma_min_ratio=out["sigma_min_ratio"])
        else:
            # Degrees 5-6: a short outer arc admits float-level polynomial
            # fits, so the zero-dimension claim is reported, not asserted.
            rep.info(f"containment_degree_{degree}",
                     null_space_dim=out["null_space_dim"],
                     sigma_min_ratio=out["sigma_min_ratio"])
    rep.artifact("containment.json",
                 artifact("containment_report", {"results": contain}))
    line_pts = [(0.0, t) for t in np.linspace(0.0, 1.0, 200)]
    circ_pts = [(math.cos(t), math.sin(t))
                for t in np.linspace(0.0, 2.0 * math.pi, 200)]
    rep.check("line_contained_degree_1",
              polynomial_containment(line_pts, 1)["null_space_dim"] == 1)
    rep.check("circle_contained_degree_2",
              polynomial_containment(circ_pts, 2)["null_space_dim"] == 1)
    return rep


# each scenario, in SCENARIO_NAMES order, and the settings it reads besides
# the seed with their defaults
_PIPELINES = {
    "heisenberg": (scenario_heisenberg,
                   {"tol": 1e-8, "samples": 2000, "res": 128}),
    "f23-line": (scenario_f23_line, {"tol": 1e-8, "samples": 400, "res": 128}),
    "f24": (scenario_f24, {"tol": 1e-8}),
    "f25": (scenario_f25, {}),
    "martinet": (scenario_martinet, {"tol": 1e-8, "samples": 400, "res": 128}),
    "f27-spiral": (scenario_f27_spiral,
                   {"tol": 1e-6, "eps": 1e-2, "samples": 20000}),
}


def run_scenario(name: str, seed: int = 0, tol: float | None = None,
                 eps: float | None = None, samples: int | None = None,
                 res: int | None = None) -> _Report:
    """Run scenario name.  A setting left None takes the scenario's
    default (a 0 is given, not replaced); one it does not read is a
    ValueError naming it, as is a bad resolution, before any work."""
    if name not in _PIPELINES:
        raise KeyError(name)
    pipeline, defaults = _PIPELINES[name]
    given = {"tol": tol, "eps": eps, "samples": samples, "res": res}
    for key, value in given.items():
        if value is not None and key not in defaults:
            raise ValueError(f"scenario {name} does not read {key}")
    cfg = {key: default if given[key] is None else given[key]
           for key, default in defaults.items()}
    if "res" in cfg:
        cfg["res"] = check_resolution(cfg["res"])
    return pipeline({**cfg, "seed": seed})
