"""Command-line surface.

Exit codes: 0 success, 1 failed checks or numeric/domain errors,
2 usage errors.  Logs go to stderr, data to --out (stdout by default).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import serialize
from .errors import (
    ConditioningError,
    NotNilpotentError,
    NumericsError,
    PreconditionError,
)
from .freelie import generate_basis, witt_dimension
from .goh import goh_polynomials, trace_variety
from .metabelian import is_metabelian
from .normalform import realize_frame
from .polyfield import Frame
from .scenarios import SCENARIO_NAMES, run_scenario
from .trajectories import (
    Control,
    SampledCurve,
    extremal_residuals,
    flow_control,
    horizontal_lift,
    polynomial_containment,
    recover_abnormal_covector,
    spiral_curve,
)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _usage(msg: str):
    _log(f"error: {msg}")


def _parse_lambda(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        _usage(f"bad --lambda value: {exc}")
        raise SystemExit(2) from None


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        _usage("--window needs x0,x1,y0,y1")
        raise SystemExit(2)
    return tuple(float(p) for p in parts)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _frame_from_args(args) -> Frame:
    if getattr(args, "frame", None):
        data = _load_json(args.frame)
        if data.get("type") == "realization_report":
            data = data["frame"]
        return Frame.from_json(data)
    if args.rank is None or args.step is None:
        _usage("need --rank and --step, or --frame FILE")
        raise SystemExit(2)
    frame, _ = realize_frame(generate_basis(args.rank, args.step))
    return frame


def _emit(args, data):
    text = serialize.dumps(data)
    serialize.write_output(text, args.out)


def _parse_tol(text: str) -> float:
    """A tolerance must be a finite, positive number (type of --tol)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite positive number, got {text!r}")
    return tol


def _default_tol(args, fallback: float | None) -> float | None:
    """--tol, else GOH_ATLAS_TOL, else fallback; a bad value exits with 2."""
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("GOH_ATLAS_TOL")
    if env:
        try:
            return _parse_tol(env)
        except argparse.ArgumentTypeError as exc:
            _usage(f"bad GOH_ATLAS_TOL value: {exc}")
            raise SystemExit(2) from None
    return fallback


def cmd_basis(args) -> int:
    basis = generate_basis(args.rank, args.step)
    dims = witt_dimension(args.rank, args.step)
    _log(f"basis ({args.rank},{args.step}): dim {basis.dim}")
    _emit(args, {
        "schema": "goh-atlas/1",
        "type": "basis_report",
        "dim": basis.dim,
        "dims_by_length": dims,
        "basis": basis.to_json(),
    })
    return 0


def cmd_realize(args) -> int:
    frame, maps = realize_frame(generate_basis(args.rank, args.step))
    _log(f"realized ({args.rank},{args.step}) on R^{frame.n}")
    _emit(args, {
        "schema": "goh-atlas/1",
        "type": "realization_report",
        "frame": frame.to_json(),
        "realization": maps.to_json(),
    })
    return 0


def cmd_metabelian(args) -> int:
    frame = _frame_from_args(args)
    if args.depth is not None:
        depth = args.depth
    elif frame.weights:
        depth = max(4, 2 * max(frame.weights))
    else:
        depth = 4
    verdict = is_metabelian(frame, depth)
    _log(f"metabelian={verdict.metabelian} (depth {depth})")
    _emit(args, verdict.to_json())
    return 0


def _goh_system(args):
    frame = _frame_from_args(args)
    if not args.lam:
        _usage("--lambda is required")
        raise SystemExit(2)
    lam = _parse_lambda(args.lam)
    return goh_polynomials(frame, lam)


def cmd_goh(args) -> int:
    _emit(args, _goh_system(args).to_json())
    return 0


def cmd_trace(args) -> int:
    sysm = _goh_system(args)
    window = _parse_window(args.window) if args.window else (-2.0, 2.0,
                                                             -2.0, 2.0)
    trace = trace_variety(sysm, window=window, resolution=args.res or 512)
    _log(f"trace: {len(trace.polylines)} polylines, "
         f"{len(trace.singular_candidates)} singular candidates")
    if args.out and args.out.endswith(".csv"):
        serialize.write_output(trace.to_csv(), args.out)
    else:
        _emit(args, trace.to_json())
    return 0


def cmd_lift(args) -> int:
    frame = _frame_from_args(args)
    if not args.curve:
        _usage("--curve FILE is required")
        raise SystemExit(2)
    kappa = SampledCurve.from_json(_load_json(args.curve))
    x0 = list(kappa.points[0]) + [0.0] * (frame.n - frame.r)
    curve, control = horizontal_lift(frame, kappa, x0)
    _emit(args, {
        "schema": "goh-atlas/1",
        "type": "lift_report",
        "curve": curve.to_json(),
        "control": control.to_json(),
    })
    return 0


def _control_from_args(args) -> Control:
    if not args.control:
        _usage("--control FILE is required")
        raise SystemExit(2)
    return Control.from_json(_load_json(args.control))


def _x0_from_args(args, frame) -> list:
    if args.x0:
        vals = [float(Fraction(p)) for p in args.x0.split(",")]
        if len(vals) != frame.n:
            _usage(f"--x0 needs {frame.n} components")
            raise SystemExit(2)
        return vals
    return [0.0] * frame.n


def cmd_flow(args) -> int:
    frame = _frame_from_args(args)
    control = _control_from_args(args)
    curve = flow_control(frame, control, _x0_from_args(args, frame))
    _emit(args, curve.to_json())
    return 0


def cmd_residuals(args) -> int:
    frame = _frame_from_args(args)
    control = _control_from_args(args)
    if not args.lam:
        _usage("--lambda is required")
        raise SystemExit(2)
    lam = [float(v) for v in _parse_lambda(args.lam)]
    rep = extremal_residuals(frame, control, _x0_from_args(args, frame), lam)
    _log(f"sup abnormal {rep.sup_abnormal:.3e}, sup bracket {rep.sup_goh:.3e}")
    _emit(args, rep.to_json())
    return 0


def cmd_recover(args) -> int:
    threshold = _default_tol(args, 1e-6)
    frame = _frame_from_args(args)
    control = _control_from_args(args)
    result = recover_abnormal_covector(
        frame, control, _x0_from_args(args, frame), threshold=threshold)
    _log(f"{len(result.candidates)} candidate(s); "
         f"sigma ratio {result.singular_values[-1] / result.singular_values[0]:.3e}")
    _emit(args, result.to_json())
    return 0


def cmd_spiral(args) -> int:
    curve = spiral_curve(args.eps, args.samples)
    if args.out and args.out.endswith(".csv"):
        serialize.write_output(
            serialize.curve_csv(curve.ts, curve.points), args.out)
    else:
        _emit(args, curve.to_json())
    return 0


def cmd_contain(args) -> int:
    threshold = _default_tol(args, 1e-8)
    if not args.curve:
        _usage("--curve FILE is required")
        raise SystemExit(2)
    curve = SampledCurve.from_json(_load_json(args.curve))
    if curve.m != 2:
        _usage("containment needs a planar curve")
        raise SystemExit(2)
    results = []
    for degree in range(1, args.degree + 1):
        out = polynomial_containment(
            [tuple(p) for p in curve.points], degree, threshold=threshold)
        results.append(out)
        _log(f"degree {degree}: null dim {out['null_space_dim']}")
    _emit(args, {"schema": "goh-atlas/1", "type": "containment_report",
                 "results": results})
    return 0


def cmd_demo(args) -> int:
    tol = _default_tol(args, None)
    rep = run_scenario(args.scenario, seed=args.seed, tol=tol, eps=args.eps,
                       samples=args.samples, res=args.res)
    outdir = args.out or os.path.join("goh-atlas-artifacts", args.scenario)
    os.makedirs(outdir, exist_ok=True)
    for name, obj in rep.artifacts.items():
        path = os.path.join(outdir, name)
        serialize.write_output(serialize.dumps(obj), path)
        _log(f"wrote {path}")
    report_path = os.path.join(outdir, "report.json")
    serialize.write_output(serialize.dumps(rep), report_path)
    _log(f"wrote {report_path}")
    sys.stdout.write(serialize.dumps(rep))
    if not rep.ok:
        _log(f"scenario {args.scenario}: FAILED")
        return 1
    _log(f"scenario {args.scenario}: ok")
    return 0


def _add_frame_flags(p):
    p.add_argument("--rank", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--frame", help="frame or realization JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goh-atlas",
        description="Free nilpotent frames, commuting-bracket checks, "
                    "variety tracing, and abnormality numerics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("basis", cmd_basis, help="Lyndon-word basis and dimensions")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--step", type=int, required=True)

    p = add("realize", cmd_realize,
            help="polynomial frame in second-kind coordinates")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--step", type=int, required=True)

    p = add("metabelian", cmd_metabelian, help="commuting-bracket verdict")
    _add_frame_flags(p)
    p.add_argument("--depth", type=int)

    p = add("goh", cmd_goh, help="variety polynomials for a covector")
    _add_frame_flags(p)
    p.add_argument("--lambda", dest="lam", help="comma-separated covector")

    p = add("trace", cmd_trace, help="trace the plane variety")
    _add_frame_flags(p)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--window", help="x0,x1,y0,y1")
    p.add_argument("--res", type=int)

    p = add("lift", cmd_lift, help="horizontal lift of a base curve")
    _add_frame_flags(p)
    p.add_argument("--curve", help="curve JSON file")

    p = add("flow", cmd_flow, help="integrate a control")
    _add_frame_flags(p)
    p.add_argument("--control", help="control JSON file")
    p.add_argument("--x0")

    p = add("residuals", cmd_residuals, help="PMP and bracket pairings")
    _add_frame_flags(p)
    p.add_argument("--control")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--x0")
    p.add_argument("--tol", type=_parse_tol)

    p = add("recover", cmd_recover, help="null covectors of the lift")
    _add_frame_flags(p)
    p.add_argument("--control")
    p.add_argument("--x0")
    p.add_argument("--tol", type=_parse_tol)

    p = add("spiral", cmd_spiral, help="log-phase spiral samples")
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--samples", type=int, default=20000)

    p = add("contain", cmd_contain, help="polynomial containment probe")
    p.add_argument("--curve")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--tol", type=_parse_tol)

    p = add("demo", cmd_demo, help="run an end-to-end scenario")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--tol", type=_parse_tol)
    p.add_argument("--eps", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--res", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (PreconditionError, NumericsError, ConditioningError,
            NotNilpotentError) as exc:
        serialize.write_output(serialize.dumps({
            "schema": "goh-atlas/1",
            "type": "failure_report",
            "error": type(exc).__name__,
            "message": str(exc),
        }), args.out)
        _log(f"{type(exc).__name__}: {exc}")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
