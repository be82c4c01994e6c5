"""Command-line surface.

Exit codes: 0 success, 1 failed checks or numeric/domain errors,
2 usage errors.  Logs go to stderr, data to --out (stdout by default).
A command imports goh, trajectories or scenarios (numpy) only when it uses
them; basis, realize, metabelian, --help and usage errors load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from importlib import import_module

from . import serialize
from .errors import NumericsError, PreconditionError
from .freelie import generate_basis, witt_dimension
from .metabelian import is_metabelian
from .normalform import realize_frame
from .options import DEGREE_MAX, RES_MAX, SAMPLES_MAX, SCENARIO_NAMES, \
    check_resolution, check_table_size
from .polyfield import Frame


def _log(msg: str):
    print(msg, file=sys.stderr)


def _parse_values(text: str, flag: str, kind=Fraction) -> list:
    """The comma-separated rationals of text, each as kind (Fraction or
    float); one that is not a rational, or too large for a float, is a
    ValueError naming flag."""
    try:
        return [kind(Fraction(part.strip())) for part in text.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad {flag} value: {exc}") from None


def _parse_lambda(text: str | None, kind=Fraction) -> list:
    if not text:
        raise ValueError("--lambda is required")
    return _parse_values(text, "--lambda", kind)


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--window needs x0,x1,y0,y1")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad --window value: {exc}") from None


# flag -> the module and name of its artifact class, and the report that
# holds one under the flag name
_INPUTS = {"frame": ("polyfield", "Frame", "realization_report"),
           "control": ("trajectories", "Control", "lift_report"),
           "curve": ("trajectories", "SampledCurve", None)}


def _load(args, kind: str):
    """The artifact in the file --kind names, or in the report holding it."""
    if not getattr(args, kind):
        raise ValueError(f"--{kind} FILE is required")
    with open(getattr(args, kind)) as fh:
        data = json.load(fh)
    module, name, report = _INPUTS[kind]
    if isinstance(data, dict) and report and data.get("type") == report:
        serialize.check_artifact(data, report, kind)
        data = data[kind]
    cls = getattr(import_module(f".{module}", __package__), name)
    return cls.from_json(data)


def _basis(args, table=False):
    """The Lyndon basis of --rank and --step; a refusal names both flags.
    With table (for a frame to be realized), a basis too large for its
    structure table is refused too, before the table is allocated."""
    try:
        basis = generate_basis(args.rank, args.step)
        if table:
            check_table_size(basis.dim)
    except ValueError as exc:
        raise ValueError(f"--rank {args.rank} --step {args.step}: {exc}") \
            from None
    return basis


def _frame_from_args(args) -> Frame:
    if getattr(args, "frame", None):
        return _load(args, "frame")
    if args.rank is None or args.step is None:
        raise ValueError("need --rank and --step, or --frame FILE")
    return realize_frame(_basis(args, table=True))[0]


def _emit(args, obj, csv=None):
    """Write obj as JSON to --out (stdout by default), or the text that csv()
    returns when there is one and --out names a .csv file."""
    as_csv = csv is not None and (args.out or "").endswith(".csv")
    serialize.write_output(csv() if as_csv else serialize.dumps(obj), args.out)


def _arg_type(convert, ok, rule: str):
    """An argparse type: convert(text), if that is a value v with ok(v)
    (which may also raise ValueError); other text is a usage error that
    states rule and quotes the text."""
    def parse(text: str):
        try:
            value = convert(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


# the types of --tol, --res, --samples, --eps, --degree and --seed
_parse_tol = _arg_type(float, lambda v: math.isfinite(v) and v > 0.0,
                       "tolerance must be a finite positive number")
_parse_res = _arg_type(int, check_resolution,
                       f"resolution must be an integer from 2 to {RES_MAX}")
_parse_samples = _arg_type(int, lambda v: 2 <= v <= SAMPLES_MAX, f"samples "
                           f"must be an integer from 2 to {SAMPLES_MAX}")
_parse_eps = _arg_type(float, lambda v: 0.0 < v < 1.0,
                       "eps must lie strictly between 0 and 1")
_parse_degree = _arg_type(int, lambda v: 1 <= v <= DEGREE_MAX, f"degree "
                          f"must be an integer from 1 to {DEGREE_MAX}")
_parse_seed = _arg_type(int, lambda v: v >= 0,
                        "seed must be a non-negative integer")


def cmd_basis(args) -> int:
    basis = _basis(args)
    _log(f"basis ({args.rank},{args.step}): dim {basis.dim}")
    _emit(args, serialize.artifact("basis_report", {
        "dim": basis.dim,
        "dims_by_length": witt_dimension(args.rank, args.step),
        "basis": basis}))
    return 0


def cmd_realize(args) -> int:
    frame, maps = realize_frame(_basis(args, table=True))
    _log(f"realized ({args.rank},{args.step}) on R^{frame.n}")
    _emit(args, serialize.artifact("realization_report", {
        "frame": frame, "realization": maps}))
    return 0


def cmd_metabelian(args) -> int:
    frame = _frame_from_args(args)
    depth = args.depth if args.depth is not None else \
        max(4, 2 * max(frame.weights or (0,)))
    verdict = is_metabelian(frame, depth)
    _log(f"metabelian={verdict.metabelian} (depth {depth})")
    _emit(args, verdict)
    return 0


def _goh_system(args):
    from .goh import goh_polynomials
    frame = _frame_from_args(args)
    return goh_polynomials(frame, _parse_lambda(args.lam))


def cmd_goh(args) -> int:
    _emit(args, _goh_system(args))
    return 0


def cmd_trace(args) -> int:
    from .goh import trace_variety
    window = _parse_window(args.window)
    trace = trace_variety(_goh_system(args), window=window,
                          resolution=args.res)
    _log(f"trace: {len(trace.polylines)} polylines, "
         f"{len(trace.singular_candidates)} singular candidates")
    _emit(args, trace, csv=trace.to_csv)
    return 0


def cmd_lift(args) -> int:
    from .trajectories import horizontal_lift
    frame = _frame_from_args(args)
    kappa = _load(args, "curve")
    x0 = list(kappa.points[0]) + [0.0] * (frame.n - frame.r)
    curve, control = horizontal_lift(frame, kappa, x0)
    _emit(args, serialize.artifact("lift_report", {
        "curve": curve, "control": control}))
    return 0


def _x0_from_args(args, frame) -> list:
    if args.x0:
        vals = _parse_values(args.x0, "--x0", float)
        if len(vals) != frame.n:
            raise ValueError(f"--x0 needs {frame.n} components")
        return vals
    return [0.0] * frame.n


def cmd_flow(args) -> int:
    from .trajectories import flow_control
    frame = _frame_from_args(args)
    control = _load(args, "control")
    curve = flow_control(frame, control, _x0_from_args(args, frame))
    _emit(args, curve)
    return 0


def cmd_residuals(args) -> int:
    from .trajectories import extremal_residuals
    frame = _frame_from_args(args)
    control = _load(args, "control")
    lam = _parse_lambda(args.lam, float)
    rep = extremal_residuals(frame, control, _x0_from_args(args, frame), lam)
    _log(f"sup abnormal {rep.sup_abnormal:.3e}, sup bracket {rep.sup_goh:.3e}")
    _emit(args, rep)
    return 0


def cmd_recover(args) -> int:
    from .trajectories import recover_abnormal_covector
    frame = _frame_from_args(args)
    control = _load(args, "control")
    result = recover_abnormal_covector(
        frame, control, _x0_from_args(args, frame), threshold=args.tol)
    _log(f"{len(result.candidates)} candidate(s); "
         f"sigma ratio {result.singular_values[-1] / result.singular_values[0]:.3e}")
    _emit(args, result)
    return 0


def cmd_spiral(args) -> int:
    from .trajectories import spiral_curve
    curve = spiral_curve(args.eps, args.samples)
    _emit(args, curve,
          csv=lambda: serialize.curve_csv(curve.ts, curve.points))
    return 0


def cmd_contain(args) -> int:
    from .trajectories import polynomial_containment
    curve = _load(args, "curve")
    if curve.m != 2:
        raise ValueError("containment needs a planar curve")
    results = []
    for degree in range(1, args.degree + 1):
        out = polynomial_containment(curve.points, degree, threshold=args.tol)
        results.append(out)
        _log(f"degree {degree}: null dim {out['null_space_dim']}")
    _emit(args, serialize.artifact("containment_report",
                                   {"results": results}))
    return 0


def cmd_demo(args) -> int:
    from .scenarios import run_scenario
    rep = run_scenario(args.scenario, seed=args.seed, tol=args.tol,
                       eps=args.eps, samples=args.samples, res=args.res)
    outdir = args.out or os.path.join("goh-atlas-artifacts", args.scenario)
    os.makedirs(outdir, exist_ok=True)
    for name, obj in [*rep.artifacts.items(), ("report.json", rep)]:
        path = os.path.join(outdir, name)
        serialize.write_output(serialize.dumps(obj), path)
        _log(f"wrote {path}")
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
    p.add_argument("--depth", type=int,
                   help="longest |I| + |J| swept (default twice the top "
                        "weight, at least 4); the cost is bounded by the "
                        "nonzero brackets, not by the depth")

    p = add("goh", cmd_goh, help="variety polynomials for a covector")
    _add_frame_flags(p)
    p.add_argument("--lambda", dest="lam", help="comma-separated covector")

    p = add("trace", cmd_trace, help="trace the plane variety")
    _add_frame_flags(p)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--window", default="-2,2,-2,2", help="x0,x1,y0,y1")
    p.add_argument("--res", type=_parse_res, default=512)

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

    p = add("recover", cmd_recover, help="null covectors of the lift")
    _add_frame_flags(p)
    p.add_argument("--control")
    p.add_argument("--x0")
    p.add_argument("--tol", type=_parse_tol, default=1e-6)

    p = add("spiral", cmd_spiral, help="log-phase spiral samples")
    p.add_argument("--eps", type=_parse_eps, default=1e-2)
    p.add_argument("--samples", type=_parse_samples, default=20000)

    p = add("contain", cmd_contain, help="polynomial containment probe")
    p.add_argument("--curve")
    p.add_argument("--degree", type=_parse_degree, default=6)
    p.add_argument("--tol", type=_parse_tol, default=1e-8)

    p = add("demo", cmd_demo, help="run an end-to-end scenario")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--tol", type=_parse_tol)
    p.add_argument("--eps", type=_parse_eps)
    p.add_argument("--samples", type=_parse_samples)
    p.add_argument("--res", type=_parse_res)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (PreconditionError, NumericsError) as exc:
        _emit(args, serialize.artifact("failure_report", {
            "error": type(exc).__name__, "message": str(exc)}))
        _log(f"{type(exc).__name__}: {exc}")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
