"""The four benchmark workloads: seeded inputs, jobs and output checks.

Inputs are plain JSON-able data made from the run seed with the standard
library alone, so the same seed always gives the same inputs and the
program under test sees nothing but them.  Where an expected result can only
come from the program itself (a realization digest, a polyline count), the
seed draws from a fixed pool whose expectations are recorded in
``digests.json`` by ``record.py``.

goh_atlas is imported inside ``setup`` (imports are part of set-up time), and
jobs call it through module attributes, so the wrappers of ``tracing.py``
see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

SPIRAL_NODES = 500
SPIRAL_JOBS = 4
SPIRAL_THRESHOLD = 1e-6          # scenario f27-spiral's sigma-ratio threshold
RESIDUAL_BOUND = 1e-5            # criterion 09's revalidation bound
SPIRAL_EPS_POOL = [round(0.01 * 1.075 ** k, 6) for k in range(32)]

REALIZE_SHAPES = [(2, 6), (2, 7), (2, 8), (3, 5), (4, 4)]
F27_GROWTH = [2, 3, 5, 8, 14, 23, 41]
F27_WITNESS = ((1, 2), (1, 1, 2))
JACOBI_JOBS, JACOBI_TRIPLES = 4, 4

CONIC_RES = 512
CONIC_JOBS = 8
CUBIC_RES = 48
CONIC_POOL_SIZE = 32
CUBIC_POOL_SIZE = 16
PROBE_EPS_POOL = [round(1e-3 * (1.0 + k / 8.0), 6) for k in range(16)]
PROBE_NODES = 5000

DEMO_SCENARIOS = ("heisenberg", "f23-line", "f24", "f25", "martinet")
DEMO_SEED_POOL = list(range(8))


def shape_key(rank: int, step: int) -> str:
    return f"r{rank}s{step}"


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def blas_env() -> dict:
    """Environment pinning BLAS to one thread (one job at a time)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GOH_ATLAS_TOL", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Job:
    """One unit of work: ``run`` is timed, ``check`` lists what is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Context:
    """What set-up leaves for the jobs: modules, fixtures, a work dir."""

    mods: dict = field(default_factory=dict)
    fixtures: dict = field(default_factory=dict)
    workdir: Path | None = None
    in_process: bool = False  # demo-cli: run cli.main here, not in a child


def spread_out(*groups: list) -> list:
    """The jobs of every group in one pass, each group's jobs spread evenly
    over it.  The machine's speed drifts over seconds, so a group run back to
    back would sample that drift at one moment of each pass."""
    keyed = [((i + 0.5) / len(group), g, job)
             for g, group in enumerate(groups) for i, job in enumerate(group)]
    return [job for *_, job in sorted(keyed, key=lambda t: t[:2])]


def import_program() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    names = ("freelie", "polyfield", "normalform", "metabelian", "goh",
             "trajectories", "scenarios", "serialize", "cli")
    return {n: importlib.import_module(f"goh_atlas.{n}") for n in names}


def lapack_warmup(seed: int) -> None:
    """First LAPACK call in a process is slow; pay it in set-up."""
    import numpy as np

    a = np.random.default_rng(seed).standard_normal((4002, 41))
    np.linalg.svd(a, full_matrices=False)
    np.linalg.det(a[:41])


# ---------------------------------------------------------------------------
# spiral-f27

def spiral_inputs(seed: int) -> dict:
    rng = random.Random(f"spiral-f27/{seed}")
    return {"nodes": SPIRAL_NODES,
            "eps": [rng.choice(SPIRAL_EPS_POOL) for _ in range(SPIRAL_JOBS)]}


def spiral_setup(ctx: Context, seed: int) -> None:
    m = ctx.mods
    frame, _ = m["normalform"].realize_frame(m["freelie"].generate_basis(2, 7))
    ctx.fixtures["f27"] = frame
    lapack_warmup(seed)


def spiral_run(mods: dict, frame, eps: float, nodes: int) -> dict:
    tr, ser = mods["trajectories"], mods["serialize"]
    spiral = tr.spiral_curve(eps, nodes - 1)
    u = tr.lift_control(spiral)
    x0 = [spiral.points[0, 0], spiral.points[0, 1]] + [0.0] * (frame.n - 2)
    tr.flow_control(frame, u, x0)
    rec = tr.recover_abnormal_covector(frame, u, x0,
                                       threshold=SPIRAL_THRESHOLD)
    ratio = float(rec.singular_values[-1] / rec.singular_values[0])
    out = {"candidates": len(rec.candidates),
           "ratio_below": ratio < SPIRAL_THRESHOLD,
           "sup": None, "bytes": len(ser.dumps(rec))}
    if rec.candidates:
        res = tr.extremal_residuals(frame, u, x0, rec.candidates[-1])
        out["sup"] = max(res.sup_abnormal, res.sup_goh)
        out["bytes"] += len(ser.dumps(res))
    return out


def spiral_check(expect: dict, out: dict) -> list:
    bad = []
    if out["candidates"] != expect["candidates"]:
        bad.append(f"candidates {out['candidates']} != {expect['candidates']}")
    if out["ratio_below"] != expect["ratio_below"]:
        bad.append("sigma-ratio verdict changed")
    if out["sup"] is None or not out["sup"] <= RESIDUAL_BOUND:
        bad.append(f"residual sup {out['sup']} > {RESIDUAL_BOUND}")
    return bad


def spiral_jobs(ctx: Context, inputs: dict, digests: dict) -> list:
    jobs = []
    for eps in inputs["eps"]:
        expect = digests["spiral-f27"][repr(eps)]
        jobs.append(Job(
            f"spiral eps={eps}",
            lambda eps=eps: spiral_run(ctx.mods, ctx.fixtures["f27"], eps,
                                       inputs["nodes"]),
            lambda out, expect=expect: spiral_check(expect, out)))
    return jobs


# ---------------------------------------------------------------------------
# exact-algebra

def _lie_element(rng: random.Random, dim: int) -> dict:
    """Rational element with every coordinate nonzero, so that the work of a
    bracket does not depend on the seed."""
    return {str(i): str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4),
                                 rng.randint(1, 6)))
            for i in range(dim)}


def _rational_point(rng: random.Random, dim: int, den: int) -> list:
    return [str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), den))
            for _ in range(dim)]


def exact_inputs(seed: int) -> dict:
    rng = random.Random(f"exact-algebra/{seed}")
    return {
        "jacobi": [[[_lie_element(rng, 41) for _ in range(3)]
                    for _ in range(JACOBI_TRIPLES)]
                   for _ in range(JACOBI_JOBS)],
        "bch": [[step, [_lie_element(rng, dim) for _ in range(2)]]
                for step, dim in ((4, 8), (4, 8), (5, 14), (5, 14))],
        "samples": [[_rational_point(rng, 41, 7), _rational_point(rng, 39, 5)]
                    for _ in range(6)],
        "point": _rational_point(rng, 41, 3),
    }


def exact_setup(ctx: Context, seed: int) -> None:
    m = ctx.mods
    frame, _ = m["normalform"].realize_frame(m["freelie"].generate_basis(2, 7))
    ctx.fixtures["f27"] = frame
    lapack_warmup(seed)


def _element(data: dict) -> dict:
    return {int(k): Fraction(v) for k, v in data.items()}


def _is_zero(el: dict) -> bool:
    return all(not v for v in el.values())


def realize_run(mods: dict, rank: int, step: int) -> str:
    frame, maps = mods["normalform"].realize_frame(
        mods["freelie"].generate_basis(rank, step))
    return mods["serialize"].dumps({
        "schema": "goh-atlas/1", "type": "realization_report",
        "frame": frame.to_json(), "realization": maps.to_json()})


def jacobi_run(mods: dict, triples: list) -> list:
    fl = mods["freelie"]
    table = fl.structure_table(fl.generate_basis(2, 7))
    br = table.bracket_elements
    defects = []
    for a, b, c in (tuple(_element(e) for e in t) for t in triples):
        defects.append(fl.lie_add(fl.lie_add(br(a, br(b, c)), br(b, br(c, a))),
                                  br(c, br(a, b))))
    return defects


def bch_run(mods: dict, step: int, pair: list) -> dict:
    """bch(a, b) + bch(-b, -a), exactly zero in the truncated group."""
    fl = mods["freelie"]
    basis = fl.generate_basis(2, step)
    a, b = (_element(e) for e in pair)
    neg = Fraction(-1)
    return fl.lie_add(fl.bch(a, b, basis),
                      fl.bch(fl.lie_scale(b, neg), fl.lie_scale(a, neg), basis))


def metabelian_check(verdict) -> list:
    if verdict.metabelian is not False or verdict.witness != F27_WITNESS:
        return [f"f27 verdict {verdict.metabelian} {verdict.witness}"]
    return []


def translation_run(mods: dict, frame, samples: list) -> float:
    pts = [([Fraction(v) for v in x], [Fraction(v) for v in tau])
           for x, tau in samples]
    return mods["metabelian"].translation_invariance(frame, pts)


def exact_jobs(ctx: Context, inputs: dict, digests: dict) -> list:
    mods, f27 = ctx.mods, ctx.fixtures["f27"]
    realize, jacobi, bch, verdicts = [], [], [], []
    for rank, step in REALIZE_SHAPES:
        want = digests["exact-algebra"][shape_key(rank, step)]
        realize.append(Job(
            f"realize {shape_key(rank, step)}",
            lambda rank=rank, step=step: realize_run(mods, rank, step),
            lambda text, want=want: [] if sha256(text) == want
            else ["realization JSON differs from the recorded digest"]))
    for triples in inputs["jacobi"]:
        jacobi.append(Job(
            "jacobi r2s7", lambda t=triples: jacobi_run(mods, t),
            lambda defects: [] if all(_is_zero(d) for d in defects)
            else ["nonzero Jacobi defect"]))
    for step, pair in inputs["bch"]:
        bch.append(Job(
            f"bch r2s{step}", lambda s=step, p=pair: bch_run(mods, s, p),
            lambda el: [] if _is_zero(el) else ["bch(a,b) != -bch(-b,-a)"]))
    verdicts.append(Job("metabelian f27",
                        lambda: mods["metabelian"].is_metabelian(f27, 14),
                        metabelian_check))
    verdicts.append(Job(
        "translation f27",
        lambda: translation_run(mods, f27, inputs["samples"]),
        lambda gap: [] if gap > 0.0
        else ["f27 translation dependence not visible"]))
    point = [Fraction(v) for v in inputs["point"]]
    verdicts.append(Job(
        "growth f27",
        lambda: mods["polyfield"].growth_vector(f27, point, 7),
        lambda g: [] if g == F27_GROWTH else [f"growth vector {g}"]))
    return spread_out(realize, jacobi, bch, verdicts)


# ---------------------------------------------------------------------------
# variety

def _poly_json(n: int, terms: dict) -> list:
    """Poly.to_json layout for {(a, b): Fraction} in the first two variables."""
    out = []
    for (a, b), c in sorted(terms.items()):
        if c:
            out.append({"exp": [a, b] + [0] * (n - 2),
                        "coef": f"{c.numerator}/{c.denominator}"})
    return sorted(out, key=lambda t: t["exp"])


def cubic_frame(k: int) -> dict:
    """Normal-form frame on R^5 with seeded quartic coefficients, as JSON.

    Its variety polynomial for the stored covector is one fixed perturbed
    nodal cubic y^2 - x^2 - x^3 + (terms of degree 2 and 3), turned or
    reflected by one of the symmetries of the square window.  So the node at
    the origin stays singular and every pool entry costs the same to trace,
    while the frame and covector differ from entry to entry.
    """
    base = random.Random("variety/cubic/base")
    F = {(0, 2): Fraction(1), (2, 0): Fraction(-1), (3, 0): Fraction(-1)}
    for a in range(4):
        for b in range(4 - a):
            if a + b >= 2:
                F[(a, b)] = F.get((a, b), 0) + Fraction(base.randint(-4, 4),
                                                        64)
    # one of the 8 symmetries of the square window: same trace cost
    sx, sy = (-1) ** (k % 2), (-1) ** (k // 2 % 2)
    F = {((b, a) if k // 4 % 2 else (a, b)): c * sx ** a * sy ** b
         for (a, b), c in F.items()}
    rng = random.Random(f"variety/cubic/{k}")
    lam = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
           for _ in range(3)]
    # A4, A5: random quartics; A3 absorbs them so sum_j lam_j dA_j/dx1 = F
    quart = [{(a, b): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              for a in range(5) for b in range(5 - a)} for _ in range(2)]
    a3: dict = {}
    for (a, b), c in F.items():  # integral of F in x1
        a3[(a + 1, b)] = a3.get((a + 1, b), 0) + c / (a + 1)
    for lj, q in zip(lam[1:], quart):
        for e, c in q.items():
            a3[e] = a3.get(e, 0) - lj * c
    a3 = {e: c / lam[0] for e, c in a3.items()}
    a3[(0, 4)] = a3.get((0, 4), 0) + Fraction(rng.randint(-3, 3), 2)
    n = 5
    x1 = [_poly_json(n, {(0, 0): Fraction(1)}) if j == 0 else []
          for j in range(n)]
    x2 = [[], _poly_json(n, {(0, 0): Fraction(1)}),
          _poly_json(n, a3), _poly_json(n, quart[0]), _poly_json(n, quart[1])]
    return {"frame": {"schema": "goh-atlas/1", "type": "frame", "n": n,
                      "r": 2, "fields": [x1, x2], "normal_form": True},
            "lambda": ["0", "0"] + [str(v) for v in lam]}


def conic_lambda(k: int) -> list:
    """f24 covector whose variety is one fixed ellipse, moved and turned.

    On f24, F = l3 + l4 x1 + l5 x2 + l6 x1^2 / 2 + l7 x1 x2 + l8 x2^2 / 2
    (1-based l).  F = A u^2 + B u v + C v^2 - R with u = x1 - p, v = x2 - q.
    Every pool entry has the same A, B, C, R up to a swap of the axes and a
    reflection, and only the centre (p, q) moves, so the curve stays inside
    the window and each entry costs the same to trace.
    """
    rng = random.Random(f"variety/conic/{k}")
    a, b, c, r = Fraction(5, 4), Fraction(1, 4), Fraction(1), Fraction(5, 4)
    if k % 2:
        a, c = c, a
    if k % 4 >= 2:
        b = -b
    p, q = (Fraction(rng.randint(-4, 4), 8) for _ in range(2))
    lam = [a * p * p + b * p * q + c * q * q - r, -2 * a * p - b * q,
           -b * p - 2 * c * q, 2 * a, b, 2 * c]
    return ["0", "0"] + [str(v) for v in lam]


def variety_inputs(seed: int) -> dict:
    rng = random.Random(f"variety/{seed}")
    return {"conics": [rng.randrange(CONIC_POOL_SIZE)
                       for _ in range(CONIC_JOBS)],
            "cubics": [rng.randrange(CUBIC_POOL_SIZE)],
            "probe_eps": rng.choice(PROBE_EPS_POOL)}


def variety_setup(ctx: Context, seed: int) -> None:
    m = ctx.mods
    frame, _ = m["normalform"].realize_frame(m["freelie"].generate_basis(2, 4))
    ctx.fixtures["f24"] = frame
    lapack_warmup(seed)


def trace_run(mods: dict, frame, lam: list, res: int) -> dict:
    goh = mods["goh"]
    sysm = goh.goh_polynomials(frame, [Fraction(v) for v in lam])
    trace = goh.trace_variety(sysm, resolution=res)
    verts = [p for line in trace.polylines for p in line]
    return {"polylines": len(trace.polylines),
            "singular": len(trace.singular_candidates),
            "vertices": len(verts),
            "sup": goh.variety_membership(sysm, verts),
            "tolerance": trace.tolerance}


def trace_check(expect: dict, out: dict) -> list:
    bad = []
    if not out["sup"] <= out["tolerance"]:
        bad.append(f"vertex |F| {out['sup']} > tolerance {out['tolerance']}")
    for key in ("polylines", "singular"):
        if out[key] != expect[key]:
            bad.append(f"{key} {out[key]} != {expect[key]}")
    return bad


def containment_run(mods: dict, eps: float) -> dict:
    tr = mods["trajectories"]
    probe = tr.spiral_curve(eps, PROBE_NODES)
    pts = [tuple(p) for p in probe.points]
    return {d: tr.polynomial_containment(pts, d)["null_space_dim"]
            for d in range(1, 7)}


def variety_jobs(ctx: Context, inputs: dict, digests: dict) -> list:
    mods, rec = ctx.mods, digests["variety"]
    conics, cubics = [], []
    for k in inputs["conics"]:
        lam = conic_lambda(k)
        conics.append(Job(
            f"conic {k}",
            lambda lam=lam: trace_run(mods, ctx.fixtures["f24"], lam,
                                      CONIC_RES),
            lambda out, e=rec["conic"][str(k)]: trace_check(e, out)))
    for k in inputs["cubics"]:
        data = cubic_frame(k)

        def cubic(data=data):
            frame = mods["polyfield"].Frame.from_json(data["frame"])
            return trace_run(mods, frame, data["lambda"], CUBIC_RES)
        cubics.append(Job(
            f"cubic {k}", cubic,
            lambda out, e=rec["cubic"][str(k)]: trace_check(e, out)))
    eps = inputs["probe_eps"]
    probe = Job(
        f"containment eps={eps}", lambda: containment_run(mods, eps),
        lambda dims: [] if all(dims[d] == 0 for d in range(1, 5))
        else [f"containment null dims {dims}"])
    return spread_out(conics, cubics, [probe])


# ---------------------------------------------------------------------------
# demo-cli

def demo_inputs(seed: int) -> dict:
    rng = random.Random(f"demo-cli/{seed}")
    return {"jobs": [[s, rng.choice(DEMO_SEED_POOL)] for s in DEMO_SCENARIOS]}


def cli_process(args: list, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "goh_atlas.cli", *args],
                          cwd=cwd or ROOT, env=blas_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120, check=False)


def demo_setup(ctx: Context, seed: int) -> None:
    """Prime and check the CLI in a fresh process; no LAPACK warm-up here,
    since every demo job is a cold process that pays its own."""
    proc = cli_process(["basis", "--rank", "2", "--step", "2"])
    if proc.returncode != 0 or b'"dim": 3' not in proc.stdout:
        raise RuntimeError("the goh-atlas CLI does not start: "
                           + proc.stderr.decode(errors="replace")[-500:])


def demo_run(ctx: Context, scenario: str, seed: int, outdir: Path) -> dict:
    if outdir.exists():
        shutil.rmtree(outdir)
    args = ["demo", scenario, "--out", str(outdir), "--seed", str(seed)]
    if ctx.in_process:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = ctx.mods["cli"].main(args)
    else:
        code = cli_process(args).returncode
    return {"code": code, "outdir": outdir}


def artifact_digests(outdir: Path) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(outdir.iterdir())}


def demo_check(expect: dict, out: dict) -> list:
    if out["code"] != 0:
        return [f"exit status {out['code']}"]
    report = out["outdir"] / "report.json"
    if not report.exists() or json.loads(report.read_text()).get("ok") is not True:
        return ["report lacks ok: true"]
    got = artifact_digests(out["outdir"])
    if got != expect:
        diff = sorted(k for k in set(got) | set(expect)
                      if got.get(k) != expect.get(k))
        return [f"artifacts differ: {diff}"]
    return []


def demo_jobs(ctx: Context, inputs: dict, digests: dict) -> list:
    jobs = []
    for i, (scenario, seed) in enumerate(inputs["jobs"]):
        outdir = ctx.workdir / f"demo-{i}"
        expect = digests["demo-cli"][f"{scenario}/{seed}"]
        jobs.append(Job(
            f"demo {scenario} --seed {seed}",
            lambda s=scenario, k=seed, d=outdir: demo_run(ctx, s, k, d),
            lambda out, e=expect: demo_check(e, out)))
    return jobs


@dataclass(frozen=True)
class Workload:
    """``pass_s``: seconds one pass took when the benchmark was defined
    (2-CPU Xeon, one BLAS thread); it turns ``--seconds`` into a pass count
    that every later commit repeats, so all commits run the same jobs."""

    name: str
    inputs: Callable[[int], dict]
    setup: Callable[[Context, int], None]
    jobs: Callable[[Context, dict, dict], list]
    pass_s: float
    in_process: bool = True  # False: each job is a child process


WORKLOADS = {w.name: w for w in (
    Workload("spiral-f27", spiral_inputs, spiral_setup, spiral_jobs, 2.2),
    Workload("exact-algebra", exact_inputs, exact_setup, exact_jobs, 7.9),
    Workload("variety", variety_inputs, variety_setup, variety_jobs, 5.8),
    Workload("demo-cli", demo_inputs, demo_setup, demo_jobs, 3.0,
             in_process=False),
)}
