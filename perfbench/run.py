"""goh-atlas benchmark: one workload, one process, one job at a time.

    python3 perfbench/run.py --workload spiral-f27 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The run sets up (imports, fixture frames, LAPACK warm-up), then repeats
passes over the workload's jobs in a closed loop, checking every job's
output.  ``--seconds`` sets the number of passes: as many as took that long
when the benchmark was defined (at least 11 jobs), so every commit runs the
same jobs; a run that takes twice as long stops early.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
half the time plain and half with spans around every layer (see
``tracing.py``) and reports the per-layer metrics.  Every time metric is
given at reference speed: a fixed reference kernel is timed before every
job, and the measured times are scaled by how much faster or slower than
nominal it ran (``host_factor``).  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in its own process
and prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before anything imports numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DIGESTS,
    ROOT,
    SRC,
    WORKLOADS,
    Context,
    blas_env,
    import_program,
    load_digests,
)

WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3   # one in this process, the rest in fresh processes
SETUP_REFS = 10     # reference kernels timed before and after each set-up
TAIL_BEYOND = 10    # samples a tail percentile must have above it
MIN_JOBS = TAIL_BEYOND + 1
COLD_SAMPLES = 3
OVERRUN = 2  # a run stops after the pass that ends past OVERRUN x --seconds
REF_TERMS = 1200        # size of the reference kernel timed before each job
REF_NOMINAL_S = 0.009   # its mean time on the defining machine
TIME_UNITS = ("s", "us")  # the metrics host_factor rescales

# name, unit, better, bound: the end-to-end metrics (--trace 0)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("job_s.tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_rate", "fraction", "higher", 0.01),
]

REALIZED = ("r2s3", "r2s4", "r2s5", "r2s6", "r2s7", "r2s8", "r3s5", "r4s4")
TIMED = {  # per-layer time metric -> outermost spans it sums
    "freelie.structure_table.s": ["freelie.structure_table"],
    "freelie.bracket_elements.s": ["freelie.bracket_elements"],
    "freelie.bch.s": ["freelie.bch"],
    "polyfield.lie_bracket_fields.s": ["polyfield.lie_bracket_fields"],
    "polyfield.growth_vector.s": ["polyfield.growth_vector"],
    "polyfield.compile.s": ["polyfield.compile_polyvec",
                            "polyfield.compile_jacobian"],
    "normalform.realize_frame.s": ["normalform.realize_frame"],
    "normalform.verify_normal_form.s": ["normalform.verify_normal_form"],
    "metabelian.is_metabelian.s": ["metabelian.is_metabelian"],
    "metabelian.translation_invariance.s": [
        "metabelian.translation_invariance"],
    "goh.goh_polynomials.s": ["goh.goh_polynomials"],
    "goh.trace_variety.s": ["goh.trace_variety"],
    "goh.variety_membership.s": ["goh.variety_membership"],
    **{f"trajectories.{f}.s": [f"trajectories.{f}"]
       for f in (*tracing.INTEGRATORS, "polynomial_containment")},
    "scenarios.run_scenario.s": ["scenarios.run_scenario"],
    "serialize.dumps.s": ["serialize.dumps"],
    "serialize.write_output.s": ["serialize.write_output"],
    "cli.main.s": ["cli.main"],
}
CALLED = {  # per-layer call count -> span names it sums
    "freelie.bracket_elements.calls": ["freelie.bracket_elements"],
    "polyfield.compile.calls": ["polyfield.compile_polyvec",
                                "polyfield.compile_jacobian"],
    "polyfield.compiled.evals": ["polyfield.compiled"],
    "polyfield.eval_float.calls": ["polyfield.eval_float"],
}
COUNTED = ("normalform.realize_frame.terms", "goh.trace_variety.cells",
           "goh.trace_variety.vertices",
           "goh.trace_variety.singular_candidates", "trajectories.nodes",
           "serialize.dumps.bytes")
PER_LAYER = (
    [(name, "s") for name in TIMED]
    + [(f"normalform.realize_frame.{k}.s", "s") for k in REALIZED]
    + [(name, "count") for name in CALLED]
    + [(name, "bytes" if name.endswith("bytes") else "count")
       for name in COUNTED]
    + [("trajectories.us_per_node", "us"), ("trajectories.state_dim", "count")]
    + [(f"{m}.self_s", "s") for m in tracing.MODULES]
    + [(f"{m}.errors", "count") for m in tracing.MODULES]
    + [("cli.cold_start_s", "s"), ("cli.import_s", "s"),
       ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count"),
       ("trace.passes", "count")]
)
COUNT_UNITS = ("count", "bytes")


def machine() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu}


def set_up(workload, seed: int, in_process: bool) -> tuple:
    """Imports, fixtures and warm-up; returns (context, seconds, host
    factor), the factor from reference kernels timed just before and just
    after."""
    ref = [reference_kernel() for _ in range(SETUP_REFS)]
    start = time.perf_counter()
    ctx = Context(in_process=in_process,
                  workdir=WORK / f"{workload.name}-{os.getpid()}")
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    if in_process:
        ctx.mods = import_program()
    workload.setup(ctx, seed)
    seconds = time.perf_counter() - start
    ref += [reference_kernel() for _ in range(SETUP_REFS)]
    return ctx, seconds, host_factor(ref)


def setup_in_child(name: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=blas_env(), stdout=subprocess.PIPE, timeout=120,
        check=True)
    out = json.loads(proc.stdout.decode().splitlines()[-1])
    return out["setup_s"], out["host_factor"]


def pass_count(workload, seconds: float, n_jobs: int) -> int:
    """Passes that take ``seconds`` at the defining commit, >= MIN_JOBS jobs."""
    return max(-(-MIN_JOBS // n_jobs), round(seconds / workload.pass_s))


def host_factor(ref: list) -> float:
    """REF_NOMINAL_S over the mean time of the reference kernels ``ref``.

    The shared host flips between a fast and a slow state, about 1.6 times
    apart, many times a second, and the share of slow time drifts over
    minutes, so the same code reads up to a third slower in one run than in
    the next.  The reference kernel sees the same share of slow time as the
    work around it, so a time multiplied by this factor is the time at the
    speed where the kernel takes REF_NOMINAL_S: most of the drift cancels.
    The mean, not the median: the kernel is short, and each timing is close
    to either the fast or the slow value."""
    return REF_NOMINAL_S / statistics.fmean(ref)


def rescale(values: dict, units: dict, factor: float, ref: list) -> str:
    """Multiply the time metrics in ``values`` by ``factor``; return a note
    with the factor and the times as measured."""
    measured = []
    for name, value in values.items():
        if units[name] in TIME_UNITS:
            measured.append(f"{name} {value:.6g} {units[name]}")
            values[name] = value * factor
    return (f"host factor {factor:.4f} from {len(ref)} reference kernels "
            f"(mean {statistics.fmean(ref) * 1e3:.4f} ms, "
            f"{REF_NOMINAL_S * 1e3:g} ms at reference speed); "
            "measured: " + ", ".join(measured))


def reference_kernel() -> float:
    """Seconds a fixed piece of pure-Python Fraction and dict work takes,
    with the collector off.  It is the benchmark's own code, so no change to
    the program moves it; only the host's speed does."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, REF_TERMS):
            total += Fraction(1, i) * Fraction(i + 1, 3)
            table[i % 97] = table.get(i % 97, 0) + i
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


class Loop:
    """Closed-loop passes over the jobs, with their checks; the reference
    kernel is timed before each job, outside the job's time."""

    def __init__(self):
        self.passes: list = []      # seconds of job time per pass
        self.latencies: list = []
        self.ref: list = []         # reference kernel seconds, one per job
        self.attempted = 0
        self.failures: list = []
        self.cut_short = False

    def run(self, jobs: list, passes: int, deadline: float) -> None:
        """Run ``passes`` passes, or stop after the pass that ends past
        ``deadline`` (a perf_counter time), whichever comes first."""
        for _ in range(passes):
            if self.passes and time.perf_counter() > deadline:
                self.cut_short = True
                break
            spent = 0.0
            for job in jobs:
                self.ref.append(reference_kernel())
                t0, dt = time.perf_counter(), None
                try:
                    out = job.run()
                    dt = time.perf_counter() - t0
                    problems = job.check(out)
                except Exception:  # a failed job or check is counted
                    dt = dt or time.perf_counter() - t0
                    problems = [traceback.format_exc(limit=3)]
                spent += dt
                self.latencies.append(dt)
                self.attempted += 1
                if problems:
                    self.failures.append((job.name, problems))
            self.passes.append(spent)

    def tail(self) -> tuple:
        """(latency, percentile): the quantile at the rank with TAIL_BEYOND
        samples above it."""
        n = len(self.latencies)
        rank = max(1, n - TAIL_BEYOND)
        return (hd_quantile(self.latencies, rank / (n + 1)),
                100 * rank // n)


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a weighted mean of the
    order statistics, with the Beta(p(n+1), (1-p)(n+1)) mass of ((i-1)/n,
    i/n] as the i-th weight.  The host flips between a fast and a slow
    state many times a second, so a short job's latency is close to one of
    two values, and a single order statistic jumps between them when the
    slow share of the run crosses its rank; a weighted mean of the order
    statistics around that rank moves smoothly with the slow share."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule inside each ((i-1)/n, i/n]
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t))
                           for t in ts))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, x)) / total


def end_to_end(workload, args, ctx, setup: tuple) -> tuple:
    """``setup``: this process's (set-up seconds, host factor)."""
    setups = [setup] + [setup_in_child(workload.name, args.seed)
                        for _ in range(SETUP_SAMPLES - 1)]
    jobs = workload.jobs(ctx, workload.inputs(args.seed), load_digests())
    loop = Loop()
    loop.run(jobs, pass_count(workload, args.seconds, len(jobs)),
             time.perf_counter() + OVERRUN * args.seconds)
    who = resource.RUSAGE_SELF if ctx.in_process else resource.RUSAGE_CHILDREN
    tail, pct = loop.tail()
    values = {
        "wall_s": statistics.median(loop.passes),
        "job_s.p50": hd_quantile(loop.latencies, 0.5),
        "job_s.tail": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - len(loop.failures) / loop.attempted,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    notes = [f"job_s.tail is p{pct} of {len(loop.latencies)} jobs "
             f"({len(loop.passes)} passes of {len(jobs)} jobs"
             + (", cut short at the time limit)" if loop.cut_short else ")"),
             "setup_s samples (measured s x host factor): " + ", ".join(
                 f"{s:.4f} x {f:.4f}" for s, f in setups),
             "pass seconds: " + ", ".join(f"{s:.4f}" for s in loop.passes),
             f"error_rate = {len(loop.failures)}/{loop.attempted}",
             rescale(values, units, host_factor(loop.ref), loop.ref)]
    values["setup_s"] = statistics.median(s * f for s, f in setups)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return loop, metrics, notes


def cold_seconds(argv: list) -> float:
    """Median wall time of a fresh interpreter running ``argv``."""
    times = []
    for _ in range(COLD_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=blas_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=120, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(workload, args, ctx) -> tuple:
    """Plain and traced passes, alternating so both see the same drift."""
    jobs = workload.jobs(ctx, workload.inputs(args.seed), load_digests())
    pairs = max(2, pass_count(workload, args.seconds, len(jobs)) // 2)
    deadline = time.perf_counter() + OVERRUN * args.seconds
    plain, traced, tracer = Loop(), Loop(), tracing.Tracer()
    totals = []  # recorded per pass, so the counts can be checked to repeat
    for _ in range(pairs):
        if totals and time.perf_counter() > deadline:
            plain.cut_short = True
            break
        plain.run(jobs, 1, math.inf)
        tracer.install(ctx.mods)
        try:
            traced.run(jobs, 1, math.inf)
        finally:
            tracer.uninstall()
        totals.append(_layer_totals(tracer))
        tracer.reset()
    loop = plain
    loop.passes += traced.passes
    loop.latencies += traced.latencies
    loop.ref += traced.ref
    loop.attempted += traced.attempted
    loop.failures += traced.failures

    units = dict(PER_LAYER)
    values, varying = {}, []
    for name, unit in PER_LAYER:
        if name in totals[0]:
            per_pass = [t[name] for t in totals]
            if len(set(per_pass)) == 1:
                values[name] = per_pass[0]
            else:
                values[name] = statistics.median(per_pass)
                if unit in COUNT_UNITS:
                    varying.append(f"{name} {per_pass}")
    values["cli.cold_start_s"] = cold_seconds(
        ["-m", "goh_atlas.cli", "basis", "--rank", "2", "--step", "2"])
    values["cli.import_s"] = cold_seconds(["-c", "import goh_atlas"])
    untraced = statistics.median(loop.passes[:len(totals)])
    values["trace.wall_s"] = statistics.median(traced.passes)
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    values["trace.passes"] = len(traced.passes)
    idle = sorted(name for name in units
                  if name.endswith((".s", ".calls", ".evals"))
                  and not values.get(name))
    notes = [f"{len(totals)} plain passes, each followed by a traced one"
             + (", cut short at the time limit" if loop.cut_short else "")
             + f"; trajectories.us_per_node at n = "
             f"{values['trajectories.state_dim']}",
             "not exercised by this workload: " + (", ".join(idle) or "none"),
             "counts that differ between passes: "
             + ("; ".join(varying) or "none")]
    notes.append(rescale(values, units, host_factor(loop.ref), loop.ref))
    metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in PER_LAYER}
    return loop, metrics, notes


def _layer_totals(tracer: tracing.Tracer) -> dict:
    """Per-layer values of one traced pass."""
    out = {name: sum(tracer.total_ns.get(s, 0) for s in spans) / 1e9
           for name, spans in TIMED.items()}
    out.update({f"normalform.realize_frame.{k}.s":
                tracer.counts.get(f"normalform.realize_frame.{k}.ns", 0) / 1e9
                for k in REALIZED})
    out.update({name: sum(tracer.calls.get(s, 0) for s in spans)
                for name, spans in CALLED.items()})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTED})
    nodes = out["trajectories.nodes"]
    integrating = sum(out[f"trajectories.{f}.s"] for f in tracing.INTEGRATORS)
    out["trajectories.us_per_node"] = integrating / nodes * 1e6 if nodes else 0.0
    out["trajectories.state_dim"] = tracer.state_dim
    for m in tracing.MODULES:
        out[f"{m}.self_s"] = tracer.self_ns.get(m, 0) / 1e9
        out[f"{m}.errors"] = tracer.errors.get(m, 0)
    out["trace.spans"] = tracer.n_spans
    return out


def run_all(args) -> int:
    """Every workload in its own process; its notes and every metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=False)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit status {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            if line.startswith("# "):  # notes, then "# <metric> = <value> <unit>"
                print(line)
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "goh_atlas" / "__init__.py", DIGESTS)
               if not p.exists()]
    if missing:
        print("error: the benchmark needs the goh-atlas sources; missing "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    import compileall

    compileall.compile_dir(str(SRC), quiet=2)  # keep byte-compiling out of set-up
    in_process = workload.in_process or bool(args.trace)
    ctx = None
    try:
        ctx, setup_s, factor = set_up(workload, args.seed, in_process)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "host_factor": factor}))
            return 0
        if args.trace:
            loop, metrics, notes = per_layer(workload, args, ctx)
        else:
            loop, metrics, notes = end_to_end(workload, args, ctx,
                                              (setup_s, factor))
    finally:
        if ctx is not None:
            shutil.rmtree(ctx.workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("# machine " + json.dumps(machine()))
    print(f"# workload {workload.name} seed {args.seed} "
          f"trace {args.trace}")
    for note in notes:
        print("# " + note)
    for job_name, problems in loop.failures:
        print(f"# FAILED {job_name}: {' | '.join(problems)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not loop.failures,
                      "attempted": loop.attempted,
                      "failed": len(loop.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
