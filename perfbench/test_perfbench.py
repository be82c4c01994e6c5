"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return W.import_program()


@pytest.fixture(scope="module")
def digests():
    return W.load_digests()


def _context(name: str, mods, tmp_path) -> W.Context:
    ctx = W.Context(mods=mods, workdir=tmp_path, in_process=True)
    W.WORKLOADS[name].setup(ctx, 0)
    return ctx


def _job(jobs, prefix):
    return next(j for j in jobs if j.name.startswith(prefix))


# --- inputs ---------------------------------------------------------------

@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = W.WORKLOADS[name].inputs
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert make(7) != make(8)


def test_pools_are_fixed():
    assert W.cubic_frame(3) == W.cubic_frame(3)
    assert W.conic_lambda(5) == W.conic_lambda(5)
    assert W.cubic_frame(3) != W.cubic_frame(4)


def test_pool_entries_have_recorded_expectations(digests):
    assert set(digests["spiral-f27"]) == {repr(e) for e in W.SPIRAL_EPS_POOL}
    assert len(digests["variety"]["conic"]) == W.CONIC_POOL_SIZE
    assert len(digests["variety"]["cubic"]) == W.CUBIC_POOL_SIZE
    assert set(digests["exact-algebra"]) == {
        W.shape_key(r, s) for r, s in W.REALIZE_SHAPES}
    assert set(digests["demo-cli"]) == {
        f"{s}/{k}" for s in W.DEMO_SCENARIOS for k in W.DEMO_SEED_POOL}


def test_cubic_frame_loads_in_normal_form(mods):
    data = W.cubic_frame(0)
    frame = mods["polyfield"].Frame.from_json(data["frame"])
    assert mods["normalform"].verify_normal_form(frame)["ok"]
    sysm = mods["goh"].goh_polynomials(frame, [Fraction(v) for v in
                                               data["lambda"]])
    F = sysm.poly(1, 2)
    assert F.degree() == 3
    assert F.eval((0, 0)) == 0 and F.diff(0).eval((0, 0)) == 0 \
        and F.diff(1).eval((0, 0)) == 0  # the node stays at the origin


# --- checks catch corrupted outputs -----------------------------------------

def test_spiral_check_catches_corruption(mods, digests, tmp_path):
    ctx = _context("spiral-f27", mods, tmp_path)
    job = W.spiral_jobs(ctx, W.spiral_inputs(0), digests)[0]
    out = job.run()
    assert job.check(out) == []
    assert job.check({**out, "candidates": out["candidates"] + 1})
    assert job.check({**out, "ratio_below": not out["ratio_below"]})
    assert job.check({**out, "sup": 2 * W.RESIDUAL_BOUND})


def test_exact_algebra_checks_catch_corruption(mods, digests, tmp_path):
    ctx = _context("exact-algebra", mods, tmp_path)
    jobs = W.exact_jobs(ctx, W.exact_inputs(0), digests)
    realize = _job(jobs, "realize r2s6")
    text = realize.run()
    assert realize.check(text) == []
    assert realize.check(text.replace("1/2", "1/3", 1))

    jacobi = _job(jobs, "jacobi")
    defects = jacobi.run()
    assert jacobi.check(defects) == []
    assert jacobi.check(defects[:-1] + [{0: Fraction(1, 7)}])

    bch = _job(jobs, "bch r2s4")
    assert bch.check(bch.run()) == []
    assert bch.check({3: Fraction(1, 12)})

    meta = _job(jobs, "metabelian")
    verdict = meta.run()
    assert meta.check(verdict) == []
    verdict.witness = ((1, 2), (2, 1, 2))
    assert meta.check(verdict)

    translation = _job(jobs, "translation")
    assert translation.check(translation.run()) == []
    assert translation.check(0.0)

    growth = _job(jobs, "growth")
    assert growth.check(growth.run()) == []
    assert growth.check(W.F27_GROWTH[:-1] + [40])


def test_variety_checks_catch_corruption(mods, digests, tmp_path):
    ctx = _context("variety", mods, tmp_path)
    jobs = W.variety_jobs(ctx, W.variety_inputs(0), digests)
    conic = _job(jobs, "conic")
    out = conic.run()
    assert conic.check(out) == []
    assert conic.check({**out, "sup": 2 * out["tolerance"] + 1e-300})
    assert conic.check({**out, "polylines": out["polylines"] + 1})
    assert conic.check({**out, "singular": out["singular"] + 1})

    probe = _job(jobs, "containment")
    dims = probe.run()
    assert probe.check(dims) == []
    assert probe.check({**dims, 2: 1})


def test_demo_check_catches_corruption(mods, digests, tmp_path):
    ctx = _context("demo-cli", mods, tmp_path)
    inputs = {"jobs": [["f25", 3]]}
    job = W.demo_jobs(ctx, inputs, digests)[0]
    out = job.run()
    assert job.check(out) == []
    assert job.check({**out, "code": 1})
    artifact = sorted(out["outdir"].iterdir())[0]
    artifact.write_bytes(artifact.read_bytes() + b" ")
    assert job.check(out)


def test_hd_quantile_is_a_smooth_quantile():
    assert run.hd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5) == \
        pytest.approx(3.0)
    values = [float(v) for v in range(101)]
    assert run.hd_quantile(values, 0.5) == pytest.approx(50.0)
    assert run.hd_quantile(values, 0.9) == pytest.approx(90.0, abs=1.0)
    # two states: the estimate moves with the slow share, not in one jump
    shares = [run.hd_quantile([1.0] * (48 - k) + [1.6] * k, 0.5)
              for k in range(20, 29)]
    assert shares == sorted(shares)
    assert max(b - a for a, b in zip(shares, shares[1:])) < 0.2


@pytest.mark.parametrize("n", [11, 36, 48])
def test_tail_has_ten_jobs_above_it(n):
    loop = run.Loop()
    loop.latencies = [float(v) for v in range(n, 0, -1)]
    tail, pct = loop.tail()
    assert sum(v > tail for v in loop.latencies) >= run.TAIL_BEYOND
    assert sum(v < tail for v in loop.latencies) >= n - run.TAIL_BEYOND - 1
    assert pct == 100 * (n - run.TAIL_BEYOND) // n


def test_rescale_touches_only_times():
    values = {"wall_s": 2.0, "trajectories.us_per_node": 10.0,
              "trajectories.nodes": 500, "peak_rss_mb": 40.0}
    units = {"wall_s": "s", "trajectories.us_per_node": "us",
             "trajectories.nodes": "count", "peak_rss_mb": "MB"}
    ref = [run.REF_NOMINAL_S * 1.25] * 4
    factor = run.host_factor(ref)
    assert factor == pytest.approx(0.8)
    note = run.rescale(values, units, factor, ref)
    assert values == pytest.approx({"wall_s": 1.6,
                                    "trajectories.us_per_node": 8.0,
                                    "trajectories.nodes": 500,
                                    "peak_rss_mb": 40.0})
    assert "wall_s 2 s" in note and "trajectories.nodes" not in note


def test_reference_kernel_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert run.reference_kernel() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        run.reference_kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_loop_counts_failed_jobs_and_checks_and_goes_on():
    jobs = [W.Job("ok", lambda: 1, lambda out: []),
            W.Job("raises", lambda: 1 / 0, lambda out: []),
            W.Job("check raises", lambda: None, lambda out: out["x"]),
            W.Job("wrong", lambda: 2, lambda out: ["wrong output"])]
    loop = run.Loop()
    loop.run(jobs, 2, float("inf"))
    assert loop.attempted == len(loop.latencies) == len(loop.ref) == 8
    assert len(loop.passes) == 2
    assert [name for name, _ in loop.failures] == [
        "raises", "check raises", "wrong"] * 2


# --- tracing ----------------------------------------------------------------

def test_span_self_times_add_up_to_parent_duration(mods):
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        frame, _ = mods["normalform"].realize_frame(
            mods["freelie"].generate_basis(2, 3))
        u = mods["trajectories"].Control([0.0, 0.5, 1.0],
                                         [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mods["trajectories"].extremal_residuals(frame, u, [0.0] * 5,
                                                [0, 0, 0, 1, 0])
        mods["goh"].trace_variety(
            mods["goh"].goh_polynomials(frame, [0, 0, 1, 1, 0]),
            resolution=8)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert len(spans) == tracer.n_spans > 100
    own = tracing.self_times(spans)
    assert all(v >= 0 for v in own.values())

    children: dict = {}
    for sid, _, _, _, parent in spans:
        children.setdefault(parent, []).append(sid)

    def subtree_self(sid):
        return own[sid] + sum(subtree_self(c) for c in children.get(sid, []))

    by_id = {s[0]: s for s in spans}
    for sid in children[None]:
        _, _, start, end, _ = by_id[sid]
        assert subtree_self(sid) == end - start

    by_module: dict = {}
    for sid, name, *_ in spans:
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0) + own[sid]
    assert by_module == {m: ns for m, ns in tracer.self_ns.items() if ns}
    assert tracer.calls["polyfield.compiled"] > 0
    assert tracer.counts["goh.trace_variety.cells"] == 64
    assert tracer.counts["trajectories.nodes"] == 3


def test_uninstall_restores_the_program(mods):
    before = (mods["normalform"].realize_frame, mods["cli"].realize_frame,
              mods["polyfield"].Poly.eval_float,
              mods["trajectories"].compile_polyvec)
    tracer = tracing.Tracer()
    tracer.install(mods)
    assert mods["cli"].realize_frame is not before[1]
    assert mods["trajectories"].compile_polyvec is not before[3]
    tracer.uninstall()
    after = (mods["normalform"].realize_frame, mods["cli"].realize_frame,
             mods["polyfield"].Poly.eval_float,
             mods["trajectories"].compile_polyvec)
    assert after == before


def test_errors_are_counted_per_module(mods):
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        with pytest.raises(ValueError):
            mods["freelie"].generate_basis(2, 0)
    finally:
        tracer.uninstall()
    assert tracer.errors["freelie"] >= 1


# --- the contract -------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_per_layer_totals_cover_every_metric():
    totals = run._layer_totals(tracing.Tracer())
    separate = {"cli.cold_start_s", "cli.import_s", "trace.wall_s",
                "trace.untraced_wall_s", "trace.overhead_s", "trace.passes"}
    assert set(totals) | separate == {name for name, _ in run.PER_LAYER}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "variety",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60, check=False)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
