"""Record the expected outputs the benchmark's checks compare against.

    python3 perfbench/record.py

Writes ``perfbench/digests.json`` from the program as it is now: SHA-256
digests of realization JSON and of demo artifacts, and the candidate,
polyline and singular-candidate counts of every pool entry the workloads
draw from.  It refuses to record a pool entry whose output already fails the
fixed checks (residual bound, vertex tolerance, containment dimensions).
Run it only when the program's outputs are meant to change; the benchmark
itself never writes this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from run import machine  # noqa: E402


def main() -> int:
    mods = W.import_program()
    fl, nf = mods["freelie"], mods["normalform"]
    out: dict = {"machine": machine()}

    f27, _ = nf.realize_frame(fl.generate_basis(2, 7))
    spiral = {}
    for eps in W.SPIRAL_EPS_POOL:
        got = W.spiral_run(mods, f27, eps, W.SPIRAL_NODES)
        if got["sup"] is None or not got["sup"] <= W.RESIDUAL_BOUND:
            raise SystemExit(f"spiral eps={eps}: residual sup {got['sup']}")
        spiral[repr(eps)] = {"candidates": got["candidates"],
                             "ratio_below": got["ratio_below"]}
    out["spiral-f27"] = spiral

    out["exact-algebra"] = {
        W.shape_key(r, s): W.sha256(W.realize_run(mods, r, s))
        for r, s in W.REALIZE_SHAPES}

    f24, _ = nf.realize_frame(fl.generate_basis(2, 4))
    variety: dict = {"conic": {}, "cubic": {}}
    cases = [("conic", k, f24, W.conic_lambda(k), W.CONIC_RES)
             for k in range(W.CONIC_POOL_SIZE)]
    for k in range(W.CUBIC_POOL_SIZE):
        data = W.cubic_frame(k)
        frame = mods["polyfield"].Frame.from_json(data["frame"])
        cases.append(("cubic", k, frame, data["lambda"], W.CUBIC_RES))
    for kind, k, frame, lam, res in cases:
        got = W.trace_run(mods, frame, lam, res)
        if not got["sup"] <= got["tolerance"]:
            raise SystemExit(f"{kind} {k}: vertex |F| above tolerance")
        variety[kind][str(k)] = {"polylines": got["polylines"],
                                 "singular": got["singular"]}
        print(kind, k, variety[kind][str(k)], flush=True)
    for eps in W.PROBE_EPS_POOL:
        dims = W.containment_run(mods, eps)
        if any(dims[d] for d in range(1, 5)):
            raise SystemExit(f"probe eps={eps}: null dims {dims}")
    out["variety"] = variety

    work = W.ROOT / ".perfbench_work" / "record"
    demo = {}
    try:
        for scenario in W.DEMO_SCENARIOS:
            for seed in W.DEMO_SEED_POOL:
                outdir = work / f"{scenario}-{seed}"
                got = W.demo_run(W.Context(), scenario, seed, outdir)
                if got["code"] != 0:
                    raise SystemExit(f"demo {scenario} --seed {seed} failed")
                demo[f"{scenario}/{seed}"] = W.artifact_digests(outdir)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    out["demo-cli"] = demo

    with open(W.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
