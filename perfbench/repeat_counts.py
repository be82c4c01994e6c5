"""Check that traced count metrics repeat exactly across two runs.

    python3 perfbench/repeat_counts.py --seed 1 --seconds 20

Runs ``run.py --trace 1`` twice per workload with the same seed, compares
every count metric (units ``count`` and ``bytes``) for exact equality, and
prints each run's tracing overhead.  Exits 1 if a count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import COUNT_UNITS  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def traced(name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        first, second = (traced(name, args.seed, args.seconds)
                         for _ in range(2))
        counts = [k for k, m in first.items() if m["unit"] in COUNT_UNITS]
        differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
        overhead = [(m["trace.overhead_s"]["value"],
                     m["trace.untraced_wall_s"]["value"])
                    for m in (first, second)]
        print(f"{name}: {len(counts) - len(differ)}/{len(counts)} counts "
              "repeat; overhead " + ", ".join(
                  f"{o:+.3f} s on {w:.3f} s ({100 * o / w:+.0f}%)"
                  for o, w in overhead))
        for k in differ:
            print(f"  {k}: {first[k]['value']} != {second[k]['value']}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
