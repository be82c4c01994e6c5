"""Recover an abnormal covector along the log-phase spiral in the rank-2
step-7 frame on R^41, then probe whether any low-degree algebraic curve
could contain the spiral.

The full resolution (20000 samples plus an 80000-sample re-validation)
takes about 5 s (4.6-4.9 s in three runs on a 2-vCPU VM, Python 3.11);
pass --fast for a quick pass at reduced resolution.

Run:  python3 demos/spiral_recovery.py [--fast]
"""

import sys
import time

from goh_atlas.freelie import generate_basis
from goh_atlas.metabelian import is_metabelian
from goh_atlas.normalform import realize_frame
from goh_atlas.trajectories import (
    extremal_residuals,
    lift_control,
    polynomial_containment,
    recover_abnormal_covector,
    spiral_curve,
)


def main():
    fast = "--fast" in sys.argv[1:]
    n_samples = 4000 if fast else 20000

    t0 = time.time()
    basis = generate_basis(2, 7)
    frame, _ = realize_frame(basis)
    print(f"Realized the rank-2 step-7 frame on R^{frame.n} "
          f"({time.time() - t0:.1f}s).")

    verdict = is_metabelian(frame, depth=14)
    print(f"Higher brackets commute: {verdict.metabelian} "
          f"(witness pair {verdict.witness}).")
    print("So the variety reduction does not apply here; abnormality is "
          "checked directly from trajectory data instead.")

    spiral = spiral_curve(1e-2, n_samples)
    control = lift_control(spiral)
    x0 = [spiral.points[0, 0], spiral.points[0, 1]] + [0.0] * (frame.n - 2)

    t0 = time.time()
    rec = recover_abnormal_covector(frame, control, x0)
    ratio = rec.singular_values[-1] / rec.singular_values[0]
    print(f"Stacked {rec.stack_rows} annihilation constraints "
          f"({time.time() - t0:.1f}s): sigma_min/sigma_max = {ratio:.2e}, "
          f"{len(rec.candidates)} candidate covector(s).")

    lam = rec.candidates[-1]
    fine = spiral_curve(1e-2, 4 * n_samples)
    u4 = lift_control(fine)
    x04 = [fine.points[0, 0], fine.points[0, 1]] + [0.0] * (frame.n - 2)
    t0 = time.time()
    rep = extremal_residuals(frame, u4, x04, lam)
    print(f"Re-validation on a 4x finer grid ({time.time() - t0:.1f}s): "
          f"sup frame pairing {rep.sup_abnormal:.1e}, sup bracket pairing "
          f"{rep.sup_goh:.1e}. The spiral is abnormal.")

    probe = spiral_curve(1e-3, 5000)
    print("Does any low-degree algebraic curve contain the spiral?")
    for degree in range(1, 7):
        out = polynomial_containment(probe.points, degree)
        note = ""
        if degree >= 5:
            note = ("  <- float-level fit of the short outer arc, "
                    "not a true containment")
        print(f"  degree {degree}: null-space dim "
              f"{out['null_space_dim']}, sigma ratio "
              f"{out['sigma_min_ratio']:.1e}{note}")
    print("Degrees 1-4 cleanly reject containment; at degrees 5-6 the "
          "finite sampled arc admits polynomial fits down at the float "
          "noise floor, which is a limit of the finite probe rather than "
          "an algebraic containment.")


if __name__ == "__main__":
    main()
