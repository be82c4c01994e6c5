"""The mutation register: hand-made faults that named tests must catch.

Each entry gives a file, its exact old text, the new text, and the pytest
arguments (test ids, or a file and -k) whose tests must fail once the new
text replaces the old.  Run it from the repository root:

    python tests/mutants.py [NAME ...]

For each entry (or each one named) the runner copies src, tests and
pyproject.toml into a temporary directory, applies the entry there and
runs its tests with -x.  It prints one line per entry: killed, SURVIVED,
or ERROR when the old text does not occur exactly once in its file or
pytest could not run the tests.  The exit status is 1 if any entry
survived or erred.  The file has no test_ prefix, so the test suite does
not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


REGISTER = {
    # t_log's Horner coefficient (-1)^(k+1)/k over k + 1
    "horner-coefficient": Mutant(
        "src/goh_atlas/freelie.py",
        "p[()] = one * Fraction((-1) ** (k + 1), k)",
        "p[()] = one * Fraction((-1) ** (k + 1), k + 1)",
        ("tests/test_freelie.py::test_horner_log_matches_the_series_on_packed_coefficients",
         "tests/test_freelie.py::test_horner_log_matches_the_series_on_fractions")),
    # t_log truncating each Horner product one word length too short
    "horner-depth": Mutant(
        "src/goh_atlas/freelie.py",
        "p = t_mul(x, p, step - k)",
        "p = t_mul(x, p, step - k - 1)",
        ("tests/test_freelie.py::test_horner_log_matches_the_series_on_packed_coefficients",
         "tests/test_freelie.py::test_horner_log_matches_the_series_on_fractions")),
    # the rewriting taking [E_u, E_v] = E_uv only when u's right standard
    # factor is > v, not >=: [E_12, E_2] then rewrites into itself
    "factor-test": Mutant(
        "src/goh_atlas/freelie.py",
        "words[factors[i][1]] >= words[j]",
        "words[factors[i][1]] > words[j]",
        ("tests/test_freelie.py::test_structure_table_matches_the_tensor_route[(2, 3)]",)),
    # the basis's factor pair stored as (v, u), not (u, v)
    "factor-pair-reversed": Mutant(
        "src/goh_atlas/freelie.py",
        "tuple(self.index[f] for f in standard_factorization(w))",
        "tuple(self.index[f] for f in reversed(standard_factorization(w)))",
        ("tests/test_freelie.py::test_basis_factors_are_the_standard_factorizations[(2, 3)]",)),
    # attachment_trees moving every right factor but a letter to the left
    "letter-first-swap": Mutant(
        "src/goh_atlas/normalform.py",
        "len(words[uv[1]]) == 1 and len(w) > 2",
        "len(words[uv[1]]) != 1 and len(w) > 2",
        ("tests/test_normalform.py::TestAttachment::test_f23_trees_and_signs",)),
    # the metabelian sweep extending zero brackets too: r^b trees a length
    "sweep-nonzero-filter": Mutant(
        "src/goh_atlas/metabelian.py",
        "for f in [nested(tree)] if not f.is_zero()), 1)[0]",
        "for f in [nested(tree)]), 1)[0]",
        ("tests/test_metabelian.py::test_deep_sweep_of_heisenberg_stops_at_its_last_bracket",)),
    # the table's graded loop one weight short: the top layer left empty
    "table-room-short": Mutant(
        "src/goh_atlas/freelie.py",
        "bisect_right(weights, step - weights[i])",
        "bisect_right(weights, step - weights[i] - 1)",
        ("tests/test_freelie.py::test_structure_table_matches_the_tensor_route[(2, 3)]",)),
    # the metabelian sweep skipping the X_J right after X_I as well as X_I
    "sweep-skips-two": Mutant(
        "src/goh_atlas/metabelian.py",
        "nonzero(b, pos + 1 if b == a else 0)",
        "nonzero(b, pos + 2 if b == a else 0)",
        ("tests/test_metabelian.py::test_sweep_matches_the_reference_on_classic_frames[f25]",)),
    # the Jacobi rewriting adding its second term, not subtracting it
    "jacobi-sign": Mutant(
        "src/goh_atlas/freelie.py",
        "e[m] = e.get(m, 0) - c * d",
        "e[m] = e.get(m, 0) + c * d",
        ("tests/test_freelie.py::test_structure_table_matches_the_tensor_route[(3, 3)]",)),
    # the bracket dividing its integer sums by da + db, not da * db
    "bracket-denominator-sum": Mutant(
        "src/goh_atlas/freelie.py",
        "d = da * db",
        "d = da + db",
        ("tests/test_freelie.py::test_dense_bracket_at_2_7_with_coprime_denominators",
         "tests/test_freelie.py::test_int_coefficients_still_give_fractions")),
    # _accumulate keeping a sum that reaches zero instead of dropping it
    "zero-sum-kept": Mutant(
        "src/goh_atlas/freelie.py",
        "        if s:\n            out[w] = s\n        else:\n"
        "            out.pop(w, None)\n    return out",
        "        out[w] = s\n    return out",
        ("tests/test_freelie.py::test_lie_add_drops_a_sum_that_cancels_and_its_key_reenters_at_the_end",)),
    # bracket_elements' inline sum keeping a sum that reaches zero
    "bracket-zero-sum-kept": Mutant(
        "src/goh_atlas/freelie.py",
        "                    if s:\n                        out[k] = s\n"
        "                    else:\n                        out.pop(k, None)\n",
        "                    out[k] = s\n",
        ("tests/test_freelie.py::test_a_sum_that_cancels_is_dropped_and_its_key_reenters_at_the_end",)),
    # bracket_elements' weight room one short: the pairs with
    # |w_i| + |w_j| = step dropped
    "bracket-room-short": Mutant(
        "src/goh_atlas/freelie.py",
        "room = step - weights[i]\n",
        "room = step - weights[i] - 1\n",
        ("tests/test_freelie.py::test_bracket_of_a_pair_whose_weights_add_up_to_the_step",)),
    # a's numerators taken over b's denominator
    "bracket-numerator-scale": Mutant(
        "src/goh_atlas/freelie.py",
        "a, b = _numerators(a, da), _numerators(b, db)",
        "a, b = _numerators(a, db), _numerators(b, db)",
        ("tests/test_freelie.py::test_dense_bracket_at_2_7_with_coprime_denominators",)),
    # bch's Bernoulli terms B_2p / (2p)! with the wrong sign
    "bernoulli-sign": Mutant(
        "src/goh_atlas/freelie.py",
        "bern[2 * p] / factorial(2 * p)",
        "-bern[2 * p] / factorial(2 * p)",
        ("tests/test_freelie.py::test_bch_against_dynkin_series",)),
    # the ad factor of B_i = s_i E_i bracketing as E_i: the sign dropped.
    # The first negative sign is on 122, of weight 3, and an i with s_i = -1
    # brackets into a later column within the step only from (2, 7) on
    "ad-factor-unsigned": Mutant(
        "src/goh_atlas/normalform.py",
        "ring.var(i) * Fraction(-signs[i], m)",
        "ring.var(i) * Fraction(-1, m)",
        ("tests/test_normalform.py::test_realization_is_a_lie_homomorphism[r2s7]",)),
    # each M column left in E coordinates, not mapped back to B's
    "column-not-mapped-back": Mutant(
        "src/goh_atlas/normalform.py",
        "col = {k: -c if signs[k] < 0 else c for k, c in col.items()}",
        "col = dict(col)",
        ("tests/test_normalform.py::test_packed_realization_matches_poly_reference[r2s3]",)),
    # ψ of a realization left in its summation order, not sorted
    "psi-unsorted": Mutant(
        "src/goh_atlas/normalform.py",
        "psi = [_sorted(p) for p in psi]",
        "psi = [p.to_poly() for p in psi]",
        ("tests/test_normalform.py::test_outputs_do_not_read_the_order_of_t_log",)),
    # RK4 with the weight 2 of the second stage dropped
    "rk4-weight": Mutant(
        "src/goh_atlas/trajectories.py",
        "add(k1, 2.0 * k2, out=k1)",
        "add(k1, k2, out=k1)",
        ("tests/test_trajectories.py", "-k", "textbook")),
    # Frame.from_json's weights check letting a string past its type test,
    # to fail on < with a TypeError
    "weights-string": Mutant(
        "src/goh_atlas/polyfield.py",
        "if type(w) is not int or w < 1:",
        "if type(w) not in (int, str) or w < 1:",
        ("tests/test_cli.py::TestExitCodes::test_frame_with_bad_weights_or_r[str]",)),
    # --samples parsed without its upper bound
    "samples-bound": Mutant(
        "src/goh_atlas/cli.py",
        "lambda v: 2 <= v <= SAMPLES_MAX",
        "lambda v: v >= 2",
        ("tests/test_cli.py::TestSamplesAndEps::test_samples_past_the_bound_are_refused_before_any_allocation",)),
    # _substitute multiplying a term's powers in reverse variable order
    "substitute-order": Mutant(
        "src/goh_atlas/polyfield.py",
        "term = ring.const(c)\n        for i, k in enumerate(e):",
        "term = ring.const(c)\n        for i, k in reversed(list(enumerate(e))):",
        ("tests/test_polyfield.py::test_compose_multiplies_a_terms_powers_in_variable_order",
         "tests/test_polyfield.py::test_compose_matches_textbook_term_for_term")),
    # the adjoint stage's sign fold dropped: the negated RK4 sums
    # k1 - 2 k2 - 2 k3 - k4, not -(k1 + 2 k2 + 2 k3 + k4)
    "adjoint-sign-fold": Mutant(
        "src/goh_atlas/trajectories.py",
        "np.negative(k1, out=k1)",
        "pass",
        ("tests/test_trajectories.py::test_integrators_match_textbook_rk4_bitwise",
         "tests/test_trajectories.py::TestExtremalResiduals::test_vertical_line_closed_forms")),
    # the kept x path keyed without the substep count
    "kept-path-substeps": Mutant(
        "src/goh_atlas/trajectories.py",
        "x0.tobytes(), substeps)",
        "x0.tobytes())",
        ("tests/test_trajectories.py::test_signed_zeros_and_substeps_are_part_of_the_key",)),
    # the float evaluator raising by array ** instead of C pow
    "array-power": Mutant(
        "src/goh_atlas/floateval.py",
        'f"pow(x[{i}], {k})"',
        'f"x[{i}] ** {k}"',
        ("tests/test_goh.py::test_grid_nodes_have_the_bits_of_the_point_alone",
         "tests/test_goh.py::test_membership_value_at_each_point_is_the_scalar_loops")),
    # trace_variety tracing F itself where g = gcd(F, F_x1, F_x2) is not
    # constant, not F / g
    "square-free-skipped": Mutant(
        "src/goh_atlas/goh.py",
        "if len(g) > 1 or len(g[0]) > 1:",
        "if False:",
        ("tests/test_goh.py::test_non_square_free_traces_its_square_free_part[quartic-261]",)),
    # the Sturm sign changes counting a zero member as a negative sign
    "sturm-zero-counted": Mutant(
        "src/goh_atlas/goh.py",
        "signs = [s > 0 for s in map(_hvalue, seq, [v] * len(seq)) if s]",
        "signs = [s > 0 for s in map(_hvalue, seq, [v] * len(seq))]",
        ("tests/test_goh.py::test_real_roots_are_exact_or_isolated",)),
    # the window's edges left out of it
    "window-open": Mutant(
        "src/goh_atlas/goh.py",
        "if x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1),",
        "if x0 < pt[0] < x1 and y0 < pt[1] < y1),",
        ("tests/test_goh.py::test_singular_point_on_the_window_edge_counts",)),
    # a root at the low end of the s-range left out
    "root-range-open": Mutant(
        "src/goh_atlas/goh.py",
        "out, todo = [lo] if not _hvalue(p, lo) else [], [(lo, hi)]",
        "out, todo = [], [(lo, hi)]",
        ("tests/test_goh.py::test_singular_point_on_the_window_edge_counts",
         "tests/test_goh.py::test_real_roots_are_exact_or_isolated")),
    # _rounded re-raising where the quotient it rounds has a pole at an
    # end of the isolating interval, instead of bisecting on
    "rounded-pole-reraises": Mutant(
        "src/goh_atlas/goh.py",
        "except ZeroDivisionError:  # at is a quotient with a pole near root\n"
        "            pass",
        "except ZeroDivisionError:  # at is a quotient with a pole near root\n"
        "            raise",
        ("tests/test_goh.py::test_a_pole_at_an_interval_end_is_bisected_past",)),
    # x0 = -S_k,k-1 / (k S_kk) taken without the test that S_k is
    # S_kk (x - x0)^k: two points of a fibre become their mean
    "fibre-position-unchecked": Mutant(
        "src/goh_atlas/goh.py",
        "for j in range(k - 1)):",
        "for j in range(0)):",
        ("tests/test_goh.py::test_points_sharing_a_fibre_are_set_apart_by_a_shear",)),
    # x reported as 0 where it is exactly 0, but y still computed from x(v)
    # at the ends of the isolating interval
    "zero-coordinate-inexact": Mutant(
        "src/goh_atlas/goh.py",
        "x = 0 if zx else v / t if zy and t else Fraction(*(\n"
        "                    _hvalue(u + [0] * (n - len(u)), v) for u in (P, Q)))\n"
        "                return x, v - t * x",
        "x = v / t if zy and t else Fraction(*(\n"
        "                    _hvalue(u + [0] * (n - len(u)), v) for u in (P, Q)))\n"
        "                return 0 if zx else x, v - t * x",
        ("tests/test_goh.py::test_a_zero_coordinate_enters_the_other_exactly",)),
    # sigma paired with [X_k, X_h], not [X_h, X_k]
    "sigma-pairing-sign": Mutant(
        "src/goh_atlas/trajectories.py",
        "compile_polyvec(lie_bracket_fields(f[h], f[k]))",
        "compile_polyvec(lie_bracket_fields(f[k], f[h]))",
        ("tests/test_goh.py::test_sigma_is_F_along_random_frames_of_the_paper",)),
    # the containment columns raised by array **, not as the float
    # evaluator raises them
    "containment-array-power": Mutant(
        "src/goh_atlas/trajectories.py",
        "powers[0][a] * powers[1][b] for a, b in exps",
        "pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps",
        ("tests/test_trajectories.py::TestContainment::test_columns_are_the_float_evaluators_monomials[3]",)),
    # the float-input check letting an int too large for a float escape
    # its conversion as a bare OverflowError
    "check-overflow-uncaught": Mutant(
        "src/goh_atlas/floateval.py",
        "except (TypeError, ValueError, OverflowError):",
        "except (TypeError, ValueError):",
        ("tests/test_trajectories.py::test_every_float_input_names_its_fault_in_one_shape[curve-json-values-huge-int]",
         "tests/test_cli.py::TestExitCodes::test_bad_number_in_an_input_file_is_located[contain-huge-int]")),
    # the float-input check's fast path taking a non-finite entry
    "check-finite-skipped": Mutant(
        "src/goh_atlas/floateval.py",
        "and np.isfinite(out).all():",
        "and True:",
        ("tests/test_trajectories.py::test_every_float_input_names_its_fault_in_one_shape[control-json-values-nan]",
         "tests/test_goh.py::TestVarietyMembership::test_non_finite_point_is_named[nan]")),
    # F built without the term of the first vertical coordinate
    "goh-term-dropped": Mutant(
        "src/goh_atlas/goh.py",
        "for j in range(r, n):",
        "for j in range(r + 1, n):",
        ("tests/test_goh.py::test_sigma_is_F_along_random_frames_of_the_paper",)),
}


def run_mutant(mutant: Mutant, root: Path) -> str:
    """'killed', 'SURVIVED' or 'ERROR: why' for one entry."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, tmp / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        shutil.copy(root / "pyproject.toml", tmp)
        path = tmp / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return f"ERROR: old text found {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return f"ERROR: pytest exit {proc.returncode}: {tail[0]}"


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    names = argv or list(REGISTER)
    unknown = [name for name in names if name not in REGISTER]
    if unknown:
        print(f"unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name in names:
        start = time.perf_counter()
        verdict = run_mutant(REGISTER[name], root)
        bad += verdict != "killed"
        print(f"{verdict:8s} {name} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    print(f"{len(names)} mutants, {len(names) - bad} killed, {bad} not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
