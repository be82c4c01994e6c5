"""Acceptance sweep: one test per shipped claim, at the stated tolerances.

Each test prints a single summary line; run with -v (or -rA) to see one
pass/fail line per criterion.  Oracles are recomputed locally where the
claim is about a derived number, so a regression in the library cannot
silently re-derive its own expectation.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from goh_atlas.freelie import (
    bch,
    bracket,
    generate_basis,
    lie_add,
    lie_scale,
    structure_table,
    witt_dimension,
)
from goh_atlas.goh import goh_polynomials, trace_variety, variety_membership
from goh_atlas.metabelian import (
    coefficient_dependence,
    is_metabelian,
    is_metabelian_algebra,
    translation_invariance,
)
from goh_atlas.normalform import realize_frame, verify_second_kind
from goh_atlas.polyfield import (
    Poly,
    PolyVec,
    _float_evaluator,
    heisenberg_frame,
    martinet_frame,
)
from goh_atlas.scenarios import _rational_samples
from goh_atlas.trajectories import (
    Control,
    SampledCurve,
    extremal_residuals,
    flow_control,
    horizontal_lift,
    jacobian_flow,
    lift_control,
    polynomial_containment,
    pushforward_identity_residual,
    recover_abnormal_covector,
    spiral_curve,
)
from lie_helpers import lie_single, random_lie_element


@pytest.fixture(scope="module")
def f27():
    basis = generate_basis(2, 7)
    frame, maps = realize_frame(basis)
    return basis, frame, maps


def _realized(step):
    basis = generate_basis(2, step)
    frame, maps = realize_frame(basis)
    return basis, frame, maps


def _random_control(rng, n_steps=20, t1=1.0):
    ts = np.linspace(0.0, t1, n_steps + 1)
    return Control(ts, rng.uniform(-1.0, 1.0, size=(n_steps + 1, 2)))


# --- criterion 1: free algebra dimensions and build time ---------------

def _mobius(n):
    if n == 1:
        return 1
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def test_criterion_01_dimension_profile_and_build_time():
    start = time.monotonic()
    basis = generate_basis(2, 7)
    table = structure_table(basis)
    elapsed = time.monotonic() - start

    # independent necklace-count oracle
    oracle = []
    for length in range(1, 8):
        total = sum(_mobius(d) * 2 ** (length // d)
                    for d in range(1, length + 1) if length % d == 0)
        oracle.append(total // length)
    assert oracle == [2, 1, 2, 3, 6, 9, 18]

    by_len = [sum(1 for w in basis.words if len(w) == k)
              for k in range(1, 8)]
    assert by_len == oracle
    assert basis.dim == 41
    assert witt_dimension(2, 7) == oracle
    assert len(table.table) == 41
    assert elapsed < 60.0
    print(f"criterion 1: dim 41, profile {by_len}, built in {elapsed:.2f}s")


# --- criterion 2: Jacobi identity and BCH coefficients ------------------

def _lie_is_zero(el):
    return all(not v for v in el.values())


def _jacobi_defect(table, a, b, c):
    t1 = table.bracket_elements(a, table.bracket_elements(b, c))
    t2 = table.bracket_elements(b, table.bracket_elements(c, a))
    t3 = table.bracket_elements(c, table.bracket_elements(a, b))
    return lie_add(lie_add(t1, t2), t3)


def test_criterion_02_jacobi_and_bch():
    for step in (2, 3, 4, 5):
        basis = generate_basis(2, step)
        table = structure_table(basis)
        singles = [lie_single(basis, w) for w in basis.words]
        n = len(singles)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert _lie_is_zero(_jacobi_defect(
                        table, singles[i], singles[j], singles[k]))

    basis7 = generate_basis(2, 7)
    table7 = structure_table(basis7)
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (random_lie_element(basis7, rng) for _ in range(3))
        assert _lie_is_zero(_jacobi_defect(table7, a, b, c))

    # explicit low-order series: x+y+1/2[x,y]+1/12[x,[x,y]]-1/12[y,[x,y]]
    # -1/24[y,[x,[x,y]]], checked against the tensor-algebra log/exp route
    for step in (2, 3, 4):
        basis = generate_basis(2, step)
        x = lie_single(basis, (1,))
        y = lie_single(basis, (2,))
        xy = bracket(x, y, basis)
        expected = lie_add(x, y)
        expected = lie_add(expected, lie_scale(xy, Fraction(1, 2)))
        if step >= 3:
            expected = lie_add(expected, lie_scale(
                bracket(x, xy, basis), Fraction(1, 12)))
            expected = lie_add(expected, lie_scale(
                bracket(y, xy, basis), Fraction(-1, 12)))
        if step >= 4:
            expected = lie_add(expected, lie_scale(
                bracket(y, bracket(x, xy, basis), basis), Fraction(-1, 24)))
        got = bch(x, y, basis)
        assert _lie_is_zero(lie_add(got, lie_scale(expected, -1)))
    print("criterion 2: Jacobi exact (all triples s<=5, 1000 random s=7); "
          "BCH matches the 1/2, 1/12, -1/12, -1/24 series")


# --- criterion 3: realized frame closed form + chart verification -------

def test_criterion_03_realization_and_chart():
    basis, frame, maps = _realized(3)
    n = 5
    x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
    expected_x2 = PolyVec([Poly.zero(n), Poly.one(n), x1,
                           x1 * x1 * Fraction(1, 2), x1 * x2])
    assert (frame.fields[0] - PolyVec.coordinate(n, 0)).is_zero()
    assert (frame.fields[1] - expected_x2).is_zero()

    rng = np.random.default_rng(42)
    worst = 0.0
    for step in (2, 3, 4):
        _, _, maps_s = _realized(step)
        dim = len(maps_s.fields)
        for _ in range(100):
            x = rng.uniform(-0.8, 0.8, size=dim)
            worst = max(worst, verify_second_kind(maps_s.fields, x))
    assert worst <= 1e-8
    print(f"criterion 3: closed form exact; chart residual sup {worst:.2e} "
          "over 100 points each for steps 2-4")


# --- criterion 4: commuting-bracket verdicts, four routes ----------------

def test_criterion_04_metabelian_verdicts(f27):
    rng = np.random.default_rng(4)
    expected = {2: True, 3: True, 4: True, 5: False, 7: False}
    witness = ((1, 2), (1, 1, 2))
    for step, want in expected.items():
        if step == 7:
            basis, frame, _ = f27
        else:
            basis, frame, _ = _realized(step)
        verdict = is_metabelian(frame, max(4, 2 * step))
        assert verdict.metabelian == want, step
        if not want:
            assert verdict.witness == witness
        assert is_metabelian_algebra(structure_table(basis)) == want
        assert coefficient_dependence(frame) == want
        gap = translation_invariance(
            frame, _rational_samples(frame, rng, count=6))
        assert (gap == 0) == want
    print("criterion 4: verdicts T,T,T,F,F with witness ((1,2),(1,1,2)); "
          "all four routes agree on all five algebras")


# --- criterion 5: variety polynomial pins --------------------------------

def test_criterion_05_goh_polynomial_pins():
    h = goh_polynomials(heisenberg_frame(), [0, 0, 1])
    assert h.poly(1, 2) == Poly.one(2)

    _, f23, _ = _realized(3)
    lam = [Fraction(0), Fraction(0), Fraction(3), Fraction(-2), Fraction(7)]
    sysm = goh_polynomials(f23, lam)
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    expected = Poly.const(2, 3) + x1 * Fraction(-2) + x2 * Fraction(7)
    assert sysm.poly(1, 2) == expected
    for j, basis_vec in enumerate(np.eye(5)[2:], start=2):
        one_hot = goh_polynomials(f23, list(basis_vec))
        coef = one_hot.poly(1, 2)
        target = [Poly.one(2), x1, x2][j - 2]
        assert coef == target

    m = goh_polynomials(martinet_frame(), [0, 0, 1])
    assert m.poly(1, 2) == Poly.var(2, 0)
    print("criterion 5: Heisenberg F=1, step-3 F=l3-2x1+7x2 (and basis "
          "covectors), Martinet F=x1, all exact")


# --- criterion 6: pushforward identity columns ---------------------------

def test_criterion_06_pushforward_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for step in (3, 4):
        _, frame, _ = _realized(step)
        for _ in range(20):
            u = _random_control(rng)
            x0 = rng.uniform(-0.5, 0.5, size=frame.n)
            worst = max(worst,
                        pushforward_identity_residual(frame, u, x0,
                                                      substeps=2))
    assert worst <= 1e-8

    _, f25, _ = _realized(5)
    ts = np.linspace(0.0, 2.0, 81)
    res = pushforward_identity_residual(
        f25, lambda t: (math.cos(t), math.sin(t)), [0.0] * f25.n,
        substeps=2, ts=ts)
    assert res > 1e-3
    print(f"criterion 6: sup residual {worst:.2e} over 20 controls on "
          f"steps 3 and 4; step-5 rotating control residual {res:.2e}")


# --- criterion 7: bracket pairings equal variety values ------------------

def test_criterion_07_goh_variety_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for step in (3, 4):
        _, frame, _ = _realized(step)
        for _ in range(20):
            lam = rng.uniform(-1.0, 1.0, size=frame.n)
            sysm = goh_polynomials(frame, lam)
            u = _random_control(rng)
            x0 = rng.uniform(-0.5, 0.5, size=frame.n)
            rep = extremal_residuals(frame, u, x0, lam, substeps=2)
            curve = flow_control(frame, u, x0, substeps=2)
            plane = _float_evaluator(sysm.poly(1, 2))
            fvals = np.array([plane(p[:2]) for p in curve.points])
            worst = max(worst, float(np.max(np.abs(rep.sigma[:, 0] - fvals))))
    assert worst <= 1e-8

    # a lift inside the variety, and one leaving it
    _, f23, _ = _realized(3)
    lam = [0.0, 0.0, 0.0, 1.0, 0.0]  # F = x1, variety = vertical axis
    sysm = goh_polynomials(f23, lam)
    inside = SampledCurve.from_function(lambda t: (0.0, t), 0.0, 1.0, 200)
    _, u_in = horizontal_lift(f23, inside, [0.0] * 5)
    rep_in = extremal_residuals(f23, u_in, [0.0] * 5, lam)
    assert rep_in.sup_goh <= 1e-8
    assert variety_membership(sysm, inside) <= 1e-8

    leaving = SampledCurve.from_function(lambda t: (t, t), 0.0, 1.0, 200)
    _, u_out = horizontal_lift(f23, leaving, [0.0] * 5)
    rep_out = extremal_residuals(f23, u_out, [0.0] * 5, lam)
    fvals = leaving.points[:, 0]  # F(kappa(t)) = t
    assert np.max(np.abs(rep_out.sigma[:, 0] - fvals)) <= 1e-8
    assert rep_out.sup_goh > 0.5
    print(f"criterion 7: sup |sigma - F(kappa)| = {worst:.2e} over 40 "
          "random lifts; inside-variety lift annihilates, leaving lift "
          "tracks its F-value")


# --- criterion 8: step-3 line recovery ------------------------------------

def test_criterion_08_line_recovery():
    _, frame, _ = _realized(3)
    kappa = SampledCurve.from_function(lambda t: (0.0, t), 0.0, 1.0, 400)
    _, u = horizontal_lift(frame, kappa, [0.0] * 5)
    rec = recover_abnormal_covector(frame, u, [0.0] * 5)
    assert len(rec.candidates) == 1
    lam = rec.candidates[0]
    assert abs(lam[3]) >= 1.0 - 1e-6

    e4 = [0.0, 0.0, 0.0, 1.0, 0.0]
    rep = extremal_residuals(frame, u, [0.0] * 5, e4)
    assert rep.sup_abnormal <= 1e-8
    assert rep.sup_goh <= 1e-8
    print(f"criterion 8: one candidate, |<lam,e4>| = {abs(lam[3]):.9f}; "
          f"e4 pairings sup {max(rep.sup_abnormal, rep.sup_goh):.2e}")


# --- criterion 9: step-7 spiral scenario ----------------------------------

def test_criterion_09_spiral_abnormality_and_containment(f27):
    start = time.monotonic()
    basis, frame, _ = f27
    spiral = spiral_curve(1e-2, 20000)
    u = lift_control(spiral)
    x0 = [spiral.points[0, 0], spiral.points[0, 1]] + [0.0] * (frame.n - 2)
    rec = recover_abnormal_covector(frame, u, x0, threshold=1e-6)
    ratio = float(rec.singular_values[-1] / rec.singular_values[0])
    assert ratio < 1e-6
    assert rec.candidates

    lam = rec.candidates[-1]
    fine = spiral_curve(1e-2, 80000)
    u4 = lift_control(fine)
    x04 = [fine.points[0, 0], fine.points[0, 1]] + [0.0] * (frame.n - 2)
    rep = extremal_residuals(frame, u4, x04, lam)
    assert max(rep.sup_abnormal, rep.sup_goh) <= 1e-5

    probe = spiral_curve(1e-3, 5000)
    pts = [tuple(p) for p in probe.points]
    dims = {d: polynomial_containment(pts, d)["null_space_dim"]
            for d in range(1, 5)}
    assert dims == {1: 0, 2: 0, 3: 0, 4: 0}

    line_pts = [(0.0, t) for t in np.linspace(0.0, 1.0, 200)]
    circ_pts = [(math.cos(t), math.sin(t))
                for t in np.linspace(0.0, 2.0 * math.pi, 200)]
    assert polynomial_containment(line_pts, 1)["null_space_dim"] == 1
    assert polynomial_containment(circ_pts, 2)["null_space_dim"] == 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 9: sigma ratio {ratio:.2e}, revalidation sup "
          f"{max(rep.sup_abnormal, rep.sup_goh):.2e}, containment 0 for "
          f"degrees 1-4, line/circle dim 1, {elapsed:.0f}s")


@pytest.mark.xfail(strict=True, reason=(
    "a 1.1-turn spiral arc admits degree>=5 polynomial fits at the 1e-8 "
    "sigma threshold (measured floor ~1e-11 at degree 5, ~1e-16 at degree "
    "6, saturating for every eps down to 1e-15); the zero-dimension claim "
    "holds only for the infinite spiral"))
def test_criterion_09_containment_degrees_five_and_six():
    probe = spiral_curve(1e-3, 5000)
    pts = [tuple(p) for p in probe.points]
    for degree in (5, 6):
        assert polynomial_containment(pts, degree)["null_space_dim"] == 0


# --- criterion 10: numerical hygiene --------------------------------------

def test_criterion_10_numerical_hygiene():
    frame = heisenberg_frame()
    target = np.array([1.0, 0.0, math.pi])
    errs = []
    for n_steps in (100, 200, 400):
        ts = np.linspace(0.0, 2.0 * math.pi, n_steps + 1)
        end = flow_control(frame, lambda t: (-math.sin(t), math.cos(t)),
                           [1.0, 0.0, 0.0], ts=ts).points[-1]
        errs.append(np.max(np.abs(end - target)))
    ratios = [coarse / fine for coarse, fine in zip(errs, errs[1:])]
    assert all(13.0 <= q <= 19.0 for q in ratios)

    _, f23, _ = _realized(3)
    rng = np.random.default_rng(10)
    u = _random_control(rng)
    x0 = rng.uniform(-0.5, 0.5, size=5)
    end = jacobian_flow(f23, u, x0, substeps=4).mats[-1]
    delta = 1e-5
    worst_fd = 0.0
    for j in range(5):
        step_vec = np.zeros(5)
        step_vec[j] = delta
        plus = flow_control(f23, u, x0 + step_vec, substeps=4).points[-1]
        minus = flow_control(f23, u, x0 - step_vec, substeps=4).points[-1]
        fd = (plus - minus) / (2.0 * delta)
        worst_fd = max(worst_fd, float(np.max(np.abs(end[:, j] - fd))))
    assert worst_fd <= 1e-6

    sysm = goh_polynomials(f23, [0.0, 0.0, -1.0, 0.0, 1.0])
    trace = trace_variety(sysm, resolution=128)
    worst_vertex = 0.0
    plane = _float_evaluator(sysm.poly(1, 2))
    for line in trace.polylines:
        for x, y in line:
            worst_vertex = max(worst_vertex, abs(plane((x, y))))
    assert trace.polylines
    assert worst_vertex <= 1e-9 * (1.0 + trace.f_scale)
    print(f"criterion 10: RK4 ratios {[f'{q:.1f}' for q in ratios]}, "
          f"Jacobian-vs-FD {worst_fd:.2e}, trace vertex sup "
          f"{worst_vertex:.2e}")
