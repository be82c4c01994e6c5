"""Tests for Goh polynomials, variety membership, and plane tracing."""

import decimal
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from goh_atlas import goh
from goh_atlas.errors import PreconditionError
from goh_atlas.freelie import generate_basis
from goh_atlas.goh import (
    RES_MAX,
    GohSystem,
    VarietyTrace,
    goh_polynomials,
    trace_variety,
    variety_membership,
)
from goh_atlas.floateval import _float_evaluator
from goh_atlas.normalform import realize_frame
from goh_atlas.polyfield import (
    Frame,
    Poly,
    PolyVec,
    heisenberg_frame,
    martinet_frame,
)
from goh_atlas.trajectories import Control, extremal_residuals
from lie_helpers import f23_frame, paper_frames

F = Fraction
X1, X2 = Poly.var(2, 0), Poly.var(2, 1)


def system_of(p: Poly) -> GohSystem:
    # direct construction for tracing tests
    return GohSystem(2, [0, 0, 1], {(1, 2): p})


class TestGohPolynomials:
    def test_heisenberg_e3(self):
        sys = goh_polynomials(heisenberg_frame(), [0, 0, 1])
        assert sys.poly(1, 2) == Poly.const(2, 1)

    def test_f23_general_covector(self):
        lam = [0, 0, F(2), F(-1, 3), F(5)]
        sys = goh_polynomials(f23_frame(), lam)
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        assert sys.poly(1, 2) == Poly.const(2, 2) + x1 * F(-1, 3) + x2 * 5

    def test_f23_basis_covectors(self):
        frame = f23_frame()
        assert goh_polynomials(frame, [0, 0, 1, 0, 0]).poly(1, 2) \
            == Poly.const(2, 1)
        assert goh_polynomials(frame, [0, 0, 0, 1, 0]).poly(1, 2) \
            == Poly.var(2, 0)
        assert goh_polynomials(frame, [0, 0, 0, 0, 1]).poly(1, 2) \
            == Poly.var(2, 1)

    def test_martinet_e3(self):
        sys = goh_polynomials(martinet_frame(), [0, 0, 1])
        assert sys.poly(1, 2) == Poly.var(2, 0)

    def test_linear_in_lambda(self):
        frame = f23_frame()
        lam_a = [0, 0, F(1), F(2), F(-3)]
        lam_b = [0, 0, F(-1, 2), F(1, 3), F(7)]
        a, b = F(3), F(-2, 5)
        combo = [a * u + b * v for u, v in zip(lam_a, lam_b)]
        direct = goh_polynomials(frame, combo).poly(1, 2)
        split = goh_polynomials(frame, lam_a).poly(1, 2) * a \
            + goh_polynomials(frame, lam_b).poly(1, 2) * b
        assert direct == split

    def test_antisymmetry_and_diagonal(self):
        sys = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0])
        assert sys.poly(2, 1) == -sys.poly(1, 2)
        assert sys.poly(1, 1).is_zero()

    def test_zero_covector_rejected(self):
        with pytest.raises(ValueError):
            goh_polynomials(heisenberg_frame(), [0, 0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            goh_polynomials(heisenberg_frame(), [0, 1])

    @pytest.mark.parametrize("lam, msg", [
        ([0, 1], "lam has length 2, not 3"),
        ([0, 0, math.nan], "lam[2] is not finite: nan"),
        ([0, 0, -math.inf], "lam[2] is not finite: -inf"),
        ([0, 0, "x"], "lam[2] is not a number: 'x'"),
        ([0, None, 1], "lam[1] is not a number: None")],
        ids=["length", "nan", "inf", "text", "none"])
    def test_bad_covector_is_named(self, lam, msg):
        # nan and inf were Fraction's ratio errors, or nothing in lam[0..r)
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            goh_polynomials(heisenberg_frame(), lam)

    def test_covector_entries_stay_exact(self):
        sys = goh_polynomials(heisenberg_frame(), [0, 0, "1/3"])
        assert sys.lam == [0, 0, F(1, 3)]
        assert all(type(c) is F for c in sys.lam)
        assert sys.poly(1, 2) == Poly.const(2, F(1, 3))
        big = goh_polynomials(heisenberg_frame(), [0, 0, F(10 ** 400, 3)])
        assert big.poly(1, 2) == Poly.const(2, F(10 ** 400, 3))
        assert goh_polynomials(heisenberg_frame(), [0, 0, 0.5]).lam[2] == 0.5

    def test_f25_fails_precondition(self):
        frame, _ = realize_frame(generate_basis(2, 5))
        lam = [0] * frame.n
        lam[-1] = 1
        with pytest.raises(PreconditionError):
            goh_polynomials(frame, lam)

    def test_non_normal_frame_fails(self):
        bad = Frame([PolyVec([Poly.one(2), Poly.one(2)]),
                     PolyVec.coordinate(2, 1)])
        with pytest.raises(PreconditionError):
            goh_polynomials(bad, [1, 0])

    def test_json_shape(self):
        data = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0]).to_json()
        assert data["type"] == "goh_system" and data["r"] == 2
        assert list(data["polys"]) == ["1,2"]
        assert data["lambda"][3] == "1/1"


class TestVarietyMembership:
    def test_curve_inside(self):
        sys = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0])  # F = x_1
        pts = [(0.0, t / 10.0) for t in range(11)]
        assert variety_membership(sys, pts) == 0.0

    def test_curve_outside(self):
        sys = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0])
        pts = [(t / 10.0, t / 10.0) for t in range(11)]
        assert variety_membership(sys, pts) == pytest.approx(1.0)

    def test_empty_curve(self):
        sys = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0])
        assert variety_membership(sys, []) == 0.0

    def test_dimension_check(self):
        sys = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0])
        with pytest.raises(ValueError):
            variety_membership(sys, [(1.0, 2.0, 3.0)])

    @pytest.mark.parametrize("bad", [(1.0,), (1.0, 2.0, 3.0)])
    def test_point_of_the_wrong_length_is_named(self, bad):
        sys = goh_polynomials(f23_frame(), [0, 0, 0, 1, 0])
        with pytest.raises(ValueError, match=re.escape(
                f"points[2] has length {len(bad)}, not 2")):
            variety_membership(sys, [(0.0, 0.0), (0.0, 1.0), bad])

    @pytest.mark.parametrize("x", [1e200, 1e120, -1e200])
    def test_overflowing_point_is_named(self, x):
        # x1^3 overflows on the finite point (x, 0): OverflowError escaped
        x1 = Poly.var(2, 0)
        sys = system_of(x1 * x1 * x1 - Poly.var(2, 1))
        with pytest.raises(ValueError, match=re.escape(
                f"F^(1,2) overflows at curve point 1: [{x!r}, 0.0]")):
            variety_membership(sys, [(0.0, 0.0), (x, 0.0)])

    @pytest.mark.parametrize("x, y", [(1e150, 1e150), (1e150, 2e150)])
    def test_nan_value_at_a_finite_point_is_named(self, x, y):
        # x1^2 x2 and x1 x2^2 overflow to +inf and -inf, the sum is NaN,
        # and NaN never beats the sup: it used to read as on the variety
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        sys = system_of(x1 * x1 * x2 - x1 * x2 * x2)
        with pytest.raises(ValueError, match=re.escape(
                f"F^(1,2) overflows at curve point 1: [{x!r}, {y!r}]")):
            variety_membership(sys, [(0.0, 0.0), (x, y)])

    @pytest.mark.parametrize("x", [1e150, -1e150])
    def test_infinite_product_at_a_finite_point_is_named(self, x):
        # x1^2 x2 overflows to inf in a product, with no power raising
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        sys = system_of(x1 * x1 * x2 + x2)
        with pytest.raises(ValueError, match=re.escape(
                f"F^(1,2) overflows at curve point 2: [{x!r}, {x!r}]")):
            variety_membership(sys, [(0.0, 0.0), (1.0, 1.0), (x, x)])

    def test_largest_finite_value_is_the_sup(self):
        sys = system_of(Poly.var(2, 0) * Poly.var(2, 1))
        assert variety_membership(sys, [(1e154, 1e154)]) == 1e154 * 1e154

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_is_named(self, bad):
        # a NaN value never beats the sup, so it used to read as on the variety
        sys = goh_polynomials(martinet_frame(), [0, 0, 1])  # F = x_1
        with pytest.raises(ValueError, match=re.escape(
                f"points[1][0] is not finite: {bad}")):
            variety_membership(sys, [(0.0, 0.0), (bad, 0.0)])


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if a trace builds its grid."""
    def fail(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(goh.np, "linspace", fail)


class TestTraceVariety:
    def test_line(self):
        sys = system_of(Poly.var(2, 0))
        tr = trace_variety(sys, window=(-1, 1, -1, 1), resolution=64)
        assert len(tr.polylines) == 1
        assert not tr.singular_candidates and not tr.whole_plane
        xs = [p[0] for p in tr.polylines[0]]
        ys = [p[1] for p in tr.polylines[0]]
        assert max(abs(x) for x in xs) <= tr.tolerance
        assert min(ys) == pytest.approx(-1) and max(ys) == pytest.approx(1)

    def test_vertices_satisfy_relative_bound(self):
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        p = x1 * x1 + x2 * x2 - 1
        tr = trace_variety(system_of(p), window=(-2, 2, -2, 2), resolution=96)
        assert tr.polylines
        for chain in tr.polylines:
            for x, y in chain:
                assert abs(p.eval_float((x, y))) <= tr.tolerance
        # circle closes up into a loop
        loop = max(tr.polylines, key=len)
        assert loop[0] == loop[-1]

    @pytest.mark.parametrize("p", [X1 - X2, X1 * X1 + X2 * X2 - 2],
                             ids=["diagonal", "circle"])
    def test_a_node_passed_diagonally_is_one_vertex(self, p):
        # both grid edges that meet at such a node bisect to it, and the
        # chain listed it twice in a row: 8 times on the diagonal, 4 on the
        # circle through (+-1, +-1)
        tr = trace_variety(system_of(p), resolution=8)
        line, = tr.polylines
        assert all(u != v for u, v in zip(line, line[1:]))
        if p == X1 - X2:
            assert line == [(t, t) for t in np.linspace(-2, 2, 9).tolist()]
        else:  # a closed loop still ends on its first vertex
            assert line[0] == line[-1] == (-1.0, -1.0) and len(line) == 17
            assert (1.0, 1.0) in line

    def test_a_curve_of_singular_points_lists_each_node_once(self):
        # 34 candidates were 19 distinct points: the anti-diagonal's 17
        # nodes and the two points where it meets the circle
        p = (X1 + X2) * (X1 + X2) * (X1 * X1 + X2 * X2 - 3)
        got = trace_variety(system_of(p), resolution=16).singular_candidates
        assert len(got) == len(set(got)) == 19

    def test_positive_polynomial_empty(self):
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        tr = trace_variety(system_of(x1 * x1 + x2 * x2 + 1),
                           window=(-1, 1, -1, 1), resolution=32)
        assert tr.polylines == [] and tr.singular_candidates == []
        assert not tr.whole_plane

    def test_identically_zero(self):
        tr = trace_variety(system_of(Poly.zero(2)))
        assert tr.whole_plane and tr.polylines == []

    def test_crossing_with_singular_point(self):
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        tr = trace_variety(system_of(x1 * x2),
                           window=(-1, 1, -1, 1), resolution=64)
        assert len(tr.polylines) == 2
        assert len(tr.singular_candidates) == 1
        sx, sy = tr.singular_candidates[0]
        assert abs(sx) < 1e-7 and abs(sy) < 1e-7

    def test_singular_line_of_quartic_has_candidates(self):
        # F and its gradient vanish on all of {x1 = 0}
        x1 = Poly.var(2, 0)
        tr = trace_variety(system_of(x1 * x1 * x1 * x1), resolution=261)
        cell = 4.0 / 261
        assert any(abs(x) <= cell for x, _ in tr.singular_candidates)

    def test_wide_window_hyperbola_has_no_singular_candidates(self):
        # x1^2 x2^2 = 1 is smooth: its gradient vanishes only on the axes,
        # where F = -1
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        sys = system_of(x1 * x1 * x2 * x2 - 1)
        narrow = trace_variety(sys, window=(-2, 2, -2, 2), resolution=16)
        assert (len(narrow.polylines), narrow.singular_candidates) == (4, [])
        wide = trace_variety(sys, window=(-1e60, 1e60, -1e60, 1e60),
                             resolution=16)
        assert len(wide.polylines) == 4
        assert wide.singular_candidates == []

    def test_rank_requirement(self):
        with pytest.raises(ValueError):
            trace_variety(GohSystem(3, [1, 0, 0], {}), resolution=8)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            trace_variety(system_of(Poly.var(2, 0)), window=(1, -1, 0, 1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("k, name", enumerate(
        ["x_min", "x_max", "y_min", "y_max"]))
    def test_non_finite_window_is_named(self, k, name, bad, no_grid):
        window = [-2.0, 2.0, -2.0, 2.0]
        window[k] = bad
        with pytest.raises(ValueError, match=f"^window {name} is not finite: "
                           f"{bad!r}$"):
            trace_variety(system_of(Poly.var(2, 0)), window=window)

    @pytest.mark.parametrize("window, msg", [
        ((-2, 2, "x", 2), "window y_min is not a number: 'x'"),
        ((-2, 10 ** 400, -2, 2), "window x_max is too large for a float"),
        ((-2, 2, -2), "not enough values to unpack (expected 4, got 3)")],
        ids=["text", "huge-int", "short"])
    def test_window_entry_fault_is_named(self, window, msg, no_grid):
        # text was float()'s message without the entry's name, and 10**400
        # an OverflowError
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            trace_variety(system_of(Poly.var(2, 0)), window=window)

    @pytest.mark.parametrize("window, name", [
        ((-1e308, 1e308, -1.0, 1.0), "x"), ((-1.0, 1.0, -1e308, 1e308), "y")])
    def test_overflowing_window_width_is_named(self, window, name, no_grid):
        # every entry is finite, but the width is inf: the grid was nan
        with pytest.raises(ValueError, match=f"^window {name} width is not "
                           f"finite: {name}_max - {name}_min = inf$"):
            trace_variety(system_of(Poly.var(2, 0)), window=window)

    def test_overflowing_grid_value_is_named(self):
        # x1^2 overflows on the first grid node; F = 1/2 x1^2 + x1 x2 + x1
        # made Newton raise OverflowError
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        F = x1 * x1 * Fraction(1, 2) + x1 * x2 + x1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "F is not finite at grid node (-1e+200, -2.0): inf")):
                trace_variety(system_of(F), window=(-1e200, 1e200, -2, 2),
                              resolution=8)

    @pytest.mark.parametrize("res", [0, 1, RES_MAX + 1, 7.5, "8", None])
    def test_resolution_bounds(self, res, no_grid):
        with pytest.raises(ValueError, match="resolution"):
            trace_variety(system_of(Poly.var(2, 0)), resolution=res)

    @pytest.mark.parametrize("res", [np.int64(16), np.int32(2), 16.0])
    def test_integral_resolution_is_accepted(self, res):
        tr = trace_variety(system_of(Poly.var(2, 0)), resolution=res)
        assert tr.resolution == res and type(tr.resolution) is int

    def test_hausdorff_refinement_monotone(self):
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        for p in (x1, x1 * x1 + x2 * x2 - 1):
            sys = system_of(p)
            traces = [trace_variety(sys, window=(-2, 2, -2, 2), resolution=r)
                      for r in (32, 64, 128)]
            pts = [[v for chain in t.polylines for v in chain]
                   for t in traces]
            d1 = _hausdorff_distance(pts[0], pts[1])
            d2 = _hausdorff_distance(pts[1], pts[2])
            assert d2 <= d1

    def test_csv_format(self):
        tr = trace_variety(system_of(Poly.var(2, 0)),
                           window=(-1, 1, -1, 1), resolution=16)
        csv = tr.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "x1,x2,branch_id"
        assert all(line.count(",") == 2 for line in lines[1:])
        assert csv == tr.to_csv()  # deterministic


def test_hausdorff_basics():
    a = [(0.0, 0.0), (1.0, 0.0)]
    b = [(0.0, 0.5), (1.0, 0.0)]
    assert _hausdorff_distance(a, a) == 0.0
    assert _hausdorff_distance(a, b) == pytest.approx(0.5)


def _hausdorff_distance(points_a, points_b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    a = np.asarray(list(points_a), dtype=float)
    b = np.asarray(list(points_b), dtype=float)
    if a.size == 0 or b.size == 0:
        return float("inf") if a.size != b.size else 0.0

    def directed(p, q):
        worst = 0.0
        for lo in range(0, len(p), 512):
            block = p[lo:lo + 512]
            d = np.sqrt(((block[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
            worst = max(worst, float(d.min(axis=1).max()))
        return worst

    return max(directed(a, b), directed(b, a))


# ---------------------------------------------------------------------------
# textbook tracer: a loop over every cell and a float evaluation of every
# term at every point


def textbook_grid_eval(p: Poly, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Values on the grid (len(ys), len(xs)), rows indexed by y, with C
    ``pow`` powers (array ``**`` can round apart from it)."""
    gx, gy = np.meshgrid(xs, ys)
    out = np.zeros_like(gx)
    for e, c in p.terms.items():
        out += float(c) * np.float_power(gx, e[0]) * np.float_power(gy, e[1])
    return out


def textbook_eval(p: Poly, x) -> float:
    total = 0.0
    for e, c in p.terms.items():
        v = float(c)
        for i, k in enumerate(e):
            if k:
                v *= x[i] ** k
        total += v
    return total


def textbook_bisect_edge(f, pa, pb, va, vb, tol: float):
    """Zero of f on the segment [pa, pb] given a sign change, |f| <= tol."""
    if abs(va) <= tol:
        return pa
    if abs(vb) <= tol:
        return pb
    ax, ay = pa
    bx, by = pb
    for _ in range(200):
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        vm = f(mx, my)
        if abs(vm) <= tol:
            return (mx, my)
        if (vm > 0) == (va > 0):
            ax, ay, va = mx, my, vm
        else:
            bx, by = mx, my
    return (0.5 * (ax + bx), 0.5 * (ay + by))


TEXTBOOK_SEGMENT_TABLE = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("top", "right")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("left", "top")],
    9: [("bottom", "top")],
    11: [("top", "right")],
    12: [("left", "right")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
}
# cases 5 and 10 are saddles, resolved by the cell-center sign


def reference_trace(sys, window, resolution, singular=()) -> VarietyTrace:
    """The textbook trace; its singular candidates are the exact points
    singular, known from the construction, that round into the window,
    each coordinate rounded once, in order of y then x."""
    F = sys.poly(1, 2)
    x0, x1, y0, y1 = (float(v) for v in window)
    res = int(resolution)

    trace = VarietyTrace(window=(x0, x1, y0, y1), resolution=res)
    if F.is_zero():
        trace.whole_plane = True
        return trace

    xs = np.linspace(x0, x1, res + 1)
    ys = np.linspace(y0, y1, res + 1)
    vals = textbook_grid_eval(F, xs, ys)
    scale = float(np.max(np.abs(vals)))
    tol = 1e-9 * (1.0 + scale)
    trace.tolerance = tol

    def f(px, py):
        return textbook_eval(F, (px, py))

    # sign matrix with zeros counted positive
    pos = vals >= 0.0

    # crossing vertices keyed by grid edge
    verts: dict[tuple, tuple] = {}

    def edge_vertex(kind, i, j):
        # horizontal edge: (i, j) -> (i+1, j); vertical: (i, j) -> (i, j+1)
        key = (kind, i, j)
        got = verts.get(key)
        if got is not None:
            return got
        if kind == "h":
            pa, pb = (xs[i], ys[j]), (xs[i + 1], ys[j])
            va, vb = vals[j, i], vals[j, i + 1]
        else:
            pa, pb = (xs[i], ys[j]), (xs[i], ys[j + 1])
            va, vb = vals[j, i], vals[j + 1, i]
        v = textbook_bisect_edge(f, pa, pb, va, vb, tol)
        verts[key] = v
        return v

    edges_of_cell = {
        "bottom": lambda i, j: ("h", i, j),
        "top": lambda i, j: ("h", i, j + 1),
        "left": lambda i, j: ("v", i, j),
        "right": lambda i, j: ("v", i + 1, j),
    }

    # adjacency between edge keys, built cell by cell
    links: dict[tuple, list] = {}

    def link(ka, kb):
        links.setdefault(ka, []).append(kb)
        links.setdefault(kb, []).append(ka)

    for j in range(res):
        for i in range(res):
            code = (
                (1 if pos[j, i] else 0)
                | (2 if pos[j, i + 1] else 0)
                | (4 if pos[j + 1, i + 1] else 0)
                | (8 if pos[j + 1, i] else 0)
            )
            if code in (0, 15):
                continue
            if code in (5, 10):
                center = f(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                center_pos = center >= 0.0
                if code == 5:  # corners BL,TR negative? no: 5 = BL+TR positive
                    pairs = ([("left", "top"), ("bottom", "right")]
                             if center_pos
                             else [("left", "bottom"), ("top", "right")])
                else:  # code 10: BR+TL positive
                    pairs = ([("left", "bottom"), ("top", "right")]
                             if center_pos
                             else [("left", "top"), ("bottom", "right")])
            else:
                pairs = TEXTBOOK_SEGMENT_TABLE[code]
            for ea, eb in pairs:
                ka = edges_of_cell[ea](i, j)
                kb = edges_of_cell[eb](i, j)
                edge_vertex(*ka)
                edge_vertex(*kb)
                link(ka, kb)

    # chain the segment graph into polylines (open paths first, then loops)
    used = set()

    def walk(start):
        chain = [start]
        used.add(start)
        cur = start
        prev = None
        while True:
            nxt = None
            for cand in links[cur]:
                if cand != prev and cand not in used:
                    nxt = cand
                    break
            if nxt is None:
                # close a loop if the start is adjacent
                if len(chain) > 2 and start in links[cur]:
                    chain.append(start)
                break
            chain.append(nxt)
            used.add(nxt)
            prev, cur = cur, nxt
        return chain

    endpoints = [k for k, adj in links.items() if len(adj) == 1]
    chains = []
    for k in endpoints:
        if k not in used:
            chains.append(walk(k))
    for k in links:
        if k not in used:
            chains.append(walk(k))

    trace.polylines = []
    for chain in chains:  # a vertex equal to the one before it left out
        line = []
        for k in chain:
            if not line or verts[k] != line[-1]:
                line.append(verts[k])
        trace.polylines.append(line)
    points = [(float(u), float(v)) for u, v in singular]
    trace.singular_candidates = sorted(
        (pt for pt in points if x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1),
        key=lambda pt: (pt[1], pt[0]))
    return trace


def square_free(p: Poly) -> bool:
    """Whether gcd(p, p_x1, p_x2) is constant, by the tracer's gcd."""
    rows = goh._integer_rows(p)[0]
    g = goh._bgcd(goh._bgcd(rows, goh._dx(rows)), goh._dy(rows))
    return len(g) == 1 and len(g[0]) == 1


def assert_candidates_are_singular(p: Poly, trace) -> None:
    """Every candidate is a zero of p, p_x1 and p_x2: exactly where its
    rounded coordinates are one, else within 1e-9 of the scale of p."""
    polys = (p, p.diff(0), p.diff(1))
    for x, y in trace.singular_candidates:
        exact = [q.eval((F(x), F(y))) for q in polys]
        if any(exact):
            scale = 1.0 + sum(abs(float(c)) * max(1.0, abs(x)) ** e[0]
                              * max(1.0, abs(y)) ** e[1]
                              for e, c in p.terms.items())
            assert max(abs(float(v)) for v in exact) <= 1e-9 * scale


def reference_singular(F: Poly, xs, ys, vals, tol) -> list:
    fx, fy = F.diff(0), F.diff(1)
    gx = textbook_grid_eval(fx, xs, ys)
    gy = textbook_grid_eval(fy, xs, ys)
    grad = np.hypot(gx, gy)
    gscale = float(np.max(grad)) if grad.size else 0.0
    cell = max(xs[1] - xs[0], ys[1] - ys[0])

    # grid pre-candidates: both F and its gradient small at the node scale
    mask = (np.abs(vals) <= (1.0 + float(np.max(np.abs(vals)))) * cell) \
        & (grad <= (1.0 + gscale) * cell * 4.0)
    cand_idx = np.argwhere(mask)
    if cand_idx.size == 0:
        return []

    fxx, fxy = fx.diff(0), fx.diff(1)
    fyx, fyy = fy.diff(0), fy.diff(1)

    def newton(p, q, jac_rows, x, y):
        # damped Newton for the 2x2 system (p, q)
        for _ in range(60):
            r0, r1 = textbook_eval(p, (x, y)), textbook_eval(q, (x, y))
            res = abs(r0) + abs(r1)
            if res == 0.0:
                return x, y
            (a, b), (c, d) = jac_rows
            j00, j01 = textbook_eval(a, (x, y)), textbook_eval(b, (x, y))
            j10, j11 = textbook_eval(c, (x, y)), textbook_eval(d, (x, y))
            det = j00 * j11 - j01 * j10
            if det == 0.0 or not np.isfinite(det):
                return None
            dx = (r0 * j11 - r1 * j01) / det
            dy = (j00 * r1 - j10 * r0) / det
            step = 1.0
            while step > 1e-6:
                nx, ny = x - step * dx, y - step * dy
                nres = (abs(textbook_eval(p, (nx, ny)))
                        + abs(textbook_eval(q, (nx, ny))))
                if nres < res:
                    x, y = nx, ny
                    break
                step *= 0.5
            else:
                return x, y
        return x, y

    systems = [
        (F, fx, ((fx, fy), (fxx, fxy))),
        (F, fy, ((fx, fy), (fyx, fyy))),
        (fx, fy, ((fxx, fxy), (fyx, fyy))),
    ]

    gtol = 1e-7 * (1.0 + gscale)
    found: list = []
    for j, i in cand_idx:
        x0, y0 = float(xs[i]), float(ys[j])
        best = None
        for p, q, jac in systems:
            got = newton(p, q, jac, x0, y0)
            if got is None:
                continue
            x, y = got
            if abs(textbook_eval(F, (x, y))) <= tol \
                    and np.hypot(textbook_eval(fx, (x, y)),
                                 textbook_eval(fy, (x, y))) <= gtol:
                score = np.hypot(textbook_eval(fx, (x, y)),
                                 textbook_eval(fy, (x, y)))
                if best is None or score < best[0]:
                    best = (score, x, y)
        if best is None:
            continue
        _, x, y = best
        if all(np.hypot(x - u, y - v) > cell for u, v in found):
            found.append((x, y))
    return found


def cell_codes(p: Poly, window, res) -> set:
    """Marching-squares codes of the cells, counted as the tracer does."""
    xs = np.linspace(window[0], window[1], res + 1)
    ys = np.linspace(window[2], window[3], res + 1)
    pos = textbook_grid_eval(p, xs, ys) >= 0.0
    return {int(pos[j, i]) | 2 * int(pos[j, i + 1])
            | 4 * int(pos[j + 1, i + 1]) | 8 * int(pos[j + 1, i])
            for j in range(res) for i in range(res)}


# The mixed second difference of a conic over a cell is B h^2 for its x1 x2
# coefficient B, and a saddle cell of code 5 needs it positive, of code 10
# negative: no one conic has both.  So saddles come from x1 x2 -+ delta and
# its negative, with the origin at a cell centre (odd resolution), delta
# below h^2 / 4 and the centre value of either sign.
DELTA = F(1, 10**4)
SADDLES = [(s * (X1 * X2) + d, (-1, 1, -1, 1), 63)
           for s in (1, -1) for d in (DELTA, -DELTA)]
THROUGH_NODES = [(X1, (-1, 1, -1, 1), 64),
                 (X1 * X1 + X2 * X2 - 1, (-2, 2, -2, 2), 64)]
NODAL_CUBIC = [(X2 * X2 - X1 * X1 - X1 * X1 * X1, (-2, 2, -2, 2), 48)]


class TestTraceMatchesTextbook:
    @pytest.mark.parametrize("p, window, res",
                             SADDLES + THROUGH_NODES + NODAL_CUBIC
                             + [(Poly.zero(2), (-2, 2, -2, 2), 16)])
    def test_bitwise_equal(self, p, window, res):
        # the nodal cubic's one singular point is the origin
        sys = system_of(p)
        got = trace_variety(sys, window=window, resolution=res)
        want = reference_trace(sys, window, res, [(0, 0)] * (
            (p, window, res) == NODAL_CUBIC[0]))
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()
        assert got.tolerance == want.tolerance
        verts = [v for line in got.polylines for v in line]
        assert variety_membership(sys, verts) == max(
            (abs(textbook_eval(p, v)) for v in verts), default=0.0)

    def test_the_cases_reach_what_they_claim(self):
        codes = set()
        for p, window, res in SADDLES:
            codes |= cell_codes(p, window, res)
            xs = np.linspace(window[0], window[1], res + 1)
            assert 0.0 not in xs  # the saddle cell is centred on the origin
        assert {5, 10} <= codes
        for p, window, res in THROUGH_NODES:
            xs = np.linspace(window[0], window[1], res + 1)
            ys = np.linspace(window[2], window[3], res + 1)
            assert (textbook_grid_eval(p, xs, ys) == 0.0).any()
        p, window, res = NODAL_CUBIC[0]
        tr = trace_variety(system_of(p), window=window, resolution=res)
        assert len(tr.singular_candidates) == 1
        assert trace_variety(system_of(Poly.zero(2))).whole_plane


@st.composite
def plane_traces(draw):
    """A polynomial in two variables of degree 2 to 4 with small rational
    coefficients, a window of any centre and aspect, and an odd resolution.

    A third of the polynomials are arbitrary.  A third are ellipses inside
    the window, which close into loops.  A third are two lines crossing at
    the centre of a cell, each less than 15 degrees off an axis, plus a
    constant below the cell's corner values: that cell is a saddle of code
    5 or 10, and the constant's sign picks its resolution.
    """
    small = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 8))
    x, y = (draw(st.floats(-0.5, 0.5)) for _ in "xy")
    wx, wy = (draw(st.floats(1.5, 2.5)) for _ in "xy")
    window = (x - wx, x + wx, y - wy, y + wy)
    res = 2 * draw(st.integers(2, 7)) + 1
    kind = draw(st.sampled_from(["any", "ellipse", "crossing"]))
    if kind == "any":
        degree = draw(st.integers(2, 4))
        power = st.integers(0, degree)
        exponent = st.tuples(power, power).filter(lambda e: sum(e) <= degree)
        terms = draw(st.dictionaries(exponent, small, max_size=8))
        top = draw(st.integers(0, degree))
        terms.setdefault((top, degree - top), draw(small))
        return Poly(2, terms), window, res
    if kind == "ellipse":
        # semi-axes from 0.8 to 1.4, centred in the window
        u, v = X1 - F(x), X2 - F(y)
        scale = st.builds(F, st.integers(1, 3), st.just(2))
        return u * u * draw(scale) + v * v * draw(scale) - 1, window, res
    xs = np.linspace(window[0], window[1], res + 1)
    ys = np.linspace(window[2], window[3], res + 1)
    i, j = draw(st.integers(0, res - 1)), draw(st.integers(0, res - 1))
    u = X1 - F(0.5 * (xs[i] + xs[i + 1]))
    v = X2 - F(0.5 * (ys[j] + ys[j + 1]))
    tilt = st.builds(F, st.integers(-2, 2), st.just(8))
    # corner values exceed |a| hx hy / 12; the constant is below |a| hx hy / 16
    a, c = draw(small), draw(st.builds(F, st.integers(-8, 8).filter(bool),
                                       st.just(128)))
    p = (u + v * draw(tilt)) * (v + u * draw(tilt)) * a \
        + a * F((xs[1] - xs[0]) * (ys[1] - ys[0])) * c
    return p, window, res


def test_random_traces_match_textbook_bitwise():
    reached = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=plane_traces())
    def check(case):
        p, window, res = case
        assume(square_free(p))  # else the trace is that of p / g
        sys = system_of(p)
        got = trace_variety(sys, window=window, resolution=res)
        want = reference_trace(sys, window, res, got.singular_candidates)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()
        assert got.tolerance == want.tolerance
        assert_candidates_are_singular(p, got)
        reached.update(cell_codes(p, window, res) & {5, 10})
        if any(len(line) > 2 and line[0] == line[-1]
               for line in got.polylines):
            reached.add("loop")

    check()
    assert reached == {5, 10, "loop"}


@st.composite
def singular_curves(draw, kind):
    """A plane curve with singular points, a window around them, an odd
    resolution from 5 to 21, and its singular points, exact.

    The kinds: "lines", a product of two or three distinct lines, each
    through a common point or a point of its own (nodes, and triple
    points), singular where two meet; "cusp" y^2 - x^3 and "tacnode"
    y^2 - x^4; and "cubic", the benchmark pool's nodal cubic
    y^2 - x^2 - x^3.  The last three sit at a drawn point, turned or
    reflected by one of the symmetries of the square, singular there only.
    """
    point = st.builds(F, st.integers(-4, 4), st.just(8))
    p0, q0 = draw(point), draw(point)
    singular = {(p0, q0)}
    if kind == "lines":
        coef = st.integers(-3, 3)
        p = Poly.const(2, draw(st.builds(F, st.integers(1, 9),
                                         st.integers(1, 4))))
        lines: list = []  # (a, b, c): a x + b y = c
        for _ in range(draw(st.integers(2, 3))):
            a, b = draw(st.tuples(coef, coef).filter(any))
            if draw(st.booleans()):
                px, py = p0, q0
            else:
                px, py = draw(point), draw(point)
            line = (a, b, a * px + b * py)
            if any(a * v == b * u and a * w == c * u and b * w == c * v
                   for u, v, w in lines):
                continue  # the same line twice: not square-free
            lines.append(line)
            p = p * ((X1 - px) * a + (X2 - py) * b)
        singular = set()
        for i, (a, b, c) in enumerate(lines):
            for u, v, w in lines[:i]:
                det = a * v - b * u
                if det:
                    singular.add((F(c * v - b * w, det), F(a * w - c * u, det)))
    else:
        u, v = (X1 - p0) * draw(st.sampled_from([1, -1])), \
            (X2 - q0) * draw(st.sampled_from([1, -1]))
        if draw(st.booleans()):
            u, v = v, u
        p = {"cusp": v * v - u * u * u,
             "tacnode": v * v - u * u * u * u,
             "cubic": v * v - u * u - u * u * u}[kind]
    cx, cy = (float(c) + draw(st.floats(-0.3, 0.3)) for c in (p0, q0))
    wx, wy = (draw(st.floats(0.5, 2.0)) for _ in "xy")
    res = 2 * draw(st.integers(2, 10)) + 1
    return p, (cx - wx, cx + wx, cy - wy, cy + wy), res, singular


@pytest.mark.parametrize("kind", ["lines", "cusp", "tacnode", "cubic"])
def test_singular_curves_match_textbook_bitwise(kind):
    # the exact route reports the known singular points, each rounded once
    found = []

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(case=singular_curves(kind))
    def check(case):
        p, window, res, singular = case
        sys = system_of(p)
        got = trace_variety(sys, window=window, resolution=res)
        want = reference_trace(sys, window, res, singular)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()
        assert got.tolerance == want.tolerance
        found.append(len(got.singular_candidates))

    check()
    # there were singular points to report in most cases
    assert sum(map(bool, found)) >= len(found) // 2, found


def scalar_variety_membership(sys: GohSystem, curve) -> float:
    """variety_membership as one loop that checks every point, then one
    over the points and, inside it, the pairs, on Python floats with scalar
    ``**`` (textbook_eval; a power that overflows gives inf): the array
    version's oracle."""
    points, xs = getattr(curve, "points", curve), []
    for idx, pt in enumerate(points):
        if len(pt) != sys.r:
            raise ValueError(f"points[{idx}] has length {len(pt)}, not "
                             f"{sys.r}")
        xs.append([])
        for i, c in enumerate(pt):
            try:
                xs[-1].append(float(c))
            except OverflowError:
                raise ValueError(f"points[{idx}][{i}] is too large for a "
                                 f"float") from None
            if not math.isfinite(xs[-1][-1]):
                raise ValueError(f"points[{idx}][{i}] is not finite: "
                                 f"{xs[-1][-1]!r}")
    worst = 0.0
    for idx, x in enumerate(xs):
        for (h, k), p in sys.polys.items():
            try:
                v = abs(textbook_eval(p, x))
            except OverflowError:
                v = math.inf
            if not v < math.inf:  # inf or NaN
                raise ValueError(f"F^({h},{k}) overflows at curve point "
                                 f"{idx}: {x}")
            if v > worst:
                worst = v
    return worst


def membership_outcome(membership, sys, points):
    """The bits of the sup, or the type and message of the error."""
    try:
        return np.float64(membership(sys, points)).tobytes()
    except ValueError as err:
        return type(err), str(err)


@st.composite
def systems_and_curves(draw):
    """A system of rank 2 or 3 (one or three pairs) whose polynomials have
    degree <= 5, and up to 30 points, with faults placed at random indices:
    a NaN or infinite entry, an entry of 1e80 whose powers overflow, an
    int too large for a float, or a point of another length; as a list of
    tuples, or an array if regular and every entry a float."""
    r = draw(st.integers(2, 3))
    power = st.integers(0, 5)
    exponent = st.tuples(*[power] * r).filter(lambda e: sum(e) <= 5)
    coef = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 8))
    polys = {(h, k): Poly(r, draw(st.dictionaries(exponent, coef,
                                                  max_size=6)))
             for h in range(1, r + 1) for k in range(h + 1, r + 1)}
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3))
    points = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                           max_size=30))
    # a fault of the input comes before any overflow, so half the cases
    # hold overflowing entries alone
    faults = draw(st.sampled_from([[1e80], [math.nan, math.inf, -math.inf,
                                            1e80, 10 ** 400, "short", "long"]]))
    for _ in range(draw(st.integers(0, 3)) if points else 0):
        idx = draw(st.integers(0, len(points) - 1))
        fault = draw(st.sampled_from(faults))
        if fault == "short":
            points[idx] = points[idx][:-1]
        elif fault == "long":
            points[idx] = points[idx] + [1.0]
        elif points[idx]:
            points[idx][draw(st.integers(0, len(points[idx]) - 1))] = fault
    if draw(st.booleans()) and all(len(pt) == r and 10 ** 400 not in pt
                                   for pt in points):
        return GohSystem(r, [], polys), np.array(points).reshape(-1, r)
    return GohSystem(r, [], polys), [tuple(pt) for pt in points]


def fault_kind(outcome) -> str:
    """The outcome's kind: "value", or the word of its error that tells the
    fault."""
    if not isinstance(outcome, tuple):
        return "value"
    return next((word for word in ("length", "large", "finite", "overflows")
                 if word in outcome[1]), outcome[1])


def test_array_membership_is_the_scalar_loop():
    reached = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=systems_and_curves())
    def check(case):
        sys, points = case
        want = membership_outcome(scalar_variety_membership, sys, points)
        assert membership_outcome(variety_membership, sys, points) == want
        reached.add(fault_kind(want))

    check()
    # a value, a length, an int too large, a non-finite point and an
    # overflow were all reached
    assert reached == {"value", "length", "large", "finite", "overflows"}, \
        reached


def test_membership_value_at_each_point_is_the_scalar_loops():
    # array ** rounds apart from scalar ** at some points; C pow does not
    rng = np.random.default_rng(7)
    sys = system_of(Poly(2, {(3, 0): F(1), (0, 5): F(-2, 3), (2, 2): F(1, 7),
                             (4, 1): F(5, 9), (0, 0): F(1)}))
    for pt in rng.uniform(-3, 3, (300, 2)).tolist():
        assert membership_outcome(variety_membership, sys, [pt]) \
            == membership_outcome(scalar_variety_membership, sys, [pt])


def lock_step_and_textbook(p: Poly, xs, ys, vals, edges, tol):
    """Each edge's vertex from the tracer's lock-step bisection, and from
    textbook_bisect_edge on Python floats, with the number of values of p
    the textbook run took on that edge."""
    got = goh._edge_vertices(_float_evaluator(p), xs, ys, vals, edges, tol)
    want, calls = [], []
    for k, i, j in edges:
        count = []

        def f(x, y):
            count.append(1)
            return textbook_eval(p, (x, y))

        i1, j1 = i + 1 - k, j + k
        want.append(textbook_bisect_edge(
            f, (float(xs[i]), float(ys[j])), (float(xs[i1]), float(ys[j1])),
            float(vals[j, i]), float(vals[j1, i1]), tol))
        calls.append(len(count))
    return got, want, calls


def bits(points) -> bytes:
    return np.array(points, dtype=float).tobytes()


@st.composite
def grids_and_edges(draw):
    """A polynomial of degree <= 4 in two variables, short increasing grid
    axes, node values that are the polynomial's own or drawn apart from it
    (some within the tolerance, of any sign), a tolerance and a list of
    edges of the grid, repeats allowed."""
    coef = st.builds(F, st.integers(-9, 9), st.integers(1, 8))
    power = st.integers(0, 4)
    exponent = st.tuples(power, power).filter(lambda e: sum(e) <= 4)
    p = Poly(2, draw(st.dictionaries(exponent, coef, min_size=1, max_size=6)))
    axis = st.lists(st.floats(-3, 3), min_size=2, max_size=5, unique=True)
    xs, ys = (np.array(sorted(draw(axis))) for _ in "xy")
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    vals = textbook_grid_eval(p, xs, ys)
    if draw(st.booleans()):
        near = st.sampled_from([0.0, -0.0, tol, -tol, tol / 2, -tol / 3])
        value = st.one_of(near, st.floats(-5, 5))
        vals = np.array(draw(st.lists(value, min_size=vals.size,
                                      max_size=vals.size))).reshape(vals.shape)
    edge = st.one_of(
        st.tuples(st.just(0), st.integers(0, len(xs) - 2),
                  st.integers(0, len(ys) - 1)),
        st.tuples(st.just(1), st.integers(0, len(xs) - 1),
                  st.integers(0, len(ys) - 2)))
    return p, xs, ys, vals, draw(st.lists(edge, min_size=1, max_size=20)), tol


@settings(max_examples=300, deadline=None)
@given(case=grids_and_edges())
def test_lock_step_bisection_is_the_scalar_rule_edge_by_edge(case):
    got, want, _ = lock_step_and_textbook(*case)
    assert bits(got) == bits(want)


class TestLockStepBisection:
    # F = x1 - 1/4 on the grid edge from (0, 0) to (1, 0)
    P = X1 - F(1, 4)
    XS, YS = np.array([0.0, 1.0]), np.array([0.0, 1.0])

    def run(self, p, vals, tol, edges=((0, 0, 0),)):
        got, want, calls = lock_step_and_textbook(
            p, self.XS, self.YS, np.array(vals), list(edges), tol)
        assert bits(got) == bits(want)
        return got, calls

    def test_an_end_within_tol_is_the_vertex(self):
        # both ends within tol: the a end wins, without a value of F
        assert self.run(self.P, [[1e-12, -1e-12], [0, 0]], 1e-9) \
            == ([(0.0, 0.0)], [0])
        assert self.run(self.P, [[-1.0, 0.0], [0, 0]], 0.0) \
            == ([(1.0, 0.0)], [0])
        # on a vertical edge the b end is the node above
        assert self.run(self.P, [[-1.0, 0.0], [1e-12, 0]], 1e-9,
                        [(1, 0, 0)]) == ([(0.0, 1.0)], [0])

    def test_a_midpoint_value_of_zero_is_the_vertex(self):
        # 0.5 has F = 1/4, then 0.25 has F = 0.0 exactly, which tol 0 takes
        assert self.run(self.P, [[-0.25, 0.75], [0, 0]], 0.0) \
            == ([(0.25, 0.0)], [2])

    def test_tol_zero_runs_the_cap(self):
        # x1^2 - 2 is 0.0 at no float: 200 midpoints, then one more
        p = X1 * X1 - 2
        xs = np.array([1.0, 2.0])
        got, want, calls = lock_step_and_textbook(
            p, xs, self.YS, textbook_grid_eval(p, xs, self.YS), [(0, 0, 0)],
            0.0)
        assert bits(got) == bits(want) and calls == [200]
        assert got[0][0] not in (1.0, 2.0)

    def test_edges_end_at_different_steps(self):
        # one block of F = 4 x1^2 - 1, tol 0: on [0.25, 1] a midpoint near
        # the zero 1/2 rounds F to 0.0; node (-1, 1) is set to 0.0, an early
        # return on two edges; on [-1, 0] the first midpoint is the zero;
        # [0, 0.25] has no sign change, so it runs the cap
        p = X1 * X1 * 4 - 1
        xs = np.array([-1.0, 0.0, 0.25, 1.0])
        vals = textbook_grid_eval(p, xs, self.YS)
        vals[1, 0] = 0.0
        edges = [(0, 2, 0), (0, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 0)]
        got, want, calls = lock_step_and_textbook(p, xs, self.YS, vals,
                                                  edges, 0.0)
        assert bits(got) == bits(want)
        assert calls == [53, 0, 1, 0, 200]

    @pytest.mark.parametrize("p, xs, ys", [
        (X1 * X1, [1e200, 3e200], [0.0, 1.0]),  # x1^2 overflows in pow
        (X1 * X2, [1e200, 3e200], [1e200, 3e200]),  # the product overflows
    ])
    def test_non_finite_midpoint_is_named(self, p, xs, ys):
        y = ys[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"F is not finite at (2e+200, {y!r}) on the grid edge "
                    f"from (1e+200, {y!r}) to (3e+200, {y!r}): inf")):
                goh._edge_vertices(_float_evaluator(p), np.array(xs),
                                   np.array(ys), np.array([[-1.0, 1.0]] * 2),
                                   [(0, 0, 0)], 1e-9)


def test_bisection_blocks_keep_the_bits(monkeypatch):
    # more crossed edges than one block of 7
    p, window, res = THROUGH_NODES[1]
    sys = system_of(p)
    want = reference_trace(sys, window, res)
    assert sum(map(len, want.polylines)) > 7
    monkeypatch.setattr(goh, "SCAN_ROWS", 7)
    got = trace_variety(sys, window, res)
    assert got.to_json() == want.to_json()
    assert got.to_csv() == want.to_csv()


def scalar_power(v: float, k: int) -> float:
    """The evaluator's sum for x^k, 0.0 + 1.0 * v ** k, on Python floats;
    inf where ** overflows."""
    try:
        return 0.0 + 1.0 * v ** k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 else math.inf


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 8), values=st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=40))
def test_scan_power_on_arrays_is_scalar_pow_bitwise(k, values):
    # C pow on every element; a vectorized power would round apart
    x = np.array(values)
    with np.errstate(over="ignore"):
        got = _float_evaluator(Poly(1, {(k,): 1}))((x,))
    want = np.array([scalar_power(v, k) for v in values])
    assert got.tobytes() == want.tobytes()


def test_scan_evaluators_match_scalar_evaluators_bitwise():
    # many terms and mixed powers: the arrays get the bits scalar ** gives
    # each point on Python floats
    rng = np.random.default_rng(11)
    terms = {e: F(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
             for e in np.ndindex(7, 7)}
    p = Poly(2, terms)
    pts = rng.uniform(-3, 3, (2, 500))
    pts[:, :4] = [[0.0, -0.0, 5e-324, -1e-310], [-0.0, 0.0, -2.5, 1e-300]]
    polys = (p, p.diff(0), p.diff(1))
    got = _float_evaluator(*polys)((pts[0], pts[1]))
    for m, point in enumerate(pts.T.tolist()):
        assert np.array([g[m] for g in got]).tobytes() == \
            np.array([textbook_eval(q, point) for q in polys]).tobytes()


class TestScanOverflow:
    # F = -2 x1 + 3/5 x1 x2^3 + 8/3 x1^2 - 2 x2^4 + 9 x1^4 + 5/6 x2 on
    # (-w, w)^2: at res 16 a Newton trial step's power overflowed and the
    # trace raised OverflowError, though the window and grid are finite;
    # the exact route evaluates no power of a float
    P = (X1 * -2 + X1 * X2 * X2 * X2 * F(3, 5) + X1 * X1 * F(8, 3)
         - X2 * X2 * X2 * X2 * 2 + X1 * X1 * X1 * X1 * 9 + X2 * F(5, 6))
    W = 1.0052913682104352e26

    def window(self):
        return (-self.W, self.W, -self.W, self.W)

    def test_overflowing_trial_step_is_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = trace_variety(system_of(self.P), self.window(), 16)
        assert tr.polylines
        assert_candidates_are_singular(self.P, tr)

    @pytest.mark.parametrize("res", [5, 9])
    def test_coarser_grids_match_textbook_bitwise(self, res):
        sys = system_of(self.P)
        got = trace_variety(sys, self.window(), res)
        want = reference_trace(sys, self.window(), res,
                               got.singular_candidates)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()
        assert got.tolerance == want.tolerance
        assert_candidates_are_singular(self.P, got)


@st.composite
def polys_and_points(draw):
    """A polynomial of degree <= 4 with small rational coefficients, in 1..5
    variables of which it may leave any out (for two: x-only, y-only and
    constant ones), a point whose entries may be +0.0 or -0.0, and for two
    variables a pair of grid axes with such entries."""
    n = draw(st.integers(1, 5))
    used = [i for i in range(n) if draw(st.booleans())]
    # a monomial as the list of its variables, repeats allowed
    monomial = st.lists(st.sampled_from(used), max_size=4) if used \
        else st.just([])
    exponent = monomial.map(lambda vs: tuple(map(vs.count, range(n))))
    coef = st.builds(F, st.integers(-9, 9), st.integers(1, 8))
    terms = draw(st.dictionaries(exponent, coef, max_size=8))
    entry = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    point = draw(st.lists(entry, min_size=n, max_size=n))
    axes = None
    if n == 2:
        axis = st.lists(entry, min_size=1, max_size=6)
        axes = (np.array(draw(axis)), np.array(draw(axis)))
    return Poly(n, terms), point, axes


@settings(max_examples=300, deadline=None)
@given(case=polys_and_points())
def test_float_evaluator_matches_textbook_bitwise(case):
    p, x, axes = case
    evaluate = _float_evaluator(p)
    # a power k >= 2 is np.float_power's np.float64, even on Python floats
    powered = any(k > 1 for e in p.terms for k in e)
    for point in (tuple(x), [np.float64(v) for v in x]):
        want = textbook_eval(p, point)
        for got in (evaluate(point), p.eval_float(point)):
            assert type(got) is (np.float64 if powered else type(want))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if axes is not None:
        # per-axis grid: the result broadcasts to the meshgrid's values
        xs, ys = axes
        want = textbook_grid_eval(p, xs, ys)
        got = np.broadcast_to(evaluate((xs[None, :], ys[:, None])),
                              want.shape)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("degree", [3, 4])
def test_grid_nodes_have_the_bits_of_the_point_alone(degree):
    # array ** rounds apart from scalar ** on some of these nodes; the
    # evaluator's C pow gives each node the bits of its point on floats
    rng = np.random.default_rng(degree)
    p = Poly(2, {(a, b): F(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                 for a in range(degree + 1) for b in range(degree + 1 - a)})
    xs, ys = np.sort(rng.uniform(-3, 3, (2, 64)), axis=1)
    evaluate = _float_evaluator(p)
    grid = evaluate((xs[None, :], ys[:, None]))
    assert grid.shape == (len(ys), len(xs))
    want = [[evaluate((x, y)) for x in xs.tolist()] for y in ys.tolist()]
    assert grid.tobytes() == np.array(want).tobytes()


def test_one_evaluator_serves_a_trace(monkeypatch):
    # the grid, the saddle centres and the bisection share F's evaluator,
    # and the singular points take none
    builds = []

    def counted(*polys):
        builds.append(polys)
        return _float_evaluator(*polys)

    monkeypatch.setattr(goh, "_float_evaluator", counted)
    p, window, res = NODAL_CUBIC[0]
    assert trace_variety(system_of(p), window, res).singular_candidates
    assert len(builds) == 1
    builds.clear()
    conic = X1 * X1 * F(5, 4) + X1 * X2 * F(1, 4) + X2 * X2 - F(5, 4)
    assert not trace_variety(system_of(conic), resolution=512) \
        .singular_candidates
    assert len(builds) == 1


def test_long_polynomial_evaluator_matches_textbook_bitwise():
    # one statement per term: a single sum of this many terms would exceed
    # the compiler's recursion limit
    rng = np.random.default_rng(5)
    terms = {e: F(int(rng.integers(1, 10)) * int(rng.choice([-1, 1])),
                  int(rng.integers(1, 9)))
             for e in np.ndindex(18, 18, 18)}
    p = Poly(3, terms)
    assert len(p.terms) >= 5000
    evaluate = _float_evaluator(p)
    for point in ((0.9, -1.1, 0.75), [np.float64(v) for v in (-0.3, 1.2, 0.5)]):
        want = textbook_eval(p, point)
        got = evaluate(point)
        assert type(got) is np.float64  # np.float_power's, on floats too
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("k", ["2", 1.5, "1\nimport os"])
def test_evaluator_rejects_a_non_integer_exponent(k):
    # exponents become literals of the generated source
    with pytest.raises(TypeError):
        _float_evaluator(Poly(2, {(k, 0): 1}))


@settings(max_examples=100, deadline=None)
@given(case=polys_and_points())
def test_several_polynomials_evaluate_as_each_alone(case):
    p, x, axes = case
    polys = (p, p.diff(0), Poly.const(p.n, F(-3, 7)), p)
    got = _float_evaluator(*polys)(tuple(x))
    assert type(got) is tuple and len(got) == len(polys)
    for q, v in zip(polys, got):
        want = _float_evaluator(q)(tuple(x))
        assert np.float64(v).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# the exact singular points

R = math.sqrt(0.5)
# F, the curve of its singular points (gcd(F / g, g), sign and scale as the
# tracer takes it), and F's other singular points, rounded
NON_SQUARE_FREE = {
    "quartic": (X1 * X1 * X1 * X1, X1, []),
    "double circle, line": (
        (X1 * X1 + X2 * X2 - 1) * (X1 * X1 + X2 * X2 - 1) * (X1 - X2),
        X1 * X1 + X2 * X2 - 1, [(-R, -R), (R, R)]),
    "x1^2 x2": (X1 * X1 * X2, X1, [(0.0, 0.0)]),
}


@pytest.mark.parametrize("res", [261, 1024])  # no grid node on x1 = 0, and
@pytest.mark.parametrize("name", sorted(NON_SQUARE_FREE))  # a column of them
def test_non_square_free_traces_its_square_free_part(name, res):
    # x1^4 used to trace nothing (F >= 0) and report 0 candidates at res 261
    # and 513 at 1024
    p, curve, isolated = NON_SQUARE_FREE[name]
    tr = trace_variety(system_of(p), resolution=res)
    assert tr.polylines
    assert all(abs(textbook_eval(p, v)) <= tr.tolerance
               for line in tr.polylines for v in line)
    # the curve is reported at both parities as the vertices of its trace
    assert tr.singular_candidates[:len(isolated)] == isolated
    points = tr.singular_candidates[len(isolated):]
    want = trace_variety(system_of(curve), resolution=res)
    assert points == [v for line in want.polylines for v in line]
    assert all(abs(textbook_eval(curve, v)) <= want.tolerance for v in points)
    if curve == X1:  # one vertex on each grid row
        assert sorted(y for _, y in points) == np.linspace(-2, 2, res + 1) \
            .tolist()


def test_non_square_free_runs_the_singular_points_once(monkeypatch):
    # the trace of gcd(q, g) was a whole trace_variety call, which found
    # that curve's singular points too and dropped them
    calls = []
    singular = goh._singular_points
    monkeypatch.setattr(goh, "_singular_points",
                        lambda *args: calls.append(args) or singular(*args))
    p = NON_SQUARE_FREE["double circle, line"][0]
    assert trace_variety(system_of(p), resolution=48).singular_candidates
    assert len(calls) == 1


@pytest.mark.parametrize("window", [(0, 1, 0, 1), (-1, 0, 0, 1), (0, 1, -1, 0),
                                    (-1, 0, -1, 0)])
@pytest.mark.parametrize("p", [X1 * X2, NODAL_CUBIC[0][0]])
def test_singular_point_on_the_window_edge_counts(p, window):
    # the node at the origin is a corner of each closed window
    tr = trace_variety(system_of(p), window, 8)
    assert tr.singular_candidates == [(0.0, 0.0)]


def test_irrational_points_above_one_y_are_found_after_a_shear():
    # above x2 = -sqrt 2 and sqrt 2 lie two singular points each, so the
    # first subresultant vanishes there until a shear sets them apart.
    # x1 (x2^2 - 2) is linear in x1, so its leading coefficient vanishes at
    # both roots until a shear.  For (x2 - 1) x1^2 + (x2^2 - 2)^2, sqrt 2's
    # isolating interval ends at x2 = 1, where s11 = 0: rounding x there
    # divides by zero, and _rounded bisects on
    r2 = math.sqrt(2)
    for p, want in [
            ((X1 * X1 - 1) * (X2 * X2 - 2),
             [(-1.0, -r2), (1.0, -r2), (-1.0, r2), (1.0, r2)]),
            (X1 * (X2 * X2 - 2), [(0.0, -r2), (0.0, r2)]),
            ((X2 - 1) * X1 * X1 + (X2 * X2 - 2) * (X2 * X2 - 2),
             [(0.0, -r2), (0.0, r2)])]:
        assert trace_variety(system_of(p), resolution=8) \
            .singular_candidates == want


def test_real_roots_are_exact_or_isolated():
    # (2y - 1)(y - 1)(y + 2)(y^2 - 2) on [-2, 1]: the ends are roots, 1/2 the
    # first midpoint, -sqrt 2 irrational
    p = [1]
    for factor in ([-1, 2], [-1, 1], [2, 1], [-2, 0, 1]):
        p = goh._mul(p, factor)
    got = goh._real_roots(p, F(-2), F(1))
    assert [r for r in got if isinstance(r, F)] == [F(-2), F(1, 2), F(1)]
    (seq, a, b), = [r for r in got if not isinstance(r, F)]
    assert got[1] == (seq, a, b) and b * b <= 2 < a * a and a < b <= 0
    assert goh._rounded((seq, a, b), lambda v: (v,)) == (-math.sqrt(2),)


def rounded(c: Fraction, sign: int, d: int) -> float:
    """c + sign sqrt(d), rounded to float once from 60 decimal digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(decimal.Decimal(c.numerator) / c.denominator
                     + sign * decimal.Decimal(d).sqrt())


def shifted_square(v: Poly, c: Fraction, d: int) -> Poly:
    return (v - c) * (v - c) - d


# the families of the exact-coordinate property, by name: (F, its singular
# points as ((c, sign, d) of x, (c, sign, d) of y)) for halves a, b and
# positive integers d, e, the cusps' e not a square
SINGULAR_FAMILIES = {
    "cusp": lambda a, b, d, e: (
        shifted_square(X2, b, e) * shifted_square(X2, b, e)
        - (X1 - a) * (X1 - a) * (X1 - a),
        [((a, 0, 0), (b, s, e)) for s in (-1, 1)]),
    "transposed cusp": lambda a, b, d, e: (
        shifted_square(X1, a, e) * shifted_square(X1, a, e)
        - (X2 - b) * (X2 - b) * (X2 - b),
        [((a, s, e), (b, 0, 0)) for s in (-1, 1)]),
    "node": lambda a, b, d, e: (
        shifted_square(X1, a, d) * (X2 - b),
        [((a, s, d), (b, 0, 0)) for s in (-1, 1)]),
    "four nodes": lambda a, b, d, e: (
        shifted_square(X1, a, d) * shifted_square(X2, b, e),
        [((a, s, d), (b, u, e)) for s in (-1, 1) for u in (-1, 1)]),
    "transposed node": lambda a, b, d, e: (
        (X1 - a) * shifted_square(X2, b, e),
        [((a, 0, 0), (b, s, e)) for s in (-1, 1)]),
}


def check_singular_family(name, a, b, d, e, window) -> None:
    p, exact = SINGULAR_FAMILIES[name](a, b, d, e)
    x0, x1, y0, y1 = window
    want = sorted((pt for pt in ((rounded(*u), rounded(*v)) for u, v in exact)
                   if x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1),
                  key=lambda pt: (pt[1], pt[0]))
    assert trace_variety(system_of(p), window, 8).singular_candidates == want


def test_a_zero_coordinate_enters_the_other_exactly():
    # above an irrational root where x = 0, y is s itself: s - t x(s) at
    # the ends of an isolating interval has a critical point at the root,
    # so both ends rounded alike, up to 5 ulps off.  y = 0 after a shear
    # gives x = s / t likewise
    r2 = math.sqrt(2)
    q = X2 * X2 - 2
    assert trace_variety(system_of(q * q - X1 * X1 * X1), resolution=8) \
        .singular_candidates == [(0.0, -r2), (0.0, r2)]
    c = (X1 - 1) * (X1 - 1) * (X1 - 1)
    assert trace_variety(system_of(q * q - X1 * X1 * X1 * c), resolution=8) \
        .singular_candidates == [(0.0, -r2), (1.0, -r2), (0.0, r2), (1.0, r2)]
    check_singular_family("cusp", F(0), F(-3, 2), 0, 6, (-2, 2, -2, 2))
    assert rounded(F(-3, 2), 1, 6) == 0.9494897427831781
    check_singular_family("transposed cusp", F(0), F(0), 0, 7, (-6, 6, -6, 6))
    assert rounded(F(0), 1, 7) == 2.6457513110645907


halves = st.integers(-6, 6).map(lambda k: F(k, 2))


@settings(max_examples=100, deadline=None)
@example(name="cusp", a=F(0), b=F(-3, 2), d=1, e=6)
@example(name="transposed cusp", a=F(0), b=F(0), d=1, e=7)
@given(name=st.sampled_from(sorted(SINGULAR_FAMILIES)), a=halves, b=halves,
       d=st.integers(1, 8), e=st.sampled_from([2, 3, 5, 6, 7, 8]))
def test_singular_points_are_the_decimal_coordinates_rounded_once(
        name, a, b, d, e):
    check_singular_family(name, a, b, d, e, (-6, 6, -6, 6))


@pytest.mark.parametrize("p, want", [
    # three branches through (0, -sqrt 2) and (0, sqrt 2): the first
    # subresultant vanishes there in every shear
    ("x1 * (x1 * x1 - q * q * 3)",
     [[0.0, -math.sqrt(2)], [0.0, math.sqrt(2)]]),
    ("x1 * x1 * x1 - x1 * x2 * x2 * 3", [[0.0, 0.0]])])
def test_a_triple_point_is_one_fibre_point(p, want):
    # a fresh process under a time bound, so a route that shears on
    # forever fails the test instead of hanging it
    code = ("import json\n"
            "from goh_atlas.goh import GohSystem, trace_variety\n"
            "from goh_atlas.polyfield import Poly\n"
            "x1, x2 = Poly.var(2, 0), Poly.var(2, 1)\n"
            "q = x2 * x2 - 2\n"
            f"sys = GohSystem(2, [0, 0, 1], {{(1, 2): {p}}})\n"
            "print(json.dumps(trace_variety(sys, resolution=16)"
            ".singular_candidates))\n")
    env = dict(os.environ)
    src = str(Path(goh.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [v for v in env.get("PYTHONPATH", "").split(os.pathsep) if v])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want


def test_points_sharing_a_fibre_are_set_apart_by_a_shear():
    # above x2 = -sqrt 2 and sqrt 2 the gcd of F and F_x1 is x1^2 - 1: its
    # mean, x1 = 0, is no point of the curve
    r2 = math.sqrt(2)
    p = (X1 * X1 - 1) * (X1 * X1 - 1) + (X2 * X2 - 2) * (X2 * X2 - 2)
    assert trace_variety(system_of(p), resolution=8).singular_candidates \
        == [(-1.0, -r2), (1.0, -r2), (-1.0, r2), (1.0, r2)]


def test_a_pole_at_an_interval_end_is_bisected_past():
    # sqrt 2's isolating interval ends at x2 = 1, where the quotient that
    # gives x1 has a pole: _rounded bisects on
    r2 = math.sqrt(2)
    p = (X2 - 1) * (X1 - 1) * (X1 - 1) + (X2 * X2 - 2) * (X2 * X2 - 2)
    assert trace_variety(system_of(p), resolution=8).singular_candidates \
        == [(1.0, -r2), (1.0, r2)]


def pool_polynomials() -> list:
    """(F, resolution) of every variety pool entry of the benchmark: the 32
    conics of f24 and the 16 cubics read from frame JSON."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import workloads
    f24, _ = realize_frame(generate_basis(2, 4))
    out = [(goh_polynomials(f24, [F(v) for v in workloads.conic_lambda(k)])
            .poly(1, 2), workloads.CONIC_RES)
           for k in range(workloads.CONIC_POOL_SIZE)]
    for k in range(workloads.CUBIC_POOL_SIZE):
        data = workloads.cubic_frame(k)
        out.append((goh_polynomials(Frame.from_json(data["frame"]), [
            F(v) for v in data["lambda"]]).poly(1, 2), workloads.CUBIC_RES))
    return out


def test_pool_singular_points_against_the_scalar_scan():
    # the damped Newton scan the exact route replaced, as a cross-check:
    # as many points, each within one cell; on the pool the route reports
    # exactly the origin for every cubic and nothing for every conic
    scans: dict = {}
    for p, res in pool_polynomials():
        tr = trace_variety(system_of(p), resolution=res)
        assert tr.singular_candidates == ([(0.0, 0.0)] if p.degree() == 3
                                          else [])
        xs = np.linspace(-2, 2, res + 1)
        if (p, res) not in scans:
            vals = textbook_grid_eval(p, xs, xs)
            scans[p, res] = reference_singular(p, xs, xs, vals, tr.tolerance)
        scan = scans[p, res]
        assert len(scan) == len(tr.singular_candidates)
        assert all(math.hypot(u - x, v - y) <= xs[1] - xs[0]
                   for (u, v), (x, y) in zip(scan, tr.singular_candidates))


def test_sigma_is_F_along_random_frames_of_the_paper():
    # On X1 = d1, X2 = d2 + sum a_j d_j, [X1, X2] = sum d1 a_j d_j and the
    # covector's entries j >= 3 stay constant, so sigma = F(x1, x2) along
    # every trajectory, with F = sum lambda_j d1 a_j.  A piecewise-linear
    # control with rational values moves x1 and x2 by the trapezoid rule,
    # exact at the nodes, and RK4's Simpson weights integrate it exactly too:
    # the float path differs from the exact one by rounding alone, a few
    # eps per step in x, which moves F by at most its gradient's bound.
    eps = np.finfo(float).eps
    ts = np.linspace(0.0, 1.0, 41)
    dts = [F(b) - F(a) for a, b in zip(ts.tolist(), ts.tolist()[1:])]
    eighths = st.builds(F, st.integers(-8, 8), st.just(8))

    # no shrinking: a failing frame is reported as drawn, at once
    @settings(max_examples=12, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @given(case=paper_frames(n_max=5), data=st.data())
    def check(case, data):
        frame, a = case
        n = frame.n
        lam = [0, 0] + data.draw(st.lists(eighths, min_size=n - 2,
                                          max_size=n - 2).filter(any))
        want = Poly.zero(2)
        for lam_j, a_j in zip(lam[2:], a):
            want = want + a_j.diff(0) * lam_j
        sys = goh_polynomials(frame, lam)
        assert sys.poly(1, 2) == want
        values = data.draw(st.lists(st.tuples(eighths, eighths),
                                    min_size=41, max_size=41))
        x = [data.draw(eighths), data.draw(eighths)]
        path = [tuple(x)]
        for dt, u, v in zip(dts, values, values[1:]):
            x = [x[k] + dt * (u[k] + v[k]) / 2 for k in range(2)]
            path.append(tuple(x))
        rep = extremal_residuals(frame, Control(ts, values), path[0] + (0,) * (
            n - 2), lam, substeps=4)
        exact = np.array([float(want.eval(pt)) for pt in path])
        top = 1 + max(abs(float(c)) for pt in path for c in pt)
        bound = 16 * 4 * 40 * eps * top * sum(
            abs(float(c)) * sum(e) * top ** sum(e) for e, c in want.terms.items())
        assert np.max(np.abs(rep.sigma[:, 0] - exact)) <= bound + 4 * eps * (
            1 + np.max(np.abs(exact)))
        # F has degree <= 3; every point its trace reports is singular
        assert_candidates_are_singular(
            want, trace_variety(sys, resolution=16))

    check()
    # outside the class (a coefficient reads x3) the reduction is refused
    x3 = Poly.var(3, 2)
    frame = Frame([PolyVec.coordinate(3, 0), PolyVec([
        Poly.zero(3), Poly.one(3), x3])], normal_form=True)
    with pytest.raises(PreconditionError):
        goh_polynomials(frame, [0, 0, 1])
