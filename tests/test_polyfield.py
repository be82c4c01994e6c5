"""Tests for exact polynomials, vector fields, flows, and growth vectors."""

import random
from fractions import Fraction

import numpy as np
import pytest

from goh_atlas.errors import NotNilpotentError
from goh_atlas.freelie import t_exp, t_log, t_mul
from goh_atlas.polyfield import (
    CompiledPolys,
    Frame,
    Poly,
    PolyVec,
    compile_jacobian,
    compile_polyvec,
    exact_flow,
    flow_map,
    growth_vector,
    heisenberg_frame,
    iterated_bracket_fields,
    lie_bracket_fields,
    martinet_frame,
    rk4_flow,
)

F = Fraction


def random_poly(rng, n, deg=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        terms[e] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly(n, terms)


def random_field(rng, n, deg=2):
    return PolyVec([random_poly(rng, n, deg) for _ in range(n)])


# poly 1 realized on R^5 with the expected normal-form coordinates; the
# bracket and growth tests below pin its structure by hand.
def f23_frame() -> Frame:
    n = 5
    x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
    half = F(1, 2)
    f1 = PolyVec.coordinate(n, 0)
    f2 = PolyVec([Poly.zero(n), Poly.one(n), x1, x1 * x1 * half, x1 * x2])
    return Frame([f1, f2], weights=(1, 1, 2, 3, 3), normal_form=True)


class TestPoly:
    def test_construction_drops_zeros(self):
        p = Poly(2, {(1, 0): F(0), (0, 1): F(3)})
        assert list(p.terms) == [(0, 1)]

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            Poly(2, {(1, 0, 0): F(1)})

    def test_arithmetic(self):
        x = Poly.var(2, 0)
        y = Poly.var(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (p - p).is_zero()
        assert -(x + y) == Poly(2, {(1, 0): -1, (0, 1): -1})
        assert x * 2 + 1 == Poly(2, {(1, 0): 2, (0, 0): 1})
        assert F(1, 2) * x == Poly(2, {(1, 0): F(1, 2)})

    def test_scalar_zero_multiplication(self):
        x = Poly.var(2, 0)
        assert (x * 0).is_zero()
        assert not (x * F(0))

    def test_diff_and_integrate(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * x * y * F(3)
        assert p.diff(0) == x * y * 6
        assert p.diff(1) == x * x * 3
        assert p.diff(0).integrate(0) == p  # no constant term lost here
        assert Poly.const(2, 5).diff(0).is_zero()

    def test_eval_exact_and_float(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * x + y * F(1, 3)
        assert p.eval([F(1, 2), F(3)]) == F(1, 4) + 1
        assert p.eval_float([0.5, 3.0]) == pytest.approx(1.25)
        assert Poly.zero(2).eval([F(1), F(2)]) == 0

    def test_compose(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        t = Poly.var(1, 0)
        p = (x + y) * (x + y)
        q = p.compose([t, t * t])
        # (t + t^2)^2 = t^2 + 2 t^3 + t^4
        assert q == Poly(1, {(2,): 1, (3,): 2, (4,): 1})

    def test_degrees(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * x * y + y
        assert p.degree() == 3
        assert p.weighted_degree((1, 2)) == 4
        assert Poly.zero(2).degree() == 0

    def test_extend_restrict(self):
        p = Poly(2, {(1, 1): F(2)})
        q = p.extend(4)
        assert q.n == 4 and q.restrict(2) == p
        bad = Poly(3, {(0, 0, 1): F(1)})
        with pytest.raises(ValueError):
            bad.restrict(2)

    def test_variables(self):
        p = Poly(3, {(1, 0, 2): F(1)})
        assert p.variables() == {0, 2}

    def test_json_roundtrip(self):
        rng = random.Random(5)
        p = random_poly(rng, 3)
        assert Poly.from_json(3, p.to_json()) == p


class TestPolyAsTensorCoefficient:
    """The word-tensor engine must accept Poly coefficients unchanged."""

    def test_product_of_group_likes(self):
        m = 2
        x = Poly.var(m, 0)
        y = Poly.var(m, 1)
        a = {(1,): x}
        b = {(2,): y}
        one = Poly.one(m)
        g = t_mul(t_exp(a, 2, one), t_exp(b, 2, one), 2)
        assert g[(1, 2)] == x * y
        assert (1, 1) in g and g[(1, 1)] == x * x * F(1, 2)

    def test_log_exp_roundtrip(self):
        m = 2
        x = Poly.var(m, 0)
        y = Poly.var(m, 1)
        a = {(1,): x, (2,): y - x * 3, (1, 2): x * y}
        one = Poly.one(m)
        back = t_log(t_exp(a, 3, one), 3, one)
        assert all(not (back[w] - a.get(w, Poly.zero(m))) for w in back)
        assert set(a) <= set(back) or all(bool(c) for c in a.values())


class TestPolyVecAndBracket:
    def test_coordinate_and_arithmetic(self):
        v = PolyVec.coordinate(3, 1)
        w = PolyVec.coordinate(3, 2)
        s = v + w * F(2)
        assert s.eval([F(0)] * 3) == [0, 1, 2]
        assert (s - s).is_zero()

    def test_heisenberg_bracket(self):
        fr = heisenberg_frame()
        b = lie_bracket_fields(fr.fields[0], fr.fields[1])
        assert b == PolyVec.coordinate(3, 2)

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(11)
        x, y, z = (random_field(rng, 3) for _ in range(3))
        assert (lie_bracket_fields(x, y) + lie_bracket_fields(y, x)).is_zero()
        jac = (
            lie_bracket_fields(x, lie_bracket_fields(y, z))
            + lie_bracket_fields(y, lie_bracket_fields(z, x))
            + lie_bracket_fields(z, lie_bracket_fields(x, y))
        )
        assert jac.is_zero()

    def test_f23_iterated_brackets(self):
        fr = f23_frame()
        x12 = iterated_bracket_fields(fr, (1, 2))
        x1 = Poly.var(5, 0)
        x2 = Poly.var(5, 1)
        assert x12 == PolyVec(
            [Poly.zero(5), Poly.zero(5), Poly.one(5), x1, x2])
        assert iterated_bracket_fields(fr, (1, 1, 2)) == PolyVec.coordinate(5, 3)
        assert iterated_bracket_fields(fr, (2, 1, 2)) == PolyVec.coordinate(5, 4)
        # depth 4 brackets vanish: the frame is step 3
        assert iterated_bracket_fields(fr, (1, 2, 1, 2)).is_zero()

    def test_iterated_bracket_validation(self):
        fr = heisenberg_frame()
        with pytest.raises(ValueError):
            iterated_bracket_fields(fr, ())
        with pytest.raises(ValueError):
            iterated_bracket_fields(fr, (1, 3))


class TestExactFlow:
    def test_heisenberg_second_field(self):
        fr = heisenberg_frame()
        a = F(3, 7)
        t = F(5, 2)
        assert exact_flow(fr.fields[1], [a, 0, 0], t) == [a, t, a * t]

    def test_heisenberg_first_field(self):
        fr = heisenberg_frame()
        assert exact_flow(fr.fields[0], [F(1), F(2), F(3)], F(4)) == [5, 2, 3]

    def test_martinet_second_field(self):
        fr = martinet_frame()
        a, b, c, t = F(2), F(-1), F(1, 3), F(3, 2)
        got = exact_flow(fr.fields[1], [a, b, c], t)
        assert got == [a, b + t, c + a * a * t / 2]

    def test_triangular_quadratic(self):
        # xdot1 = x2^2, xdot2 = 0
        f = PolyVec([Poly(2, {(0, 2): F(1)}), Poly.zero(2)])
        assert exact_flow(f, [F(1), F(2)], F(3)) == [13, 2]

    def test_flow_semigroup(self):
        fr = f23_frame()
        v = fr.fields[0] + fr.fields[1] * F(2, 3)
        x0 = [F(1, 2), F(-1), F(0), F(2), F(1, 5)]
        s, t = F(1, 3), F(3, 4)
        mid = exact_flow(v, x0, s)
        assert exact_flow(v, mid, t) == exact_flow(v, x0, s + t)

    def test_time_polynomial_structure(self):
        fr = heisenberg_frame()
        phi = flow_map(fr.fields[1])
        # third coordinate of the flow is x3 + x1 t
        assert phi[2] == Poly(4, {(0, 0, 1, 0): F(1), (1, 0, 0, 1): F(1)})

    def test_not_nilpotent(self):
        f = PolyVec([Poly.var(1, 0)])  # xdot = x
        with pytest.raises(NotNilpotentError):
            exact_flow(f, [F(1)], F(1))

    def test_rk4_matches_exact(self):
        fr = martinet_frame()
        v = fr.fields[0] * F(1, 2) + fr.fields[1]
        x0 = [F(1, 3), F(0), F(1)]
        t = F(7, 8)
        want = np.array([float(c) for c in exact_flow(v, x0, t)])
        got = rk4_flow(v, [float(c) for c in x0], float(t), steps=64)
        assert np.max(np.abs(got - want)) < 1e-12


class TestGrowthVector:
    def test_heisenberg(self):
        fr = heisenberg_frame()
        assert growth_vector(fr, [0, 0, 0], 2) == [2, 3]
        assert growth_vector(fr, [0, 0, 0], 3) == [2, 3, 3]

    def test_martinet_origin_vs_generic(self):
        fr = martinet_frame()
        assert growth_vector(fr, [0, 0, 0], 3) == [2, 2, 3]
        assert growth_vector(fr, [F(1), 0, 0], 2) == [2, 3]

    def test_f23(self):
        fr = f23_frame()
        assert growth_vector(fr, [0] * 5, 3) == [2, 3, 5]

    def test_point_dependence_uses_exact_rank(self):
        # rank drop only on the line x1 = 0 must be seen exactly
        fr = martinet_frame()
        tiny = [F(1, 10**12), 0, 0]
        assert growth_vector(fr, tiny, 2) == [2, 3]
        assert growth_vector(fr, [0, F(5), F(-2)], 2) == [2, 2]


class TestCompiledEvaluators:
    def test_matches_eval_float(self):
        rng = random.Random(23)
        polys = [random_poly(rng, 4, deg=3, nterms=6) for _ in range(5)]
        ev = CompiledPolys(polys)
        for _ in range(20):
            x = np.array([rng.uniform(-2, 2) for _ in range(4)])
            want = np.array([p.eval_float(x) for p in polys])
            assert np.max(np.abs(ev(x) - want)) < 1e-10

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_batch_rows_are_the_single_point_bits(self, count):
        # more rows than one evaluation block, signed zeros among the points
        rng = random.Random(41)
        polys = [random_poly(rng, 4, deg=3, nterms=6) for _ in range(count)]
        ev = CompiledPolys(polys)
        pts = np.random.default_rng(41).uniform(-2.0, 2.0, size=(300, 4))
        pts[::7, 1] = -0.0
        got = ev(pts)
        want = np.array([ev(x) for x in pts])
        assert got.shape == (300, count) == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert ev(pts[:0]).shape == (0, count)

    def test_constants_and_zero(self):
        ev = CompiledPolys([Poly.const(3, F(7, 2)), Poly.zero(3)])
        out = ev(np.zeros(3))
        assert out[0] == pytest.approx(3.5) and out[1] == 0.0

    def test_compiled_field(self):
        fr = martinet_frame()
        f = compile_polyvec(fr.fields[1])
        x = np.array([2.0, 5.0, -1.0])
        assert np.allclose(f(x), [0.0, 1.0, 2.0])

    def test_compiled_jacobian(self):
        fr = martinet_frame()
        jf = compile_jacobian(fr.fields[1])
        x = np.array([3.0, 0.5, 0.0])
        want = np.zeros((3, 3))
        want[2, 0] = 3.0  # d/dx1 of x1^2/2
        assert np.allclose(jf(x), want)


class TestFrameJson:
    def test_roundtrip(self):
        fr = f23_frame()
        data = fr.to_json()
        assert data["schema"] == "goh-atlas/1"
        assert data["n"] == 5 and data["r"] == 2
        back = Frame.from_json(data)
        assert back.fields == fr.fields
        assert back.weights == fr.weights
        assert back.normal_form

    def test_field_entries_are_term_lists(self):
        data = martinet_frame().to_json()
        term = data["fields"][1][2][0]
        assert term["exp"] == [2, 0, 0] and term["coef"] == "1/2"

    def test_labels_roundtrip(self):
        fr = Frame(
            [PolyVec.coordinate(2, 0), PolyVec.coordinate(2, 1)],
            labels=((1,), (2,)),
        )
        back = Frame.from_json(fr.to_json())
        assert back.labels == ((1,), (2,))
