"""Tests for exact polynomials, vector fields, flows, and growth vectors."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goh_atlas import floateval, polyfield, trajectories
from goh_atlas.freelie import generate_basis, t_exp, t_log, t_mul
from goh_atlas.normalform import realize_frame
from goh_atlas.floateval import CompiledPolys
from goh_atlas.polyfield import (
    Frame,
    Poly,
    PolyVec,
    compile_polyvec,
    growth_vector,
    heisenberg_frame,
    lie_bracket_fields,
    martinet_frame,
)
from goh_atlas.trajectories import flow_control, lift_control, spiral_curve
from lie_helpers import (
    NotNilpotentError,
    TextbookCompiledPolys,
    assert_same_bits,
    compose,
    exact_flow,
    extend,
    f23_frame,
    flow_map,
    integrate,
    iterated_bracket_fields,
    reference_growth_vector,
    textbook_add,
    textbook_compose,
    textbook_mul,
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
        assert integrate(p.diff(0), 0) == p  # no constant term lost here
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
        q = compose(p, [t, t * t])
        # (t + t^2)^2 = t^2 + 2 t^3 + t^4
        assert q == Poly(1, {(2,): 1, (3,): 2, (4,): 1})

    def test_degrees(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * x * y + y
        assert p.degree() == 3
        assert Poly.zero(2).degree() == 0

    def test_extend_restrict(self):
        p = Poly(2, {(1, 1): F(2)})
        q = extend(p, 4)
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


@pytest.mark.parametrize("point", [[F(1)], [F(1), F(2), F(3)], ()])
def test_poly_and_field_eval_refuse_a_point_of_the_wrong_length(point):
    # variables that do not occur were never read, so a short or long point
    # gave a value
    x = Poly.var(2, 0)
    with pytest.raises(ValueError, match=re.escape(
            f"point has {len(point)} coordinates; the polynomial lives on "
            "R^2, so it needs n = 2")):
        (x * x).eval(point)
    with pytest.raises(ValueError, match=re.escape(
            f"point has {len(point)} coordinates; the field lives on "
            "R^2, so it needs n = 2")):
        PolyVec([x, Poly.one(2)]).eval(point)


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

    @pytest.mark.parametrize("start", [[0, 0, 0, 5], [0, 0], []])
    def test_start_of_the_wrong_length_is_refused(self, start):
        # [0, 0, 0, 5] gave [0, 5, 0]: the extra entry was read as the time
        with pytest.raises(ValueError, match=re.escape(
                f"point has {len(start)} coordinates; the field lives on "
                "R^3, so it needs n = 3")):
            exact_flow(heisenberg_frame().fields[1], start, F(1))

    def test_rk4_matches_exact(self):
        fr = martinet_frame()
        v = fr.fields[0] * F(1, 2) + fr.fields[1]
        x0 = [F(1, 3), F(0), F(1)]
        t = F(7, 8)
        want = np.array([float(c) for c in exact_flow(v, x0, t)])
        # v is the martinet drift of the constant control (1/2, 1)
        got = flow_control(fr, lambda _: (0.5, 1.0), [float(c) for c in x0],
                           substeps=64, ts=(0.0, float(t))).points[-1]
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

    @pytest.mark.parametrize("point", [[0, 0], [0, 0, 0, 0], []])
    def test_point_of_the_wrong_length_is_refused(self, point):
        # a point shorter or longer than n was read where its variables are
        with pytest.raises(ValueError, match=re.escape(
                f"point has {len(point)} coordinates; the frame lives on "
                "R^3, so it needs n = 3")):
            growth_vector(heisenberg_frame(), point, 2)

    @pytest.mark.parametrize("depth", [True, False, 2.0, "2", None])
    def test_depth_that_is_not_an_integer_is_refused(self, depth):
        with pytest.raises(TypeError, match="depth must be an integer"):
            growth_vector(heisenberg_frame(), [0, 0, 0], depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_refused(self, depth):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            growth_vector(heisenberg_frame(), [0, 0, 0], depth)

    def test_numpy_integer_depth_is_an_integer(self):
        assert growth_vector(heisenberg_frame(), [0, 0, 0], np.int64(3)) == \
            [2, 3, 3]

    @pytest.mark.parametrize("rank, step", [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4)])
    def test_realized_frames_match_the_right_nested_reference(self, rank,
                                                               step):
        frame, _ = realize_frame(generate_basis(rank, step))
        rng = random.Random(f"{rank}/{step}")
        generic = [F(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(frame.n)]
        for point in ([0] * frame.n, generic):
            want = reference_growth_vector(frame, point, step + 1)
            assert growth_vector(frame, point, step + 1) == want
            assert want[-2:] == [frame.n, frame.n]

    @pytest.mark.parametrize("frame", [heisenberg_frame(), martinet_frame()],
                             ids=["heisenberg", "martinet"])
    def test_classic_frames_match_the_right_nested_reference(self, frame):
        for point in ([0, 0, 0], [F(1), 0, 0], [F(-2, 3), F(5), F(1, 7)]):
            for depth in range(1, 5):
                assert growth_vector(frame, point, depth) == \
                    reference_growth_vector(frame, point, depth)


@st.composite
def growth_cases(draw):
    """A frame of 1 to 3 sparse polynomial fields of degree <= 2 on R^n,
    n <= 6, a depth 1..5, and the origin or a rational point."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 3))
    monomials = st.lists(st.integers(0, n - 1), max_size=2).map(
        lambda vs: tuple(vs.count(i) for i in range(n)))
    coefs = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    fields = [PolyVec([Poly(n, draw(st.dictionaries(monomials, coefs,
                                                    max_size=2)))
                       for _ in range(n)]) for _ in range(r)]
    depth = draw(st.integers(1, 5))
    point = draw(st.just([0] * n) | st.lists(
        st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
        min_size=n, max_size=n))
    return Frame(fields), point, depth


@settings(max_examples=150, deadline=None)
@given(case=growth_cases())
def test_growth_vector_matches_the_right_nested_reference(case):
    frame, point, depth = case
    assert growth_vector(frame, point, depth) == \
        reference_growth_vector(frame, point, depth)


def each_alone(polys):
    """x -> [p(x) for p in polys], each p by its own float evaluator."""
    evaluators = [floateval._float_evaluator(p) for p in polys]
    return lambda x: [evaluate(x) for evaluate in evaluators]


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

    @pytest.mark.parametrize("build", [CompiledPolys, each_alone],
                             ids=["compiled", "generated"])
    def test_coefficient_too_large_for_a_float_names_its_term(self, build):
        # float(c) was a bare OverflowError; a tiny one still rounds to 0.0
        huge = Poly(3, {(0, 0, 0): 1, (1, 0, 2): F(10 ** 400, 3)})
        with pytest.raises(ValueError, match=re.escape(
                "the coefficient of the term (1, 0, 2) is too large for a "
                "float")):
            build([Poly.var(3, 0), huge])
        tiny = Poly(3, {(1, 0, 0): F(1, 10 ** 400)})
        assert build([tiny, tiny])(np.ones(3))[0] == 0.0

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
        comps = martinet_frame().fields[1].comps
        jf = CompiledPolys([p.diff(i) for p in comps for i in range(3)])
        x = np.array([3.0, 0.5, 0.0])
        want = np.zeros((3, 3))
        want[2, 0] = 3.0  # d/dx1 of x1^2/2
        assert np.allclose(jf(x).reshape(3, 3), want)


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

    def test_false_normal_form_claim_is_rejected(self):
        data = heisenberg_frame().to_json()
        data["fields"].reverse()  # X_1 and X_2 swapped
        with pytest.raises(ValueError, match="^field 1, component 1: not the "
                           "normal form that normal_form claims$"):
            Frame.from_json(data)
        del data["normal_form"]
        assert not Frame.from_json(data).normal_form


# ---------------------------------------------------------------------------
# Poly * and + against the textbook tuple-and-Fraction loops, term order
# included: float evaluators sum terms in dict order.

# exponents on both sides of every field width, so a wrong width carries
WIDE_EXPONENTS = st.one_of(
    st.integers(0, 3), st.integers(100, 160), st.integers(250, 260),
    st.integers(65530, 65540), st.integers(2**32 - 3, 2**32 + 3),
    st.integers(2**62 - 3, 2**62 + 3))
WIDE_COEFS = st.builds(
    F, st.integers(-3, 3),
    st.one_of(st.integers(1, 4), st.integers(-4, -1),
              st.integers(10**20, 10**30), st.integers(-10**30, -10**20)))


@st.composite
def poly_pairs(draw):
    """Two polys on R^n, n = 0..3; small ones cancel often."""
    n = draw(st.integers(0, 3))
    small = draw(st.booleans())
    exps = st.integers(0, 2) if small else WIDE_EXPONENTS
    coefs = st.sampled_from([F(1), F(-1), F(1, 2)]) if small else WIDE_COEFS

    def poly():
        terms = draw(st.lists(st.tuples(st.tuples(*[exps] * n), coefs),
                              max_size=6))
        return Poly(n, dict(terms))

    return poly(), poly()


@settings(max_examples=400, deadline=None)
@given(pair=poly_pairs())
def test_product_and_sum_match_textbook_term_for_term(pair):
    p, q = pair
    for a, b in ((p, q), (q, p), (p, p)):
        prod = list((a * b).terms.items())
        assert prod == textbook_mul(a, b)
        assert all(type(k) is int for e, _ in prod for k in e)
        assert all(type(c) is Fraction for _, c in prod)
        assert list((a + b).terms.items()) == textbook_add(a, b)
        assert list((a - b).terms.items()) == textbook_add(a, -b)


def test_product_cancelling_mid_loop_reinserts_at_the_end():
    # (1 + x + x^2)(x^2 - x + 1): the x^2 sum hits zero at the fifth pair
    # and comes back at the ninth, after x^0 and x^4
    p = Poly(1, {(0,): 1, (1,): 1, (2,): 1})
    q = Poly(1, {(2,): 1, (1,): -1, (0,): 1})
    got = list((p * q).terms.items())
    assert got == [((0,), 1), ((4,), 1), ((2,), 1)]
    assert got == textbook_mul(p, q)


@pytest.mark.parametrize("top", [255, 256, 65535, 65536, 2**32 - 1, 2**32,
                                 2**63 - 1])
def test_product_exponents_at_field_boundaries(top):
    # x0^top * x0 crosses into the next width; a carry would bump x1
    p = Poly(2, {(top, 0): F(3, 7), (1, 2): F(-1, 2)})
    q = Poly(2, {(1, 0): F(5, 3), (0, 1): F(1, 10**30)})
    assert list((p * q).terms.items()) == textbook_mul(p, q)
    assert list((q * p).terms.items()) == textbook_mul(q, p)


def test_product_edge_shapes():
    zero, one0 = Poly.zero(3), Poly.const(0, F(-2, 3))
    assert (zero * Poly.var(3, 1)).terms == {}
    assert (Poly.var(3, 1) * zero).terms == {}
    assert list((one0 * one0).terms.items()) == [((), F(4, 9))]
    x = Poly(1, {(1,): F(1, -6)})
    assert list((x * x).terms.items()) == [((2,), F(1, 36))]


def test_product_rejects_exponents_it_cannot_pack():
    big = Poly(1, {(2**63,): 1})
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises((OverflowError, ValueError)):
        Poly(2, {(-1, 0): 1}) * Poly.var(2, 0)


@pytest.mark.parametrize("bad", [(-1, 0), (1.5, 0), (300, -2), (0, 2.0)])
def test_product_names_a_bad_exponent(bad):
    p, x = Poly(2, {bad: 1, (1, 1): 2}), Poly.var(2, 0)
    for product in (lambda: p * x, lambda: x * p):
        with pytest.raises(ValueError, match=re.escape(f"exponent {bad!r}")):
            product()


# exponent entries on both sides of the one-byte top bit and field limit
BYTE_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(62, 66),
                           st.integers(125, 130), st.integers(253, 258))
SMALL_COEFS = st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 4)])


@st.composite
def compose_cases(draw):
    """p on R^n with small exponents and n values on R^m whose entries
    cross 127/128 and 255/256; values repeat often, so terms cancel."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def poly(k, exps, size):
        return Poly(k, dict(draw(st.lists(
            st.tuples(st.tuples(*[exps] * k), SMALL_COEFS), max_size=size))))

    pool = [poly(m, BYTE_EXPONENTS, 3) for _ in range(2)]
    values = [pool[draw(st.integers(0, 1))] for _ in range(n)]
    return poly(n, st.integers(0, 3), 4), values


@settings(max_examples=200, deadline=None)
@given(case=compose_cases())
def test_compose_matches_textbook_term_for_term(case):
    p, values = case
    got = compose(p, values)
    assert list(got.terms.items()) == \
        list(textbook_compose(p, values).terms.items())
    assert all(type(k) is int for e in got.terms for k in e)


def test_compose_cancels_and_reinserts_like_the_textbook():
    # x0 - x1 + 3 x0^2 at x0 = x1 = v: the linear terms cancel to an empty
    # sum, then 3 v^2 enters in the term order of v^2
    v = Poly(2, {(0, 0): 1, (128, 0): F(1, 2), (0, 255): -1})
    p = Poly(2, {(1, 0): 1, (0, 1): -1, (2, 0): 3})
    got = compose(p, [v, v])
    assert got == v * v * 3
    assert list(got.terms.items()) == \
        list(textbook_compose(p, [v, v]).terms.items())


def test_compose_multiplies_a_terms_powers_in_variable_order():
    # u v and v u have the same terms in different orders
    u, v = Poly(1, {(0,): 1, (1,): 1}), Poly(1, {(0,): 1, (2,): 1})
    p = Poly(2, {(1, 1): 1})
    got = list(compose(p, [u, v]).terms.items())
    assert got == list(textbook_compose(p, [u, v]).terms.items())
    assert got != list((v * u).terms.items())


def test_compose_ring_holds_the_weighted_exponent_sum():
    # each top is one byte, the substituted exponents are not
    v = Poly(1, {(200,): 1, (1,): 1})
    p = Poly(2, {(2, 1): 1})
    assert compose(p, [v, v]) == v * v * v
    assert compose(Poly(1, {(3,): 2}), [Poly(1, {(2**62,): 1})]) == \
        Poly(1, {(3 * 2**62,): 2})
    with pytest.raises(OverflowError, match="does not fit in 64 bits"):
        compose(Poly(1, {(4,): 1}), [Poly(1, {(2**62,): 1})])
    # the value of a variable that does not occur is not packed
    huge = Poly(1, {(2**70,): 1})
    assert compose(Poly(2, {(0, 3): 1}), [huge, v]) == v * v * v


def test_compose_builds_high_powers_without_recursion():
    x = Poly.var(1, 0)
    assert compose(Poly(1, {(1200,): 1}), [x]) == Poly(1, {(1200,): 1})
    assert compose(Poly(2, {(0, 1500): 2}), [x, x * 3]) == \
        Poly(1, {(1500,): 2 * F(3) ** 1500})


@pytest.mark.parametrize("e", [(-1,), (0.5,)])
def test_compose_rejects_a_bad_exponent_of_the_composed_poly(e):
    with pytest.raises(ValueError, match=rf"^exponent \({e[0]},\) has "
                       rf"entry {e[0]}; exponents must be non-negative"):
        compose(Poly(1, {e: 1}), [Poly.var(1, 0)])


@pytest.mark.parametrize("values,bad", [
    ([Poly.var(3, 0), Poly.var(2, 1)], "value 1 has ambient dimension 2, "
     "value 0 has 3"),
    ([Poly.var(2, 0), Poly.var(3, 1)], "value 1 has ambient dimension 3, "
     "value 0 has 2"),
])
def test_compose_rejects_values_on_different_spaces(values, bad):
    with pytest.raises(ValueError, match=f"^{bad}$"):
        compose(Poly(2, {(1, 0): 1}), values)
    with pytest.raises(ValueError, match="^value 2 has ambient dimension 1"):
        compose(Poly(3, {(0, 0, 1): 1}), values[:1] * 2 + [Poly.var(1, 0)])


# ---------------------------------------------------------------------------
# ring and derivation laws, as exact values

@st.composite
def poly_lists(draw, count, exps=BYTE_EXPONENTS):
    n = draw(st.integers(1, 3))
    coefs = SMALL_COEFS | st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    return [Poly(n, dict(draw(st.lists(st.tuples(st.tuples(*[exps] * n),
                                                 coefs), max_size=4))))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(polys=poly_lists(3))
def test_poly_ring_laws(polys):
    p, q, r = polys
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@settings(max_examples=150, deadline=None)
@given(polys=poly_lists(2), data=st.data())
def test_diff_is_a_derivation_and_undoes_integrate(polys, data):
    p, q = polys
    i = data.draw(st.integers(0, p.n - 1))
    assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)
    assert (p + q).diff(i) == p.diff(i) + q.diff(i)
    assert integrate(p, i).diff(i) == p


@settings(max_examples=100, deadline=None)
@given(polys=poly_lists(4, st.integers(0, 3)))
def test_compose_chain_rule(polys):
    # d_j (p o v) = sum_i (d_i p o v) * d_j v_i, with p, v_1 .. v_n on R^n
    p, values = polys[0], polys[1:1 + polys[0].n]
    composed = compose(p, values)
    for j in range(p.n):
        chain_sum = Poly.zero(p.n)
        for i, v in enumerate(values):
            chain_sum = chain_sum + compose(p.diff(i), values) * v.diff(j)
        assert composed.diff(j) == chain_sum


def textbook_bracket_fields(x, y):
    """[X, Y] differentiating every component by every variable."""
    n = x.n
    out = []
    for j in range(n):
        acc = Poly.zero(n)
        for i in range(n):
            if x.comps[i]:
                d = y.comps[j].diff(i)
                if d:
                    acc = acc + x.comps[i] * d
            if y.comps[i]:
                d = x.comps[j].diff(i)
                if d:
                    acc = acc - y.comps[i] * d
        out.append(acc)
    return out


def test_bracket_fields_keep_the_textbook_term_order():
    rng = random.Random(17)
    for n in (1, 3, 5):
        for _ in range(10):
            x, y = random_field(rng, n), random_field(rng, n)
            want = textbook_bracket_fields(x, y)
            got = lie_bracket_fields(x, y)
            assert [list(p.terms.items()) for p in got.comps] == \
                [list(p.terms.items()) for p in want]


class TestJsonExponents:
    def frame_data(self, exp):
        fr = heisenberg_frame().to_json()
        fr["fields"][1][2][0]["exp"] = exp
        return fr

    @pytest.mark.parametrize("exp", [
        [-1, 0, 0], [1, 0], [1, 0, 0, 0], [1.5, 0, 0], [1.0, 0, 0],
        [True, 0, 0], ["1", 0, 0], None, 3])
    def test_bad_exponents_are_located(self, exp):
        with pytest.raises(ValueError, match=r"^field 2, component 3, term 1: "
                           r"exponent .* is not a list of 3 non-negative "
                           r"integers$"):
            Frame.from_json(self.frame_data(exp))

    def test_poly_and_polyvec_name_term_and_component(self):
        with pytest.raises(ValueError, match="^term 2: exponent"):
            Poly.from_json(2, [{"exp": [0, 1], "coef": "1"},
                               {"exp": [0, -2], "coef": "1"}])
        with pytest.raises(ValueError, match="^component 1, term 1: "):
            PolyVec.from_json(1, [[{"exp": [False], "coef": "1"}]])

    @pytest.mark.parametrize("coef", ["1/0", "x", None])
    def test_bad_coefficients_are_located(self, coef):
        fr = self.frame_data([1, 0, 0])
        fr["fields"][1][2][0]["coef"] = coef
        with pytest.raises(ValueError, match=r"^field 2, component 3, term 1: "
                           r"coefficient .* is not a rational number$"):
            Frame.from_json(fr)

    def test_good_exponents_still_load(self):
        back = Frame.from_json(self.frame_data([1, 0, 0]))
        assert back.fields == heisenberg_frame().fields


# ---------------------------------------------------------------------------
# CompiledPolys against the term-by-term evaluator it replaced, bit for bit

COORDS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, -1.0]))
EVAL_COEFS = st.one_of(st.fractions(-9, 9, max_denominator=7),
                       st.builds(F, st.floats(-1e3, 1e3)))


@st.composite
def evaluator_cases(draw):
    """Polynomials on R^n (n = 1..6) drawn from one small monomial pool,
    so monomials repeat across outputs, with zero and constant ones among
    them; and a single point or a batch of 0..20 rows."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 7)] * n),
                         min_size=1, max_size=8)) + [(0,) * n]
    polys = [Poly(n, terms) for terms in draw(st.lists(
        st.dictionaries(st.sampled_from(pool), EVAL_COEFS, max_size=6),
        max_size=6))]
    point = st.lists(COORDS, min_size=n, max_size=n)
    if draw(st.booleans()):
        return polys, np.array(draw(point))
    return polys, np.array(draw(st.lists(point, max_size=20))).reshape(-1, n)


@settings(max_examples=300, deadline=None)
@given(case=evaluator_cases())
def test_compiled_polys_match_textbook_bitwise(case):
    polys, pts = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floateval, "EVAL_ROWS", 7)  # a 20-row batch is 3 blocks
        assert_same_bits(CompiledPolys(polys)(pts),
                         TextbookCompiledPolys(polys)(pts))


def test_compiled_polys_edge_shapes_match_textbook_bitwise():
    n = 3
    polys = [Poly.zero(n), Poly.const(n, F(-1, 3)),
             Poly(n, {(2, 0, 7): F(1, 3), (0, 0, 0): F(5)})]
    for pts in (np.array([-0.0, 0.0, -0.0]), np.zeros((0, n)),
                np.full((9, n), -0.0)):
        assert_same_bits(CompiledPolys(polys)(pts),
                         TextbookCompiledPolys(polys)(pts))
        assert_same_bits(CompiledPolys([])(pts), TextbookCompiledPolys([])(pts))


@pytest.fixture(scope="module")
def f27_stage_states():
    """The f27 frame and the 1 996 RK4 stage states of a 500-node spiral."""
    frame, _ = realize_frame(generate_basis(2, 7))
    spiral = spiral_curve(0.05, 499)
    x0 = [*spiral.points[0], *[0.0] * (frame.n - 2)]
    _, windows = trajectories._windows(frame, lift_control(spiral), x0, 1,
                                       None)
    return frame, np.concatenate([w.stages.reshape(-1, frame.n)
                                  for w in windows])


def test_f27_trajectory_evaluators_match_textbook_bitwise(f27_stage_states):
    # the Jacobian pattern and the dependency levels, as the integrators
    # compile them, at every stage state and at single points
    frame, pts = f27_stage_states
    assert pts.shape == (1996, 41)
    deps = trajectories._dependencies(frame)
    pattern = [(j, i) for j, d in enumerate(deps) for i in d]
    groups = [[f.comps[j].diff(i) for j, i in pattern] for f in frame.fields]
    groups += [[f.comps[j] for j in cols] for f in frame.fields
               for cols in trajectories._levels(deps)]
    for polys in groups:
        ev, ref = CompiledPolys(polys), TextbookCompiledPolys(polys)
        assert_same_bits(ev(pts), ref(pts))
        for x in pts[::401]:
            assert_same_bits(ev(x), ref(x))


# ---------------------------------------------------------------------------
# the packed coefficient ring of the realization

def packed(ring, p):
    """The _Packed of a Poly, its terms in the same order."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return polyfield._Packed(
        {sum(k << s for k, s in zip(e, ring.shifts)):
         c.numerator * (den // c.denominator) for e, c in p.terms.items()},
        den, max((max(e) for e in p.terms), default=0), ring)


PACKED_COEFS = st.builds(F, st.integers(-3, 3), st.integers(1, 6))
PACKED_OPS = ("add", "sub", "neg", "mul", "scale", "rscale", "minus_one")


@st.composite
def packed_programs(draw):
    """Two Polys on R^n and a few ring operations on a growing pool; small
    ones cancel often."""
    n = draw(st.integers(1, 3))
    small = draw(st.booleans())
    exps = st.integers(0, 1) if small else st.integers(0, 3)
    coefs = st.sampled_from([F(1), F(-1), F(1, 2)]) if small \
        else PACKED_COEFS
    terms = st.lists(st.tuples(st.tuples(*[exps] * n), coefs), max_size=5)
    pool = [Poly(n, dict(draw(terms))) for _ in range(2)]
    ops = draw(st.lists(st.tuples(st.sampled_from(PACKED_OPS),
                                  st.integers(0, 99), st.integers(0, 99),
                                  PACKED_COEFS | st.integers(-2, 2)),
                        max_size=6))
    return n, pool, ops


@settings(max_examples=300, deadline=None)
@given(program=packed_programs())
def test_packed_ring_matches_poly_term_for_term(program):
    # sums and products against the textbook ones, not Poly's, which share
    # the product loop with the packed ring
    n, pool, ops = program
    ring = polyfield._Ring(n, 255)
    pairs = [(p, packed(ring, p)) for p in pool]
    both_ways = [(op, i, 1 - i, 1) for op in ("mul", "add", "sub")
                 for i in (0, 1)] + [("mul", i, i, 1) for i in (0, 1)]
    for op, i, j, c in both_ways + ops:
        (a, pa), (b, pb) = pairs[i % len(pairs)], pairs[j % len(pairs)]
        got = {"add": lambda: (Poly(n, dict(textbook_add(a, b))), pa + pb),
               "sub": lambda: (Poly(n, dict(textbook_add(a, -b))), pa - pb),
               "neg": lambda: (-a, -pa),
               "mul": lambda: (Poly(n, dict(textbook_mul(a, b))), pa * pb),
               "scale": lambda: (a * c, pa * c),
               "rscale": lambda: (c * a, c * pa),
               "minus_one": lambda: (a - 1, pa - 1)}[op]()
        pairs.append(got)
    for p, pp in pairs:
        assert bool(pp) == bool(p)
        assert list(pp.to_poly().terms.items()) == list(p.terms.items())
        assert math.gcd(pp.den, *pp.terms.values()) == 1 and pp.den > 0
        assert all(k <= pp.top for e in p.terms for k in e)


@st.composite
def packed_den_pairs(draw):
    """Two Polys on R^n whose packed denominators are equal, one dividing
    the other, or coprime; each has a term with coefficient 1/den, so den
    is exactly its packed denominator."""
    n = draw(st.integers(1, 3))
    how = draw(st.sampled_from(["equal", "dividing", "coprime"]))
    if how == "equal":
        dens = [draw(st.integers(1, 6))] * 2
    elif how == "dividing":
        d = draw(st.integers(1, 4))
        dens = [d, d * draw(st.integers(2, 4))]
    else:
        dens = [draw(st.sampled_from([2, 4, 8])),
                draw(st.sampled_from([1, 3, 5, 9, 15]))]
    dens = dens[::draw(st.sampled_from([1, -1]))]
    exps = st.tuples(*[st.integers(0, 2)] * n)

    def poly(den):
        e = draw(exps)
        rest = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool)
                                    .map(lambda k: F(k, den)), max_size=4))
        return Poly(n, {e: F(1, den), **{k: c for k, c in rest.items()
                                         if k != e}})

    return n, poly(dens[0]), poly(dens[1]), dens


@settings(max_examples=300, deadline=None)
@given(case=packed_den_pairs())
def test_packed_shortcuts_match_textbook_term_for_term(case):
    # a product by the unit returns the other factor, and a sum reads a
    # side scaled by 1 unscaled and one scaled by -1 negated
    n, p, q, dens = case
    ring = polyfield._Ring(n, 255)
    one_poly = Poly.one(n)
    one = ring.const(1)
    pp, pq = packed(ring, p), packed(ring, q)
    assert [pp.den, pq.den] == dens
    for a, pa in ((p, pp), (q, pq)):
        for got, want in ((one * pa, textbook_mul(one_poly, a)),
                          (pa * one, textbook_mul(a, one_poly))):
            assert list(got.to_poly().terms.items()) == want
            assert (got.den, got.top) == (pa.den, pa.top)
    for (a, pa), (b, pb) in (((p, pp), (q, pq)), ((q, pq), (p, pp)),
                             ((p, pp), (p, pp))):
        for got, want in ((pa + pb, textbook_add(a, b)),
                          (pa - pb, textbook_add(a, -b))):
            assert list(got.to_poly().terms.items()) == want
            assert math.gcd(got.den, *got.terms.values()) == 1
            assert got.top == max(pa.top, pb.top)


def test_packed_unit_with_a_higher_bound_still_multiplies():
    # x - x + 1 is the unit with bound 1: the product keeps the summed bound
    ring = polyfield._Ring(2, 255)
    x = ring.var(0)
    unit = x - x + 1
    assert unit.terms == {0: 1} and unit.top == 1
    for got in (unit * x, x * unit):
        assert got.top == 2
        assert list(got.to_poly().terms.items()) == [((1, 0), 1)]
    big = x
    for _ in range(254):
        big = big * x
    assert ring.const(1) * big is big
    with pytest.raises(OverflowError, match="exponent bound 256"):
        unit * big


@settings(max_examples=200, deadline=None)
@given(program=packed_programs())
def test_packed_operations_leave_every_operand_unchanged(program):
    # results share terms with their operands (a product by 1, a sum scaled
    # by 1), so every value is compared before and after each operation
    n, pool, ops = program
    ring = polyfield._Ring(n, 255)
    values = [ring.const(1), ring.const(-1)] + [packed(ring, p) for p in pool]
    every = [(op, i, j, 1) for op in PACKED_OPS for i in range(4)
             for j in range(4)]
    for op, i, j, c in every + ops:
        a, b = values[i % len(values)], values[j % len(values)]
        before = [(list(v.terms.items()), v.den, v.top) for v in values]
        got = {"add": lambda: a + b, "sub": lambda: a - b, "neg": lambda: -a,
               "mul": lambda: a * b, "scale": lambda: a * c,
               "rscale": lambda: c * a, "minus_one": lambda: a - 1}[op]()
        assert [(list(v.terms.items()), v.den, v.top)
                for v in values] == before
        values.append(got)


def test_packed_product_cancelling_mid_loop_reinserts_at_the_end():
    # the packed twin of the Poly case above
    ring = polyfield._Ring(1, 255)
    p = packed(ring, Poly(1, {(0,): 1, (1,): 1, (2,): 1}))
    q = packed(ring, Poly(1, {(2,): 1, (1,): -1, (0,): 1}))
    assert list((p * q).to_poly().terms.items()) == \
        [((0,), 1), ((4,), 1), ((2,), 1)]


def test_packed_product_never_carries_into_the_next_variable():
    # one-byte fields: x1^200 * x1^100 would carry into x2 as x1^44 * x2
    ring = polyfield._Ring(2, 255)
    assert ring.limit == 255
    x = ring.var(0)
    big = {}
    for k in (200, 100):
        p = x
        for _ in range(k - 1):
            p = p * x
        big[k] = p
    assert big[200].top == 200 and big[100].top == 100
    assert list(big[200].to_poly().terms) == [(200, 0)]
    with pytest.raises(OverflowError, match="exponent bound 300"):
        big[200] * big[100]


def test_ring_field_width_follows_the_bound():
    assert [polyfield._Ring(3, top).limit for top in (1, 255, 256, 65536)] \
        == [255, 255, 65535, 2**32 - 1]
    ring = polyfield._Ring(3, 300)
    p = ring.var(2) * ring.var(0) * 2 - 1
    assert list(p.to_poly().terms.items()) == [((1, 0, 1), 2), ((0, 0, 0), -1)]


def test_rings_are_shared_per_width():
    assert polyfield._Ring(3, 1) is polyfield._Ring(3, 255)
    assert polyfield._Ring(3, 256) is not polyfield._Ring(3, 255)
    assert polyfield._Ring(2, 255) is not polyfield._Ring(3, 255)
    assert polyfield._Ring(3, 2**64 - 1).limit == 2**64 - 1
    with pytest.raises(OverflowError, match=f"^exponent sum {2**64} does not "
                       "fit in 64 bits$"):
        polyfield._Ring(3, 2**64)


@pytest.mark.parametrize("top", [127, 128, 255, 256, 65536, 2**32, 2**63])
def test_ring_pack_keeps_the_layout_and_the_term_order(top):
    # the keys are those that var reads through the shifts
    ring = polyfield._Ring(3, top)
    p = Poly(3, {(0, top, 1): F(1, 6), (top, 0, 0): F(-2, 3), (0, 0, 0): 5})
    got = ring.pack(p, top)
    assert list(got.terms.items()) == list(packed(ring, p).terms.items())
    assert (got.den, got.top, got.ring) == (6, top, ring)
    assert list(got.to_poly().terms.items()) == list(p.terms.items())
    assert [ring.var(i).to_poly() for i in range(3)] == \
        [Poly.var(3, i) for i in range(3)]


def test_ring_pack_names_what_it_cannot_pack():
    ring = polyfield._Ring(2, 255)
    with pytest.raises(ValueError, match=re.escape("exponent (1, -1) has "
                                                   "entry -1")):
        ring.pack(Poly(2, {(0, 0): 1, (1, -1): 1}), 255)
    with pytest.raises(ValueError, match=re.escape("exponent (0.5, 0)")):
        polyfield._Ring(2, 2**40).pack(Poly(2, {(0.5, 0): 1}), 1)
    with pytest.raises(OverflowError, match="exceeds 255"):
        ring.pack(Poly(2, {(1, 0): 1, (256, 0): 1}), 256)
