import dataclasses
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goh_atlas import floateval, trajectories
from goh_atlas.errors import NumericsError
from goh_atlas.freelie import generate_basis
from goh_atlas.normalform import realize_frame
from goh_atlas.options import DEGREE_MAX
from goh_atlas.polyfield import (
    Frame,
    Poly,
    PolyVec,
    heisenberg_frame,
    lie_bracket_fields,
    martinet_frame,
)
from goh_atlas.trajectories import (
    Control,
    SampledCurve,
    _dependencies,
    _levels,
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
from lie_helpers import TextbookCompiledPolys, assert_same_bits, \
    exact_flow, f23_frame


def realized(step: int) -> Frame:
    frame, _ = realize_frame(generate_basis(2, step))
    return frame


def random_pl_control(rng, t1=1.0, n_steps=20, r=2) -> Control:
    ts = np.linspace(0.0, t1, n_steps + 1)
    return Control(ts, rng.uniform(-1.0, 1.0, size=(n_steps + 1, r)))


def reference_rk4(frame, u, grid, x0, m0, product, substeps):
    """Textbook RK4 on xdot = sum u_k X_k(x), Mdot = product(M, sum u_k DX_k(x)).

    Returns the (x, M) pair at every grid node; the oracle for the
    integrators, which must match it bit for bit.  Fields and Jacobians are
    evaluated by TextbookCompiledPolys, not by the evaluator under test.
    """
    n = frame.n
    evs = [TextbookCompiledPolys(f.comps) for f in frame.fields]
    jevs = [TextbookCompiledPolys([p.diff(i) for p in f.comps
                                   for i in range(n)]) for f in frame.fields]

    def rhs(t, x, m):
        dx, a = np.zeros(n), np.zeros((n, n))
        for c, ev, jev in zip(map(float, u(t)), evs, jevs):
            if c:
                dx += c * ev(x)
                a += c * jev(x).reshape(n, n)
        return dx, product(m, a)

    x, m = np.array(x0, dtype=float), np.array(m0, dtype=float)
    nodes = [(x, m)]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        h, t = (t1 - t0) / substeps, t0
        for _ in range(substeps):
            k1x, k1m = rhs(t, x, m)
            k2x, k2m = rhs(t + 0.5 * h, x + 0.5 * h * k1x, m + 0.5 * h * k1m)
            k3x, k3m = rhs(t + 0.5 * h, x + 0.5 * h * k2x, m + 0.5 * h * k2m)
            k4x, k4m = rhs(t + h, x + h * k3x, m + h * k3m)
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            m = m + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
            t += h
        nodes.append((x, m))
    return nodes


class TestControl:
    def test_piecewise_linear_interpolation(self):
        u = Control(np.array([0.0, 1.0, 2.0]),
                    np.array([[0.0, 1.0], [2.0, 1.0], [0.0, 3.0]]))
        assert np.allclose(u(0.5), [1.0, 1.0])
        assert np.allclose(u(1.5), [1.0, 2.0])
        assert np.allclose(u(2.0), [0.0, 3.0])

    def test_from_function(self):
        u = Control.from_function(lambda t: (t, -t), 0.0, 2.0, 4)
        assert u.r == 2
        assert np.allclose(u.ts, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(u.values[:, 0], u.ts)

    def test_validation(self):
        with pytest.raises(ValueError):
            Control(np.array([0.0]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            Control(np.array([0.0, 1.0, 3.0]), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Control(np.array([0.0, 1.0]), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Control(np.array([0.0, 1.0]), np.array([[np.nan], [0.0]]))

    def test_json_roundtrip(self):
        u = Control.from_function(lambda t: (math.sin(t),), 0.0, 1.0, 8)
        back = Control.from_json(u.to_json())
        assert np.array_equal(back.ts, u.ts)
        assert np.array_equal(back.values, u.values)
        assert u.to_json()["type"] == "control"


class TestSampledCurve:
    def test_from_function(self):
        c = SampledCurve.from_function(lambda t: (t, t * t, 1.0), 0.0, 1.0, 10)
        assert c.m == 3
        assert c.points.shape == (11, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledCurve(np.array([0.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SampledCurve(np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            SampledCurve([0, 1, 2], [[0, np.nan], [1, 1], [2, np.inf]])
        with pytest.raises(ValueError):
            SampledCurve([0.0, np.nan, 2.0], np.zeros((3, 2)))

    def test_json_roundtrip(self):
        c = SampledCurve.from_function(lambda t: (t, 2 * t), 0.0, 1.0, 4)
        back = SampledCurve.from_json(c.to_json())
        assert np.array_equal(back.points, c.points)
        assert c.to_json()["type"] == "curve"


# a fault in a control's or curve's JSON, and the message that names it
SAMPLED_FAULTS = [
    ("curve", {"t": [0.0], "values": [[1.0, 2.0]]},
     "curve t needs at least 2 nodes, got 1"),
    ("control", {"t": [], "values": []}, "control t needs at least 2 nodes, got 0"),
    ("control", {"t": [[0], [1]]}, "control t[0] is not a number: [0]"),
    ("control", {"values": [[1.0], ["x"]]},
     "control values[1][0] is not a number: 'x'"),
    ("curve", {"t": [0.0, 1.0, 2.0], "values": [[1.0, 2.0], [3.0], [4.0, 5.0]]},
     "curve values[1] has length 1, not 2"),
    ("control", {"values": [[1.0, 0.0], [0.0, math.inf]]},
     "control values[1][1] is not finite: inf"),
    ("curve", {"t": [0.0, math.nan]}, "curve t[1] is not finite: nan"),
    ("curve", {"t": [0.0, 1.0, 1.0], "values": [[0.0]] * 3},
     "curve t is not strictly increasing: t[2] = 1.0 after t[1] = 1.0"),
    ("control", {"values": [[1.0]] * 3},
     "control values has 3 rows, not one per node of t (2)"),
    ("curve", {"values": [1.0, 2.0]}, "curve values[0] is not a list: 1.0"),
]


@pytest.mark.parametrize("kind, change, message", SAMPLED_FAULTS)
def test_sampled_grid_faults_are_located(kind, change, message):
    cls = {"control": Control, "curve": SampledCurve}[kind]
    data = {**cls([0.0, 1.0], [[1.0], [2.0]]).to_json(), **change}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls.from_json(data)


class TestFlowControl:
    def test_square_loop_leaves_vertical_area(self):
        # Unit square traversed counterclockwise: base returns to the
        # origin while the vertical coordinate picks up the enclosed area.
        frame = heisenberg_frame()
        phases = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        x = [0.0, 0.0, 0.0]
        for k, uv in enumerate(phases):
            u = Control(np.array([float(k), float(k + 1)]),
                        np.array([uv, uv]))
            x = flow_control(frame, u, x, substeps=4).points[-1]
        assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-12)

    def test_constant_control_matches_exact_flow(self):
        frame = f23_frame()
        a, b = Fraction(2, 3), Fraction(-1, 2)
        combined = frame.fields[0] * a + frame.fields[1] * b
        expected = [float(v) for v in
                    exact_flow(combined, [0, 0, 0, 0, 0], Fraction(1))]
        u = Control(np.array([0.0, 1.0]),
                    np.array([[float(a), float(b)]] * 2))
        got = flow_control(frame, u, [0.0] * 5, substeps=1).points[-1]
        assert np.max(np.abs(got - np.array(expected))) < 1e-12

    def test_callable_needs_grid(self):
        frame = heisenberg_frame()
        with pytest.raises(ValueError):
            flow_control(frame, lambda t: (1.0, 0.0), [0.0] * 3)

    def test_bad_inputs(self):
        frame = heisenberg_frame()
        u = Control(np.array([0.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(ValueError):
            flow_control(frame, u, [0.0, 0.0])
        with pytest.raises(ValueError):
            flow_control(frame, u, [0.0] * 3, substeps=0)
        with pytest.raises(TypeError):
            flow_control(frame, 3, [0.0] * 3)

    def test_projection_integrates_control(self):
        # on normal-form frames the first r coordinates are the cumulative
        # integral of the control; for PL controls the trapezoid sum is it
        frame = realized(3)
        rng = np.random.default_rng(17)
        u = random_pl_control(rng)
        x0 = rng.uniform(-0.5, 0.5, size=frame.n)
        curve = flow_control(frame, u, x0, substeps=1)
        dt = np.diff(u.ts)
        integral = np.vstack([
            np.zeros(2),
            np.cumsum(0.5 * (u.values[1:] + u.values[:-1]) * dt[:, None],
                      axis=0)])
        assert np.max(np.abs(curve.points[:, :2] - (x0[:2] + integral))) < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises(self):
        n = 1
        x = Poly.var(n, 0)
        frame = Frame([PolyVec([x * x])])
        u = Control(np.array([0.0, 3.0]), np.array([[1.0], [1.0]]))
        with pytest.raises(NumericsError):
            flow_control(frame, u, [1.0], substeps=512)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("integrate", [
    lambda fr, u: flow_control(fr, u, [1.0]),
    lambda fr, u: jacobian_flow(fr, u, [1.0]),
    lambda fr, u: extremal_residuals(fr, u, [1.0], [1.0]),
    lambda fr, u: recover_abnormal_covector(fr, u, [1.0]),
], ids=["flow", "jacobian", "adjoint", "inverse"])
def test_blowup_names_the_first_bad_node(integrate):
    # x' = x^2 from x = 1 escapes at t = 1, a third of the way in: the
    # integrators must stop there, not at the end of the grid
    x = Poly.var(1, 0)
    frame = Frame([PolyVec([x * x])])
    ts = np.linspace(0.0, 3.0, 301)
    u = Control(ts, np.ones((301, 1)))
    with pytest.raises(NumericsError) as info:
        integrate(frame, u)
    found = re.search(r"at node (\d+) \(t = ([^)]+)\)", str(info.value))
    assert found, str(info.value)
    node = int(found.group(1))
    assert 100 <= node < 300
    assert float(found.group(2)) == pytest.approx(ts[node])


def cyclic_frame() -> Frame:
    # X_1 = d_1 - x3 d_2 + x2 d_3, X_2 = x2 x3 d_1 + d_2 + x1 d_3: x2 and x3
    # read each other, so the coordinates have no dependency levels
    n = 3
    x1, x2, x3 = (Poly.var(n, i) for i in range(n))
    f1 = PolyVec([Poly.one(n), -x3, x2])
    f2 = PolyVec([x2 * x3, Poly.one(n), x1])
    return Frame([f1, f2])


def weightless(frame: Frame) -> Frame:
    data = frame.to_json()
    del data["weights"]
    return Frame.from_json(data)


ORACLE_FRAMES = {
    "constant": lambda: Frame([PolyVec.coordinate(3, 0),
                               PolyVec.coordinate(3, 2)]),
    "heisenberg": heisenberg_frame,
    "martinet": martinet_frame,
    "f24": lambda: realized(4),
    "f25": lambda: realized(5),
    "cyclic": cyclic_frame,
}


def forward(m, a):
    return a @ m


def adjoint(m, a):
    return -(m @ a)


def assert_integrators_match_textbook(frame, u, x0, lam, substeps, ts=None):
    """All four integrators against reference_rk4, bit for bit."""
    n = frame.n
    grid = u.ts if ts is None else ts
    kwargs = {} if ts is None else {"ts": ts}
    ref = reference_rk4(frame, u, grid, x0, np.eye(n), forward, substeps)
    got = flow_control(frame, u, x0, substeps=substeps, **kwargs)
    assert_same_bits(got.points, [x for x, _ in ref])
    path = jacobian_flow(frame, u, x0, substeps=substeps, **kwargs)
    assert_same_bits(path.mats, [m for _, m in ref])

    ref = reference_rk4(frame, u, grid, x0, lam, adjoint, substeps)
    rep = extremal_residuals(frame, u, x0, lam, substeps=substeps, **kwargs)
    evs = [TextbookCompiledPolys(f.comps) for f in frame.fields]
    bevs = [TextbookCompiledPolys(lie_bracket_fields(
        frame.fields[h - 1], frame.fields[k - 1]).comps) for h, k in rep.pairs]
    assert_same_bits(rep.rho, [[float(row @ ev(x)) for ev in evs]
                                for x, row in ref])
    assert_same_bits(rep.sigma, np.reshape(
        [[float(row @ bev(x)) for bev in bevs] for x, row in ref],
        (len(ref), len(bevs))))

    ref = reference_rk4(frame, u, grid, x0, np.eye(n), adjoint, substeps)
    stack = np.array([kmat @ ev(x) for x, kmat in ref for ev in evs])
    if len(stack) < n:  # recovery pads a short stack with zero rows
        stack = np.vstack([stack, np.zeros((n - len(stack), n))])
    _, svals, vt = np.linalg.svd(stack, full_matrices=False)
    res = recover_abnormal_covector(frame, u, x0, substeps=substeps,
                                    threshold=1e-3, **kwargs)
    assert res.stack_rows == len(stack)
    assert_same_bits(res.singular_values, svals)
    want = [v for s, v in zip(svals, vt)
            if svals[0] == 0.0 or s / svals[0] < 1e-3]
    assert_same_bits(np.reshape(res.candidates, (-1, n)),
                      np.reshape(want, (-1, n)))


@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_FRAMES))
def test_integrators_match_textbook_rk4_bitwise(name, substeps):
    frame = ORACLE_FRAMES[name]()
    n = frame.n
    rng = np.random.default_rng(29)
    u = random_pl_control(rng, n_steps=12)
    u.values[5] = 0.0  # a zero-control row: every term is skipped there
    x0 = rng.uniform(-0.5, 0.5, size=n)
    lam = rng.uniform(-1.0, 1.0, size=n)

    def smooth(t):
        return (math.cos(3.0 * t), 0.0 if t > 0.5 else math.sin(t))

    assert_integrators_match_textbook(frame, u, x0, lam, substeps)
    assert_integrators_match_textbook(frame, smooth, x0, lam, substeps,
                                      ts=u.ts)


@pytest.mark.parametrize("name", ["heisenberg", "f25", "cyclic"])
def test_windows_chunks_and_blocks_keep_the_bits(monkeypatch, name):
    # tiny windows and evaluation blocks (stage matrices are built one
    # step per block), so the 12-interval grid crosses every boundary, none
    # of them aligned, and evaluation blocks end inside an RK4 step
    monkeypatch.setattr(trajectories, "WINDOW_STEPS", 5)
    monkeypatch.setattr(floateval, "EVAL_ROWS", 7)
    frame = ORACLE_FRAMES[name]()
    rng = np.random.default_rng(31)
    u = random_pl_control(rng, n_steps=12)
    u.values[4] = 0.0
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    lam = rng.uniform(-1.0, 1.0, size=frame.n)
    for substeps in (1, 2, 3):
        assert_integrators_match_textbook(frame, u, x0, lam, substeps)


@pytest.mark.parametrize("substeps", [1, 2])
def test_f27_integrators_match_textbook_rk4_bitwise(monkeypatch, substeps):
    # the benchmark's frame (n = 41) on a 6-node grid, in windows of four
    # steps, so both substep counts cross a window boundary
    monkeypatch.setattr(trajectories, "WINDOW_STEPS", 4)
    frame = realized(7)
    assert frame.n == 41
    rng = np.random.default_rng(37)
    u = random_pl_control(rng, n_steps=5)
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    lam = rng.uniform(-1.0, 1.0, size=frame.n)
    assert_integrators_match_textbook(frame, u, x0, lam, substeps)


@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("rank, step, n", [(2, 6, 23), (3, 4, 32)])
def test_blas_split_shapes_match_textbook_rk4_bitwise(monkeypatch, rank,
                                                      step, n, substeps):
    # the widths at which OpenBLAS picks other kernels for other output
    # shapes: a product by A's nonzero columns only, the same sum in exact
    # arithmetic, changes the J and K bits here; windows of four steps
    monkeypatch.setattr(trajectories, "WINDOW_STEPS", 4)
    frame, _ = realize_frame(generate_basis(rank, step))
    assert frame.n == n
    rng = np.random.default_rng(41)
    u = random_pl_control(rng, n_steps=5, r=rank)
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    lam = rng.uniform(-1.0, 1.0, size=frame.n)
    assert_integrators_match_textbook(frame, u, x0, lam, substeps)


def test_single_node_grid():
    frame = heisenberg_frame()
    calls = []

    def u(t):
        calls.append(t)
        return (1.0, 0.0)

    curve = flow_control(frame, u, [0.5, 0.0, -0.0], ts=[2.0])
    assert_same_bits(curve.points, [[0.5, 0.0, -0.0]])
    assert calls == []
    path = jacobian_flow(frame, u, [0.5, 0.0, 0.0], ts=[2.0])
    assert_same_bits(path.mats, [np.eye(3)])


@st.composite
def triangular_frames(draw):
    """Random polynomial frames whose coordinates have dependency levels.

    Coordinate order[j] reads only coordinates order[i] with i < j, so the
    levels are not contiguous index blocks.
    """
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    coefs = st.fractions(-2, 2, max_denominator=4)
    fields = []
    for _ in range(r):
        comps = [Poly.zero(n)] * n
        for j in range(n):
            lower = order[:j]
            terms = {}
            for _ in range(draw(st.integers(0, 3))):
                e = [0] * n
                for i in lower:
                    e[i] = draw(st.integers(0, 2))
                terms[tuple(e)] = draw(coefs)
            comps[order[j]] = Poly(n, terms)
        fields.append(PolyVec(comps))
    return Frame(fields)


signed_values = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(-1.0, 1.0, allow_subnormal=False))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), frame=triangular_frames(), substeps=st.integers(1, 3))
def test_level_scheme_matches_textbook_rk4_on_random_frames(data, frame,
                                                           substeps):
    n, r = frame.n, frame.r
    assert _levels(_dependencies(frame)) is not None
    nodes = data.draw(st.integers(max(n, 2), 9))
    ts = np.linspace(0.0, data.draw(st.floats(0.1, 1.5)), nodes)
    values = data.draw(st.lists(st.lists(signed_values, min_size=r,
                                         max_size=r),
                                min_size=nodes, max_size=nodes))
    x0 = data.draw(st.lists(st.one_of(st.just(-0.0), st.floats(-0.5, 0.5)),
                            min_size=n, max_size=n))
    lam = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
                    .filter(any))
    assert_integrators_match_textbook(frame, Control(ts, values), x0,
                                      np.array(lam), substeps)


@pytest.mark.parametrize("make, leveled", [
    (heisenberg_frame, True),
    (martinet_frame, True),
    (f23_frame, True),
    (lambda: realized(5), True),
    (lambda: weightless(realized(4)), True),
    (cyclic_frame, False),
    (lambda: Frame([PolyVec([Poly.var(1, 0) * Poly.var(1, 0)])]), False),
], ids=["heisenberg", "martinet", "f23", "f25", "f24-weightless",
        "cyclic", "blowup"])
def test_level_scheme_selection(monkeypatch, make, leveled):
    # the fast path needs only the coordinate dependency graph: weights
    # play no part, and a cycle (x' = x^2 included) falls back to stepping
    # x through the sequential stepper
    frame = make()
    levels = _levels(_dependencies(frame))
    assert (levels is not None) == leveled
    if leveled:
        assert sorted(np.concatenate(levels).tolist()) == list(range(frame.n))
        if frame.weights is not None:
            for level, cols in enumerate(levels):
                assert all(frame.weights[j] > level for j in cols)
    stepped = []
    stepper = trajectories._rk4

    def spy(*args, **kwargs):
        stepped.append(args[1])
        return stepper(*args, **kwargs)

    monkeypatch.setattr(trajectories, "_rk4", spy)
    u = Control(np.linspace(0.0, 1.0, 5), np.full((5, frame.r), 0.1))
    flow_control(frame, u, np.zeros(frame.n))
    assert bool(stepped) != leveled


@pytest.mark.parametrize("make", [lambda: realized(5), cyclic_frame],
                         ids=["f25", "cyclic"])
def test_evaluators_are_compiled_once_per_frame(monkeypatch, make):
    # three integrators, twice, on one frame build each evaluator once: per
    # level and field (per field on a cycle), the Jacobian pattern per
    # field, and the pairings (each field, each bracket); a freshly loaded
    # copy of the frame builds its own and gives the same bits
    stepping, pairing = [], []

    def counting(built):
        class Counting(floateval.CompiledPolys):
            def __init__(self, polys):
                built.append(len(polys))
                super().__init__(polys)
        return Counting

    monkeypatch.setattr(trajectories, "CompiledPolys", counting(stepping))
    monkeypatch.setattr(floateval, "CompiledPolys", counting(pairing))

    def run(frame):
        rng = np.random.default_rng(43)
        u = random_pl_control(rng, n_steps=9)
        x0 = rng.uniform(-0.5, 0.5, size=frame.n)
        lam = rng.uniform(-1.0, 1.0, size=frame.n)
        curve = flow_control(frame, u, x0, substeps=2)
        rec = recover_abnormal_covector(frame, u, x0, threshold=1e-3)
        rep = extremal_residuals(frame, u, x0, lam)
        return [curve.points, rec.singular_values,
                np.reshape(rec.candidates, (-1, frame.n)), rep.rho, rep.sigma]

    frame = make()
    levels = _levels(_dependencies(frame))
    r, pairs = frame.r, frame.r * (frame.r - 1) // 2
    once = (len(levels) if levels else 1) * r + r
    first = run(frame)
    assert (len(stepping), len(pairing)) == (once, r + pairs)
    again = run(frame)
    assert (len(stepping), len(pairing)) == (once, r + pairs)
    fresh = run(Frame.from_json(frame.to_json()))
    assert (len(stepping), len(pairing)) == (2 * once, 2 * (r + pairs))
    for a, b, c in zip(first, again, fresh):
        assert_same_bits(a, b)
        assert_same_bits(a, c)


@pytest.mark.parametrize("make", [heisenberg_frame, lambda: realized(4)],
                         ids=["heisenberg", "f24"])
def test_all_zero_evaluators_are_skipped(monkeypatch, make):
    # X_1 = d_1 has a zero Jacobian and zero components above level 0: the
    # drift leaves those evaluators out, and evaluates every other one
    frame = make()
    called = set()
    evaluate = floateval.CompiledPolys.__call__

    def spy(self, x):
        called.add(id(self))
        return evaluate(self, x)

    monkeypatch.setattr(floateval.CompiledPolys, "__call__", spy)
    rng = np.random.default_rng(47)
    u = random_pl_control(rng, n_steps=6)
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    lam = rng.uniform(-1.0, 1.0, size=frame.n)
    assert_integrators_match_textbook(frame, u, x0, lam, 2)
    _, jevs = trajectories._compiled(frame, "jacobian")
    _, levels = trajectories._compiled(frame, "levels")
    stepping = jevs + [ev for level in levels for ev in level]
    zero = [ev for ev in stepping if not any(ev.coefs)]
    assert jevs[0] in zero and levels[1][0] in zero
    for ev in stepping:
        assert (id(ev) in called) == (ev not in zero)


def test_a_flowed_frame_cannot_be_changed_under_its_evaluators():
    # the evaluators compiled by a flow stay on the frame, so a frame whose
    # fields could be swapped afterwards would step the old fields
    frame = heisenberg_frame()
    u = Control(np.linspace(0.0, 1.0, 3), np.full((3, 2), 0.5))
    flow_control(frame, u, [0.0] * 3)
    other = martinet_frame().fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.fields = other
    with pytest.raises(TypeError):
        frame.fields[0] = other[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.weights = (1, 1, 2)
    assert frame.fields == heisenberg_frame().fields


@pytest.mark.parametrize("integrate", [
    lambda fr, u, **kw: flow_control(fr, u, [0.0] * 3, **kw),
    lambda fr, u, **kw: jacobian_flow(fr, u, [0.0] * 3, **kw),
    lambda fr, u, **kw: extremal_residuals(fr, u, [0.0] * 3, [0, 0, 1], **kw),
    lambda fr, u, **kw: recover_abnormal_covector(fr, u, [0.0] * 3, **kw),
], ids=["flow", "jacobian", "adjoint", "inverse"])
@pytest.mark.parametrize("width", [1, 3])
def test_control_width_must_match_the_frame(integrate, width):
    frame = heisenberg_frame()
    u = Control(np.array([0.0, 1.0]), np.ones((2, width)))
    with pytest.raises(ValueError, match=f"control has {width} columns"):
        integrate(frame, u)
    with pytest.raises(ValueError, match=f"control returned {width} values"):
        integrate(frame, lambda t: (1.0,) * width, ts=[0.0, 1.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("integrate", [
    lambda fr, u, **kw: flow_control(fr, u, [0.0] * 3, **kw),
    lambda fr, u, **kw: jacobian_flow(fr, u, [0.0] * 3, **kw),
    lambda fr, u, **kw: extremal_residuals(fr, u, [0.0] * 3, [0, 0, 1], **kw),
    lambda fr, u, **kw: recover_abnormal_covector(fr, u, [0.0] * 3, **kw),
], ids=["flow", "jacobian", "adjoint", "inverse"])
def test_non_finite_callable_control_is_refused(integrate, bad):
    # u_2 is non-finite from t = 0.5 on, the last stage time of the second
    # step; inf used to reach the drift (inf * 0 warns), NaN the next node
    def u(t):
        return (1.0, bad if t >= 0.5 else 0.0)

    with pytest.raises(ValueError, match=re.escape(
            f"control value u_2 = {bad} at t = 0.5 is not finite")):
        integrate(heisenberg_frame(), u, ts=np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("integrate", [
    lambda fr, u: jacobian_flow(fr, u, [0.0, 0.0]),
    lambda fr, u: extremal_residuals(fr, u, [0.0, 0.0], [0, 0, 1]),
    lambda fr, u: recover_abnormal_covector(fr, u, [0.0, 0.0]),
], ids=["jacobian", "adjoint", "inverse"])
def test_x0_length_is_checked(integrate):
    u = Control(np.array([0.0, 1.0]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="x0 has 2 entries"):
        integrate(heisenberg_frame(), u)


INTEGRATORS = {
    "flow": lambda fr, u, x0, **kw: flow_control(fr, u, x0, **kw),
    "jacobian": lambda fr, u, x0, **kw: jacobian_flow(fr, u, x0, **kw),
    "pushforward": lambda fr, u, x0, **kw: pushforward_identity_residual(
        fr, u, x0, **kw),
    "adjoint": lambda fr, u, x0, **kw: extremal_residuals(
        fr, u, x0, np.linspace(-1.0, 1.0, fr.n) + 0.25, **kw),
    "inverse": lambda fr, u, x0, **kw: recover_abnormal_covector(
        fr, u, x0, threshold=1e-3, **kw),
}


def result_bytes(result) -> list:
    """The bytes of every float array an integrator returned."""
    if isinstance(result, float):
        return [np.float64(result).tobytes()]
    arrays = {
        "SampledCurve": lambda c: [c.ts, c.points],
        "JacobianPath": lambda p: [p.ts, np.array(p.mats), p.dets],
        "ExtremalReport": lambda e: [e.ts, e.rho, e.sigma,
                                     np.array([e.sup_abnormal, e.sup_goh])],
        "RecoveryResult": lambda r: [r.singular_values,
                                     np.array(r.candidates, dtype=float)],
    }[type(result).__name__](result)
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(INTEGRATORS))
def test_non_finite_x0_is_refused(name, bad):
    # [inf, 0, 0] gave Jacobian determinants [1, 1]
    u = Control([0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(
            f"x0[1] is not finite: {bad}")):
        INTEGRATORS[name](heisenberg_frame(), u, [0.0, bad, 0.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_covector_is_refused(bad):
    # NaN was a NumericsError "at node 0"
    u = Control([0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(
            f"lam[2] is not finite: {bad}")):
        extremal_residuals(heisenberg_frame(), u, [0.0] * 3, [1.0, 0.0, bad])


def test_results_do_not_share_the_controls_grid():
    # each result's ts was the control's own array, so writing into it
    # rewrote the control's grid past Control's uniformity check
    frame = heisenberg_frame()
    u = Control([0.0, 0.5, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    kappa = SampledCurve([0.0, 0.5, 1.0], [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
    curve, lifted = horizontal_lift(frame, kappa, [0.0] * 3)
    grid = np.array([0.0, 0.25, 1.0])
    results = [(flow_control(frame, u, [0.0] * 3), u.ts),
               (flow_control(frame, u, [0.0] * 3), u.ts),  # a kept path
               (jacobian_flow(frame, u, [0.0] * 3), u.ts),
               (extremal_residuals(frame, u, [0.0] * 3, [0.0, 0.0, 1.0]),
                u.ts),
               (curve, lifted.ts),
               (flow_control(frame, lambda t: [1.0, 0.0], [0.0] * 3,
                             ts=grid), grid)]
    for result, ts in results:
        want = ts.copy()
        result.ts[1] = 0.75
        assert ts.tobytes() == want.tobytes()


@pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, math.inf])
def test_recovery_threshold_must_be_finite_and_positive(threshold):
    # NaN and -1 gave no candidates, inf every right singular vector
    u = Control([0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(
            f"threshold must be a finite positive number, got {threshold}")):
        recover_abnormal_covector(heisenberg_frame(), u, [0.0] * 3,
                                  threshold=threshold)


def stepping_calls(monkeypatch, frame) -> set:
    """The ids of frame's stepping evaluators (x levels, Jacobian pattern)
    that are called from now on."""
    _, levels = trajectories._compiled(frame, "levels")
    _, jevs = trajectories._compiled(frame, "jacobian")
    stepping = {id(ev) for ev in jevs + [
        ev for level in levels for ev in
        (level if isinstance(level, list) else [level])]}
    called = set()
    evaluate = floateval.CompiledPolys.__call__

    def spy(self, x):
        if id(self) in stepping:
            called.add(id(self))
        return evaluate(self, x)

    monkeypatch.setattr(floateval.CompiledPolys, "__call__", spy)
    return called


@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("make", [heisenberg_frame, lambda: realized(5),
                                  cyclic_frame],
                         ids=["heisenberg", "f25", "cyclic"])
def test_a_kept_path_gives_the_bits_of_a_cold_call(monkeypatch, make,
                                                   substeps):
    # each integrator on a frame that keeps the trajectory's x path and A
    # (all five ran on it) against a fresh copy of the frame (nothing kept)
    frame = make()
    rng = np.random.default_rng(53)
    u = random_pl_control(rng, n_steps=11, r=frame.r)
    u.values[3] = 0.0
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    for integrate in INTEGRATORS.values():
        integrate(frame, u, x0, substeps=substeps)
    called = stepping_calls(monkeypatch, frame)
    for name, integrate in INTEGRATORS.items():
        warm = integrate(frame, u, x0, substeps=substeps)
        cold = integrate(Frame.from_json(frame.to_json()), u, x0,
                         substeps=substeps)
        assert result_bytes(warm) == result_bytes(cold), name
    assert not called  # the warm calls integrated no x and evaluated no A


def kept(frame):
    return frame._evaluators.get("path")


def cold_flow(frame, u, x0, **kw):
    return flow_control(Frame.from_json(frame.to_json()), u, x0, **kw)


@pytest.mark.parametrize("name", sorted(INTEGRATORS))
def test_writing_into_the_control_recomputes(name):
    frame = realized(5)  # at step 4 the pushforward residual is 0.0
    rng = np.random.default_rng(59)
    u = random_pl_control(rng, n_steps=8)
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    integrate = INTEGRATORS[name]
    before = result_bytes(integrate(frame, u, x0))
    u.values[5, 1] += 0.25
    got = result_bytes(integrate(frame, u, x0))
    assert got != before
    assert got == result_bytes(integrate(Frame.from_json(frame.to_json()),
                                         u, x0))
    u.ts *= 2.0  # still uniform
    got = result_bytes(integrate(frame, u, x0))
    assert got == result_bytes(integrate(Frame.from_json(frame.to_json()),
                                         u, x0))


def test_signed_zeros_and_substeps_are_part_of_the_key():
    frame = heisenberg_frame()
    u = Control(np.linspace(0.0, 1.0, 5), np.full((5, 2), 0.5))
    flow_control(frame, u, [0.0, 0.0, 0.0])
    curve = flow_control(frame, u, [-0.0, 0.0, 0.0])
    assert np.signbit(curve.points[0, 0])
    assert_same_bits(curve.points, cold_flow(frame, u, [-0.0, 0.0, 0.0]).points)
    rng = np.random.default_rng(61)
    u = random_pl_control(rng, n_steps=6)
    once = flow_control(frame, u, [0.1, 0.2, 0.3])
    twice = flow_control(frame, u, [0.1, 0.2, 0.3], substeps=2)
    assert once.points.tobytes() != twice.points.tobytes()
    assert_same_bits(twice.points,
                     cold_flow(frame, u, [0.1, 0.2, 0.3], substeps=2).points)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_what_is_never_kept(monkeypatch):
    monkeypatch.setattr(trajectories, "WINDOW_STEPS", 8)
    frame = heisenberg_frame()
    rng = np.random.default_rng(67)
    x0 = [0.1, 0.2, 0.3]
    # four steps of two substeps fill one window of eight; five do not
    fits = random_pl_control(rng, n_steps=4)
    flow_control(frame, fits, x0, substeps=2)
    assert kept(frame) is not None
    for steps, substeps in [(5, 2), (9, 1)]:
        frame = heisenberg_frame()
        u = random_pl_control(rng, n_steps=steps)
        curve = flow_control(frame, u, x0, substeps=substeps)
        assert kept(frame) is None
        assert_same_bits(curve.points, flow_control(frame, u, x0,
                                                    substeps=substeps).points)
    flow_control(frame, lambda t: (1.0, t), x0, ts=fits.ts)
    assert kept(frame) is None
    x = Poly.var(1, 0)
    blowup = Frame([PolyVec([x * x])])  # x' = x^2 from 1 escapes at t = 1
    u = Control(np.linspace(0.0, 3.0, 7), np.ones((7, 1)))
    with pytest.raises(NumericsError):
        flow_control(blowup, u, [1.0])
    assert kept(blowup) is None


def test_a_miss_drops_the_kept_path_before_it_integrates(monkeypatch):
    # so a frame never holds two windows, not even while integrating
    frame = heisenberg_frame()
    rng = np.random.default_rng(71)
    u, v = random_pl_control(rng), random_pl_control(rng)
    flow_control(frame, u, [0.0] * 3)
    first = weakref.ref(kept(frame)[1])
    alive = []
    stage_controls = trajectories._stage_controls

    def spy(*args):
        alive.append(first() is not None)
        return stage_controls(*args)

    monkeypatch.setattr(trajectories, "_stage_controls", spy)
    flow_control(frame, v, [0.0] * 3)
    assert alive == [False]
    assert kept(frame) is not None


def test_a_drift_that_raises_keeps_no_values(monkeypatch):
    # blocks of four stage rows; the second block's drift raises, and the
    # next call computes every block again, with a cold call's bits
    monkeypatch.setattr(floateval, "EVAL_ROWS", 16)
    frame = realized(4)
    rng = np.random.default_rng(79)
    u = random_pl_control(rng, n_steps=6)
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    flow_control(frame, u, x0)
    drift, calls = trajectories._drift, []

    def failing(evs, uk, pts):
        calls.append(len(pts))
        if len(calls) == 2:
            raise FloatingPointError("overflow")
        return drift(evs, uk, pts)

    monkeypatch.setattr(trajectories, "_drift", failing)
    with pytest.raises(FloatingPointError):
        jacobian_flow(frame, u, x0)
    assert kept(frame)[1].drift is None
    monkeypatch.setattr(trajectories, "_drift", drift)
    assert result_bytes(jacobian_flow(frame, u, x0)) == result_bytes(
        jacobian_flow(Frame.from_json(frame.to_json()), u, x0))


def test_writing_into_results_does_not_reach_the_kept_path():
    frame = realized(4)
    rng = np.random.default_rng(73)
    u = random_pl_control(rng, n_steps=7)
    x0 = rng.uniform(-0.5, 0.5, size=frame.n)
    curve = flow_control(frame, u, x0)
    want = curve.points.copy()
    curve.points[:] = 7.0
    path = jacobian_flow(frame, u, x0)
    want_mats = np.array(path.mats)
    for m in path.mats:
        m[:] = 3.0
    path.dets[:] = 0.0
    assert_same_bits(flow_control(frame, u, x0).points, want)
    assert_same_bits(jacobian_flow(frame, u, x0).mats, want_mats)
    rep = extremal_residuals(frame, u, x0, np.ones(frame.n))
    rep.rho[:] = 0.0
    again = extremal_residuals(frame, u, x0, np.ones(frame.n))
    cold = extremal_residuals(Frame.from_json(frame.to_json()), u, x0,
                              np.ones(frame.n))
    assert result_bytes(again) == result_bytes(cold)


class TestCircleLift:
    def test_smooth_control_endpoint(self):
        # kappa = (cos t, sin t): the vertical coordinate integrates
        # x1 dx2 = cos^2 t, so one full turn ends at (1, 0, pi).
        frame = heisenberg_frame()
        ts = np.linspace(0.0, 2.0 * math.pi, 401)
        u = lambda t: (-math.sin(t), math.cos(t))
        end = flow_control(frame, u, [1.0, 0.0, 0.0], ts=ts).points[-1]
        assert np.max(np.abs(end - np.array([1.0, 0.0, math.pi]))) < 1e-8

    def test_rk4_fourth_order(self):
        frame = heisenberg_frame()
        u = lambda t: (-math.sin(t), math.cos(t))
        target = np.array([1.0, 0.0, math.pi])
        errs = []
        for n_steps in (100, 200, 400):
            ts = np.linspace(0.0, 2.0 * math.pi, n_steps + 1)
            end = flow_control(frame, u, [1.0, 0.0, 0.0], ts=ts).points[-1]
            errs.append(np.max(np.abs(end - target)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 13.0 <= coarse / fine <= 19.0

    def test_horizontal_lift_of_sampled_circle(self):
        frame = heisenberg_frame()
        kappa = SampledCurve.from_function(
            lambda t: (math.cos(t), math.sin(t)), 0.0, 2.0 * math.pi, 10000)
        curve, u = horizontal_lift(frame, kappa, [1.0, 0.0, 0.0])
        assert np.max(np.abs(curve.points[:, :2] - kappa.points)) < 1e-5
        assert abs(curve.points[-1, 2] - math.pi) < 5e-6
        mid = len(u.ts) // 2
        assert abs(u.values[mid, 0] + math.sin(u.ts[mid])) < 1e-6

    def test_lift_control_quotients(self):
        kappa = SampledCurve.from_function(lambda t: (t * t,), 0.0, 1.0, 10)
        u = lift_control(kappa)
        # symmetric quotients are exact on quadratics away from the ends
        assert np.allclose(u.values[1:-1, 0], 2.0 * kappa.ts[1:-1])
        assert abs(u.values[0, 0] - 0.1) < 1e-12

    def test_lift_preconditions(self):
        frame = heisenberg_frame()
        kappa = SampledCurve.from_function(
            lambda t: (math.cos(t), math.sin(t)), 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            horizontal_lift(frame, kappa, [0.0, 0.0, 0.0])
        bad = SampledCurve.from_function(lambda t: (t,), 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            horizontal_lift(frame, bad, [0.0, 0.0, 0.0])


class TestJacobianFlow:
    def test_translation_block_on_vertical_model(self):
        # u = (0, 1) from the origin: the flow differential is
        # I + t E_{3,1} and the determinant stays 1.
        frame = heisenberg_frame()
        u = Control(np.array([0.0, 1.0]), np.array([[0.0, 1.0]] * 2))
        path = jacobian_flow(frame, u, [0.0] * 3, substeps=8)
        assert np.array_equal(path.mats[0], np.eye(3))
        expected = np.eye(3)
        expected[2, 0] = 1.0
        assert np.max(np.abs(path.mats[-1] - expected)) < 1e-14
        assert np.allclose(path.dets, 1.0)

    def test_step_three_vertical_line(self):
        frame = f23_frame()
        u = Control(np.linspace(0.0, 1.0, 5), np.array([[0.0, 1.0]] * 5))
        path = jacobian_flow(frame, u, [0.0] * 5, substeps=2)
        for t, mat in zip(path.ts, path.mats):
            expected = np.eye(5)
            expected[2, 0] = t
            expected[4, 0] = 0.5 * t * t
            assert np.max(np.abs(mat - expected)) < 1e-13

    def test_matches_finite_differences(self):
        frame = realized(3)
        rng = np.random.default_rng(5)
        u = random_pl_control(rng)
        x0 = rng.uniform(-0.5, 0.5, size=frame.n)
        path = jacobian_flow(frame, u, x0, substeps=4)
        end = path.mats[-1]
        delta = 1e-5
        for j in range(frame.n):
            step = np.zeros(frame.n)
            step[j] = delta
            plus = flow_control(frame, u, x0 + step, substeps=4).points[-1]
            minus = flow_control(frame, u, x0 - step, substeps=4).points[-1]
            fd = (plus - minus) / (2.0 * delta)
            assert np.max(np.abs(end[:, j] - fd)) < 1e-6

    def test_pushforward_identity_two_step_frames(self):
        rng = np.random.default_rng(11)
        for step in (3, 4):
            frame = realized(step)
            for _ in range(3):
                u = random_pl_control(rng)
                x0 = rng.uniform(-0.5, 0.5, size=frame.n)
                res = pushforward_identity_residual(frame, u, x0, substeps=2)
                assert res < 1e-10

    @pytest.mark.parametrize("make, steps", [
        (heisenberg_frame, 40), (lambda: realized(4), 40),
        (lambda: realized(7), 12)], ids=["heisenberg", "f24", "f27"])
    def test_pushforward_residual_is_the_max_over_the_path(self, make, steps):
        frame = make()
        rng = np.random.default_rng(5)
        u = random_pl_control(rng, n_steps=steps)
        x0 = rng.uniform(-0.5, 0.5, size=frame.n)
        eye = np.eye(frame.n)
        want = 0.0
        for m in jacobian_flow(frame, u, x0, substeps=2).mats:
            want = max(want, float(np.max(np.abs(m[:, frame.r:]
                                                  - eye[:, frame.r:]))))
        assert pushforward_identity_residual(frame, u, x0, substeps=2) == want

    def test_pushforward_identity_fails_at_step_five(self):
        frame = realized(5)
        ts = np.linspace(0.0, 2.0, 81)
        u = lambda t: (math.cos(t), math.sin(t))
        res = pushforward_identity_residual(
            frame, u, [0.0] * frame.n, substeps=2, ts=ts)
        assert res > 1e-3


class TestExtremalResiduals:
    def test_vertical_line_closed_forms(self):
        # Along gamma = (0, t, 0, 0, 0) the pulled-back pairings are
        # rho_1 = l1 - l3 t - l5 t^2/2, rho_2 = l2, sigma_12 = l3 + l5 t.
        frame = f23_frame()
        u = Control(np.linspace(0.0, 1.0, 11), np.array([[0.0, 1.0]] * 11))
        lam = [1.0, 2.0, 3.0, 4.0, 5.0]
        rep = extremal_residuals(frame, u, [0.0] * 5, lam, substeps=2)
        t = rep.ts
        assert np.max(np.abs(rep.rho[:, 0] - (1.0 - 3.0 * t - 2.5 * t * t))) < 1e-12
        assert np.max(np.abs(rep.rho[:, 1] - 2.0)) < 1e-12
        assert rep.pairs == [(1, 2)]
        assert np.max(np.abs(rep.sigma[:, 0] - (3.0 + 5.0 * t))) < 1e-12

    def test_abnormal_covector_annihilates(self):
        frame = f23_frame()
        u = Control(np.linspace(0.0, 1.0, 11), np.array([[0.0, 1.0]] * 11))
        rep = extremal_residuals(frame, u, [0.0] * 5, [0, 0, 0, 1, 0])
        assert rep.sup_abnormal < 1e-14
        assert rep.sup_goh < 1e-14

    def test_zero_control_freezes_pairings(self):
        frame = realized(4)
        rng = np.random.default_rng(3)
        lam = rng.uniform(-1.0, 1.0, size=frame.n)
        x0 = rng.uniform(-0.5, 0.5, size=frame.n)
        u = Control(np.linspace(0.0, 1.0, 9), np.zeros((9, 2)))
        rep = extremal_residuals(frame, u, x0, lam)
        assert np.max(np.abs(rep.rho - rep.rho[0])) < 1e-14
        assert np.max(np.abs(rep.sigma - rep.sigma[0])) < 1e-14

    def test_validation_and_json(self):
        frame = heisenberg_frame()
        u = Control(np.array([0.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(ValueError):
            extremal_residuals(frame, u, [0.0] * 3, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            extremal_residuals(frame, u, [0.0] * 3, [1.0, 0.0])
        rep = extremal_residuals(frame, u, [0.0] * 3, [0.0, 0.0, 1.0])
        data = rep.to_json()
        assert data["type"] == "extremal_residuals"
        assert data["pairs"] == [[1, 2]]
        assert len(data["rho"]) == len(data["t"])


class TestRecovery:
    def test_vertical_line_recovers_null_direction(self):
        frame = f23_frame()
        u = Control(np.linspace(0.0, 1.0, 41), np.array([[0.0, 1.0]] * 41))
        res = recover_abnormal_covector(frame, u, [0.0] * 5, substeps=2)
        assert len(res.candidates) == 1
        cand = res.candidates[0]
        assert abs(abs(cand[3]) - 1.0) < 1e-12
        assert np.max(np.abs(np.delete(cand, 3))) < 1e-12
        svals = res.singular_values
        assert np.all(np.diff(svals) <= 1e-15)
        assert svals[-1] / svals[0] < 1e-12

    def test_no_candidate_on_rank_filling_flow(self):
        frame = heisenberg_frame()
        ts = np.linspace(0.0, 2.0 * math.pi, 101)
        u = lambda t: (-math.sin(t), math.cos(t))
        res = recover_abnormal_covector(
            frame, u, [1.0, 0.0, 0.0], ts=ts)
        assert res.candidates == []
        assert res.stack_rows == 2 * 101

    def test_json(self):
        frame = f23_frame()
        u = Control(np.linspace(0.0, 1.0, 11), np.array([[0.0, 1.0]] * 11))
        res = recover_abnormal_covector(frame, u, [0.0] * 5)
        data = res.to_json()
        assert data["type"] == "covector_recovery"
        assert data["singular_values"] == sorted(
            data["singular_values"], reverse=True)


class TestSpiral:
    def test_endpoint_pins(self):
        c = spiral_curve(math.exp(-2.0 * math.pi), 1000)
        assert np.allclose(c.points[-1], [1.0, 0.0], atol=1e-12)
        first = c.points[0]
        assert abs(first[0] - math.exp(-2.0 * math.pi)) < 1e-12
        assert abs(first[1]) < 1e-12

    def test_radius_equals_parameter(self):
        c = spiral_curve(1e-2, 500)
        radii = np.hypot(c.points[:, 0], c.points[:, 1])
        assert np.max(np.abs(radii - c.ts)) < 1e-12

    def test_constant_speed(self):
        c = spiral_curve(1e-2, 5000)
        u = lift_control(c)
        speeds = np.hypot(u.values[:, 0], u.values[:, 1])
        inner = speeds[c.ts >= 0.1]
        assert np.max(np.abs(inner - math.sqrt(2.0))) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            spiral_curve(0.0, 100)
        with pytest.raises(ValueError):
            spiral_curve(1.5, 100)
        with pytest.raises(ValueError):
            spiral_curve(0.1, 1)


class TestContainment:
    def test_line_found_at_degree_one(self):
        pts = [(t, 2.0 * t + 1.0) for t in np.linspace(-1.0, 1.0, 100)]
        out = polynomial_containment(pts, 1)
        assert out["null_space_dim"] == 1
        # degree 2 adds the linear multiples of the same relation
        assert polynomial_containment(pts, 2)["null_space_dim"] == 3

    def test_circle_found_at_degree_two(self):
        pts = [(math.cos(t), math.sin(t))
               for t in np.linspace(0.0, 2.0 * math.pi, 120)]
        assert polynomial_containment(pts, 1)["null_space_dim"] == 0
        assert polynomial_containment(pts, 2)["null_space_dim"] == 1

    def test_spiral_escapes_low_degrees(self):
        c = spiral_curve(1e-2, 2000)
        pts = [tuple(p) for p in c.points]
        for degree in (1, 2, 3):
            out = polynomial_containment(pts, degree)
            assert out["null_space_dim"] == 0
            assert out["sigma_min_ratio"] > 1e-6

    def test_validation(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]
        with pytest.raises(ValueError):
            polynomial_containment(pts, 1)
        with pytest.raises(ValueError):
            polynomial_containment(pts, -1)

    @pytest.mark.parametrize("degree", [DEGREE_MAX + 1, 10 ** 9])
    def test_degree_past_the_bound_is_refused_before_the_points(self, degree):
        # only the point count bounded the degree: degree 180 passes it on
        # 50 001 points, where its probe would stack a 6.6 GB matrix
        with pytest.raises(ValueError, match=f"^degree must be from 0 to "
                                             f"{DEGREE_MAX}, got {degree}$"):
            polynomial_containment([(0.0, 0.0), (1.0, 1.0)], degree)

    def test_overflowing_monomial_is_named(self):
        # (1e200, 0) at degree 2: the x column's norm overflows
        pts = [(0.0, t) for t in np.linspace(0.0, 1.0, 29)] + [(1e200, 0.0)]
        with pytest.raises(ValueError, match=re.escape(
                "monomial x^1 y^0 overflows at point 29: [1e+200, 0.0]")):
            polynomial_containment(pts, 2)

    def test_overflowing_norm_is_not_a_containment(self):
        # (1e160, 0)'s x column had norm inf, so the column was scaled to
        # zero and the circle points seemed to lie on a line
        circle = [(math.cos(t), math.sin(t))
                  for t in np.linspace(0.0, 2.0 * math.pi, 29)]
        assert polynomial_containment(circle + [(2.0, 0.0)], 1)[
            "null_space_dim"] == 0
        with pytest.raises(ValueError, match=re.escape(
                "monomial x^1 y^0 overflows at point 29: [1e+160, 0.0]")):
            polynomial_containment(circle + [(1e160, 0.0)], 1)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, math.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # NaN and -1 answered null_space_dim 0 for a parabola, whose null
        # space at degree 2 has dimension 1
        pts = [(t, t * t) for t in np.linspace(-1.0, 1.0, 30)]
        assert polynomial_containment(pts, 2)["null_space_dim"] == 1
        with pytest.raises(ValueError, match=re.escape(
                f"threshold must be a finite positive number, got "
                f"{threshold}")):
            polynomial_containment(pts, 2, threshold=threshold)

    @pytest.mark.parametrize("bad", [(1.0,), (1.0, 2.0, 3.0), ()])
    def test_a_point_that_is_not_a_pair_is_named(self, bad):
        # a bare "too many values to unpack" or "not enough values" before
        pts = [(t, 2.0 * t) for t in np.linspace(-1.0, 1.0, 20)]
        pts[5] = pts[9] = bad
        pts[12] = (math.nan, 0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"point 5 has {len(bad)} coordinates, not 2")):
            polynomial_containment(pts, 1)
        with pytest.raises(ValueError, match=re.escape(
                "point 0 has 3 coordinates, not 2")):
            polynomial_containment(np.ones((20, 3)), 1)

    def test_points_convert_as_float_pairs(self):
        # one array conversion of ints (rounded: above 2^53), Fractions,
        # numpy and Python floats gives the bits of float() on each entry
        ts = np.linspace(-1.0, 1.0, 40)
        pts = [(k * 2 ** 57 + 1, Fraction(k, 3)) for k in range(-20, 20)]
        pts += [(np.float64(t), float(t) ** 2) for t in ts]
        want = polynomial_containment(
            [(float(a), float(b)) for a, b in pts], 2)
        got = polynomial_containment(pts, 2)
        assert np.array(got["singular_values"]).tobytes() == \
            np.array(want["singular_values"]).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, bad):
        pts = [(t, 2.0 * t + 1.0) for t in np.linspace(-1.0, 1.0, 20)]
        pts[7] = (0.5, bad)
        pts[12] = (bad, 0.5)
        with pytest.raises(ValueError, match=re.escape(
                f"points[7][1] is not finite: {bad}")):
            polynomial_containment(pts, 1)
