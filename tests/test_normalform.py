"""Tests for the second-kind realization and its coordinate maps."""

import functools
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goh_atlas import freelie, normalform
from goh_atlas.freelie import bch, bernoulli_numbers, generate_basis, \
    structure_table
from goh_atlas.normalform import (
    attachment_trees,
    realize_frame,
    signed_attachment,
    verify_normal_form,
)
from goh_atlas.polyfield import (
    Frame,
    Poly,
    PolyVec,
    _Packed,
    growth_vector,
    heisenberg_frame,
    lie_bracket_fields,
    martinet_frame,
)
from goh_atlas.serialize import artifact, dumps
from lie_helpers import (
    _ad_series,
    compose,
    lie_elements,
    reference_realize,
    signed_table,
    verify_second_kind,
)

F = Fraction


def sign_oracle(basis):
    """Independent sign recursion on standard factorizations."""
    from goh_atlas.freelie import standard_factorization

    sig = {}
    for w in basis.words:
        if len(w) == 1:
            sig[w] = 1
        else:
            u, v = standard_factorization(w)
            if len(u) == 1:
                sig[w] = sig[v]
            elif len(v) == 1:
                sig[w] = -sig[u]
            else:
                sig[w] = sig[u] * sig[v]
    return tuple(sig[w] for w in basis.words)


def test_bernoulli_numbers():
    want = [F(1), F(1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0]
    assert bernoulli_numbers(8) == want


class TestAttachment:
    def test_f23_trees_and_signs(self):
        basis = generate_basis(2, 3)
        signs, trees = signed_attachment(basis)
        assert signs == (1, 1, 1, 1, -1)
        # words 1,2,12,112,122: 12=[B1,B2], 112=[B1,B12], 122=[B2,B12]
        assert trees == (None, None, (0, 1), (0, 2), (1, 2))

    def test_f24_signs(self):
        basis = generate_basis(2, 4)
        signs, _ = signed_attachment(basis)
        by_word = dict(zip(basis.words, signs))
        assert by_word[(1, 1, 2, 2)] == -1
        assert by_word[(1, 2, 2, 2)] == 1
        assert by_word[(1, 1, 1, 2)] == 1

    @pytest.mark.parametrize("rank,step", [(2, 5), (3, 3)])
    def test_signs_match_recursion_oracle(self, rank, step):
        basis = generate_basis(rank, step)
        signs, _ = signed_attachment(basis)
        assert signs == sign_oracle(basis)

    def test_trees_need_no_table(self):
        basis = generate_basis(2, 4)
        trees = attachment_trees(basis)
        _, from_table = signed_attachment(basis)
        assert trees == from_table


def first_kind_fields(basis):
    """All n left-invariant fields in first-kind coordinates."""
    signs, _ = signed_attachment(basis)
    n = basis.dim
    y_el = {j: Poly.var(n, j) for j in range(n)}
    return [PolyVec([acc.get(j, Poly.zero(n)) for j in range(n)])
            for acc in _ad_series(structure_table(basis), signs, y_el,
                                  Poly.one(n))]


def stratified_fields(frame, basis):
    """All n bracket fields of a rank-r frame, one per basis word."""
    fields = []
    for idx, tree in enumerate(attachment_trees(basis)):
        if tree is None:
            fields.append(frame.fields[basis.words[idx][0] - 1])
        else:
            fields.append(lie_bracket_fields(fields[tree[0]],
                                             fields[tree[1]]))
    return fields


class TestFirstKind:
    def test_heisenberg_symmetric_model(self):
        fields = first_kind_fields(generate_basis(2, 2))
        y1 = Poly.var(3, 0)
        y2 = Poly.var(3, 1)
        half = F(1, 2)
        assert fields[0] == PolyVec(
            [Poly.one(3), Poly.zero(3), y2 * -half])
        assert fields[1] == PolyVec(
            [Poly.zero(3), Poly.one(3), y1 * half])
        assert fields[2] == PolyVec.coordinate(3, 2)


class TestRealizeFrame:
    def test_rank1_step1(self):
        frame, maps = realize_frame(generate_basis(1, 1))
        assert frame.fields == (PolyVec([Poly.one(1)]),)
        assert maps.psi == [Poly.var(1, 0)]

    def test_heisenberg_closed_form(self):
        frame, maps = realize_frame(generate_basis(2, 2))
        assert frame.fields == heisenberg_frame().fields
        x1, x2, x3 = (Poly.var(3, i) for i in range(3))
        assert maps.psi == [x1, x2, x3 - x1 * x2 * F(1, 2)]
        assert maps.psi_inv == [x1, x2, x3 + x1 * x2 * F(1, 2)]
        assert maps.fields[2] == PolyVec.coordinate(3, 2)

    def test_f23_closed_form(self):
        frame, _ = realize_frame(generate_basis(2, 3))
        n = 5
        x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
        want_x2 = PolyVec([
            Poly.zero(n),
            Poly.one(n),
            x1,
            x1 * x1 * F(1, 2),
            x1 * x2,
        ])
        assert frame.fields[0] == PolyVec.coordinate(n, 0)
        assert frame.fields[1] == want_x2
        assert frame.normal_form and frame.weights == (1, 1, 2, 3, 3)
        assert frame.labels == ((1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2))

    @pytest.mark.parametrize("rank,step", [(2, 3), (2, 4), (2, 5)])
    def test_psi_inverse_exact(self, rank, step):
        _, maps = realize_frame(generate_basis(rank, step))
        n = maps.basis.dim
        ident = [Poly.var(n, i) for i in range(n)]
        assert [compose(p, maps.psi_inv) for p in maps.psi] == ident
        assert [compose(p, maps.psi) for p in maps.psi_inv] == ident

    @pytest.mark.parametrize("rank,step",
                             [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3)])
    def test_bracket_homomorphism(self, rank, step):
        # bracketing the frame per each word's attachment tree must land
        # on the coordinate field of that basis element, exactly
        frame, maps = realize_frame(generate_basis(rank, step))
        assert stratified_fields(frame, maps.basis) == maps.fields

    def test_graded_triangularity(self):
        frame, maps = realize_frame(generate_basis(2, 4))
        weights = frame.weights
        for k in range(frame.r):
            for j, comp in enumerate(frame.fields[k].comps):
                if j == k or comp.is_zero():
                    continue
                degs = {sum(w * e for w, e in zip(weights, exp))
                        for exp in comp.terms}
                assert degs == {weights[j] - weights[k]}
                assert all(weights[v] < weights[j] for v in comp.variables())

    def test_equiregularity_at_rational_points(self):
        frame, _ = realize_frame(generate_basis(2, 3))
        rng = random.Random(7)
        for _ in range(5):
            p = [F(rng.randrange(-3, 4), rng.randrange(1, 5))
                 for _ in range(5)]
            assert growth_vector(frame, p, 3) == [2, 3, 5]

    def test_f24_growth_at_zero(self):
        frame, _ = realize_frame(generate_basis(2, 4))
        assert growth_vector(frame, [0] * 8, 4) == [2, 3, 5, 8]

    def test_realization_json(self):
        _, maps = realize_frame(generate_basis(2, 2))
        data = maps.to_json()
        assert data["schema"] == "goh-atlas/1"
        assert data["type"] == "realization"
        assert len(data["psi"]) == 3 and len(data["coordinate_fields"]) == 3


class TestVerifyNormalForm:
    def test_realized_frames_pass(self):
        for step in (2, 3, 4):
            frame, _ = realize_frame(generate_basis(2, step))
            assert verify_normal_form(frame)["ok"]

    def test_martinet_passes(self):
        assert verify_normal_form(martinet_frame())["ok"]

    def test_shifted_frame_fails_at_2_1(self):
        bad = Frame([
            PolyVec.coordinate(2, 0),
            PolyVec([Poly.one(2), Poly.one(2)]),
        ])
        report = verify_normal_form(bad)
        assert not report["ok"]
        assert (report["violations"][0]["k"],
                report["violations"][0]["j"]) == (2, 1)

    def test_x1_must_be_pure_translation(self):
        x2 = Poly.var(3, 1)
        bad = Frame([
            PolyVec([Poly.one(3), Poly.zero(3), x2]),
            PolyVec.coordinate(3, 1),
        ])
        report = verify_normal_form(bad)
        assert not report["ok"]
        assert any(v["k"] == 1 and v["j"] == 3 for v in report["violations"])


class TestVerifySecondKind:
    def test_heisenberg_exact(self):
        frame, maps = realize_frame(generate_basis(2, 2))
        assert verify_second_kind(maps.fields, [1, 1, 1], exact=True) == 0.0

    def test_origin_trivial(self):
        _, maps = realize_frame(generate_basis(2, 3))
        assert verify_second_kind(maps.fields, [0.0] * 5) == 0.0

    def test_f23_numeric_residual(self):
        _, maps = realize_frame(generate_basis(2, 3))
        rng = random.Random(19)
        for _ in range(5):
            x = [rng.uniform(-1, 1) for _ in range(5)]
            assert verify_second_kind(maps.fields, x) <= 1e-10

    def test_f25_exact_random_rational(self):
        _, maps = realize_frame(generate_basis(2, 5))
        rng = random.Random(4)
        x = [F(rng.randrange(-2, 3), rng.randrange(1, 4))
             for _ in range(maps.basis.dim)]
        assert verify_second_kind(maps.fields, x, exact=True) == 0.0

    def test_tolerance_enforced(self):
        from goh_atlas.errors import NumericsError

        # a frame that is not a second-kind chart for these labels
        fields = [PolyVec.coordinate(2, 0),
                  PolyVec([Poly.one(2), Poly.one(2)])]
        with pytest.raises(NumericsError):
            verify_second_kind(fields, [1.0, 1.0], tol=1e-8)

    def test_requires_all_fields(self):
        frame, _ = realize_frame(generate_basis(2, 3))
        with pytest.raises(ValueError):
            verify_second_kind(frame.fields, [0.0] * 5)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, bad, exact):
        _, maps = realize_frame(generate_basis(2, 2))
        for i in range(3):
            x = [0.5, 0.0, 0.25]
            x[i] = bad
            with pytest.raises(ValueError, match=f"point coordinate {i} is "
                               f"not finite: {bad!r}"):
                verify_second_kind(maps.fields, x, exact=exact)


def realized_polys(maps):
    """Every polynomial of a realization: psi, psi_inv, then the fields."""
    return maps.psi + maps.psi_inv + [q for f in maps.fields for q in f.comps]


def shape_id(shape):
    return f"r{shape[0]}s{shape[1]}"


# sha256 of the sorted term lists, taken from the tensor chart route
SORTED_DIGESTS = {
    (2, 3): "65e44ea750fb0ae7", (2, 4): "43891cbdb0562015",
    (2, 5): "706ba1d414ba0d37", (2, 6): "c896b38b9be86b2f",
    (3, 3): "29709465f7ca4d58", (3, 4): "d79cfdac8e0ee873",
    (4, 3): "19f0bc4c95896066"}


@pytest.mark.parametrize("shape", list(SORTED_DIGESTS), ids=shape_id)
def test_realization_terms_are_sorted(shape):
    """psi, psi_inv and the coordinate fields: values, and terms sorted by
    exponent tuple.

    Float evaluators sum terms in dict order, so the order is part of the
    result; sorting makes it a function of the polynomial.
    """
    _, maps = realize_frame(generate_basis(*shape))
    h = hashlib.sha256()
    for p in realized_polys(maps):
        terms = list(p.terms.items())
        assert terms == sorted(terms)
        h.update(repr(terms).encode())
    assert h.hexdigest()[:16] == SORTED_DIGESTS[shape]


def reversed_log(t_log):
    """t_log with its keys, and the terms of each packed coefficient, in
    reverse order: the same tensor summed in another order."""
    def log(g, step, one=F(1)):
        return {w: _Packed(dict(reversed(c.terms.items())), c.den, c.top,
                           c.ring) if isinstance(c, _Packed) else c
                for w, c in reversed(t_log(g, step, one).items())}
    return log


def test_outputs_do_not_read_the_order_of_t_log(monkeypatch):
    """Horner's rule and the power series sum log g in different orders.
    Realization reports, the in-process term order of realized polynomials
    and bch results must not depend on that order."""
    basis = generate_basis(2, 4)
    a, b = {0: F(1, 2), 3: F(-2, 3), 4: F(5)}, {1: F(3), 2: F(1, 5)}

    def outputs():
        out = [repr(list(bch(a, b, basis).items()))]
        for shape in [(2, 4), (3, 3)]:
            frame, maps = realize_frame(generate_basis(*shape))
            out.append(dumps(artifact("realization_report", {
                "frame": frame, "realization": maps})))
            out.append(repr([list(p.terms.items())
                             for p in realized_polys(maps)]))
        return out

    want = outputs()
    monkeypatch.setattr(freelie, "t_log", reversed_log(freelie.t_log))
    monkeypatch.setattr(normalform, "t_log", reversed_log(normalform.t_log))
    assert outputs() == want


ORACLE_SHAPES = [(2, s) for s in range(2, 8)] + [(3, 3), (3, 4), (3, 5),
                                                 (4, 3), (4, 4)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
def test_packed_realization_matches_poly_reference(shape):
    basis = generate_basis(*shape)
    frame, maps = realize_frame(basis)
    ref_frame, ref = reference_realize(basis)
    assert [p.terms for p in realized_polys(maps)] == \
        [q.terms for q in realized_polys(ref)]
    assert maps.signs == ref.signs
    assert frame.fields == ref_frame.fields


PUSHFORWARD_SHAPES = [(2, s) for s in range(2, 7)] + [(3, 3), (3, 4), (4, 3)]


@pytest.mark.parametrize("shape", PUSHFORWARD_SHAPES, ids=shape_id)
def test_psi_pushes_each_field_to_its_first_kind_field(shape):
    """D psi . X_k = Y_k o psi exactly, Y_k the first-kind field of the
    Bernoulli ad-series: an oracle that shares neither M(x) nor its
    triangular solve with realize_frame (reference_realize shares both)."""
    _, maps = realize_frame(generate_basis(*shape))
    n = maps.basis.dim
    jac = [[p.diff(j) for j in range(n)] for p in maps.psi]
    for x_k, y_k in zip(maps.fields, first_kind_fields(maps.basis)):
        pushed = [sum((row[j] * x_k.comps[j] for j in range(n)
                       if row[j] and x_k.comps[j]), Poly.zero(n))
                  for row in jac]
        assert pushed == [compose(c, maps.psi) for c in y_k.comps]


@pytest.mark.parametrize("shape", [(2, 6), (3, 4), (4, 3)], ids=shape_id)
def test_realized_exponents_stay_within_the_step(shape):
    # the weight grading: x_j has weight |w_j| >= 1 and every coefficient
    # has weight <= step, so no exponent exceeds the step (the bound of the
    # packed ring)
    _, maps = realize_frame(generate_basis(*shape))
    step = maps.basis.step
    assert max(k for p in realized_polys(maps) for e in p.terms
               for k in e) <= step


@functools.lru_cache(maxsize=None)
def realized_maps(rank, step):
    return realize_frame(generate_basis(rank, step))[1]


RATIONALS = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


@pytest.mark.parametrize("shape", [(2, 5), (2, 6), (3, 3)], ids=shape_id)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chart_inverse_on_random_rational_points(shape, data):
    maps = realized_maps(*shape)
    n = maps.basis.dim
    x = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    y = [p.eval(x) for p in maps.psi]
    assert [p.eval(y) for p in maps.psi_inv] == x
    y = [p.eval(x) for p in maps.psi_inv]
    assert [p.eval(y) for p in maps.psi] == x


def combination(fields, coefs):
    """sum_i coefs[i] * fields[i], exactly."""
    out = PolyVec([Poly.zero(fields[0].n)] * fields[0].n)
    for i, c in coefs.items():
        out = out + fields[i] * c
    return out


# the pairs (i, j), i < j, of basis indices with s_i = -1 and |w_i| + |w_j|
# <= step at (2, 7), the first shape with any: B_4 (the word 122) and the
# three of weight 4.  Below (2, 7) no sign of the ad factor acts
SIGNED_PAIRS = {(2, 7): [(4, 5), (4, 6), (4, 7)]}


@pytest.mark.parametrize("shape", [(2, 4), (3, 3), (2, 5), (2, 7)],
                         ids=shape_id)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_realization_is_a_lie_homomorphism(shape, data):
    # [sum a_i X_i, sum b_j X_j] = sum c_k X_k, c the bracket of a and b
    # in the signed attachment basis B that the fields realize; at (2, 7)
    # on every fixed pair where a sign acts, not on random elements
    maps = realized_maps(*shape)
    n = maps.basis.dim
    table = signed_table(maps.basis.table, maps.signs)
    pairs = [({i: 1}, {j: 1}) for i, j in SIGNED_PAIRS[shape]] \
        if shape in SIGNED_PAIRS else [
            (data.draw(lie_elements(n)), data.draw(lie_elements(n)))]
    for a, b in pairs:
        got = lie_bracket_fields(combination(maps.fields, a),
                                 combination(maps.fields, b))
        assert got == combination(maps.fields, table.bracket_elements(a, b))
