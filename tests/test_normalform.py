"""Tests for the second-kind realization and its coordinate maps."""

import hashlib
import random
from fractions import Fraction

import pytest

from goh_atlas.freelie import generate_basis, structure_table
from goh_atlas.normalform import (
    attachment_trees,
    bernoulli_numbers,
    first_kind_fields,
    realize_frame,
    signed_attachment,
    stratified_fields,
    verify_normal_form,
    verify_second_kind,
)
from goh_atlas.polyfield import (
    Frame,
    Poly,
    PolyVec,
    growth_vector,
    heisenberg_frame,
    martinet_frame,
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
        table = structure_table(basis)
        signs, trees = signed_attachment(table)
        assert signs == (1, 1, 1, 1, -1)
        # words 1,2,12,112,122: 12=[B1,B2], 112=[B1,B12], 122=[B2,B12]
        assert trees == (None, None, (0, 1), (0, 2), (1, 2))

    def test_f24_signs(self):
        basis = generate_basis(2, 4)
        signs, _ = signed_attachment(structure_table(basis))
        by_word = dict(zip(basis.words, signs))
        assert by_word[(1, 1, 2, 2)] == -1
        assert by_word[(1, 2, 2, 2)] == 1
        assert by_word[(1, 1, 1, 2)] == 1

    @pytest.mark.parametrize("rank,step", [(2, 5), (3, 3)])
    def test_signs_match_recursion_oracle(self, rank, step):
        basis = generate_basis(rank, step)
        signs, _ = signed_attachment(structure_table(basis))
        assert signs == sign_oracle(basis)

    def test_trees_need_no_table(self):
        basis = generate_basis(2, 4)
        trees = attachment_trees(basis)
        _, from_table = signed_attachment(structure_table(basis))
        assert trees == from_table


class TestFirstKind:
    def test_heisenberg_symmetric_model(self):
        table = structure_table(generate_basis(2, 2))
        fields = first_kind_fields(table)
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
        assert frame.fields == [PolyVec([Poly.one(1)])]
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
        assert [p.compose(maps.psi_inv) for p in maps.psi] == ident
        assert [p.compose(maps.psi) for p in maps.psi_inv] == ident

    @pytest.mark.parametrize("rank,step", [(2, 2), (2, 3), (2, 4)])
    def test_bracket_homomorphism(self, rank, step):
        # bracketing the frame per each word's attachment tree must land
        # on the transported field of that basis element, exactly
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


@pytest.mark.parametrize("shape, digest", [
    ((2, 3), "ff073661936087dc"), ((2, 4), "552b2dc605d8e556"),
    ((2, 5), "4dec28534b78f0c1"), ((2, 6), "901843e358d7c55f"),
    ((3, 3), "5490b2f2a2dfc174"), ((3, 4), "94ad216d63af99a2"),
    ((4, 3), "2c76c916331368f1")])
def test_realization_term_order_is_pinned(shape, digest):
    """psi, psi_inv and the coordinate fields, values and term order.

    Float evaluators sum terms in dict order, so the order is part of the
    result; the digests were taken from the tuple-keyed Fraction kernel.
    """
    _, maps = realize_frame(generate_basis(*shape))
    h = hashlib.sha256()
    for p in maps.psi + maps.psi_inv + [q for f in maps.fields for q in f.comps]:
        h.update(repr(list(p.terms.items())).encode())
    assert h.hexdigest()[:16] == digest
