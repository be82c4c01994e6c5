"""Tests for the four metabelian decision routes."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goh_atlas import cli, metabelian, polyfield
from goh_atlas.errors import PreconditionError
from goh_atlas.freelie import generate_basis, structure_table
from goh_atlas.metabelian import (
    coefficient_dependence,
    is_metabelian,
    is_metabelian_algebra,
    translation_invariance,
)
from goh_atlas.normalform import realize_frame
from goh_atlas.polyfield import Frame, Poly, PolyVec, heisenberg_frame, martinet_frame
from goh_atlas.polyfield import lie_bracket_fields
from lie_helpers import f23_frame, reference_is_metabelian

F = Fraction


def realized(rank, step):
    frame, maps = realize_frame(generate_basis(rank, step))
    return frame, maps


class TestFrameLevel:
    def test_heisenberg_true(self):
        v = is_metabelian(heisenberg_frame(), 4)
        assert v.metabelian and v.witness is None

    def test_f24_true(self):
        frame, _ = realized(2, 4)
        assert is_metabelian(frame, 4).metabelian

    def test_f25_false_with_witness(self):
        frame, _ = realized(2, 5)
        v = is_metabelian(frame, 5)
        assert not v.metabelian
        assert v.witness == ((1, 2), (1, 1, 2))
        assert v.nonzero_component is not None

    def test_f27_false(self):
        frame, _ = realized(2, 7)
        v = is_metabelian(frame, 7)
        assert not v.metabelian
        assert v.witness == ((1, 2), (1, 1, 2))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            is_metabelian(heisenberg_frame(), 3)

    @pytest.mark.parametrize("depth", [4.5, "6", True, None, F(6)])
    def test_depth_of_another_type_is_refused(self, depth):
        with pytest.raises(TypeError, match="depth must be an integer, got "
                                            + re.escape(repr(depth))):
            is_metabelian(heisenberg_frame(), depth)

    def test_an_integral_depth_is_read_as_an_int(self):
        v = is_metabelian(heisenberg_frame(), np.int64(5))
        assert type(v.depth) is int and v == is_metabelian(
            heisenberg_frame(), 5)

    def test_reorder_invariance(self):
        frame, _ = realized(2, 5)
        swapped = Frame([frame.fields[1], frame.fields[0]])
        assert is_metabelian(frame, 5).metabelian \
            == is_metabelian(swapped, 5).metabelian
        frame24, _ = realized(2, 4)
        swapped24 = Frame([frame24.fields[1], frame24.fields[0]])
        assert is_metabelian(swapped24, 4).metabelian

    def test_verdict_json(self):
        frame, _ = realized(2, 5)
        data = is_metabelian(frame, 5).to_json()
        assert data["metabelian"] is False and data["depth"] == 5
        assert data["witness"]["I"] == [1, 2]
        assert data["witness"]["J"] == [1, 1, 2]
        ok = is_metabelian(heisenberg_frame(), 4).to_json()
        assert ok["metabelian"] is True and "witness" not in ok


class TestAlgebraLevel:
    def test_f23_true(self):
        assert is_metabelian_algebra(structure_table(generate_basis(2, 3)))

    def test_f24_true(self):
        assert is_metabelian_algebra(structure_table(generate_basis(2, 4)))

    def test_f25_false(self):
        assert not is_metabelian_algebra(structure_table(generate_basis(2, 5)))

    def test_f27_false(self):
        assert not is_metabelian_algebra(structure_table(generate_basis(2, 7)))

    def test_abelian_true(self):
        assert is_metabelian_algebra(structure_table(generate_basis(3, 1)))


class TestCoefficientDependence:
    def test_f23_true(self):
        frame, _ = realized(2, 3)
        assert coefficient_dependence(frame)

    def test_martinet_true(self):
        assert coefficient_dependence(martinet_frame())

    def test_f25_false(self):
        frame, _ = realized(2, 5)
        assert not coefficient_dependence(frame)

    def test_requires_normal_form(self):
        bad = Frame([PolyVec([Poly.one(2), Poly.one(2)]),
                     PolyVec.coordinate(2, 1)])
        with pytest.raises(ValueError):
            coefficient_dependence(bad)


class TestTranslationInvariance:
    def test_f23_zero(self):
        frame, _ = realized(2, 3)
        rng = random.Random(31)
        samples = []
        for _ in range(6):
            x = [F(rng.randrange(-3, 4), rng.randrange(1, 4))
                 for _ in range(5)]
            tau = [F(rng.randrange(-3, 4), rng.randrange(1, 4))
                   for _ in range(3)]
            samples.append((x, tau))
        assert translation_invariance(frame, samples) == 0.0

    def test_zero_shift_trivial(self):
        frame, _ = realized(2, 5)
        x = [F(1)] * frame.n
        assert translation_invariance(frame, [(x, [F(0)] * (frame.n - 2))]) == 0.0

    def test_f25_positive(self):
        frame, _ = realized(2, 5)
        rng = random.Random(32)
        samples = []
        for _ in range(4):
            x = [F(rng.randrange(-2, 3), 2) for _ in range(frame.n)]
            tau = [F(rng.randrange(1, 3)) for _ in range(frame.n - 2)]
            samples.append((x, tau))
        assert translation_invariance(frame, samples) > 0.0


@pytest.mark.parametrize("check", [
    coefficient_dependence, lambda frame: translation_invariance(frame, [])])
def test_a_frame_not_in_normal_form_is_a_precondition_error(check):
    # the error goh_polynomials passes on, so it checks the form once
    bad = Frame([PolyVec([Poly.one(2), Poly.one(2)]),
                 PolyVec.coordinate(2, 1)])
    with pytest.raises(PreconditionError,
                       match="^frame is not in normal form$"):
        check(bad)


@pytest.mark.parametrize("step", [2, 3, 4, 5])
def test_route_equivalence(step):
    # all four decision routes must agree on the realized frames
    basis = generate_basis(2, step)
    frame, maps = realize_frame(basis)
    expected = step <= 4
    assert is_metabelian(frame, max(4, step)).metabelian is expected
    assert is_metabelian_algebra(maps.basis.table) is expected
    assert coefficient_dependence(frame) is expected
    rng = random.Random(step)
    samples = []
    for _ in range(5):
        x = [F(rng.randrange(-2, 3), rng.randrange(1, 3))
             for _ in range(frame.n)]
        tau = [F(rng.randrange(-2, 3), rng.randrange(1, 3))
               for _ in range(frame.n - 2)]
        samples.append((x, tau))
    assert (translation_invariance(frame, samples) == 0.0) is expected


def assert_sweep_matches_reference(frame, depth):
    """Same verdict, witness and component as the sweep over every
    multi-index pair, and the same field pairs bracketed, in order, but for
    each X_I with itself, which is zero."""
    want, want_pairs = reference_is_metabelian(frame, depth)
    # the reference's fields are memoized, so X_I with itself is one object
    self_pairs = [x for x, y in want_pairs if x is y]
    assert all(lie_bracket_fields(x, x).is_zero() for x in self_pairs)
    got_pairs = []

    def recording(x, y):
        got_pairs.append((x, y))
        return lie_bracket_fields(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metabelian, "lie_bracket_fields", recording)
        got = is_metabelian(frame, depth)
    assert got == want
    assert got_pairs == [(x, y) for x, y in want_pairs if x is not y]
    return got


@pytest.mark.parametrize("make, depth, expected", [
    (heisenberg_frame, 9, True),
    (martinet_frame, 9, True),
    (f23_frame, 8, True),
    (lambda: realized(2, 4)[0], 6, True),
    (lambda: realized(2, 5)[0], 6, False),
    (lambda: realized(2, 6)[0], 6, False),
    (lambda: realized(3, 3)[0], 5, True),
    (lambda: realized(3, 4)[0], 4, False),
    (heisenberg_frame, 12, True),
    (lambda: realized(3, 3)[0], 8, True),
], ids=["heisenberg", "martinet", "f23", "f24", "f25", "f26", "f33", "f34",
        "heisenberg-12", "f33-8"])
def test_sweep_matches_the_reference_on_classic_frames(make, depth, expected):
    assert assert_sweep_matches_reference(make(), depth).metabelian \
        is expected


MEMO_BRACKETS = 200


@pytest.fixture
def memo_brackets(monkeypatch):
    """The brackets _nested_brackets forms from here on; one past
    MEMO_BRACKETS fails the test at once."""
    formed = []

    def counting(x, y):
        formed.append((x, y))
        if len(formed) > MEMO_BRACKETS:
            raise AssertionError(f"more than {MEMO_BRACKETS} brackets formed")
        return lie_bracket_fields(x, y)

    monkeypatch.setattr(polyfield, "lie_bracket_fields", counting)
    return formed


@pytest.mark.parametrize("depth", [400, 10**6])
def test_deep_sweep_of_heisenberg_stops_at_its_last_bracket(memo_brackets,
                                                             depth):
    # X_J of length 3 all vanish, so nothing past length 3 is bracketed
    assert is_metabelian(heisenberg_frame(), depth) \
        == metabelian.MetabelianVerdict(True, depth)
    assert len(memo_brackets) == 8


def test_deep_sweep_of_f33_forms_few_brackets(memo_brackets):
    frame, _ = realized(3, 3)  # realizing brackets no fields
    assert not memo_brackets
    assert is_metabelian(frame, 14).metabelian
    # 9 of length 2 (6 nonzero), 18 of length 3 (all nonzero) and 54 of
    # length 4, all zero
    assert len(memo_brackets) == 81


def test_deep_metabelian_command_exits_0(memo_brackets, capsys):
    code = cli.main(["metabelian", "--rank", "3", "--step", "3",
                     "--depth", "14"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert '"metabelian": true' in out.out
    assert out.err == "metabelian=True (depth 14)\n"


@st.composite
def nilpotent_frames(draw):
    """Random triangular polynomial frames: coordinate j reads only
    coordinates below it, so every bracket sweep ends."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, 3))
    coefs = st.fractions(-2, 2, max_denominator=3).filter(bool)
    fields = []
    for _ in range(r):
        comps = []
        for j in range(n):
            terms = {}
            for _ in range(draw(st.integers(0, 2))):
                e = [draw(st.integers(0, 2)) if i < j else 0
                     for i in range(n)]
                terms[tuple(e)] = draw(coefs)
            comps.append(Poly(n, terms))
        fields.append(PolyVec(comps))
    return Frame(fields)


@settings(max_examples=60, deadline=None)
@given(frame=nilpotent_frames(), depth=st.integers(4, 7))
def test_sweep_matches_the_reference_on_random_frames(frame, depth):
    assert_sweep_matches_reference(frame, depth)
