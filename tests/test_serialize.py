"""The artifact boundary: every writer's header, the word codec, and
to_json/from_json round-trips on random artifacts."""

import json
import re
from collections import OrderedDict, namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goh_atlas import scenarios, serialize
from goh_atlas.freelie import generate_basis
from goh_atlas.goh import goh_polynomials, trace_variety
from goh_atlas.metabelian import is_metabelian
from goh_atlas.normalform import realize_frame
from goh_atlas.polyfield import Frame, Poly, PolyVec, heisenberg_frame
from goh_atlas.trajectories import (
    Control,
    SampledCurve,
    extremal_residuals,
    recover_abnormal_covector,
)


def reloaded(load, obj) -> str:
    """dumps of the object that load builds from obj's written JSON."""
    return serialize.dumps(load(json.loads(serialize.dumps(obj))))


# ---------------------------------------------------------------------------
# words

class TestWords:
    def test_rank_below_10_keeps_digit_strings(self):
        assert generate_basis(9, 2).to_json()["words"][8:11] == \
            ["9", "12", "13"]

    def test_rank_10_basis_round_trips(self):
        basis = generate_basis(10, 2)
        data = basis.to_json()
        assert data["words"][9:11] == [[10], [1, 2]]
        assert serialize._words_from_json(
            json.loads(serialize.dumps(data))["words"], "word") == basis.words

    def test_rank_10_realized_labels_round_trip(self):
        frame, _ = realize_frame(generate_basis(10, 2))
        back = Frame.from_json(json.loads(serialize.dumps(frame)))
        assert back.labels == frame.labels
        assert back.labels[9] == (10,)

    @pytest.mark.parametrize("bad", ["10", "", "1a", [0], [], [1, 2.0], 12])
    def test_bad_word_is_located(self, bad):
        # "10" was read as the letters 1 and 0
        words = generate_basis(2, 2).to_json()["words"]
        words[1] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"word 2: {bad!r} is not a word over the letters 1, 2, ...")):
            serialize._words_from_json(words, "word")

    def test_bad_label_is_located(self):
        frame = Frame([PolyVec.coordinate(2, 0), PolyVec.coordinate(2, 1)],
                      labels=((1,), (2,)))
        data = frame.to_json()
        data["labels"] = ["1", "20"]
        with pytest.raises(ValueError, match="^label 2: '20' is not a word"):
            Frame.from_json(data)
        data["labels"] = "12"
        with pytest.raises(ValueError, match="^labels must be a list"):
            Frame.from_json(data)


# ---------------------------------------------------------------------------
# headers

def _artifacts():
    """One object of every class that writes an artifact, and its type."""
    frame = heisenberg_frame()
    control = Control.from_function(lambda t: [1.0, t], 0.0, 1.0, 8)
    basis = generate_basis(2, 3)
    realized, maps = realize_frame(basis)
    system = goh_polynomials(realized, [0, 0, 0, 1, 0])
    return [
        (basis, "lyndon_basis"),
        (frame, "frame"),
        (maps, "realization"),
        (is_metabelian(realized, 4), "metabelian_verdict"),
        (system, "goh_system"),
        (trace_variety(system, resolution=8), "variety_trace"),
        (control, "control"),
        (SampledCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]]), "curve"),
        (extremal_residuals(frame, control, [0.0] * 3, [0.0, 0.0, 1.0]),
         "extremal_residuals"),
        (recover_abnormal_covector(frame, control, [0.0] * 3),
         "covector_recovery"),
        (scenarios._Report("heisenberg"), "scenario_report"),
    ]


def test_every_writer_puts_the_checked_header_first():
    for obj, kind in _artifacts():
        data = obj.to_json()
        serialize.check_artifact(data, kind)
        assert list(data)[:2] == ["schema", "type"]


def test_artifact_is_the_header_then_the_fields():
    data = serialize.artifact("control", {"t": [0.0], "values": [[1.0]]})
    assert list(data.items()) == [("schema", "goh-atlas/1"),
                                  ("type", "control"), ("t", [0.0]),
                                  ("values", [[1.0]])]


def test_ratio_writes_p_over_q_and_passes_floats():
    assert [serialize._ratio(c) for c in
            (Fraction(-3, 4), Fraction(2), 0.5)] == ["-3/4", "2/1", 0.5]


# ---------------------------------------------------------------------------
# round-trips: dumps(X.from_json(json.loads(dumps(x)))) == dumps(x)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
RATIONALS = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                      st.integers(1, 10 ** 6))


@st.composite
def polys(draw, n):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return Poly(n, draw(st.dictionaries(exps, RATIONALS, max_size=4)))


@st.composite
def frames(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 3))
    fields = [PolyVec([draw(polys(n)) for _ in range(n)]) for _ in range(r)]
    weights = draw(st.none() | st.lists(st.integers(1, 7), min_size=n,
                                        max_size=n))
    labels = draw(st.none() | st.lists(
        st.lists(st.integers(1, 11), min_size=1, max_size=4).map(tuple),
        min_size=r, max_size=r).map(tuple))
    return Frame(fields, weights=weights, labels=labels)


@st.composite
def grids(draw):
    """A uniform grid and, for each node, a row of m values."""
    size = draw(st.integers(1, 12))
    t0 = draw(st.floats(-10.0, 10.0))
    t1 = t0 + draw(st.floats(0.1, 10.0))
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(FINITE, min_size=m, max_size=m),
                         min_size=size + 1, max_size=size + 1))
    return np.linspace(t0, t1, size + 1), rows


@settings(max_examples=60, deadline=None)
@given(frame=frames())
def test_frame_round_trips(frame):
    back = Frame.from_json(json.loads(serialize.dumps(frame)))
    assert serialize.dumps(back) == serialize.dumps(frame)
    # a label (10,) read back as (1, 0) would write the same bytes
    assert (back.fields, back.weights, back.labels) == \
        (frame.fields, frame.weights, frame.labels)


@settings(max_examples=60, deadline=None)
@given(grid=grids())
def test_control_round_trips(grid):
    control = Control(*grid)
    assert reloaded(Control.from_json, control) == serialize.dumps(control)


@settings(max_examples=60, deadline=None)
@given(grid=grids(), ts=st.lists(st.floats(-1e6, 1e6), min_size=13,
                                 max_size=13, unique=True))
def test_curve_round_trips(grid, ts):
    rows = grid[1]
    curve = SampledCurve(sorted(ts)[:len(rows)], rows)
    assert reloaded(SampledCurve.from_json, curve) == serialize.dumps(curve)


# ---------------------------------------------------------------------------
# the emitter

def reference_escape(s: str) -> str:
    """serialize._escape as it was before its regex test: every character
    looked at in turn."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def reference_emit(obj, parts: list, pad: str):
    """serialize._emit before lists of ints were joined in one step: every
    item through the general path, every string through reference_escape."""
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(serialize._render_float(obj))
    elif isinstance(obj, Fraction):
        parts.append(f'"{obj}"')
    elif isinstance(obj, str):
        parts.append(f'"{reference_escape(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        inner = pad + serialize.INDENT
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f'{inner}"{reference_escape(k)}": ')
            reference_emit(v, parts, inner)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if scalars and len(seq) <= 16:
            parts.append("[")
            for i, v in enumerate(seq):
                reference_emit(v, parts, pad)
                if i + 1 < len(seq):
                    parts.append(", ")
            parts.append("]")
            return
        parts.append("[\n")
        inner = pad + serialize.INDENT
        for i, v in enumerate(seq):
            parts.append(inner)
            reference_emit(v, parts, inner)
            parts.append(",\n" if i + 1 < len(seq) else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    parts: list = []
    reference_emit(obj, parts, "")
    return "".join(parts) + "\n"


# the characters _escape rewrites, or nearly does: \x7f and \u2028 pass as
# they are
SPECIALS = '"\\\n\x1f\x7f\u2028'
TEXTS = st.text(st.sampled_from("aé" + SPECIALS), max_size=4)

JSON_SCALARS = st.one_of(
    st.integers(-10**20, 10**20), st.booleans(), FINITE,
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
    st.text(max_size=4), TEXTS)


def sized_lists(items):
    """Lists of 0, 1, 16 and 17 items: both sides of the inline rule."""
    return st.one_of(*[st.lists(items, min_size=k, max_size=k)
                       for k in (0, 1, 16, 17)])


def repeated_rows(row):
    """One 17-entry row at two depths of one object, and twice at one."""
    return {"a": row, "b": [list(row), {"c": row}, row]}


def repeated_keys(key_value):
    """One key at three depths of one object, and twice at one."""
    key, value = key_value
    return {key: value, "m": [{key: value}, {key: {key: value}}]}


# dumps renders each int row once per indent; [True] * 17 == [1] * 17
# and the two hash alike, yet print differently
UNIT_ROWS = st.sampled_from([[[1] * 17, [True] * 17],
                             [[True] * 17, [1] * 17]])

# floats at the edges of the one-format float path: a signed zero, the
# least subnormal, a shortest repr shorter than 17 digits, the first
# integral value rendered by %.17g, an odd integer that rounds to an
# integral float below 1e16, and a large negative value
EDGE_FLOATS = [-0.0, 5e-324, 0.1, 1e16, 9007199254740993.0, -1e308]
FLOATS = FINITE | st.sampled_from(EDGE_FLOATS)

# rows of floats (curves, pairings, candidates), the rows inline or not
FLOAT_MATRICES = st.lists(sized_lists(FLOATS) | sized_lists(FLOATS).map(tuple),
                          min_size=1, max_size=3)

JSON_VALUES = st.recursive(
    JSON_SCALARS | sized_lists(st.integers(-9, 9))
    | sized_lists(st.integers(-9, 9) | st.booleans())
    | sized_lists(FLOATS) | sized_lists(FLOATS | st.integers(-9, 9))
    | FLOAT_MATRICES
    | sized_lists(JSON_SCALARS)
    | st.lists(st.integers(-9, 9), min_size=17, max_size=17).map(
        repeated_rows)
    | UNIT_ROWS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | TEXTS, inner, max_size=3)
    | st.tuples(TEXTS, inner).map(repeated_keys),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_emit_matches_reference_byte_for_byte(value):
    assert serialize.dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("ch", [*SPECIALS, "\t", "\r", "\x00", "a"])
def test_each_character_escapes_as_the_reference(ch):
    for text in (ch, "ab" + ch, ch + ch + "é"):
        assert serialize.dumps({text: text}) == reference_dumps({text: text})


@pytest.mark.parametrize("value", [
    EDGE_FLOATS, EDGE_FLOATS * 3, [EDGE_FLOATS, EDGE_FLOATS * 3, [], [2.0]],
    [[x] for x in EDGE_FLOATS], [[-1e16, 1e16], (-9999999999999998.0,)]])
def test_float_rows_render_as_the_reference(value):
    assert serialize.dumps(value) == reference_dumps(value)


@settings(max_examples=100, deadline=None)
@given(value=FLOAT_MATRICES
       | FLOAT_MATRICES.map(lambda rows: rows + [[1, 2.5]]),
       batch=st.integers(1, 40))
def test_float_rows_in_batches_render_as_the_reference(value, batch):
    # rows of floats are formatted about FLOAT_BATCH floats at a time; an
    # int found in a later batch sends the whole list down the general path
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "FLOAT_BATCH", batch)
        assert serialize.dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("where", ["scalar", "row", "long row", "matrix"])
def test_a_non_finite_float_is_refused_on_every_path(bad, where):
    value = {"scalar": bad, "row": [0.5, bad], "long row": [0.5] * 16 + [bad],
             "matrix": [[0.5, 1.0], [2.0, bad]]}[where]
    with pytest.raises(ValueError, match="non-finite float has no JSON"):
        serialize.dumps(value)


def test_int_list_fast_path_keeps_bools_and_layout():
    assert serialize.dumps([1, True, 0]) == "[1, true, 0]\n"
    assert serialize.dumps(list(range(17))) == \
        "[\n" + "".join(f"  {i},\n" for i in range(16)) + "  16\n]\n"


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Thing:
    def to_json(self):
        return {"row": [0.25] * 17}


def test_subclasses_numpy_values_and_to_json_render_as_plain_values():
    point = namedtuple("point", "x y")
    value = OrderedDict([
        (_Str('k"ey'), [_Int(3), _Float(0.5), _Str("a\n"), True]),
        ("np", [np.float64(0.1), np.int64(7), np.bool_(True)]),
        ("array", np.array([[1, 2], [3, 4]])),
        ("rows", [[np.float64(0.5)] * 17, np.arange(17), [_Int(1)] * 17]),
        ("point", point(1, 2.0)), ("thing", _Thing())])
    plain = {'k"ey': [3, 0.5, "a\n", True],
             "np": [0.1, 7, True], "array": [[1, 2], [3, 4]],
             "rows": [[0.5] * 17, list(range(17)), [1] * 17],
             "point": [1, 2.0], "thing": {"row": [0.25] * 17}}
    assert serialize.dumps(value) == reference_dumps(plain)


@pytest.mark.parametrize("value", [
    {1: 2},
    # a key equal to a long row rendered before at the same indent
    [[[0] * 17], {(0,) * 17: 1}],
])
def test_a_key_that_is_not_a_string_is_refused(value):
    with pytest.raises(TypeError, match="JSON object keys must be strings"):
        serialize.dumps(value)
