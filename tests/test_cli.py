import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import goh_atlas
from goh_atlas import cli, freelie, options, scenarios, serialize, \
    trajectories
from goh_atlas.cli import main
from goh_atlas.freelie import generate_basis
from goh_atlas.normalform import realize_frame
from goh_atlas.options import BASIS_MAX, DEGREE_MAX, SAMPLES_MAX, STEP_MAX
from goh_atlas.polyfield import Frame, Poly, PolyVec, heisenberg_frame
from goh_atlas.trajectories import Control, SampledCurve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


class TestBasicCommands:
    def test_basis(self, capsys):
        code, data, _ = run_json(capsys, "basis", "--rank", "2", "--step", "3")
        assert code == 0
        assert data["dim"] == 5
        assert data["dims_by_length"] == [2, 1, 2]
        assert data["schema"] == "goh-atlas/1"

    def test_seed_is_a_demo_option_only(self, capsys):
        code, out, err = run(capsys, "basis", "--rank", "2", "--step", "2",
                             "--seed", "1")
        assert (code, out) == (2, "")
        assert "--seed" in err

    def test_realize_and_frame_file(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        code, _, _ = run(capsys, "realize", "--rank", "2", "--step", "3",
                         "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["type"] == "realization_report"
        assert data["frame"]["n"] == 5
        code, verdict, _ = run_json(capsys, "metabelian", "--frame", str(path))
        assert code == 0
        assert verdict["metabelian"] is True

    def test_metabelian_witness(self, capsys):
        code, data, _ = run_json(capsys, "metabelian", "--rank", "2",
                                 "--step", "5")
        assert code == 0
        assert data["metabelian"] is False
        assert data["witness"]["I"] == [1, 2]
        assert data["witness"]["J"] == [1, 1, 2]

    def test_goh_rational_lambda(self, capsys):
        code, data, _ = run_json(capsys, "goh", "--rank", "2", "--step", "3",
                                 "--lambda", "0,0,1/2,0,0")
        assert code == 0
        assert data["lambda"][2] == "1/2"
        poly = data["polys"]["1,2"]
        assert poly == [{"exp": [0, 0], "coef": "1/2"}]

    def test_trace_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "trace", "--rank", "2", "--step", "3",
                         "--lambda", "0,0,0,1,0", "--res", "64",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,branch_id"
        assert len(lines) > 10

    def test_spiral_json_and_csv(self, capsys, tmp_path):
        code, data, _ = run_json(capsys, "spiral", "--eps", "0.01",
                                 "--samples", "10")
        assert code == 0
        assert data["type"] == "curve"
        assert len(data["t"]) == 11
        path = tmp_path / "spiral.csv"
        code, _, _ = run(capsys, "spiral", "--eps", "0.01", "--samples", "10",
                         "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("t,x1,x2\n")

    def test_contain_circle(self, capsys, tmp_path):
        curve = SampledCurve.from_function(
            lambda t: (math.cos(t), math.sin(t)), 0.0, 2.0 * math.pi, 200)
        path = tmp_path / "circle.json"
        path.write_text(serialize.dumps(curve.to_json()))
        code, data, _ = run_json(capsys, "contain", "--curve", str(path),
                                 "--degree", "2")
        assert code == 0
        dims = [r["null_space_dim"] for r in data["results"]]
        assert dims == [0, 1]


class TestPipelineThroughFiles:
    def test_lift_then_recover(self, capsys, tmp_path):
        kappa = SampledCurve.from_function(lambda t: (0.0, t), 0.0, 1.0, 100)
        curve_path = tmp_path / "line.json"
        curve_path.write_text(serialize.dumps(kappa.to_json()))

        lift_path = tmp_path / "lift.json"
        code, _, _ = run(capsys, "lift", "--rank", "2", "--step", "3",
                         "--curve", str(curve_path), "--out", str(lift_path))
        assert code == 0
        lift = json.loads(lift_path.read_text())
        control_path = tmp_path / "control.json"
        control_path.write_text(serialize.dumps(lift["control"]))

        code, rec, _ = run_json(capsys, "recover", "--rank", "2", "--step",
                                "3", "--control", str(control_path))
        assert code == 0
        assert len(rec["candidates"]) == 1
        assert abs(abs(rec["candidates"][0][3]) - 1.0) < 1e-9

        code, res, _ = run_json(capsys, "residuals", "--rank", "2", "--step",
                                "3", "--control", str(control_path),
                                "--lambda", "0,0,0,1,0")
        assert code == 0
        assert res["sup_abnormal"] < 1e-10
        assert res["sup_goh"] < 1e-10

    def test_realized_and_read_frames_give_the_same_bytes(self, capsys,
                                                          tmp_path):
        # the float evaluators sum in term order, so a frame realized in
        # process and the same frame read from the file realize wrote must
        # carry one order for flow and recover to give the same bytes
        frame, curve, lift = (str(tmp_path / name) for name in
                              ("f27.json", "curve.json", "lift.json"))
        for argv in (["realize", "--rank", "2", "--step", "7", "--out", frame],
                     ["spiral", "--eps", "0.05", "--samples", "400",
                      "--out", curve],
                     ["lift", "--frame", frame, "--curve", curve,
                      "--out", lift]):
            assert run(capsys, *argv)[0] == 0
        for command in ("flow", "recover"):
            outs = [run(capsys, command, *source, "--control", lift)[:2]
                    for source in (["--rank", "2", "--step", "7"],
                                   ["--frame", frame])]
            assert outs[0][0] == 0
            assert outs[0] == outs[1]

    def test_flow_with_x0(self, capsys, tmp_path):
        control = {"schema": "goh-atlas/1", "type": "control",
                   "t": [0.0, 1.0], "values": [[0.0, 1.0], [0.0, 1.0]]}
        path = tmp_path / "u.json"
        path.write_text(serialize.dumps(control))
        code, data, _ = run_json(capsys, "flow", "--rank", "2", "--step", "2",
                                 "--control", str(path), "--x0", "1,0,0")
        assert code == 0
        end = data["values"][-1]
        assert abs(end[0] - 1.0) < 1e-12
        assert abs(end[1] - 1.0) < 1e-12
        assert abs(end[2] - 1.0) < 1e-12


def fraction_error(text: str, kind=Fraction) -> str:
    # the message of the error that reading text as kind(Fraction(text))
    # raises
    try:
        kind(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is a fraction")


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("width", [1, 3])
    def test_control_of_the_wrong_width(self, capsys, tmp_path, width):
        control = {"schema": "goh-atlas/1", "type": "control",
                   "t": [0.0, 1.0], "values": [[1.0] * width] * 2}
        path = tmp_path / "u.json"
        path.write_text(serialize.dumps(control))
        code, out, err = run(capsys, "flow", "--rank", "2", "--step", "2",
                             "--control", str(path))
        assert (code, out) == (2, "")
        assert f"control has {width} columns" in err

    def test_residuals_takes_no_tolerance(self, capsys, tmp_path):
        control = {"schema": "goh-atlas/1", "type": "control",
                   "t": [0.0, 1.0], "values": [[0.0, 1.0], [0.0, 1.0]]}
        path = tmp_path / "u.json"
        path.write_text(serialize.dumps(control))
        code, out, _ = run(capsys, "residuals", "--rank", "2", "--step", "2",
                           "--control", str(path), "--lambda", "0,0,1",
                           "--tol", "1e-3")
        assert (code, out) == (2, "")

    def test_unknown_scenario(self, capsys):
        assert run(capsys, "demo", "not-a-scenario")[0] == 2

    def test_missing_lambda(self, capsys):
        assert run(capsys, "goh", "--rank", "2", "--step", "3")[0] == 2

    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "goh", "--rank", "2", "--step", "3",
                           "--lambda", "1,zebra")
        assert code == 2

    def test_missing_frame_args(self, capsys):
        assert run(capsys, "metabelian")[0] == 2

    @pytest.mark.parametrize("window, msg", [
        ("a,2,3,4", "bad --window value: could not convert string to "
                    "float: 'a'"),
        ("0,1", "--window needs x0,x1,y0,y1")], ids=["value", "count"])
    def test_bad_window_is_rejected_before_any_work(self, capsys,
                                                    monkeypatch, window, msg):
        def ran(*args):
            raise AssertionError("the frame was realized")

        monkeypatch.setattr(cli, "realize_frame", ran)
        code, out, err = run(capsys, "trace", "--rank", "2", "--step", "3",
                             "--lambda", "0,0,0,1,0", f"--window={window}")
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize("command", ["basis", "realize", "metabelian"])
    @pytest.mark.parametrize("rank, step, msg", [
        ("2", "28", f"rank 2 and step 28 give more than {BASIS_MAX} basis "
                    f"words"),
        ("1", "300000000", f"step must be at most {STEP_MAX}, got 300000000"),
        ("0", "3", "rank and step must be >= 1")],
        ids=["words", "step", "rank"])
    def test_oversized_basis_is_refused_before_any_word(
            self, capsys, monkeypatch, command, rank, step, msg):
        def built(*args):
            raise AssertionError("a Lyndon word was built")

        monkeypatch.setattr(freelie, "lyndon_words", built)
        code, out, err = run(capsys, command, "--rank", rank, "--step", step)
        assert (code, out, err) == \
            (2, "", f"error: --rank {rank} --step {step}: {msg}\n")

    @pytest.mark.parametrize("command", ["realize", "metabelian", "goh",
                                         "trace", "lift", "flow", "residuals",
                                         "recover"])
    def test_oversized_table_is_refused_before_realizing(
            self, capsys, monkeypatch, command):
        def ran(*args):
            raise AssertionError("the frame was realized")

        monkeypatch.setattr(options, "TABLE_MAX", 13)
        monkeypatch.setattr(cli, "realize_frame", ran)
        code, out, err = run(capsys, command, "--rank", "2", "--step", "5")
        assert (code, out, err) == \
            (2, "", "error: --rank 2 --step 5: 14 basis words are more than "
                    "the 13 a structure table takes\n")

    def test_precondition_failure_reports_json(self, capsys):
        lam = ",".join(["0"] * 13 + ["1"])
        code, data, err = run_json(capsys, "goh", "--rank", "2", "--step",
                                   "5", "--lambda", lam)
        assert code == 1
        assert data["type"] == "failure_report"
        assert data["error"] == "PreconditionError"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, extra, what", [
        ("residuals", ["--lambda", "1"], "adjoint propagation"),
        ("recover", [], "inverse-Jacobian propagation")])
    def test_blowup_reports_a_numerics_error(self, capsys, tmp_path, command,
                                             extra, what):
        # x' = x^2 from x = 1 escapes at t = 1, a third of the way in
        x = Poly.var(1, 0)
        frame, control = tmp_path / "frame.json", tmp_path / "control.json"
        frame.write_text(serialize.dumps(Frame([PolyVec([x * x])])))
        control.write_text(serialize.dumps(
            Control(np.linspace(0.0, 3.0, 301), np.ones((301, 1)))))
        code, data, _ = run_json(capsys, command, "--frame", str(frame),
                                 "--control", str(control), "--x0", "1",
                                 *extra)
        assert code == 1
        assert data["type"] == "failure_report"
        assert data["error"] == "NumericsError"
        assert data["message"].startswith(
            f"{what} produced non-finite values at node ")

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "metabelian", "--frame", "/no/such/file")
        assert code == 2

    @pytest.mark.parametrize("exp, coef, what", [
        ([-1, 0], "1/1", "exponent"), ([1], "1/1", "exponent"),
        ([0.5, 0], "1/1", "exponent"), ([True, 0], "1/1", "exponent"),
        ([1, 0], "1/0", "coefficient")])
    def test_frame_with_a_bad_term(self, capsys, tmp_path, exp, coef, what):
        frame = {"schema": "goh-atlas/1", "type": "frame", "n": 2, "r": 1,
                 "fields": [[[{"exp": [0, 0], "coef": "1/1"}],
                             [{"exp": exp, "coef": coef}]]]}
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        code, out, err = run(capsys, "metabelian", "--frame", str(path))
        assert (code, out) == (2, "")
        assert f"field 1, component 2, term 1: {what}" in err

    @pytest.mark.parametrize("key, value, msg", [
        ("weights", ["a", "b", "c"], "weights entry 1: 'a' is not a positive "
                                     "integer"),
        ("weights", [1, 1, 2.5], "weights entry 3: 2.5 is not a positive "
                                 "integer"),
        ("weights", [1, 1, -7], "weights entry 3: -7 is not a positive "
                                "integer"),
        ("weights", [1, True, 2], "weights entry 2: True is not a positive "
                                  "integer"),
        ("weights", None, "weights must be a list, got None"),
        ("weights", "112", "weights must be a list, got '112'"),
        ("weights", [1, 1], "weights must have n = 3 entries"),
        ("r", 7, "r is 7; the frame has 2 fields")],
        ids=["str", "float", "negative", "bool", "null", "text", "short", "r"])
    def test_frame_with_bad_weights_or_r(self, capsys, tmp_path, key, value,
                                         msg):
        # strings and floats were a TypeError with a traceback, null one in
        # from_json; -7 and an r that was never read were accepted
        frame = realize_frame(generate_basis(2, 2))[0].to_json()
        frame[key] = value
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        code, out, err = run(capsys, "metabelian", "--frame", str(path))
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize("key, value, msg", [
        ("n", 3.0, "n must be a positive integer, got 3.0"),
        ("n", True, "n must be a positive integer, got True"),
        ("n", 0, "n must be a positive integer, got 0"),
        ("n", "3", "n must be a positive integer, got '3'"),
        ("fields", None, "fields must be a list, got None"),
        ("fields", {}, "fields must be a list, got {}"),
        ("fields", [None, None], "field 1, components None are not a list"),
        ("fields", [[None, [], []], [[], [], []]],
         "field 1, component 1, terms None are not a list")],
        ids=["n-float", "n-bool", "n-zero", "n-str", "fields-null",
             "fields-dict", "field-null", "component-null"])
    def test_frame_with_bad_n_or_fields(self, capsys, tmp_path, key, value,
                                        msg):
        # n = 3.0 was accepted, true misread as an exponent length, and a
        # null fields, field or component was a TypeError with a traceback
        frame = realize_frame(generate_basis(2, 2))[0].to_json()
        frame[key] = value
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        code, out, err = run(capsys, "metabelian", "--frame", str(path))
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize("argv, flag, value, rule", [
        (["contain", "--curve", "c.json"], "--degree", "0",
         f"degree must be an integer from 1 to {DEGREE_MAX}"),
        (["contain", "--curve", "c.json"], "--degree", "-3",
         f"degree must be an integer from 1 to {DEGREE_MAX}"),
        (["contain", "--curve", "c.json"], "--degree", "2.5",
         f"degree must be an integer from 1 to {DEGREE_MAX}"),
        (["demo", "f25"], "--seed", "-1", "seed must be a non-negative "
                                          "integer"),
        (["demo", "f25"], "--seed", "x", "seed must be a non-negative "
                                         "integer")],
        ids=["degree-0", "degree-negative", "degree-float", "seed-negative",
             "seed-text"])
    def test_bad_degree_or_seed_is_refused_by_the_parser(
            self, capsys, monkeypatch, argv, flag, value, rule):
        # --degree 0 and -3 exited 0 with no results; --seed -1 reached
        # numpy, whose error named no flag
        def ran(args):
            raise AssertionError(f"command ran with {flag} {value}")

        monkeypatch.setattr(cli, "cmd_contain", ran)
        monkeypatch.setattr(cli, "cmd_demo", ran)
        code, out, err = run(capsys, *argv, f"{flag}={value}")
        assert (code, out) == (2, "")
        assert f"error: argument {flag}: {rule}, got {value!r}\n" in err

    @pytest.mark.parametrize("argv, flag, want, found", [
        (["metabelian"], "--frame", "frame", "curve"),
        (["lift", "--rank", "2", "--step", "2"], "--curve", "curve",
         "control"),
        (["flow", "--rank", "2", "--step", "2"], "--control", "control",
         "curve"),
        (["contain"], "--curve", "curve", "control")],
        ids=["metabelian", "lift", "flow", "contain"])
    def test_artifact_of_the_wrong_type(self, capsys, tmp_path, argv, flag,
                                        want, found):
        # a control and a curve share their "t" and "values" keys
        data = {"schema": "goh-atlas/1", "type": found,
                "t": [0.0, 1.0], "values": [[0.0, 1.0], [0.0, 1.0]]}
        path = tmp_path / "artifact.json"
        path.write_text(serialize.dumps(data))
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: expected a goh-atlas/1 {want!r} artifact, "
                       f"found schema 'goh-atlas/1', type {found!r}\n")
        path.write_text("[1, 2]")
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (2, "")
        assert err.endswith("found schema None, type 'list'\n")

    @pytest.mark.parametrize("argv, flag, data, msg", [
        (["contain"], "--curve", {"type": "curve"},
         "'curve' artifact is missing key 't'"),
        (["lift", "--rank", "2", "--step", "2"], "--curve",
         {"type": "curve", "t": [0.0, 1.0]},
         "'curve' artifact is missing key 'values'"),
        (["flow", "--rank", "2", "--step", "2"], "--control",
         {"type": "control", "values": [[0.0, 1.0], [0.0, 1.0]]},
         "'control' artifact is missing key 't'"),
        (["metabelian"], "--frame", {"type": "frame", "fields": []},
         "'frame' artifact is missing key 'n'"),
        (["metabelian"], "--frame", {"type": "realization_report"},
         "'realization_report' artifact is missing key 'frame'"),
        (["metabelian"], "--frame",
         {"type": "frame", "n": 2, "fields": [[[{"exp": [0, 0]}], []]]},
         "field 1, component 1, term 1: missing key 'coef'")],
        ids=["contain", "lift", "flow", "metabelian", "metabelian-report",
             "metabelian-term"])
    def test_artifact_without_a_key(self, capsys, tmp_path, argv, flag, data,
                                    msg):
        path = tmp_path / "artifact.json"
        path.write_text(serialize.dumps({"schema": "goh-atlas/1", **data}))
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize("argv, msg", [
        (["goh", "--rank", "2", "--step", "2", "--lambda", "1,zebra"],
         f"bad --lambda value: {fraction_error('zebra')}"),
        (["trace", "--rank", "2", "--step", "2", "--lambda", "0,0,1",
          "--window", "0,1"], "--window needs x0,x1,y0,y1"),
        (["metabelian"], "need --rank and --step, or --frame FILE"),
        (["goh", "--rank", "2", "--step", "2"], "--lambda is required"),
        (["lift", "--rank", "2", "--step", "2"], "--curve FILE is required"),
        (["flow", "--rank", "2", "--step", "2"],
         "--control FILE is required"),
        (["flow", "--rank", "2", "--step", "2", "--control", "CONTROL",
          "--x0", "1,0"], "--x0 needs 3 components"),
        (["flow", "--rank", "2", "--step", "2", "--control", "CONTROL",
          "--x0", "1/0,0,0"], f"bad --x0 value: {fraction_error('1/0')}"),
        (["recover", "--rank", "2", "--step", "2", "--control", "CONTROL",
          "--x0", "a,0,0"], f"bad --x0 value: {fraction_error('a')}"),
        (["residuals", "--rank", "2", "--step", "2", "--control", "CONTROL",
          "--lambda", "0,0,1", "--x0", "1e400,0,0"],
         f"bad --x0 value: {fraction_error('1e400', float)}"),
        (["residuals", "--rank", "2", "--step", "2", "--control", "CONTROL"],
         "--lambda is required"),
        (["residuals", "--rank", "2", "--step", "2", "--control", "CONTROL",
          "--lambda", "0,0,1e400"],
         f"bad --lambda value: {fraction_error('1e400', float)}"),
        (["contain"], "--curve FILE is required"),
        (["contain", "--curve", "CURVE3"], "containment needs a planar curve"),
        # a non-finite window, with the trace on stdout and into a CSV file
        *[(["trace", "--rank", "2", "--step", "3", "--lambda", "0,0,0,1,0",
            "--window=-2,inf,-2,2", "--res", "8", *out],
           "window x_max is not finite: inf")
          for out in ([], ["--out", "CSV"])],
        # finite entries whose width, grid value or monomial overflows
        (["trace", "--rank", "2", "--step", "3", "--lambda", "0,0,0,1,0",
          "--window=-1e308,1e308,-2,2", "--res", "8"],
         "window x width is not finite: x_max - x_min = inf"),
        (["trace", "--rank", "2", "--step", "4", "--lambda",
          "0,0,0,1,0,1,1,0", "--res", "8", "--window=-1e200,1e200,-2,2"],
         "F is not finite at grid node (-1e+200, -2.0): inf"),
        (["contain", "--curve", "CURVEBIG", "--degree", "2"],
         "monomial x^1 y^0 overflows at point 30: [1e+200, 0.0]")],
        ids=["lambda-value", "window", "frame-flags", "goh-lambda",
             "lift-curve", "control", "x0", "x0-zero-denominator",
             "x0-value", "x0-overflow", "residuals-lambda",
             "residuals-lambda-overflow",
             "contain-curve", "planar", "window-inf", "window-inf-csv",
             "window-width", "grid-overflow", "contain-overflow"])
    def test_usage_errors(self, capsys, tmp_path, argv, msg):
        control = tmp_path / "u.json"
        control.write_text(serialize.dumps(Control(
            [0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]]).to_json()))
        curve3 = tmp_path / "c.json"
        curve3.write_text(serialize.dumps(SampledCurve(
            [0.0, 1.0], [[0.0] * 3, [1.0] * 3]).to_json()))
        big = tmp_path / "big.json"
        big.write_text(serialize.dumps(SampledCurve(
            range(31), [(0.0, t) for t in range(30)] + [(1e200, 0.0)])))
        files = {"CONTROL": str(control), "CURVE3": str(curve3),
                 "CURVEBIG": str(big), "CSV": str(tmp_path / "t.csv")}
        code, out, err = run(capsys, *[files.get(a, a) for a in argv])
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize("bad, fault", [
        (math.nan, "is not finite: nan"),
        (10 ** 400, "is too large for a float")], ids=["nan", "huge-int"])
    @pytest.mark.parametrize("argv, kind", [
        (["contain"], "curve"), (["flow", "--rank", "2", "--step", "2"],
                                 "control")], ids=["contain", "flow"])
    def test_bad_number_in_an_input_file_is_located(self, capsys, tmp_path,
                                                    argv, kind, bad, fault):
        # 10**400 was an OverflowError traceback and exit 1
        cls = {"curve": SampledCurve, "control": Control}[kind]
        data = cls([0.0, 1.0, 2.0], [[1.0, 0.0]] * 3).to_json()
        data["values"][1][0] = bad
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert run(capsys, *argv, f"--{kind}", str(path)) == (
            2, "", f"error: {kind} values[1][0] {fault}\n")

    @pytest.mark.parametrize("argv, term", [
        (["flow", "--frame", "FRAME", "--control", "CONTROL"], (2, 0, 0, 0, 0)),
        (["recover", "--frame", "FRAME", "--control", "CONTROL"],
         (2, 0, 0, 0, 0)),
        (["residuals", "--frame", "FRAME", "--control", "CONTROL",
          "--lambda", "0,0,0,1,0"], (2, 0, 0, 0, 0)),
        (["trace", "--frame", "FRAME", "--lambda", "0,0,0,1,0", "--res", "8"],
         (1, 0)),
        (["trace", "--rank", "2", "--step", "3", "--lambda", "0,0,0,1e400,0",
          "--res", "8"], (1, 0))],
        ids=["flow", "recover", "residuals", "trace", "trace-lambda"])
    def test_coefficient_too_large_for_a_float_is_located(
            self, capsys, tmp_path, argv, term):
        # a 400-digit coefficient was an OverflowError traceback and exit 1
        frame = realize_frame(generate_basis(2, 3))[0].to_json()
        frame["fields"][1][3][0]["coef"] = f"{10 ** 400}/2"  # x1^2 / 2 in X2
        files = {"FRAME": tmp_path / "frame.json",
                 "CONTROL": tmp_path / "control.json"}
        files["FRAME"].write_text(json.dumps(frame))
        files["CONTROL"].write_text(serialize.dumps(Control(
            [0.0, 1.0, 2.0], [[1.0, 0.0]] * 3).to_json()))
        assert run(capsys, *[str(files.get(a, a)) for a in argv]) == (
            2, "", f"error: the coefficient of the term {term} is too large "
                   f"for a float\n")


class TestTolerancePlumbing:
    def test_tol_flag_sets_the_threshold(self, capsys, tmp_path):
        # circle points are floats, so the degree-2 annihilator sits at
        # sigma ratio ~1e-16: visible at the default 1e-8, hidden at 1e-20
        path = self._circle(tmp_path)
        code, data, _ = run_json(capsys, "contain", "--curve", path,
                                 "--degree", "2", "--tol", "1e-20")
        assert code == 0
        assert [r["null_space_dim"] for r in data["results"]] == [0, 0]
        code, data, _ = run_json(capsys, "contain", "--curve", path,
                                 "--degree", "2")
        assert code == 0
        assert [r["null_space_dim"] for r in data["results"]] == [0, 1]

    def test_environment_sets_no_tolerance(self, capsys, tmp_path,
                                           monkeypatch):
        # GOH_ATLAS_TOL was a hidden input; output no longer depends on it
        def outputs(tag):
            # exit code and stdout of each command, and the demo's files
            outdir = tmp_path / tag
            demo = run(capsys, "demo", "heisenberg", "--out", str(outdir))
            files = {p.name: p.read_bytes() for p in outdir.iterdir()}
            contain = run(capsys, "contain", "--curve", self._circle(tmp_path),
                          "--degree", "2")
            return demo[:2], files, contain[:2]

        monkeypatch.delenv("GOH_ATLAS_TOL", raising=False)
        unset = outputs("unset")
        assert unset[0][0] == 0 and unset[2][0] == 0
        for value in ("abc", "1e-20"):
            monkeypatch.setenv("GOH_ATLAS_TOL", value)
            assert outputs(value) == unset

    @staticmethod
    def _circle(tmp_path):
        curve = SampledCurve.from_function(
            lambda t: (math.cos(t), math.sin(t)), 0.0, 2.0 * math.pi, 200)
        path = tmp_path / "circle.json"
        path.write_text(serialize.dumps(curve.to_json()))
        return str(path)

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf", "-1e-8", "0"])
    def test_bad_tol_flag_is_a_usage_error(self, capsys, tmp_path, value):
        outdir = tmp_path / "art"
        code, out, err = run(capsys, "demo", "heisenberg", "--out",
                             str(outdir), f"--tol={value}")
        assert (code, out) == (2, "")
        assert not outdir.exists()
        code, out, err = run(capsys, "contain", "--curve",
                             self._circle(tmp_path), f"--tol={value}")
        assert (code, out) == (2, "")
        assert "finite positive" in err

    def test_non_finite_curve_file_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "goh-atlas/1", "type": "curve", '
                        '"t": [0, 1, 2], "values": [[0, NaN], [1, 1], [2, 2]]}')
        code, out, err = run(capsys, "contain", "--curve", str(path))
        assert (code, out) == (2, "")
        assert "finite" in err


class TestResolution:
    @pytest.mark.parametrize("value", ["0", "1", "-3", "100000", "7.5"])
    def test_bad_res_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                      value):
        # rejected while the arguments are parsed: no command runs, so no
        # grid is allocated and no artifact is written
        def ran(args):
            raise AssertionError("command ran with a bad --res")

        monkeypatch.setattr(cli, "cmd_trace", ran)
        monkeypatch.setattr(cli, "cmd_demo", ran)
        outdir = tmp_path / "art"
        for argv in (["trace", "--rank", "2", "--step", "3",
                      "--lambda", "0,0,0,1,0"],
                     ["demo", "heisenberg", "--out", str(outdir)]):
            code, out, err = run(capsys, *argv, f"--res={value}")
            assert (code, out) == (2, "")
            assert "argument --res" in err and repr(value) in err
        assert not outdir.exists()

    def test_parser_reads_the_layers_own_constants(self):
        # one definition each, whichever module the parser reads it from
        from goh_atlas import goh, scenarios
        assert cli.RES_MAX is goh.RES_MAX
        assert cli.check_resolution is goh.check_resolution
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command")
        demo = next(a for a in sub.choices["demo"]._actions
                    if a.dest == "scenario")
        assert tuple(demo.choices) == tuple(scenarios._PIPELINES)

    def test_res_bounds_and_default(self, capsys):
        base = ["trace", "--rank", "2", "--step", "3", "--lambda", "0,0,0,1,0"]
        args = cli.build_parser().parse_args([*base, f"--res={cli.RES_MAX}"])
        assert args.res == cli.RES_MAX
        for argv, res in ((["--res", "2"], 2), ([], 512)):
            code, data, _ = run_json(capsys, *base, *argv)
            assert code == 0 and data["resolution"] == res


class TestSamplesAndEps:
    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "1"), ("--samples", "-5"),
        ("--samples", "2.5"), ("--eps", "0"), ("--eps", "1"),
        ("--eps", "-0.1"), ("--eps", "nan"), ("--eps", "abc")])
    def test_bad_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                        flag, value):
        # rejected while the arguments are parsed, not replaced by the
        # scenario's default: no command runs and no artifact is written
        def ran(args):
            raise AssertionError(f"command ran with {flag}={value}")

        monkeypatch.setattr(cli, "cmd_demo", ran)
        monkeypatch.setattr(cli, "cmd_spiral", ran)
        outdir = tmp_path / "art"
        for argv in (["demo", "heisenberg", "--out", str(outdir)],
                     ["demo", "f27-spiral", "--out", str(outdir)],
                     ["spiral"]):
            code, out, err = run(capsys, *argv, f"{flag}={value}")
            assert (code, out) == (2, "")
            assert f"argument {flag}" in err and repr(value) in err
        assert not outdir.exists()

    def test_samples_past_the_bound_are_refused_before_any_allocation(
            self, capsys, monkeypatch):
        # a billion samples died in np.linspace with an uncaught
        # _ArrayMemoryError under a 600 MB address-space limit
        def sampled(*args):
            raise AssertionError(f"spiral_curve{args} ran")

        monkeypatch.setattr(trajectories, "spiral_curve", sampled)
        monkeypatch.setattr(scenarios, "spiral_curve", sampled)
        for argv in (["spiral"], ["demo", "f27-spiral"]):
            for value in (SAMPLES_MAX + 1, 10 ** 9):
                code, out, err = run(capsys, *argv, "--samples", str(value))
                assert (code, out) == (2, "")
                assert (f"error: argument --samples: samples must be an "
                        f"integer from 2 to {SAMPLES_MAX}, got '{value}'\n"
                        in err)
        args = cli.build_parser().parse_args(
            ["spiral", "--samples", str(SAMPLES_MAX)])
        assert args.samples == SAMPLES_MAX == options.SAMPLES_MAX

    def test_degree_past_the_bound_is_refused_before_any_probe(
            self, capsys, monkeypatch, tmp_path):
        # the degree was bounded only by the curve's point count, which a
        # 50 001-point spiral passes up to degree 180 (whose probe would
        # stack a 6.6 GB matrix)
        def probed(*args, **kwargs):
            raise AssertionError(f"polynomial_containment{args} ran")

        monkeypatch.setattr(trajectories, "polynomial_containment", probed)
        path = tmp_path / "curve.json"
        path.write_text(serialize.dumps(SampledCurve.from_function(
            lambda t: (t, t), 0.0, 1.0, 4).to_json()))
        for value in (DEGREE_MAX + 1, 10 ** 9):
            code, out, err = run(capsys, "contain", "--curve", str(path),
                                 "--degree", str(value))
            assert (code, out) == (2, "")
            assert (f"error: argument --degree: degree must be an integer "
                    f"from 1 to {DEGREE_MAX}, got '{value}'\n" in err)
        args = cli.build_parser().parse_args(
            ["contain", "--curve", str(path), "--degree", str(DEGREE_MAX)])
        assert args.degree == DEGREE_MAX == options.DEGREE_MAX

    def test_smallest_values_are_accepted(self, capsys):
        args = cli.build_parser().parse_args(
            ["demo", "f27-spiral", "--samples", "2", "--eps", "1e-300"])
        assert (args.samples, args.eps) == (2, 1e-300)
        code, data, _ = run_json(capsys, "spiral", "--samples", "2",
                                 "--eps", "0.5")
        assert code == 0 and len(data["t"]) == 3


class TestUnreadDemoSettings:
    # each scenario and a value of every flag it does not read
    UNREAD = [("heisenberg", "--eps", "0.5"), ("f23-line", "--eps", "0.5"),
              ("martinet", "--eps", "0.5"), ("f24", "--eps", "0.5"),
              ("f24", "--samples", "5"), ("f24", "--res", "9"),
              ("f25", "--tol", "1e-3"), ("f25", "--eps", "0.5"),
              ("f25", "--samples", "5"), ("f25", "--res", "9"),
              ("f27-spiral", "--res", "9")]

    @pytest.mark.parametrize("scenario,flag,value", UNREAD)
    def test_unread_setting_is_a_usage_error(self, capsys, tmp_path,
                                             scenario, flag, value):
        outdir = tmp_path / "art"
        code, out, err = run(capsys, "demo", scenario, "--out", str(outdir),
                             flag, value)
        assert (code, out) == (2, "")
        assert f"scenario {scenario} does not read {flag[2:]}" in err
        assert not outdir.exists()

    def test_all_unread_settings_at_once(self, capsys, tmp_path):
        outdir = tmp_path / "art"
        code, out, err = run(capsys, "demo", "f25", "--out", str(outdir),
                             "--tol", "1e-3", "--res", "9", "--samples", "5",
                             "--eps", "0.5")
        assert (code, out) == (2, "") and "does not read" in err
        assert not outdir.exists()


class TestDemo:
    def test_heisenberg_demo(self, capsys, tmp_path):
        outdir = tmp_path / "art"
        code, data, err = run_json(capsys, "demo", "heisenberg", "--out",
                                   str(outdir))
        assert code == 0
        assert data["ok"] is True
        assert (outdir / "report.json").exists()
        assert (outdir / "frame.json").exists()
        assert (outdir / "recovery.json").exists()
        names = {c["name"] for c in data["checks"]}
        assert "variety_empty" in names

    def test_demo_reruns_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "demo", "f23-line", "--out", str(a),
                   "--samples", "100")[0] == 0
        assert run(capsys, "demo", "f23-line", "--out", str(b),
                   "--samples", "100")[0] == 0
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSerialize:
    def test_fixed_precision_floats(self):
        text = serialize.dumps({"x": 1.0 / 3.0, "y": 2.0, "n": 7})
        assert '"x": 0.33333333333333331' in text
        assert '"y": 2.0' in text
        assert '"n": 7' in text
        assert json.loads(text) == {"x": 1.0 / 3.0, "y": 2.0, "n": 7}

    def test_numpy_and_fraction_values(self):
        from fractions import Fraction
        text = serialize.dumps({"a": np.float64(0.5),
                                "b": np.array([1.0, 2.0]),
                                "c": Fraction(1, 3)})
        data = json.loads(text)
        assert data == {"a": 0.5, "b": [1.0, 2.0], "c": "1/3"}

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            serialize.dumps({"x": float("nan")})

    @pytest.mark.parametrize("load, obj", [
        (Frame.from_json, heisenberg_frame()),
        (Control.from_json, Control([0.0, 1.0], [[1.0], [2.0]])),
        (SampledCurve.from_json, SampledCurve([0.0, 1.0], [[1.0], [2.0]]))],
        ids=["frame", "control", "curve"])
    def test_loaders_check_schema_and_type(self, load, obj):
        data = obj.to_json()
        kind = data["type"]
        assert load(data).to_json() == data
        other = "curve" if kind == "control" else "control"
        for key, value, found in (("type", other, f"type {other!r}"),
                                  ("schema", "goh-atlas/0",
                                   "schema 'goh-atlas/0'")):
            with pytest.raises(ValueError, match=f"expected a goh-atlas/1 "
                               f"'{kind}' artifact, found .*{found}"):
                load({**data, key: value})
        with pytest.raises(ValueError, match="type 'list'"):
            load([data])


    @pytest.mark.parametrize("load, obj", [
        (Frame.from_json, heisenberg_frame()),
        (Control.from_json, Control([0.0, 1.0], [[1.0], [2.0]])),
        (SampledCurve.from_json, SampledCurve([0.0, 1.0], [[1.0], [2.0]]))],
        ids=["frame", "control", "curve"])
    def test_loaders_name_a_missing_key(self, load, obj):
        data = obj.to_json()
        kind = data["type"]
        read = {"frame": ["n", "fields"], "control": ["t", "values"],
                "curve": ["t", "values"]}[kind]
        for key in read:
            short = {k: v for k, v in data.items() if k != key}
            with pytest.raises(ValueError, match=f"^'{kind}' artifact is "
                               f"missing key '{key}'$"):
                load(short)

    @pytest.mark.parametrize("key", ["exp", "coef"])
    def test_term_without_a_key_is_located(self, key):
        data = heisenberg_frame().to_json()
        del data["fields"][1][2][0][key]
        with pytest.raises(ValueError, match=f"^field 2, component 3, term "
                           f"1: missing key '{key}'$"):
            Frame.from_json(data)
        data["fields"][1][2][0] = 5  # a term that is not an object
        with pytest.raises(ValueError, match="^field 2, component 3, term "
                           "1: missing key 'exp'$"):
            Frame.from_json(data)


class TestReadmePipeline:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_example_runs_in_an_empty_directory(self, capsys, tmp_path,
                                                monkeypatch):
        # every file a step reads is written by an earlier step
        text = self.README.read_text()
        block = text.split("Example pipeline", 1)[1] \
            .split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        for line in block.splitlines():
            prog, *argv = shlex.split(line)
            assert prog == "goh-atlas"
            code, _, err = run(capsys, *argv)
            assert code == 0, (line, err)
        data = json.loads((tmp_path / "recovery.json").read_text())
        assert data["type"] == "covector_recovery"

    def test_control_is_read_from_a_lift_report(self, capsys, tmp_path):
        kappa = SampledCurve.from_function(lambda t: (0.0, t), 0.0, 1.0, 40)
        files = {name: tmp_path / f"{name}.json"
                 for name in ("curve", "lifted", "control")}
        files["curve"].write_text(serialize.dumps(kappa))
        frame = ["--rank", "2", "--step", "3"]
        assert run(capsys, "lift", *frame, "--curve", str(files["curve"]),
                   "--out", str(files["lifted"]))[0] == 0
        lifted = json.loads(files["lifted"].read_text())
        files["control"].write_text(serialize.dumps(lifted["control"]))
        outs = [run(capsys, "recover", *frame, "--control", str(files[name]))
                for name in ("lifted", "control")]
        assert outs[0] == outs[1] and outs[0][0] == 0
        # the lifted curve is not a frame
        code, out, err = run(capsys, "metabelian", "--frame",
                             str(files["lifted"]))
        assert (code, out) == (2, "")
        assert err.endswith("found schema 'goh-atlas/1', type 'lift_report'\n")


class TestFreshProcess:
    """Package import behaviour, seen from a new interpreter."""

    def python(self, *args):
        env = dict(os.environ)
        src = str(Path(goh_atlas.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_module_cli_runs_once_without_warnings(self):
        proc = self.python("-W", "error::RuntimeWarning", "-m", "goh_atlas.cli",
                           "basis", "--rank", "2", "--step", "2")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["dim"] == 3
        assert "RuntimeWarning" not in proc.stderr

    def test_exact_kernel_imports_without_numpy(self):
        proc = self.python("-c", "import sys, goh_atlas.freelie; "
                           "print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout.strip()) == (0, "False")

    def test_exact_layers_import_without_numpy(self):
        proc = self.python("-c", "import sys, goh_atlas.polyfield, "
                           "goh_atlas.normalform, goh_atlas.metabelian; "
                           "print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout.strip()) == (0, "False")

    # runs the module as ``python -m goh_atlas.cli`` does, then reports
    # whether numpy was imported on the way out
    NUMPY_AT_EXIT = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('goh_atlas.cli', run_name='__main__',\n"
        "                     alter_sys=True)\n"
        "finally:\n"
        "    print('numpy' in sys.modules, file=sys.stderr)\n")

    @pytest.mark.parametrize("argv, code", [
        (["basis", "--rank", "2", "--step", "3"], 0),
        (["realize", "--rank", "2", "--step", "3"], 0),
        (["metabelian", "--rank", "2", "--step", "3"], 0),
        (["--help"], 0),
        (["trace", "--rank", "2", "--step", "3", "--res=1"], 2)],
        ids=["basis", "realize", "metabelian", "help", "res-usage-error"])
    def test_exact_commands_run_without_numpy(self, argv, code):
        proc = self.python("-c", self.NUMPY_AT_EXIT, *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines()[-1] == "False"

    def test_submodules_load_on_attribute_access(self):
        proc = self.python("-c", "import goh_atlas; "
                           "print(goh_atlas.polyfield.Poly.__name__, "
                           "goh_atlas.__version__)")
        assert proc.stdout.split() == ["Poly", "0.1.0"]
