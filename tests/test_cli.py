import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import goh_atlas
from goh_atlas import serialize
from goh_atlas.cli import main
from goh_atlas.trajectories import SampledCurve


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

    def test_precondition_failure_reports_json(self, capsys):
        lam = ",".join(["0"] * 13 + ["1"])
        code, data, err = run_json(capsys, "goh", "--rank", "2", "--step",
                                   "5", "--lambda", lam)
        assert code == 1
        assert data["type"] == "failure_report"
        assert data["error"] == "PreconditionError"

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


class TestTolerancePlumbing:
    def test_env_tolerance_overridden_by_flag(self, capsys, tmp_path,
                                              monkeypatch):
        # circle points are floats, so the degree-2 annihilator sits at
        # sigma ratio ~1e-16: visible at 1e-8, hidden below 1e-20
        curve = SampledCurve.from_function(
            lambda t: (math.cos(t), math.sin(t)), 0.0, 2.0 * math.pi, 200)
        path = tmp_path / "circle.json"
        path.write_text(serialize.dumps(curve.to_json()))

        monkeypatch.setenv("GOH_ATLAS_TOL", "1e-20")
        code, data, _ = run_json(capsys, "contain", "--curve", str(path),
                                 "--degree", "2")
        assert code == 0
        assert [r["null_space_dim"] for r in data["results"]] == [0, 0]
        # flag wins over the environment
        code, data, _ = run_json(capsys, "contain", "--curve", str(path),
                                 "--degree", "2", "--tol", "1e-8")
        assert code == 0
        assert [r["null_space_dim"] for r in data["results"]] == [0, 1]

    @staticmethod
    def _circle(tmp_path):
        curve = SampledCurve.from_function(
            lambda t: (math.cos(t), math.sin(t)), 0.0, 2.0 * math.pi, 200)
        path = tmp_path / "circle.json"
        path.write_text(serialize.dumps(curve.to_json()))
        return str(path)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "0"])
    def test_bad_env_tolerance_is_a_usage_error(self, capsys, tmp_path,
                                                monkeypatch, value):
        # every command that reads the variable rejects the value before
        # doing any work: no scenario runs, no artifact is written
        monkeypatch.setenv("GOH_ATLAS_TOL", value)
        outdir = tmp_path / "art"
        code, out, err = run(capsys, "demo", "heisenberg", "--out",
                             str(outdir))
        assert code == 2
        assert "bad GOH_ATLAS_TOL value" in err
        assert not outdir.exists() and out == ""
        code, out, err = run(capsys, "contain", "--curve",
                             self._circle(tmp_path), "--degree", "2")
        assert (code, out) == (2, "")
        assert "bad GOH_ATLAS_TOL value" in err
        code, out, err = run(capsys, "recover", "--rank", "2", "--step", "3")
        assert (code, out) == (2, "")
        assert "bad GOH_ATLAS_TOL value" in err

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

    def test_submodules_load_on_attribute_access(self):
        proc = self.python("-c", "import goh_atlas; "
                           "print(goh_atlas.polyfield.Poly.__name__, "
                           "goh_atlas.__version__)")
        assert proc.stdout.split() == ["Poly", "0.1.0"]
