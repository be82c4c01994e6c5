import json

import pytest

from goh_atlas import goh, scenarios, serialize
from goh_atlas.scenarios import SCENARIO_NAMES, run_scenario

FAST = ("heisenberg", "f23-line", "f24", "f25", "martinet")


@pytest.mark.parametrize("name", FAST)
def test_fast_scenarios_pass(name):
    rep = run_scenario(name)
    failed = [c for c in rep.checks if c["ok"] is False]
    assert rep.ok, f"failed checks: {failed}"


def test_f27_spiral_scenario_at_500_samples():
    rep = run_scenario("f27-spiral", samples=500)
    failed = [c for c in rep.checks if c["ok"] is False]
    assert rep.ok, f"failed checks: {failed}"


def test_zero_samples_and_eps_are_not_replaced_by_defaults():
    with pytest.raises(ValueError, match="two samples"):
        run_scenario("heisenberg", samples=0)
    with pytest.raises(ValueError, match="eps"):
        run_scenario("f27-spiral", eps=0.0, samples=2)


def test_given_samples_are_used():
    rep = run_scenario("f23-line", samples=2)
    assert len(rep.artifacts["lift.json"]["curve"].ts) == 3


def test_unknown_scenario():
    with pytest.raises(KeyError):
        run_scenario("nope")


def test_scenario_names_cover_pipelines():
    assert set(FAST) < set(SCENARIO_NAMES)
    assert "f27-spiral" in SCENARIO_NAMES


def test_artifacts_serialize_and_parse():
    rep = run_scenario("f23-line", samples=50)
    for name, obj in rep.artifacts.items():
        text = serialize.dumps(obj)
        json.loads(text)
    report = json.loads(serialize.dumps(rep))
    assert report["scenario"] == "f23-line"
    assert report["ok"] is True
    assert sorted(report["artifacts"]) == report["artifacts"]


def test_verdicts_independent_of_seed():
    a = run_scenario("f24", seed=1)
    b = run_scenario("f24", seed=2)
    assert a.ok and b.ok
    assert [c["name"] for c in a.checks] == [c["name"] for c in b.checks]
    assert [c["ok"] for c in a.checks] == [c["ok"] for c in b.checks]


def test_bad_res_raises_before_any_grid(monkeypatch):
    # the resolution is checked before the scenario does any work
    def no_work(*args):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(goh, "_float_evaluator", no_work)
    monkeypatch.setattr(scenarios, "realize_frame", no_work)
    for res in (0, 7.5):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            run_scenario("f23-line", res=res)


# the settings each scenario reads besides the seed
READS = {"heisenberg": {"tol", "samples", "res"},
         "f23-line": {"tol", "samples", "res"},
         "f24": {"tol"},
         "f25": set(),
         "martinet": {"tol", "samples", "res"},
         "f27-spiral": {"tol", "eps", "samples"}}
GIVEN = {"tol": 1e-3, "eps": 0.5, "samples": 5, "res": 9}


@pytest.mark.parametrize("name,key", [
    (name, key) for name in SCENARIO_NAMES for key in GIVEN
    if key not in READS[name]])
def test_a_setting_the_scenario_does_not_read_is_refused(name, key,
                                                         monkeypatch):
    def no_work(*args):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(scenarios, "realize_frame", no_work)
    monkeypatch.setattr(scenarios, "goh_polynomials", no_work)
    with pytest.raises(ValueError, match=f"^scenario {name} does not read "
                       f"{key}$"):
        run_scenario(name, **{key: GIVEN[key]})
    # a zero or a bad resolution is refused as unread too, not checked
    with pytest.raises(ValueError, match="does not read"):
        run_scenario(name, **{key: 0})


def test_read_settings_are_used(monkeypatch):
    seen = {}

    def pipeline(cfg):
        seen.update(cfg)
        return "report"

    monkeypatch.setitem(scenarios._PIPELINES, "f24",
                        (pipeline, scenarios._PIPELINES["f24"][1]))
    assert run_scenario("f24", seed=3, tol=0.25) == "report"
    assert seen == {"seed": 3, "tol": 0.25}
    assert run_scenario("f24") == "report"
    assert seen == {"seed": 0, "tol": 1e-8}
