"""Scenario schema parsing, validation messages, and file handling."""

import json

import pytest

from faultbench import faults
from faultbench.scenario import (ScenarioError, ScenarioParseError, data_path,
                                 load_scenario, load_scenario_file)

from conftest import BAD_NUMBER_CASES, write_bad_number_case


def write(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def case_study_raw():
    return json.loads(data_path("case_study.json").read_text())


def test_shipped_presets_validate():
    for preset in ("case_study.json", "minimal.json"):
        cfg, violations = load_scenario_file(data_path(preset))
        assert violations == []
        assert cfg.clock.t_end_s == 7.0


def test_case_study_contents():
    cfg = load_scenario(data_path("case_study.json"))
    assert len(cfg.joints) == 6
    assert [s.name for s in cfg.injectors] == ["knee_pos_stuck", "knee_vel_freeze"]
    a, b = cfg.injectors
    assert isinstance(a.fault_type, faults.StuckAt)
    assert a.event == faults.FailureProbability(p=0.0005)
    assert a.chain_to == "knee_vel_freeze"
    assert isinstance(b.fault_type, faults.PackageDrop)
    assert b.fault_type.replacement == 0.0


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario_file(tmp_path / "nope.json")


def test_invalid_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario_file(p)


def test_non_object_top_level_is_parse_error(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ScenarioParseError):
        load_scenario_file(p)


def test_self_chained_injector_flagged(tmp_path):
    raw = case_study_raw()
    raw["injectors"][0]["chain_to"] = "knee_pos_stuck"
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("chained to itself" in v for v in violations)


def test_beta_z_constraint(tmp_path):
    raw = case_study_raw()
    raw["dmp"]["beta_z"] = 10.0  # alpha_z = 25 -> must be 6.25
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("critical damping" in v for v in violations)
    raw["dmp"]["beta_z"] = 6.25
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == []


def test_unknown_target_signal_flagged(tmp_path):
    raw = case_study_raw()
    raw["injectors"][0]["target_signal"] = "plant.left_elbow.pos"
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("does not exist" in v for v in violations)


@pytest.mark.parametrize("target", ["plant.left_knee.torque_cmd", "monitor.violations"])
def test_target_that_no_chain_reaches_flagged_once_per_injector(tmp_path, target):
    raw = case_study_raw()
    for spec in raw["injectors"]:
        spec["target_signal"] = target
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == [f"injector '{spec['name']}': target_signal {target!r} is read "
                          f"through no injector chain, so a fault on it changes nothing"
                          for spec in raw["injectors"]]


@pytest.mark.parametrize("where, ctx, key", [
    (("clock",), "clock", "dt"),  # was accepted, and the run kept the default dt_s
    (("dmp",), "dmp", "alpha"),
    (("control",), "control", "Kp"),
    (("joints", 0), "joints[0]", "inertia"),
    (("injectors", 0), "injectors[0]", "chain-to"),  # was accepted, and the chain dropped
    # bit_positions is a field of bit_flip only
    (("injectors", 0, "fault_type"), "injectors[0].fault_type", "bit_positions"),
    (("injectors", 0, "event"), "injectors[0].event", "sigmaa"),
    (("injectors", 0, "effect"), "injectors[0].effect", "duration_s"),
    (("monitors",), "monitors", "signal"),
])
def test_unknown_field_is_one_violation_per_key(tmp_path, where, ctx, key):
    raw = case_study_raw()
    raw["monitors"] = {"signals": ["plant.right_knee.pos"]}
    section = raw
    for step in where:
        section = section[step]
    section[key] = section[key + "2"] = 0.01
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == [f"{ctx}: unknown field {key!r}", f"{ctx}: unknown field {key + '2'!r}"]


@pytest.mark.parametrize("name", ["pos,stuck", "pos\nstuck", "pos stuck", "knee.pos"])
def test_injector_name_outside_letters_digits_underscore_dash_flagged(tmp_path, name):
    # a comma or a newline in a name once split trace.csv's header line
    raw = case_study_raw()
    raw["injectors"][1]["name"] = raw["injectors"][0]["chain_to"] = name
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == [f"injectors[1]: name {name!r} must consist of letters, digits, "
                          f"'_' and '-'"]


def test_unknown_chain_target_flagged(tmp_path):
    raw = case_study_raw()
    raw["injectors"][0]["chain_to"] = "ghost"
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("names no injector" in v for v in violations)


def test_fault_parameter_violations_collected(tmp_path):
    raw = case_study_raw()
    raw["injectors"].append({
        "name": "bad", "target_signal": "plant.right_knee.pos",
        "fault_type": {"kind": "time_delay", "delay": 0.0015},  # not a dt multiple
        "event": {"kind": "failure_probability", "p": 1.5},
        "effect": {"kind": "mean_time_to_repair", "mttr": -1.0, "sigma": -0.1},
    })
    raw["clock"]["dt_s"] = 0.001
    _, violations = load_scenario_file(write(tmp_path, raw))
    joined = "\n".join(violations)
    assert "multiple of dt_s" in joined
    assert "p must be in [0, 1]" in joined
    assert "mttr must be > 0" in joined
    assert "sigma must be >= 0" in joined


@pytest.mark.parametrize("where, value, parts", BAD_NUMBER_CASES)
def test_non_finite_number_is_one_violation_naming_its_field(tmp_path, where, value, parts):
    _, violations = load_scenario_file(write_bad_number_case(tmp_path, where, value, parts))
    assert len(violations) == 1
    assert f"{where[-1]} must be finite" in violations[0]


def test_bit_flip_position_validation(tmp_path):
    raw = case_study_raw()
    raw["injectors"].append({
        "name": "flip", "target_signal": "plant.right_knee.pos",
        "fault_type": {"kind": "bit_flip", "n_bits": 2, "bit_positions": [3, 3]},
        "event": {"kind": "failure_probability", "p": 0.1},
        "effect": {"kind": "once"},
    })
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("distinct" in v for v in violations)
    raw["injectors"][-1]["fault_type"]["bit_positions"] = [3, 4]
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == []


def test_duplicate_monitor_signal_flagged(tmp_path):
    raw = case_study_raw()
    raw["monitors"] = {"signals": ["plant.right_knee.pos", "plant.right_knee.vel",
                                   "plant.right_knee.pos"]}
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == ["monitors: signal 'plant.right_knee.pos' listed more than once"]


def test_unknown_joint_name_flagged(tmp_path):
    raw = {"joints": [{"name": "left_wrist"}]}
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("name must be one of" in v for v in violations)


def test_duplicate_joints_flagged(tmp_path):
    raw = case_study_raw()
    raw["joints"].append({"name": "right_knee"})
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("unique" in v for v in violations)


def test_demo_joint_count_mismatch(tmp_path):
    raw = case_study_raw()
    raw["joints"] = [{"name": "right_knee"}]  # demo_gait.csv has 6 columns
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("joint columns" in v for v in violations)


def test_missing_demo_flagged(tmp_path):
    raw = case_study_raw()
    raw["dmp"]["demo_file"] = "missing.csv"
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("not found" in v for v in violations)


def test_load_scenario_raises_on_violations(tmp_path):
    raw = case_study_raw()
    raw["clock"]["dt_s"] = -1.0
    with pytest.raises(ScenarioError) as exc_info:
        load_scenario(write(tmp_path, raw))
    assert any("dt_s" in v for v in exc_info.value.violations)


def test_seed_range(tmp_path):
    raw = case_study_raw()
    raw["seed"] = -1
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert any("seed" in v for v in violations)
    raw["seed"] = 2**64 - 1
    _, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == []


def test_relative_demo_resolves_against_scenario_dir(tmp_path):
    demo = tmp_path / "mydemo.csv"
    lines = ["t,joint_0"] + [f"{k * 0.001:.9g},{0.1 * k * 0.001:.9g}" for k in range(200)]
    demo.write_text("\n".join(lines) + "\n")
    raw = {
        "clock": {"dt_s": 0.001, "t_end_s": 0.1},
        "joints": [{"name": "right_knee"}],
        "dmp": {"demo_file": "mydemo.csv"},
    }
    cfg, violations = load_scenario_file(write(tmp_path, raw))
    assert violations == []
    assert cfg.demo_path == str(demo)


def test_preset_name_lookup_without_path():
    cfg = load_scenario("minimal.json")
    assert len(cfg.joints) == 1
