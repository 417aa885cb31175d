"""Exit codes, emitted files, and determinism of the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultbench import cli, experiments, plant
from faultbench.scenario import base_signal_names, data_path

from conftest import BAD_NUMBER_CASES, read_trace_csv, trace_rows, write_bad_number_case


CASE_STUDY = str(data_path("case_study.json"))
MINIMAL = str(data_path("minimal.json"))
# sha256 of the output files for the shipped case study, base seed 0
PINS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pins.json")
                  .read_text())["full"]


def run_cli(*argv):
    return cli.main(list(argv))


def run_python(*argv):
    """The exit code, stdout and stderr of ``python argv`` in a fresh
    interpreter that imports this faultbench."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_process(*argv):
    """The exit code, stdout and stderr of ``python -m faultbench`` in a
    fresh interpreter."""
    return run_python("-m", "faultbench", *argv)


def assert_pinned(out_dir, pinned, names=("trace.csv", "violations.csv")):
    for name in names:
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == pinned[name], name


# --------------------------------------------------------------------------
# validate


def test_validate_shipped_presets(capsys):
    assert run_cli("validate", CASE_STUDY) == 0
    assert capsys.readouterr().out.strip() == "OK"
    assert run_cli("validate", MINIMAL) == 0


def test_validate_takes_only_the_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("validate", CASE_STUDY, "--out", "x")
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --out x" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validate_semantic_violation_lists_and_exits_1(tmp_path, capsys):
    raw = json.loads(data_path("case_study.json").read_text())
    raw["injectors"][0]["chain_to"] = "knee_pos_stuck"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert run_cli("validate", str(p)) == 1
    assert "chained to itself" in capsys.readouterr().out


def test_validate_duplicate_monitor_signal_exits_1(tmp_path, capsys):
    raw = json.loads(data_path("case_study.json").read_text())
    raw["monitors"] = {"signals": ["plant.right_knee.pos", "plant.right_knee.pos"]}
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(raw))
    assert run_cli("validate", str(p)) == 1
    assert "listed more than once" in capsys.readouterr().out
    assert run_cli("run", str(p), "--out", str(tmp_path / "out"), "--quiet") == 2


def test_validate_reports_an_algebraic_loop(tmp_path, capsys):
    raw = json.loads(data_path("case_study.json").read_text())
    first, second = raw["injectors"]
    del first["chain_to"]
    # the second injector reads the first one's output and triggers it
    second.update(target_signal=first["target_signal"], chain_to=first["name"])
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(raw))
    assert run_cli("validate", str(p)) == 1
    assert "algebraic loop" in capsys.readouterr().out
    assert run_cli("run", str(p), "--out", str(tmp_path / "out"), "--quiet") == 2
    assert run_cli("sweep", str(p), "--durations", "0.05", "--seeds", "1", "--jobs", "1",
                   "--out", str(tmp_path / "out"), "--quiet") == 2
    assert "algebraic loop" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["minimal.json", "case_study.json"])
def test_a_non_finite_rollout_is_a_config_error_not_a_divergence(tmp_path, capsys, preset):
    # the phase decays to 0 in one step and the forcing term to 0/0
    raw = json.loads(data_path(preset).read_text())
    raw["dmp"]["alpha_s"] = 1e308
    raw["clock"]["t_end_s"] = 0.05
    p = tmp_path / "fast_phase.json"
    p.write_text(json.dumps(raw))
    # in a fresh interpreter, whose default filters print numpy's warnings:
    # the one line is all the output
    code, out, err = run_cli_process("validate", str(p))
    assert code == 1 and err == ""
    assert out.startswith("block graph: the DMP rollout is not finite") and out.count("\n") == 1
    code, out, err = run_cli_process("run", str(p), "--out", str(tmp_path / "run"), "--quiet")
    assert code == 2 and out == ""
    assert err.startswith("block graph: the DMP rollout") and err.count("\n") == 1
    if raw["injectors"]:
        assert run_cli("sweep", str(p), "--durations", "0.01", "--seeds", "1", "--jobs", "1",
                       "--out", str(tmp_path / "sweep"), "--quiet") == 2
        assert "block graph: the DMP rollout" in capsys.readouterr().err


def write_uneven_demo(tmp_path):
    """A one-joint demo whose second half is shifted by half a step."""
    times = [0.001 * k + (0.0005 if k >= 100 else 0.0) for k in range(200)]
    (tmp_path / "uneven.csv").write_text(
        "t,joint_0\n" + "".join(f"{t:.9g},{0.1 * t:.9g}\n" for t in times))


def test_validate_reports_a_demo_the_fit_rejects(tmp_path, capsys):
    write_uneven_demo(tmp_path)
    p = tmp_path / "uneven.json"
    p.write_text(json.dumps({"clock": {"t_end_s": 0.05}, "joints": [{"name": "right_knee"}],
                             "dmp": {"demo_file": "uneven.csv"}}))
    assert run_cli("validate", str(p)) == 1
    assert "uniformly sampled" in capsys.readouterr().out


# the first three the DMP fit rejects, so `validate` does too; the last one's
# step count is too large to allocate, which `validate` finds in the rollout
@pytest.mark.parametrize("section, key, value, validate_code, message", [
    pytest.param("dmp", "demo_file", "uneven.csv", 1, "uniformly sampled", id="uneven-demo"),
    pytest.param("dmp", "n_basis", 2**70, 1, "Maximum allowed size", id="n_basis=2**70"),
    pytest.param("clock", "dt_s", 5e-324, 1, "infinity", id="dt_s=5e-324"),
    pytest.param("clock", "t_end_s", 1e300, 1, "Maximum allowed dimension", id="t_end_s=1e300"),
])
def test_scenario_the_graph_cannot_take_exits_2_from_run_and_sweep(
        tmp_path, capsys, section, key, value, validate_code, message):
    write_uneven_demo(tmp_path)
    raw = json.loads(data_path("minimal.json").read_text())
    raw["clock"]["t_end_s"] = 0.05
    raw["injectors"] = [{"name": "stuck", "target_signal": "plant.right_knee.pos",
                         "fault_type": {"kind": "stuck_at"},
                         "event": {"kind": "failure_probability", "p": 0.5},
                         "effect": {"kind": "constant_time", "duration": 0.005}}]
    raw[section][key] = value
    p = tmp_path / "unrunnable.json"
    p.write_text(json.dumps(raw))
    assert run_cli("validate", str(p)) == validate_code
    capsys.readouterr()
    out = str(tmp_path / "out")
    assert run_cli("run", str(p), "--out", out, "--quiet") == 2
    assert run_cli("sweep", str(p), "--durations", "0.005", "--seeds", "1", "--jobs", "1",
                   "--out", out, "--quiet") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(message in line for line in err)
    assert not (tmp_path / "out").exists()


def test_dmp_fit_with_non_finite_weights_exits_1_from_validate_and_2_from_run_and_sweep(
        tmp_path, capsys):
    raw = json.loads(data_path("case_study.json").read_text())
    raw["clock"]["t_end_s"] = 0.05
    raw["dmp"]["alpha_z"] = 1e308  # the forcing target overflows
    raw["dmp"]["demo_file"] = str(data_path(raw["dmp"]["demo_file"]))
    p = tmp_path / "alpha_z.json"
    p.write_text(json.dumps(raw))
    assert run_cli("validate", str(p)) == 1
    assert "non-finite forcing weights" in capsys.readouterr().out
    out = str(tmp_path / "out")
    assert run_cli("run", str(p), "--out", out, "--quiet") == 2
    assert run_cli("sweep", str(p), "--durations", "0.005", "--seeds", "1", "--jobs", "1",
                   "--out", out, "--quiet") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("non-finite forcing weights" in line for line in err)
    assert not (tmp_path / "out").exists()


def test_validate_parse_error_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{]")
    assert run_cli("validate", str(p)) == 2
    assert run_cli("validate", str(tmp_path / "missing.json")) == 2


UNREADABLE_SCENARIOS = {
    "directory": None,
    "not-utf-8": b'{"seed": "\xff\xfe"}',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "int-of-5000-digits": b'{"seed": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("kind", list(UNREADABLE_SCENARIOS))
def test_an_unreadable_scenario_is_one_parse_error_line(tmp_path, capsys, kind, command):
    p = tmp_path / "scenario.json"
    if UNREADABLE_SCENARIOS[kind] is None:
        p.mkdir()
    else:
        p.write_bytes(UNREADABLE_SCENARIOS[kind])
    extra = {"validate": (), "run": ("--quiet",),
             "sweep": ("--durations", "0.005", "--seeds", "1", "--jobs", "1", "--quiet")}
    out = () if command == "validate" else ("--out", str(tmp_path / "out"))
    assert run_cli(command, str(p), *out, *extra[command]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: "), err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# run


def test_run_disable_faults_nominal(tmp_path, capsys):
    code = run_cli("run", CASE_STUDY, "--disable-faults", "--seed", "0",
                   "--out", str(tmp_path), "--quiet")
    assert code == 0
    assert capsys.readouterr().out.strip() == "Nominal"
    trace = read_trace_csv(tmp_path / "trace.csv")
    assert len(trace) == 7000
    violations = (tmp_path / "violations.csv").read_text().strip().split("\n")
    assert violations == ["t,joint,kind,value"]


def test_run_failure_seed_exits_4(tmp_path, capsys):
    code = run_cli("run", CASE_STUDY, "--seed", "0", "--out", str(tmp_path), "--quiet")
    assert code == 4
    assert capsys.readouterr().out.strip() == "Failure"
    lines = (tmp_path / "violations.csv").read_text().strip().split("\n")
    assert len(lines) > 1
    kinds = {line.split(",")[2] for line in lines[1:]}
    assert "AngleFailure" in kinds
    assert_pinned(tmp_path, PINS["case_run"]["0"]["0"])


def test_run_error_seed_exits_3(tmp_path, capsys):
    code = run_cli("run", CASE_STUDY, "--seed", "1", "--out", str(tmp_path), "--quiet")
    assert code == 3
    assert capsys.readouterr().out.strip() == "Error"
    assert_pinned(tmp_path, PINS["case_run"]["0"]["1"])


def test_run_nominal_faulty_seed_exits_0(tmp_path, capsys):
    code = run_cli("run", CASE_STUDY, "--seed", "18", "--out", str(tmp_path), "--quiet")
    assert code == 0
    assert capsys.readouterr().out.strip() == "Nominal"
    assert_pinned(tmp_path, PINS["case_run"]["0"]["18"])


def test_run_zero_duration_scenario(tmp_path, capsys):
    raw = json.loads(data_path("minimal.json").read_text())
    raw["clock"]["t_end_s"] = 0.0
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(raw))
    code = run_cli("run", str(p), "--out", str(tmp_path / "out"), "--quiet")
    assert code == 0
    trace = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(trace) == 0


def test_run_without_monitored_signals_writes_the_time_column(tmp_path, capsys):
    raw = json.loads(data_path("minimal.json").read_text())
    raw["clock"]["t_end_s"] = 0.003
    raw["monitors"] = {"signals": []}
    p = tmp_path / "unmonitored.json"
    p.write_text(json.dumps(raw))
    assert run_cli("run", str(p), "--out", str(tmp_path / "out"), "--quiet") == 0
    assert (tmp_path / "out" / "trace.csv").read_text() == "t\n0\n0.001\n0.002\n"
    trace = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert trace.columns == ()
    assert trace_rows(trace).shape == (3, 0)


@pytest.mark.parametrize("where, value, parts", BAD_NUMBER_CASES)
def test_non_finite_number_exits_1_from_validate_and_2_from_run_and_sweep(
        tmp_path, capsys, where, value, parts):
    path = str(write_bad_number_case(tmp_path, where, value, parts))
    assert run_cli("validate", path) == 1
    assert f"{where[-1]} must be finite" in capsys.readouterr().out
    out = str(tmp_path / "out")
    assert run_cli("run", path, "--out", out, "--quiet") == 2
    assert run_cli("sweep", path, "--durations", "0.05,0.1", "--seeds", "1", "--jobs", "1",
                   "--out", out, "--quiet") == 2
    assert f"{where[-1]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_outside_u64_exits_2(tmp_path, capsys, command):
    for seed in ("-1", str(2**64)):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(command, MINIMAL, "--seed", seed, "--out", str(tmp_path / "o"), "--quiet")
        assert exc_info.value.code == 2
        assert "seed must be in 0..2^64-1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_invalid_scenario_exits_2(tmp_path):
    raw = json.loads(data_path("minimal.json").read_text())
    raw["control"] = {"kp": -5.0}
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(raw))
    assert run_cli("run", str(p), "--out", str(tmp_path / "out")) == 2


# --------------------------------------------------------------------------
# sweep


def sweep_scenario(tmp_path, t_end=1.5, name="sweep_scenario.json", **fields):
    raw = json.loads(data_path("case_study.json").read_text())
    raw["clock"]["t_end_s"] = t_end
    raw.update(fields)
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def test_sweep_fine_preset_pinned(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", CASE_STUDY, "--preset", "fine", "--seeds", "1",
                   "--jobs", "2", "--out", str(out), "--quiet") == 0
    assert_pinned(out, PINS["fine_sweep"]["0"]["sweep"],
                  ("sweep_results.csv", "sweep_summary.json"))


def test_sweep_ignores_restricted_monitors(tmp_path):
    injectors = json.loads(data_path("case_study.json").read_text())["injectors"]
    injectors[0]["event"]["p"] = 0.005  # activations about 0.2 s apart
    knee = [f"plant.right_knee.{field}" for field in ("pos", "vel", "torque")]
    outs = []
    # all signals; one metric column; the metric columns but no trigger line
    for i, signals in enumerate((None, knee[:1], knee)):
        monitors = {} if signals is None else {"signals": signals}
        scenario = sweep_scenario(tmp_path, t_end=1.0, name=f"monitors{i}.json",
                                  injectors=injectors, monitors=monitors)
        outs.append(tmp_path / f"out{i}")
        assert run_cli("sweep", scenario, "--durations", "0.05,0.1", "--seeds", "2",
                       "--jobs", "1", "--out", str(outs[-1]), "--quiet") == 0
    summary = json.loads((outs[0] / "sweep_summary.json").read_text())
    assert summary["bins"]["consecutive"]["runs"] > 0
    for out in outs[1:]:
        for name in ("sweep_results.csv", "sweep_summary.json"):
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name


def test_sweep_outputs_and_cell_count(tmp_path, capsys):
    scenario = sweep_scenario(tmp_path)
    out = tmp_path / "out"
    code = run_cli("sweep", scenario, "--durations", "0.05,0.2", "--seeds", "2",
                   "--jobs", "1", "--out", str(out), "--quiet")
    assert code == 0
    lines = (out / "sweep_results.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["durations_s"] == [0.05, 0.2]
    svg = (out / "rmse_plot.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_sweep_jobs_byte_identical(tmp_path):
    scenario = sweep_scenario(tmp_path)
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert run_cli("sweep", scenario, "--durations", "0.05,0.2", "--seeds", "2",
                   "--jobs", "1", "--out", str(out1), "--quiet") == 0
    assert run_cli("sweep", scenario, "--durations", "0.05,0.2", "--seeds", "2",
                   "--jobs", "2", "--out", str(out2), "--quiet") == 0
    for name in ("sweep_results.csv", "sweep_summary.json", "rmse_plot.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_sweep_without_varied_injector_exits_2(tmp_path):
    assert run_cli("sweep", MINIMAL, "--durations", "0.05,0.1",
                   "--out", str(tmp_path / "o")) == 2


def test_sweep_without_seeds_exits_2(tmp_path, capsys):
    scenario = sweep_scenario(tmp_path, t_end=0.2)
    for seeds in ("0", "-1"):
        assert run_cli("sweep", scenario, "--durations", "0.05", "--seeds", seeds,
                       "--jobs", "1", "--out", str(tmp_path / "o"), "--quiet") == 2
        assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_without_jobs_exits_2(tmp_path, capsys):
    scenario = sweep_scenario(tmp_path, t_end=0.2)
    for jobs in ("0", "-3"):
        assert run_cli("sweep", scenario, "--durations", "0.05", "--seeds", "1",
                       "--jobs", jobs, "--out", str(tmp_path / "o"), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs" in err
    assert not (tmp_path / "o").exists()


def test_run_and_validate_load_no_process_pool(tmp_path):
    # only a sweep on more than one job imports the pool and its modules
    out_dir = str(tmp_path / "o")
    code = ("import sys\n"
            "from faultbench import cli\n"
            f"assert cli.main(['validate', {MINIMAL!r}]) == 0\n"
            f"assert cli.main(['run', {MINIMAL!r}, '--out', {out_dir!r}, '--quiet']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    rc, out, err = run_python("-c", code)
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "[]"


def test_sweep_rejects_repeated_non_finite_or_negative_durations(tmp_path, capsys):
    scenario = sweep_scenario(tmp_path, t_end=0.3)
    for durations in ("0.1,0.1", "nan,0.1", "inf,0.1", "0.1,-inf", "-0.1,0.2", "0.1,x"):
        assert run_cli("sweep", scenario, f"--durations={durations}", "--seeds", "1",
                       "--jobs", "1", "--out", str(tmp_path / "o"), "--quiet") == 2, durations
        assert "--durations" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_env_default_jobs(monkeypatch):
    monkeypatch.setenv("FAULTBENCH_JOBS", "2")
    args = cli.build_parser().parse_args(["sweep", "x.json"])
    assert args.jobs == 2
    args = cli.build_parser().parse_args(["sweep", "x.json", "--jobs", "5"])
    assert args.jobs == 5


def test_sweep_divergent_cell_exits_5(tmp_path, capsys):
    raw = json.loads(data_path("case_study.json").read_text())
    raw["clock"]["t_end_s"] = 0.5
    raw["injectors"][1]["fault_type"] = {"kind": "bias", "offset": 1e308}
    raw["injectors"][0]["event"]["p"] = 1.0
    p = tmp_path / "diverging.json"
    p.write_text(json.dumps(raw))
    code = run_cli("sweep", str(p), "--durations", "0.05,0.1", "--seeds", "1",
                   "--jobs", "1", "--out", str(tmp_path / "o"), "--quiet")
    assert code == 5


@pytest.mark.parametrize("under_file", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, command,
                                                under_file):
    def simulation_started(*args, **kwargs):
        raise AssertionError("simulated before checking --out")
    monkeypatch.setattr(experiments, "simulate", simulation_started)
    monkeypatch.setattr(experiments, "run_sweep", simulation_started)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = str(afile / "out" if under_file else afile)
    p = sweep_scenario(tmp_path, t_end=0.05)
    argv = (("run", p) if command == "run"
            else ("sweep", p, "--durations", "0.005", "--seeds", "1", "--jobs", "1"))
    assert run_cli(*argv, "--out", out, "--quiet") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and out in err[0] and "Traceback" not in captured.err
    assert afile.read_text() == "kept\n"


# --------------------------------------------------------------------------
# validate OK means run and sweep finish


# no scenario number may be NaN or ±inf, and -1 and 0 are out of range for
# some fields
BAD_NUMBERS = (math.nan, math.inf, -math.inf, -1.0, 0.0)
# an int that overflows a float is bad for a float field; the other extremes
# are valid, and a run with them may diverge (exit 5)
EXTREME_NUMBERS = (10**400, 2**70, 1e308, -1e308, 5e-324)


def floats(lo=None, hi=None):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


JOINT_OVERRIDES = st.fixed_dictionaries({}, optional={
    "inertia_kgm2": floats(0.0).filter(bool), "damping_nms": floats(0.0),
    "rot_min_deg": floats(-180.0, 0.0), "rot_max_deg": floats(0.0, 180.0),
    "max_torque_nm": floats(0.0).filter(bool), "max_speed_rpm": floats(0.0).filter(bool)})


@st.composite
def fault_parts(draw, dt):
    kind = draw(st.sampled_from(["stuck_at", "package_drop", "bias", "noise", "time_delay",
                                 "bit_flip"]))
    fault_type = {"kind": kind}
    if kind == "package_drop":
        fault_type["replacement"] = draw(floats())
    elif kind == "bias":
        fault_type["offset"] = draw(floats())
    elif kind == "noise":
        fault_type["boundary_pct"] = draw(floats(0.0))
    elif kind == "time_delay":
        fault_type["delay"] = dt * draw(st.one_of(st.integers(1, 60), st.integers(1, 2**70)))
    elif kind == "bit_flip":
        n_bits = draw(st.integers(1, 64))
        fault_type["n_bits"] = n_bits
        if draw(st.booleans()):
            fault_type["bit_positions"] = draw(st.lists(st.integers(0, 63), min_size=n_bits,
                                                        max_size=n_bits, unique=True))
    if draw(st.booleans()):
        event = {"kind": "failure_probability", "p": draw(floats(0.0, 1.0))}
    else:
        event = {"kind": "mean_time_to_failure", "mttf": draw(floats(0.0).filter(bool))}
        if draw(st.booleans()):
            event["sigma"] = draw(floats(0.0))
    kind = draw(st.sampled_from(["once", "constant_time", "constant_time", "infinite_time",
                                 "mean_time_to_repair"]))
    effect = {"kind": kind}
    if kind == "constant_time":
        effect["duration"] = draw(floats(0.0))
    elif kind == "mean_time_to_repair":
        effect["mttr"] = draw(floats(0.0).filter(bool))
        if draw(st.booleans()):
            effect["sigma"] = draw(floats(0.0))
    return fault_type, event, effect


@st.composite
def short_scenarios(draw):
    """A scenario of at most 50 steps: every fault type, event and effect on
    ``dmp.*`` and ``plant.*`` signals, chains, restricted monitors, and up to
    two numbers replaced by a bad or extreme value."""
    six = draw(st.booleans())
    joints = list(plant.JOINT_NAMES) if six else ["right_knee"]
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    raw = {
        "clock": {"dt_s": dt, "t_end_s": draw(floats(0.0, 0.05))},
        "joints": [{"name": j, **draw(JOINT_OVERRIDES)} for j in joints],
        "dmp": {"alpha_z": 25.0, "alpha_s": 4.6, "n_basis": draw(st.integers(1, 60)),
                "demo_file": "demo_gait.csv" if six else "demo_minimal.csv"},
        "control": {"kp": 200.0, "kd": 20.0},
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    signals = base_signal_names(joints)
    names = [f"inj{k}" for k in range(draw(st.integers(0, 3)))]
    raw["injectors"] = []
    for name in names:
        fault_type, event, effect = draw(fault_parts(dt))
        raw["injectors"].append({
            "name": name, "target_signal": draw(st.sampled_from(signals)),
            "fault_type": fault_type, "event": event, "effect": effect,
            "enabled": draw(st.sampled_from([True, True, False])),
            "chain_to": draw(st.one_of(st.none(), st.sampled_from(names))),
        })
    if draw(st.booleans()):
        produced = signals + [f"inj.{n}.{end}" for n in names for end in ("out", "trigger")]
        raw["monitors"] = {"signals": draw(st.lists(st.sampled_from(produced), unique=True))}

    sections = [raw, raw["clock"], raw["dmp"], raw["control"], *raw["joints"]]
    sections += [inj[part] for inj in raw["injectors"] for part in ("fault_type", "event", "effect")]
    numbers = [(section, key) for section in sections for key, value in section.items()
               if type(value) in (int, float)]
    for _ in range(draw(st.integers(0, 2))):
        section, key = draw(st.sampled_from(numbers))
        # an extreme clock or n_basis asks for arrays too large to allocate,
        # which stays open on the ROADMAP
        extreme = () if section is raw["clock"] or key == "n_basis" else EXTREME_NUMBERS
        section[key] = draw(st.sampled_from(BAD_NUMBERS + extreme))
    return raw


def quiet_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(*argv)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(short_scenarios())
def test_valid_scenarios_run_and_sweep(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw))
        valid = quiet_cli("validate", str(path))
        assert valid in (0, 1)
        run = quiet_cli("run", str(path), "--out", str(Path(tmp) / "run"), "--quiet")
        sweep = quiet_cli("sweep", str(path), "--durations", "0.01,0.02", "--seeds", "1",
                          "--jobs", "1", "--out", str(Path(tmp) / "sweep"), "--quiet")
    if valid == 0:
        assert run in (0, 3, 4, 5)
        assert sweep in (0, 2, 5)
    else:
        assert run == sweep == 2
