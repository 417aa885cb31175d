"""Exit codes, emitted files, and determinism of the command-line interface."""

import hashlib
import json
from pathlib import Path

from faultbench import cli
from faultbench.engine import TraceLog
from faultbench.scenario import data_path


CASE_STUDY = str(data_path("case_study.json"))
MINIMAL = str(data_path("minimal.json"))
# sha256 of the output files for the shipped case study, base seed 0
PINS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pins.json")
                  .read_text())["full"]


def run_cli(*argv):
    return cli.main(list(argv))


def assert_pinned(out_dir, pinned, names=("trace.csv", "violations.csv")):
    for name in names:
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == pinned[name], name


# --------------------------------------------------------------------------
# validate


def test_validate_shipped_presets(capsys):
    assert run_cli("validate", CASE_STUDY) == 0
    assert capsys.readouterr().out.strip() == "OK"
    assert run_cli("validate", MINIMAL) == 0


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


def test_validate_parse_error_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{]")
    assert run_cli("validate", str(p)) == 2
    assert run_cli("validate", str(tmp_path / "missing.json")) == 2


# --------------------------------------------------------------------------
# run


def test_run_disable_faults_nominal(tmp_path, capsys):
    code = run_cli("run", CASE_STUDY, "--disable-faults", "--seed", "0",
                   "--out", str(tmp_path), "--quiet")
    assert code == 0
    assert capsys.readouterr().out.strip() == "Nominal"
    trace = TraceLog.from_csv(tmp_path / "trace.csv")
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
    trace = TraceLog.from_csv(tmp_path / "out" / "trace.csv")
    assert len(trace) == 0


def test_run_without_monitored_signals_writes_the_time_column(tmp_path, capsys):
    raw = json.loads(data_path("minimal.json").read_text())
    raw["clock"]["t_end_s"] = 0.003
    raw["monitors"] = {"signals": []}
    p = tmp_path / "unmonitored.json"
    p.write_text(json.dumps(raw))
    assert run_cli("run", str(p), "--out", str(tmp_path / "out"), "--quiet") == 0
    assert (tmp_path / "out" / "trace.csv").read_text() == "t\n0\n0.001\n0.002\n"
    trace = TraceLog.from_csv(tmp_path / "out" / "trace.csv")
    assert trace.columns == ()
    assert trace.data.shape == (3, 0)


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
