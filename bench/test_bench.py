"""Smoke test of the benchmark itself, on a 1 s scenario clock.

    python -m pytest bench/test_bench.py -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

ONLY_HERE = {  # printed for one workload, by mode
    ("case_run", 0): ["run_s"],
    ("fine_sweep", 0): ["cells_per_s"],
    ("bitflip_study", 0): ["probes_per_s"],
    ("case_run", 1): ["engine.trace_write_ms", "engine.trace_bytes"],
    ("fine_sweep", 1): ["experiments.cell_ms", "experiments.pool_efficiency",
                        "experiments.output_ms", "svgplot.render_ms"],
    ("bitflip_study", 1): [],
}


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seconds", "1", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def printed(stdout: str) -> dict:
    """``name value unit`` lines -> {name: unit}."""
    lines = [line.split() for line in stdout.splitlines()[:-1] if not line.startswith("#")]
    return {parts[0]: parts[2] for parts in lines if len(parts) == 3}


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.SPEC


def test_pins_hold_the_cli_classifications():
    pinned = json.loads(run.PINS.read_text())["full"]["case_run"]["0"]
    assert {k: v["classification"] for k, v in pinned.items()} == \
        {"0": "Failure", "1": "Error", "18": "Nominal"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_reported(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = run.SPEC["per_layer" if trace else "end_to_end"]
    assert last["metrics"] == {m["name"]: {"value": last["metrics"][m["name"]]["value"],
                                           "unit": m["unit"]} for m in spec}
    expected = [m["name"] for m in spec] + ["failed_ratio"] + ONLY_HERE[workload, trace]
    if trace:
        expected += ["trace.overhead_s", "trace.overhead_pct"]
    units = printed(proc.stdout)
    assert {name: units.get(name) for name in expected} == \
        {name: run.UNITS[name] for name in expected}
    if trace:
        counts = last["metrics"]
        assert counts["engine.runs"]["value"] >= 1
        refs = counts["engine.reference_runs"]["value"]
        assert refs == (10 * run.SWEEP_SEEDS if workload == "fine_sweep" else 0)


def test_corrupted_pin_counts_as_failed(tmp_path):
    pins = json.loads(run.PINS.read_text())
    pinned = pins["tiny"]["case_run"]["0"]["0"]
    pinned["trace.csv"] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    proc = bench("--workload", "case_run", "--seed", "0", "--size", "tiny", "--pins", str(path))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert not last["correct"] and last["failed"] >= 1
    ratio = float(next(line.split()[1] for line in proc.stdout.splitlines()
                       if line.startswith("failed_ratio ")))
    assert ratio > 0 and ratio == pytest.approx(last["failed"] / last["attempted"], rel=1e-5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "case_run", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
