#!/usr/bin/env python3
"""faultbench benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload case_run --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload fine_sweep --seed 0 --seconds 40 --trace 1
    python3 bench/run.py --write-spec    # rewrite BENCHMARK.json from SPEC below
    python3 bench/run.py --write-pins    # re-pin the output fingerprints of seed 0

Run from anywhere; faultbench is taken from ``src/`` beside this directory,
never from an installed copy. Every pass runs in fresh processes. ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` alternates
traced passes (see ``child.py``) with plain ones and reports the per-layer
metrics and the tracing overhead. Each operation's outputs are checked
against ``pins.json`` (seed 0) or against the first pass of the run (other
seeds). Every metric is printed as ``name value unit``; the last line is one
JSON object with the metrics named in BENCHMARK.json. Results, the
environment and the spans go to ``bench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
PINS = BENCH / "pins.json"

CHILD_TIMEOUT_S = 90  # no pass process needs a third of this
SETUP_REPEATS = 9  # fresh-process set-ups per run; setup_s is their median
SWEEP_SEEDS = 1  # seeds per duration of the fine sweep: 10 cells a pass
PROBE_SEEDS = 1  # seeds per bit region and per small-fault kind: 5 probes a pass
TINY_T_END_S = 1.0  # clock length of the smoke test's scenario
CASE_SEED_OFFSETS = (0, 1, 18)  # at seed 0: Failure, Error, Nominal
CLASS_EXIT = {"Nominal": 0, "Error": 3, "Failure": 4}

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 40,
    "workloads": [
        {"name": "case_run",
         "why": "three faultbench run CLI calls: per-step DMP, plant, injector and "
                "engine work plus trace.csv I/O, with no sweep, reference run or pool"},
        {"name": "fine_sweep",
         "why": "faultbench sweep --preset fine on nproc workers: paired reference and "
                "faulty runs per cell, p-driven chained injectors, result files and plot"},
        {"name": "bitflip_study",
         "why": "serial simulate() probes with MTTF/Once events, graph rebuilt per probe, "
                "no reference run; exponent flips may diverge"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "scenario.load_ms", "unit": "ms", "better": "lower"},
        {"name": "dmp.fit_ms", "unit": "ms", "better": "lower"},
        {"name": "dmp.step_us", "unit": "us", "better": "lower"},
        {"name": "faults.step_us", "unit": "us", "better": "lower"},
        {"name": "plant.control_us", "unit": "us", "better": "lower"},
        {"name": "plant.dynamics_us", "unit": "us", "better": "lower"},
        {"name": "plant.monitor_us", "unit": "us", "better": "lower"},
        {"name": "engine.build_ms", "unit": "ms", "better": "lower"},
        {"name": "engine.loop_us", "unit": "us", "better": "lower"},
        {"name": "engine.runs", "unit": "count", "better": "lower"},
        {"name": "engine.reference_runs", "unit": "count", "better": "lower"},
        {"name": "engine.steps", "unit": "count", "better": "lower"},
        {"name": "faults.activations", "unit": "count", "better": "higher"},
        {"name": "experiments.diverged", "unit": "count", "better": "lower"},
    ],
}

# Printed and written to the results file, but not in the JSON line: they
# exist on one workload only. Units of every metric, by name.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({
    "run_s": "s", "cells_per_s": "1/s", "probes_per_s": "1/s", "failed_ratio": "ratio",
    "engine.trace_write_ms": "ms", "engine.trace_bytes": "bytes",
    "experiments.cell_ms": "ms", "experiments.pool_efficiency": "ratio",
    "experiments.output_ms": "ms", "svgplot.render_ms": "ms",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
})


# --------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float  # peak RSS of the process or of any of its waited-for children
    stdout: str


def spawn(argv: list[str], log: Path) -> Proc:
    """Run ``python3 argv`` to completion; stdout and stderr go to ``log``.*"""
    log.parent.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 3, 4):
        sys.stderr.write(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         + err_path.read_text()[-2000:])
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text())


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# workloads


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    op_walls: list[float] = field(default_factory=list)
    diverged: int = 0
    spans: list[dict] | None = None  # one payload per traced process


class Checker:
    """Expected fingerprint per operation key: pinned, or else the first seen."""

    def __init__(self, pinned: dict | None):
        self.expected = dict(pinned or {})
        self.failures: list[str] = []

    def ok(self, key: str, fingerprint: dict) -> bool:
        expected = self.expected.setdefault(key, fingerprint)
        if expected != fingerprint:
            self.failures.append(f"{key}: got {fingerprint}, expected {expected}")
            return False
        return True


class Workload:
    """One workload: its inputs come from the seed, its passes from fresh processes."""

    name = ""

    def __init__(self, seed: int, scenario: str, work: Path, checker: Checker):
        self.seed = seed
        self.scenario = scenario
        self.work = work
        self.checker = checker
        self.n_pass = 0
        self.traced = False
        self.span_files: list[Path] = []

    def run_pass(self, traced: bool) -> Pass:
        self.n_pass += 1
        self.traced = traced
        self.span_files = []
        p = self.one_pass(f"p{self.n_pass}")
        if traced:
            p.spans = []
            for path in self.span_files:
                if path.exists():
                    p.spans.append(json.loads(path.read_text()))
                    path.unlink()
                else:
                    p.failed = p.attempted
            counts = layer_counts(p.spans)
            counts["experiments.diverged"] = p.diverged
            if not self.checker.ok("counts", counts):
                p.failed = p.attempted
        return p

    def one_pass(self, tag: str) -> Pass:
        raise NotImplementedError

    def argv(self, log: str, args: list[str]) -> list[str]:
        """Interpreter arguments for ``child.py args``. An untraced ``cli``
        command runs the faultbench CLI itself, with no benchmark code."""
        if self.traced:
            path = self.work / f"spans-{log}.json"
            self.span_files.append(path)
            return [str(CHILD), "--trace", str(path), *args]
        if args[0] == "cli":
            return ["-m", "faultbench", *args[1:]]
        return [str(CHILD), *args]

    def spawn(self, log: str, args: list[str]) -> Proc:
        return spawn(self.argv(log, args), self.work / log)


class CaseRun(Workload):
    """``faultbench run`` at seeds S, S+1, S+18; one operation per run."""

    name = "case_run"

    def one_pass(self, tag):
        walls, rss, failed, diverged = [], 0.0, 0, 0
        start = time.perf_counter()
        for offset in CASE_SEED_OFFSETS:
            seed = self.seed + offset
            out = self.work / f"seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            proc = self.spawn(f"{tag}-seed{seed}", ["cli", "run", self.scenario, "--seed",
                                                   str(seed), "--out", str(out), "--quiet"])
            walls.append(proc.wall_s)
            rss = max(rss, proc.rss_mb)
            diverged += proc.code == 5
            cls = proc.stdout.strip()
            fingerprint = {"classification": cls, "exit": proc.code}
            valid = CLASS_EXIT.get(cls) == proc.code
            if valid:
                fingerprint["trace.csv"] = sha256(out / "trace.csv")
                fingerprint["violations.csv"] = sha256(out / "violations.csv")
            failed += not (self.checker.ok(str(offset), fingerprint) and valid)
        return Pass(time.perf_counter() - start, rss, len(walls), failed, walls, diverged)


class FineSweep(Workload):
    """``faultbench sweep --preset fine``; one operation per cell."""

    name = "fine_sweep"
    jobs = nproc()

    def one_pass(self, tag):
        out = self.work / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        proc = self.spawn(tag, ["cli", "sweep", self.scenario, "--preset", "fine",
                                "--seeds", str(SWEEP_SEEDS), "--seed", str(self.seed),
                                "--jobs", str(self.jobs), "--out", str(out), "--quiet"])
        cells = 10 * SWEEP_SEEDS
        fingerprint = {"exit": proc.code}
        if proc.code == 0:
            for name in ("sweep_results.csv", "sweep_summary.json"):
                fingerprint[name] = sha256(out / name)
        failed = 0 if self.checker.ok("sweep", fingerprint) and proc.code == 0 else cells
        return Pass(proc.wall_s, proc.rss_mb, cells, failed, [proc.wall_s],
                    int(proc.code == 5))


class BitflipStudy(Workload):
    """``run_bitflip_study`` per bit region plus ``run_small_fault_probes``;
    one operation per probe. Base seeds S (bit flips) and S+1 (small faults)."""

    name = "bitflip_study"

    def one_pass(self, tag):
        out = self.work / "outcomes.json"
        out.unlink(missing_ok=True)
        proc = self.spawn(tag, ["bitflip", self.scenario, str(self.seed), str(PROBE_SEEDS),
                                str(out)])
        probes = 5 * PROBE_SEEDS
        fingerprint = {"exit": proc.code}
        diverged = 0
        if proc.code == 0:
            rows = json.loads(out.read_text())
            fingerprint["outcomes"] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            diverged = sum(1 for row in rows if row[2])
        failed = 0 if self.checker.ok("outcomes", fingerprint) and proc.code == 0 else probes
        return Pass(proc.wall_s, proc.rss_mb, probes, failed, [proc.wall_s], diverged)


WORKLOADS = {w.name: w for w in (CaseRun, FineSweep, BitflipStudy)}


# --------------------------------------------------------------------------
# spans -> per-layer metrics

STEP_LAYERS = ("dmp.step", "faults.step", "plant.control", "plant.dynamics", "plant.monitor")


def layer_counts(payloads: list[dict]) -> dict:
    """Exact counts of one traced pass."""
    runs = [r for payload in payloads for r in payload["runs"].values()]
    return {
        "engine.runs": len(runs),
        "engine.reference_runs": sum(r["reference"] for r in runs),
        "engine.steps": sum(r["steps"] for r in runs),
        "faults.activations": sum(r["activations"] for r in runs),
    }


def layer_times(payloads: list[dict], passes: int, jobs: int) -> dict:
    """Per-layer metrics from the spans of several traced passes, as self times.

    Set-up layers are given per graph build, step layers per simulated step,
    file output per pass.
    """
    total = defaultdict(float)
    n = defaultdict(int)
    for payload in payloads:
        spans = payload["spans"]
        covered = defaultdict(float)  # sid -> time its child spans cover
        for s in spans:
            if s[2] is not None:
                covered[s[2]] += s[5] - s[4]
        for sid, layers in payload["steps"].items():
            for layer, (_calls, seconds) in layers.items():
                covered[int(sid)] += seconds
                total[layer] += seconds
        for s in spans:
            name, duration = s[3], s[5] - s[4]
            self_time = duration - covered[s[1]]
            n[name] += 1
            total[name] += duration
            total["self:" + name.split(".")[0]] += self_time
            total["self:" + name] += self_time
            if len(s) > 6:
                total["trace_bytes"] += s[6]
    builds = max(1, n["engine.build_graph"])
    steps = max(1, layer_counts(payloads)["engine.steps"])
    metrics = {
        "scenario.load_ms": 1e3 * total["self:scenario"] / builds,
        "dmp.fit_ms": 1e3 * total["self:dmp"] / builds,
        "engine.build_ms": 1e3 * total["self:engine.build_graph"] / builds,
        "engine.loop_us": 1e6 * total["self:engine.run"] / steps,
    }
    for layer in STEP_LAYERS:
        metrics[layer + "_us"] = 1e6 * total[layer] / steps
    if n["engine.trace_write"]:
        metrics["engine.trace_write_ms"] = 1e3 * total["engine.trace_write"] / n["engine.trace_write"]
        metrics["engine.trace_bytes"] = total["trace_bytes"] / n["engine.trace_write"]
    if n["experiments.cell"]:
        metrics["experiments.cell_ms"] = 1e3 * total["experiments.cell"] / n["experiments.cell"]
        metrics["experiments.pool_efficiency"] = (
            total["experiments.cell"] / (jobs * total["experiments.run_sweep"]))
    if n["experiments.run_sweep"]:
        metrics["experiments.output_ms"] = 1e3 * (
            total["experiments.write_results_csv"] + total["experiments.write_summary_json"]
        ) / passes
        metrics["svgplot.render_ms"] = 1e3 * total["svgplot.render_sweep_plot"] / passes
    return metrics


# --------------------------------------------------------------------------
# one benchmark run


def tiny_scenario() -> str:
    raw = json.loads((SRC / "faultbench" / "data" / "case_study.json").read_text())
    raw["clock"]["t_end_s"] = TINY_T_END_S
    path = OUT / "work" / "case_study_tiny.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw))
    return str(path)


def measure(workload: Workload, seconds: float, minimum: int, traced) -> list[Pass]:
    """Passes until the next one would end more than ``seconds`` after the
    first began; ``traced(i)`` says whether pass ``i`` is traced."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(traced(len(passes))))
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= minimum and time.perf_counter() - start + typical > seconds:
            return passes


def measure_setup(scenario: str, work: Path) -> float:
    """Median set-up time of fresh processes; one unmeasured warm-up first."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = spawn([str(CHILD), "setup", scenario], work / f"setup{i}")
        if proc.code != 0:
            raise RuntimeError("set-up process failed")
        times.append(json.loads(proc.stdout)["setup_s"])
    return statistics.median(times[1:])


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha,
        "pool_start_method": multiprocessing.get_context().get_start_method(),
    }


def benchmark(args) -> dict:
    workload_cls = WORKLOADS[args.workload]
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = tiny_scenario() if args.size == "tiny" else "case_study.json"
    pins = json.loads(Path(args.pins).read_text())
    pinned = pins.get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    checker = Checker(pinned)
    workload = workload_cls(args.seed, scenario, work, checker)

    metrics: dict[str, float] = {}
    if args.trace:
        # traced and plain passes alternate, so both see the same machine load
        passes = measure(workload, args.seconds, 3, lambda i: i % 2 == 0)
        traced = [p for p in passes if p.spans is not None]
        payloads = [payload for p in traced for payload in p.spans]
        metrics.update(layer_times(payloads, len(traced), getattr(workload, "jobs", 1)))
        metrics.update(checker.expected["counts"])
        plain_wall = statistics.median(p.wall_s for p in passes if p.spans is None)
        metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - plain_wall
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / plain_wall
    else:
        metrics["setup_s"] = measure_setup(scenario, work)
        passes = measure(workload, args.seconds, 2, lambda i: False)
        walls = [p.wall_s for p in passes]
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = statistics.median(p.rss_mb for p in passes)
        rates = [p.attempted / p.wall_s for p in passes]
        if args.workload == "case_run":
            metrics["run_s"] = statistics.median(w for p in passes for w in p.op_walls)
        elif args.workload == "fine_sweep":
            metrics["cells_per_s"] = statistics.median(rates)
        else:
            metrics["probes_per_s"] = statistics.median(rates)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["failed_ratio"] = failed / attempted
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "pass_walls_s": [p.wall_s for p in passes],
            "op_walls_s": [w for p in passes for w in p.op_walls], "failures": checker.failures,
            "fingerprints": checker.expected,
            "spans": [p.spans for p in passes if p.spans] if args.trace else None}


def report(args, result: dict) -> None:
    env = environment()
    for key, value in env.items():
        print(f"# {key}: {value}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    metrics = result["metrics"]
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {UNITS[name]}")

    key = "per_layer" if args.trace else "end_to_end"
    chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in SPEC[key]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if spans:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "units": {k: UNITS[k] for k in metrics}, **result}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))


def write_pins() -> None:
    """Fingerprints of seed 0 for both sizes; the sweep is pinned at --jobs 1."""
    pins: dict = {}
    for size in ("full", "tiny"):
        scenario = tiny_scenario() if size == "tiny" else "case_study.json"
        for name, cls in WORKLOADS.items():
            work = OUT / "work" / "pins" / name
            shutil.rmtree(work, ignore_errors=True)
            checker = Checker(None)
            workload = cls(0, scenario, work, checker)
            workload.jobs = 1  # read by the sweep only
            if workload.run_pass(False).failed:
                raise RuntimeError(f"{size} {name}: an operation failed; nothing pinned")
            pins.setdefault(size, {}).setdefault(name, {})["0"] = checker.expected
            print(f"{size} {name}: {checker.expected}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a 1 s scenario clock, for the smoke test")
    ap.add_argument("--pins", default=str(PINS), help="pinned fingerprints (JSON)")
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    ap.add_argument("--write-pins", action="store_true", help="rewrite pins.json")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if not (SRC / "faultbench" / "__init__.py").is_file():
        print(f"no faultbench sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    report(args, benchmark(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
