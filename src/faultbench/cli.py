"""Command-line front end: scenario validation, single runs, duration sweeps.

Exit codes
    validate:  0 valid, 1 schema/semantic violations, 2 unreadable file
    run:       0 Nominal, 3 Error, 4 Failure, 2 config error, 5 divergence
    sweep:     0 completed, 2 config error, 5 divergence in any cell

``validate`` builds the block graph and rolls the DMP targets out; what
fails there (``block graph: ...``, exit 1) is a config error, never a
divergence, to ``run`` and ``sweep``.

A config error includes an ``--out`` that cannot be made a directory or
written to. ``run`` and ``sweep`` check before simulating, creating
nothing, that the nearest existing one of ``--out`` and its ancestors is a
directory (so not an existing file, nor a path under one); any other
failure to write shows after simulating. Either way they print one line.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import engine, experiments, svgplot
from .experiments import Classification
from .scenario import (ScenarioConfig, ScenarioError, ScenarioParseError, load_scenario,
                       load_scenario_file, set_faults_enabled)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_ERROR = 3
EXIT_FAILURE = 4
EXIT_DIVERGENCE = 5

# What building or starting the block graph raises on a scenario that
# cannot run: a wiring error, an algebraic loop, a demo or DMP setting that
# the fit or the rollout rejects, or a step count too large to allocate
GRAPH_ERRORS = (engine.WiringError, engine.AlgebraicLoop, ValueError, OverflowError)

CLASS_EXIT = {
    Classification.NOMINAL: EXIT_OK,
    Classification.ERROR: EXIT_ERROR,
    Classification.FAILURE: EXIT_FAILURE,
}


def _default_jobs() -> int:
    raw = os.environ.get("FAULTBENCH_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in 0..2^64-1, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=None,
                        help="override the scenario seed (u64)")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="faultbench",
        description="Fault-injection simulation of a trajectory-controlled "
                    "multi-joint exoskeleton",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario file against the schema")
    p_val.add_argument("scenario", help="scenario JSON file (or a shipped preset name)")

    p_run = sub.add_parser("run", parents=[common], help="execute one simulation run")
    p_run.add_argument("scenario")
    p_run.add_argument("--disable-faults", action="store_true",
                       help="run with every injector disabled (reference behaviour)")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="Monte-Carlo fault-duration sweep")
    p_sweep.add_argument("scenario")
    group = p_sweep.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=("coarse", "fine"),
                       help="coarse: 0.5..3.0 s step 0.25; fine: 0.05..0.5 s step 0.05")
    group.add_argument("--durations", type=str, default=None,
                       help="comma-separated fault durations in seconds")
    p_sweep.add_argument("--seeds", type=int, default=20, help="seeds per duration")
    p_sweep.add_argument("--jobs", type=int, default=_default_jobs(),
                         help="parallel worker processes (env FAULTBENCH_JOBS)")
    return parser


def cmd_validate(args) -> int:
    try:
        cfg, violations = load_scenario_file(args.scenario)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not violations:
        try:  # build the graph and roll its targets out, as a run does
            engine.build_graph(cfg).block("dmp").targets.rows
        except GRAPH_ERRORS as exc:
            violations = [f"block graph: {exc}"]
    if violations:
        for v in violations:
            print(v)
        return EXIT_VIOLATIONS
    print("OK")
    return EXIT_OK


def _load_or_report(path) -> ScenarioConfig | None:
    """The validated scenario, or None after printing why it cannot be used."""
    try:
        return load_scenario(path)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except ScenarioError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
    return None


def _report_unwritable(out: Path, reason: object) -> int:
    print(f"cannot write outputs to {str(out)!r}: {reason}", file=sys.stderr)
    return EXIT_CONFIG


def _out_blocked(out: Path) -> bool:
    """Whether ``out`` cannot be made a directory because the nearest
    existing one of it and its ancestors is not a directory; if so, says so
    in one line. Creates nothing."""
    for path in (out, *out.parents):
        if os.path.exists(path):
            if os.path.isdir(path):
                return False
            _report_unwritable(out, f"{str(path)!r} is not a directory")
            return True
    return False


def cmd_run(args) -> int:
    cfg = _load_or_report(args.scenario)
    if cfg is None or _out_blocked(args.out):
        return EXIT_CONFIG

    seed = cfg.seed if args.seed is None else args.seed
    if args.disable_faults:
        cfg = set_faults_enabled(cfg, False)
    try:
        out = experiments.simulate(cfg, seed=seed)
    except GRAPH_ERRORS as exc:
        print(f"block graph: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.NumericalDivergence as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE

    trace_path = args.out / "trace.csv"
    violations_path = args.out / "violations.csv"
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        out.trace.to_csv(trace_path)
        experiments.write_violations_csv(out.violations, violations_path)
    except OSError as exc:
        return _report_unwritable(args.out, exc)

    if not args.quiet:
        print(f"trace: {trace_path} ({len(out.trace)} steps, "
              f"{len(out.trace.columns)} signals)", file=sys.stderr)
        print(f"violations: {violations_path} ({len(out.violations)} records)",
              file=sys.stderr)
    print(out.classification.value)
    return CLASS_EXIT[out.classification]


def cmd_sweep(args) -> int:
    cfg = _load_or_report(args.scenario)
    if cfg is None:
        return EXIT_CONFIG
    if args.seeds < 1:
        print(f"--seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return EXIT_CONFIG

    if args.preset == "coarse":
        durations = experiments.COARSE_DURATIONS
    elif args.preset == "fine" or args.durations is None:
        durations = experiments.FINE_DURATIONS
    else:
        try:
            durations = tuple(float(d) for d in args.durations.split(","))
            experiments.check_durations(durations)
        except ValueError as exc:
            print(f"bad --durations list {args.durations!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        durations = tuple(sorted(durations))

    base_seed = cfg.seed if args.seed is None else args.seed
    plan = experiments.SweepPlan(scenario=cfg, durations=durations,
                                 seeds_per_duration=args.seeds, base_seed=base_seed)
    try:
        plan.resolved_varied()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    if _out_blocked(args.out):
        return EXIT_CONFIG

    if not args.quiet:
        print(f"sweep: {len(durations)} durations x {args.seeds} seeds, "
              f"jobs={args.jobs}", file=sys.stderr)
    try:
        result = experiments.run_sweep(plan, jobs=args.jobs)
    except GRAPH_ERRORS as exc:
        print(f"block graph: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.NumericalDivergence as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE

    aggregates = result.summary["aggregates"]
    fit = result.summary["fit"].get("rmse_pos_rad")
    svg = svgplot.render_sweep_plot(
        [a["duration_s"] for a in aggregates],
        [a["mean"]["rmse_pos_rad"] for a in aggregates],
        [a["min"]["rmse_pos_rad"] for a in aggregates],
        [a["max"]["rmse_pos_rad"] for a in aggregates],
        (fit["a"], fit["b"], fit["c"]) if fit else None,
        title="Joint angle deviation vs fault duration",
        xlabel="fault duration [s]",
        ylabel="position RMSE [rad]",
    )
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        experiments.write_results_csv(result, args.out / "sweep_results.csv")
        experiments.write_summary_json(result, args.out / "sweep_summary.json")
        (args.out / "rmse_plot.svg").write_text(svg)
    except OSError as exc:
        return _report_unwritable(args.out, exc)

    if not args.quiet:
        for agg in aggregates:
            counts = agg["classifications"]
            print(f"  d={agg['duration_s']:g}s mean_pos_rmse="
                  f"{agg['mean']['rmse_pos_rad']:.4f} rad failures="
                  f"{counts['Failure']}/{sum(counts.values())}", file=sys.stderr)
        d_star = result.summary["d_star_s"]
        print(f"  failure threshold d*: "
              f"{'not crossed' if d_star is None else f'{d_star:g} s'}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
