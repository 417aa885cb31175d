"""Monte-Carlo fault-duration sweeps and fault-tolerance metrics.

Every run, single or in a sweep, goes through :func:`simulate`. For every
(duration, seed) cell a sweep runs the scenario twice with the same seed:
once without its injectors (the fault-free reference, or golden run) and
once with them (faulty), as ``simulate(cfg, seed, reference)``. The
reference simulates every joint. The faulty run simulates only the joints
some injector targets, from the first fault window on, and returns the
violations of the full run: its own, and the reference's on the other
joints and before that window, in the monitor's order. That is exact: the
DMP is open-loop per joint, every injectable signal names one joint and only
that joint's controller, dynamics or torque check reads it, and the monitor
checks each joint on its own, so a joint no injector targets follows the
reference bit for bit; and until the first window every injector passes its
input through.

Root-mean-square error between a cell's faulty run and the reference on the
faulted joint (angle, angular velocity, applied torque) quantifies the fault
impact; the violations classify the cell as Nominal, Error, or Failure.
Whatever the scenario's ``monitors`` list says, the faulty run of
a cell records exactly the three columns the cell reads: the faulted joint's
angle, angular velocity and applied torque. The reference also records what
the faulty run restarts from. The cell's activation
windows are the primary injector's windows, with a window that starts on the
step after the previous one ends merged into it, as the injector's trigger
line shows them. A bit-flip or small-fault probe reads
only the violations and records no column.

Cells are independent jobs with a deterministic seed mapping, so results are
identical regardless of the parallelism degree. Seeds are shared across
durations (cell seed depends on the seed index only), which pairs the fault
activation pattern across the sweep and sharpens the duration trend.
A sweep's ``SweepResult.summary`` is exactly the dict ``sweep_summary.json``
holds, built once by :func:`summarize`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import engine, faults
from .plant import ViolationKind, ViolationRecord
from .scenario import MonitorConfig, ScenarioConfig, with_injector_durations

FINE_DURATIONS = tuple(round(0.05 * (i + 1), 10) for i in range(10))      # 0.05 .. 0.5
COARSE_DURATIONS = tuple(round(0.5 + 0.25 * i, 10) for i in range(11))    # 0.5 .. 3.0
GAP_THRESHOLD_S = 0.5  # below this inter-activation gap a run is "consecutive"


class LengthMismatch(ValueError):
    """Traces of different lengths cannot be compared."""


class DegenerateFit(ValueError):
    """Fewer than 3 distinct x values; a quadratic is underdetermined."""


class Classification(enum.Enum):
    NOMINAL = "Nominal"
    ERROR = "Error"
    FAILURE = "Failure"


def rmse(faulty: np.ndarray, reference: np.ndarray) -> float:
    """Root-mean-square difference of two equally long traces."""
    faulty = np.asarray(faulty, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if faulty.shape != reference.shape:
        raise LengthMismatch(f"trace shapes differ: {faulty.shape} vs {reference.shape}")
    if faulty.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((faulty - reference) ** 2)))


def classify_run(violations) -> Classification:
    kinds = {v.kind for v in violations}
    if ViolationKind.ANGLE_FAILURE in kinds:
        return Classification.FAILURE
    if ViolationKind.TORQUE_ERROR in kinds or ViolationKind.SPEED_ERROR in kinds:
        return Classification.ERROR
    return Classification.NOMINAL


@dataclass(frozen=True)
class QuadraticFit:
    a: float
    b: float
    c: float
    residual: float  # RMS of fit errors


def fit_quadratic(xs, ys) -> QuadraticFit:
    """Least-squares fit of a*x^2 + b*x + c."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(set(xs.tolist())) < 3:
        raise DegenerateFit("need at least 3 distinct x values")
    coeffs = np.polyfit(xs, ys, 2)
    fitted = np.polyval(coeffs, xs)
    residual = float(np.sqrt(np.mean((fitted - ys) ** 2)))
    return QuadraticFit(a=float(coeffs[0]), b=float(coeffs[1]), c=float(coeffs[2]),
                        residual=residual)


# --------------------------------------------------------------------------
# single runs


@dataclass(frozen=True)
class RunOutput:
    trace: engine.TraceLog
    violations: tuple[ViolationRecord, ...]
    classification: Classification
    # injector name -> the (step, steps) windows it opened, see faults.Injector
    activations: dict[str, tuple[tuple[int, int | None], ...]]


def simulate(cfg: ScenarioConfig, seed: int | None = None,
             reference: RunOutput | None = None) -> RunOutput:
    """Build and execute one run; seed defaults to the scenario seed.

    With ``reference``, the run of the same scenario and seed without
    injectors, the graph holds only the joints some injector targets (see
    ``engine.build_graph``) and the run starts at its first fault window
    (see ``engine.run``). It returns the full run's violations,
    classification and activations, and the held joints' columns of its
    trace; before the first window its ``monitor.violations`` column counts
    the reference's records over every joint, from then on the held joints'
    records only.
    """
    seed = cfg.seed if seed is None else seed
    joints = None if reference is None else _faulted_joints(cfg)
    graph = engine.build_graph(cfg, joints)
    trace = engine.run(graph, cfg.clock, seed, None if reference is None else reference.trace)
    activations = {b.spec.name: tuple(b.windows) for b in graph.blocks
                   if isinstance(b, faults.Injector)}
    violations = graph.block("monitor").violations
    if reference is not None:
        t_start = cfg.clock.dt_s * min((log[0][0] for log in activations.values() if log),
                                       default=cfg.clock.n_steps)
        # MonitorBlock's order: by step, then by joint declaration order,
        # each joint's records in the order they were made
        order = {j: i for i, j in enumerate(cfg.joint_names)}
        violations = sorted(violations + [v for v in reference.violations
                                          if v.joint not in joints or v.t < t_start],
                            key=lambda v: (v.t, order[v.joint]))
    violations = tuple(violations)
    return RunOutput(trace=trace, violations=violations,
                     classification=classify_run(violations), activations=activations)


# --------------------------------------------------------------------------
# sweep plan and results


@dataclass(frozen=True)
class SweepPlan:
    scenario: ScenarioConfig
    durations: tuple[float, ...]
    seeds_per_duration: int = 20
    base_seed: int = 0

    def resolved_varied(self) -> tuple[str, ...]:
        """Every constant-time injector: the sweep sets their duration."""
        names = tuple(s.name for s in self.scenario.injectors
                      if isinstance(s.effect, faults.ConstantTime))
        if not names:
            raise ValueError("scenario has no constant-time injector to vary")
        return names

    def resolved_primary(self) -> str:
        """The injector whose windows are a cell's activation windows."""
        for s in self.scenario.injectors:
            if s.chain_to is not None:
                return s.name
        return self.resolved_varied()[0]

    def metric_joint(self) -> str:
        """The joint the primary injector targets."""
        primary = self.resolved_primary()
        return next(_signal_joint(s.target_signal) for s in self.scenario.injectors
                    if s.name == primary)


@dataclass(frozen=True)
class CellResult:
    duration_s: float
    seed_index: int
    rmse_pos: float
    rmse_vel: float
    rmse_torque: float
    classification: Classification
    n_activations: int
    min_gap_s: float | None  # None when fewer than two activations

    def row(self) -> str:
        return (f"{self.duration_s:.9g},{self.seed_index},{self.rmse_pos:.9g},"
                f"{self.rmse_vel:.9g},{self.rmse_torque:.9g},{self.classification.value}")


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[CellResult, ...]
    summary: dict  # exactly what sweep_summary.json holds, see summarize()


def cell_seed(base_seed: int, seed_index: int) -> int:
    """Deterministic per-seed-slot run seed, shared across durations."""
    ss = np.random.SeedSequence([int(base_seed), int(seed_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _activation_windows(activations, dt: float) -> tuple[int, float | None]:
    """Number of activation windows in an injector's ``(step, steps)`` log
    and the minimum gap between them [s]. An activation that starts on the
    step after the previous one ends extends its window, as the trigger line
    shows it."""
    gaps = [nxt - start - steps for (start, steps), (nxt, _) in zip(activations, activations[1:])
            if nxt != start + steps]
    return (len(gaps) + 1 if activations else 0), (min(gaps) * dt if gaps else None)


def _joint_signals(joint: str) -> tuple[str, ...]:
    """Angle, angular velocity and applied torque of one joint."""
    return tuple(f"plant.{joint}.{field}" for field in ("pos", "vel", "torque"))


def _joint_columns(trace: engine.TraceLog, joint: str) -> tuple[np.ndarray, ...]:
    return tuple(trace.signal(name) for name in _joint_signals(joint))


def _signal_joint(signal: str) -> str:
    """The joint of an injectable signal, ``<layer>.<joint>.<field>``."""
    return signal.split(".")[1]


def _faulted_joints(cfg: ScenarioConfig) -> tuple[str, ...]:
    """The joints some injector targets, in declaration order."""
    targeted = {_signal_joint(spec.target_signal) for spec in cfg.injectors}
    return tuple(j for j in cfg.joint_names if j in targeted)


def _golden_signals(cfg: ScenarioConfig) -> tuple[str, ...]:
    """The columns the cell reads and its faulty run restarts from."""
    restart = [f"plant.{j}.{field}" for j in _faulted_joints(cfg) for field in ("pos", "vel")]
    return tuple(dict.fromkeys([*cfg.monitors.signals, *restart,
                                *(spec.target_signal for spec in cfg.injectors)]))


def _run_cell(cfg: ScenarioConfig, varied: tuple[str, ...], primary: str,
              joint: str, duration: float, seed_index: int,
              base_seed: int) -> CellResult:
    seed = cell_seed(base_seed, seed_index)
    golden = replace(cfg, injectors=(), monitors=MonitorConfig(signals=_golden_signals(cfg)))
    try:
        reference = simulate(golden, seed=seed)
        out = simulate(with_injector_durations(cfg, varied, duration), seed=seed,
                       reference=reference)
    except engine.NumericalDivergence as exc:
        raise engine.NumericalDivergence(exc.t, exc.block, exc.signal, exc.value,
                                         cell=(duration, seed_index)) from None

    n_act, min_gap = _activation_windows(out.activations[primary], cfg.clock.dt_s)
    rmse_pos, rmse_vel, rmse_torque = map(rmse, _joint_columns(out.trace, joint),
                                          _joint_columns(reference.trace, joint))
    return CellResult(
        duration_s=duration,
        seed_index=seed_index,
        rmse_pos=rmse_pos,
        rmse_vel=rmse_vel,
        rmse_torque=rmse_torque,
        classification=out.classification,
        n_activations=n_act,
        min_gap_s=min_gap,
    )


def check_durations(durations) -> None:
    """Raise ValueError unless there is a duration, and every duration is
    finite, non-negative and listed once."""
    if not durations:
        raise ValueError("need at least one fault duration")
    for d in durations:
        if not math.isfinite(d) or d < 0.0:
            raise ValueError(f"fault durations must be finite and non-negative, got {d!r}")
    if len(set(durations)) != len(durations):
        raise ValueError("durations must be distinct")


def run_sweep(plan: SweepPlan, jobs: int = 1) -> SweepResult:
    """Execute every (duration, seed) cell and aggregate.

    The cell list and its seed mapping are fixed by the plan, so any ``jobs``
    value produces identical results.
    """
    check_durations(plan.durations)
    if list(plan.durations) != sorted(plan.durations):
        raise ValueError("durations must be strictly increasing")
    if plan.seeds_per_duration < 1:
        raise ValueError("need at least one seed per duration")
    varied = plan.resolved_varied()
    primary = plan.resolved_primary()
    joint = plan.metric_joint()
    cfg = replace(plan.scenario, monitors=MonitorConfig(signals=_joint_signals(joint)))

    tasks = [(cfg, varied, primary, joint, d, si, plan.base_seed)
             for d in plan.durations for si in range(plan.seeds_per_duration)]
    if jobs <= 1:
        cells = [_run_cell(*task) for task in tasks]
    else:
        # imported here, so that a process with no pool (run, validate, a
        # study, a serial sweep) does not pay its modules' 15 ms and 2 MB
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers up front, so no more than cells
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            cells = list(pool.map(_run_cell, *zip(*tasks), chunksize=1))
    return SweepResult(cells=tuple(cells), summary=summarize(plan, cells))


def summarize(plan: SweepPlan, cells) -> dict:
    """The sweep summary under the keys of ``sweep_summary.json``: per
    duration the RMSE statistics, classification counts and Failure
    fraction; a quadratic fit per metric over three or more durations; the
    failure threshold ``d_star_s``; and the same threshold for the runs
    binned "consecutive" or "isolated" by ``GAP_THRESHOLD_S``."""
    aggregates = []
    for d in plan.durations:
        group = [c for c in cells if c.duration_s == d]
        metrics = {
            "rmse_pos_rad": [c.rmse_pos for c in group],
            "rmse_vel_rad_s": [c.rmse_vel for c in group],
            "rmse_torque_nm": [c.rmse_torque for c in group],
        }
        counts = {cls.value: sum(1 for c in group if c.classification is cls)
                  for cls in Classification}
        aggregates.append({
            "duration_s": d,
            "mean": {k: float(np.mean(v)) for k, v in metrics.items()},
            "min": {k: float(np.min(v)) for k, v in metrics.items()},
            "max": {k: float(np.max(v)) for k, v in metrics.items()},
            "classifications": counts,
            "failure_fraction": counts[Classification.FAILURE.value] / len(group),
        })

    fit = {}
    if len(plan.durations) >= 3:
        for key in aggregates[0]["mean"]:
            fit[key] = asdict(fit_quadratic(plan.durations,
                                            [a["mean"][key] for a in aggregates]))

    bins = {"consecutive": [], "isolated": []}
    for c in cells:
        consecutive = c.min_gap_s is not None and c.min_gap_s < GAP_THRESHOLD_S
        bins["consecutive" if consecutive else "isolated"].append(c)

    return {
        "base_seed": plan.base_seed,
        "seeds_per_duration": plan.seeds_per_duration,
        "durations_s": list(plan.durations),
        "gap_threshold_s": GAP_THRESHOLD_S,
        "aggregates": aggregates,
        "fit": fit,
        "d_star_s": _first_crossing(cells, plan.durations),
        "bins": {name: {"d_star_s": _first_crossing(group, plan.durations),
                        "runs": len(group)}
                 for name, group in bins.items()},
    }


def _first_crossing(cells, durations) -> float | None:
    """The first duration at which half or more of ``cells`` fail."""
    for d in durations:
        group = [c for c in cells if c.duration_s == d]
        if group and sum(c.classification is Classification.FAILURE
                         for c in group) / len(group) >= 0.5:
            return d
    return None


# --------------------------------------------------------------------------
# result files


RESULTS_HEADER = "duration_s,seed,rmse_pos_rad,rmse_vel_rad_s,rmse_torque_Nm,classification"


def write_results_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for c in result.cells:
            fh.write(c.row() + "\n")


def write_summary_json(result: SweepResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_violations_csv(violations, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,joint,kind,value\n")
        for v in violations:
            fh.write(f"{v.t:.9g},{v.joint},{v.kind.value},{v.value:.9g}\n")


# --------------------------------------------------------------------------
# single-fault robustness studies


@dataclass(frozen=True)
class ProbeOutcome:
    seed_index: int
    detail: str
    classification: Classification | None  # None when the run diverged
    diverged: bool


def run_bitflip_study(cfg: ScenarioConfig, joint: str, bits, n_seeds: int,
                      base_seed: int = 0) -> list[ProbeOutcome]:
    """Flip one random bit (from ``bits``) of the joint angle reading, once
    per run at a random time; classify each run."""
    bits = list(bits)
    outcomes = []
    for i in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, 7700 + i]))
        bit = int(bits[rng.integers(len(bits))])
        t_fire = float(rng.uniform(0.5, max(0.6, cfg.clock.t_end_s - 1.0)))
        spec = faults.FaultSpec(
            name="probe_bitflip",
            target_signal=f"plant.{joint}.pos",
            fault_type=faults.BitFlip(n_bits=1, bit_positions=(bit,)),
            event=faults.MeanTimeToFailure(mttf=t_fire, sigma=0.0),
            effect=faults.Once(),
        )
        outcomes.append(_probe_once(replace(cfg, injectors=(spec,)),
                                    cell_seed(base_seed, i), i, f"bit={bit}"))
    return outcomes


def run_small_fault_probes(cfg: ScenarioConfig, joint: str, n_seeds: int,
                           base_seed: int = 0) -> dict[str, list[ProbeOutcome]]:
    """Single spikes and small constant offsets on the joint angle reading."""
    results: dict[str, list[ProbeOutcome]] = {"spike": [], "offset": []}
    for i in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, 8800 + i]))
        t_fire = float(rng.uniform(0.5, max(0.6, cfg.clock.t_end_s - 1.0)))
        spike = faults.FaultSpec(
            name="probe_spike", target_signal=f"plant.{joint}.pos",
            fault_type=faults.PackageDrop(replacement=0.0),
            event=faults.MeanTimeToFailure(mttf=t_fire, sigma=0.0),
            effect=faults.Once(),
        )
        offset = faults.FaultSpec(
            name="probe_offset", target_signal=f"plant.{joint}.pos",
            fault_type=faults.Bias(offset=0.02),
            event=faults.MeanTimeToFailure(mttf=t_fire, sigma=0.0),
            effect=faults.ConstantTime(duration=0.1),
        )
        seed = cell_seed(base_seed, i)
        for kind, spec in (("spike", spike), ("offset", offset)):
            results[kind].append(_probe_once(replace(cfg, injectors=(spec,)), seed, i, kind))
    return results


def _probe_once(cfg: ScenarioConfig, seed: int, index: int, detail: str) -> ProbeOutcome:
    try:
        out = simulate(replace(cfg, monitors=MonitorConfig(signals=())), seed=seed)
    except engine.NumericalDivergence:
        return ProbeOutcome(seed_index=index, detail=detail, classification=None,
                            diverged=True)
    return ProbeOutcome(seed_index=index, detail=detail,
                        classification=out.classification, diverged=False)
