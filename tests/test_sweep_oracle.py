"""Whole sweeps against the plainest reading of the paper's protocol.

``naive_sweep`` runs every (duration, seed) cell as two full runs from step
0 in this process: the scenario with its injectors disabled, on every joint,
and the scenario with them. It counts activation windows from the primary
injector's trigger line. Of ``run_sweep`` it reuses only ``summarize``. So
the reference per cell, the cut to the faulted joints, the restart at the
first activation and the worker pool all have to give what it gives.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from faultbench import engine
from faultbench import experiments as ex
from faultbench.cli import GRAPH_ERRORS
from faultbench.plant import JOINT_NAMES
from faultbench.scenario import (MonitorConfig, base_signal_names, parse_scenario,
                                 with_injector_durations)

from test_cli import fault_parts, short_scenarios


def trigger_windows(trigger: np.ndarray, dt: float) -> tuple[int, float | None]:
    """The windows of a trigger line, and the shortest gap between two."""
    high = np.flatnonzero(trigger >= 0.5)
    if not len(high):
        return 0, None
    breaks = np.flatnonzero(np.diff(high) > 1)
    gaps = high[breaks + 1] - high[breaks] - 1
    return len(gaps) + 1, (int(gaps.min()) * dt if len(gaps) else None)


def naive_cell(plan: ex.SweepPlan, duration: float, seed_index: int) -> ex.CellResult:
    cfg = plan.scenario
    joint = plan.metric_joint()
    primary = plan.resolved_primary()
    columns = tuple(f"plant.{joint}.{field}" for field in ("pos", "vel", "torque"))
    seed = ex.cell_seed(plan.base_seed, seed_index)
    reference = ex.simulate(replace(cfg, monitors=MonitorConfig(signals=columns)),
                            seed=seed, faults_enabled=False)
    faulty_cfg = with_injector_durations(cfg, plan.resolved_varied(), duration)
    trigger = f"inj.{primary}.trigger"
    faulty = ex.simulate(replace(faulty_cfg, monitors=MonitorConfig(signals=columns + (trigger,))),
                         seed=seed)
    n_activations, min_gap = trigger_windows(faulty.trace.signal(trigger), cfg.clock.dt_s)
    return ex.CellResult(duration, seed_index,
                         *(ex.rmse(faulty.trace.signal(c), reference.trace.signal(c))
                           for c in columns),
                         classification=faulty.classification,
                         n_activations=n_activations, min_gap_s=min_gap)


def naive_sweep(plan: ex.SweepPlan) -> ex.SweepResult:
    cells = []
    for d in plan.durations:
        for si in range(plan.seeds_per_duration):
            try:
                cells.append(naive_cell(plan, d, si))
            except engine.NumericalDivergence as exc:
                raise engine.NumericalDivergence(exc.t, exc.block, exc.signal, exc.value,
                                                 cell=(d, si)) from None
    return ex.SweepResult(cells=tuple(cells), summary=ex.summarize(plan, cells))


def outcome(sweep, plan, **kwargs):
    """What a sweep returns, or what it raises; ``repr`` makes NaNs compare."""
    try:
        result = sweep(plan, **kwargs)
    except engine.NumericalDivergence as exc:
        return ("diverged", exc.t, exc.block, exc.signal, repr(exc.value), exc.cell)
    except Exception as exc:  # a graph error: the same one on both paths
        return (type(exc).__name__, str(exc))
    return repr(result.cells), repr(result.summary)


TIGHT_JOINT = st.fixed_dictionaries({}, optional={
    "rot_min_deg": st.floats(-60.0, 0.0), "rot_max_deg": st.floats(0.0, 60.0),
    "max_speed_rpm": st.floats(1.0, 80.0), "max_torque_nm": st.floats(1.0, 150.0),
    "inertia_kgm2": st.just(1e-300)})


@st.composite
def fault_mixes(draw):
    """A scenario of 0.05 to 0.15 s with one to three injectors whose events
    fire often in that time, chained or on a mean time to failure. One
    joint may get tight limits, on which the reference violates before any
    injector fires, or an inertia so small that the reference diverges."""
    six = draw(st.booleans())
    joints = [{"name": j} for j in (JOINT_NAMES if six else ["right_knee"])]
    if draw(st.booleans()):
        draw(st.sampled_from(joints)).update(draw(TIGHT_JOINT))
    raw = {"clock": {"dt_s": 1e-3, "t_end_s": draw(st.sampled_from([0.05, 0.1, 0.15]))},
           "joints": joints,
           "dmp": {"demo_file": "demo_gait.csv" if six else "demo_minimal.csv"},
           "seed": 0, "injectors": []}
    names = [f"inj{k}" for k in range(draw(st.integers(1, 3)))]
    for name in names:
        fault_type, event, effect = draw(fault_parts(1e-3))
        if event["kind"] == "failure_probability":
            event["p"] = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))
        else:
            event = {"kind": "mean_time_to_failure", "mttf": draw(st.floats(1e-4, 0.15))}
            if draw(st.booleans()):
                event["sigma"] = draw(st.floats(0.0, 0.05))
        raw["injectors"].append({
            "name": name,
            "target_signal": draw(st.sampled_from(base_signal_names([j["name"] for j in joints]))),
            "fault_type": fault_type, "event": event, "effect": effect,
            "enabled": draw(st.sampled_from([True, True, False])),
            "chain_to": draw(st.one_of(st.none(), st.sampled_from(names))),
        })
    return raw


DURATIONS = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05)


@st.composite
def sweep_plans(draw):
    raw = draw(st.one_of(short_scenarios(), fault_mixes()))
    cfg, violations = parse_scenario(raw, Path("."))
    assume(not violations)
    try:  # what `faultbench validate` checks too
        engine.build_graph(cfg)
    except GRAPH_ERRORS:
        assume(False)
    durations = tuple(sorted(draw(st.sets(st.sampled_from(DURATIONS), min_size=1,
                                          max_size=3))))
    plan = ex.SweepPlan(scenario=cfg, durations=durations,
                        seeds_per_duration=draw(st.integers(1, 3)),
                        base_seed=draw(st.integers(0, 2**64 - 1)))
    try:
        plan.resolved_varied()
    except ValueError:
        assume(False)
    return plan


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(sweep_plans())
def test_run_sweep_gives_what_the_naive_sweep_gives(plan):
    want = outcome(naive_sweep, plan)
    assert outcome(ex.run_sweep, plan, jobs=1) == want
    assert outcome(ex.run_sweep, plan, jobs=2) == want


def test_trigger_windows_merge_touching_runs_and_measure_gaps():
    line = np.array([0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0], dtype=float)
    assert trigger_windows(line, 0.5) == (3, 0.5)
    assert trigger_windows(np.zeros(4), 1.0) == (0, None)
    assert trigger_windows(np.ones(4), 1.0) == (1, None)
    assert math.isclose(trigger_windows(np.array([1.0, 0, 0, 0, 1]), 1e-3)[1], 3e-3)
