import copy
import json
import math
import os

import numpy as np
import pytest

from faultbench import faults
from faultbench.engine import TraceLog
from faultbench.scenario import (ClockConfig, ControlConfig, DmpConfig,
                                 MonitorConfig, ScenarioConfig, data_path,
                                 load_scenario)
from faultbench.plant import default_joint_params


def make_scenario(joints=("right_knee",), injectors=(), demo="demo_minimal.csv",
                  t_end=7.0, dt=1e-3, seed=0, kp=200.0, kd=20.0,
                  monitored=None) -> ScenarioConfig:
    """Programmatic scenario for tests, bypassing the JSON layer."""
    return ScenarioConfig(
        clock=ClockConfig(dt_s=dt, t_end_s=t_end),
        joints=tuple(default_joint_params(n) for n in joints),
        dmp=DmpConfig(),
        control=ControlConfig(kp=kp, kd=kd),
        injectors=tuple(injectors),
        monitors=MonitorConfig(signals=monitored),
        seed=seed,
        demo_path=str(data_path(demo)),
    )


def stuck_spec(name="stuck", target="plant.right_knee.pos", p=0.0005,
               duration=0.25, chain_to=None, enabled=True) -> faults.FaultSpec:
    return faults.FaultSpec(
        name=name, target_signal=target, fault_type=faults.StuckAt(),
        event=faults.FailureProbability(p=p),
        effect=faults.ConstantTime(duration=duration),
        enabled=enabled, chain_to=chain_to,
    )


def bind_alone(block, inputs=(), clock=ClockConfig()):
    """Bind ``block`` to ``clock`` and to slots of its outputs, numbered as
    ``BlockGraph`` numbers them, then of the other ``inputs``; returns the
    slots and a value list of that length."""
    slots = {sig: i for i, sig in enumerate(dict.fromkeys(block.output_names + tuple(inputs)))}
    block.bind(slots, clock)
    return slots, [None] * len(slots)


def emit_named(block, k, signals, dt=1e-3):
    """``block.emit`` of step ``k`` of a ``dt`` clock on a value list
    holding ``signals``; returns what it wrote, by signal name."""
    slots, values = bind_alone(block, tuple(signals), ClockConfig(dt_s=dt))
    for name, value in signals.items():
        values[slots[name]] = value
    block.emit(k, values)
    return {name: values[slots[name]] for name in block.emit_output_names}


def drive_injector(inj, inputs, rng, triggers=None, dt=1e-3):
    """Bind ``inj`` to a ``dt`` clock of ``len(inputs)`` steps and schedule
    it from ``rng``, with ``triggers`` (one bool per step, none true by
    default) as its trigger line, then emit it on each input in turn;
    returns its outputs and its trigger outputs as bools."""
    clock = ClockConfig(dt_s=dt, t_end_s=len(inputs) * dt)
    assert clock.n_steps == len(inputs)
    slots, values = bind_alone(inj, (inj.in_signal,), clock)
    inj.schedule(rng, [(k, 1) for k, on in enumerate(triggers or ()) if on])
    outs, trigs = [], []
    for k, x in enumerate(inputs):
        values[slots[inj.in_signal]] = float(x)
        inj.emit(k, values)
        outs.append(values[slots[inj.out_signal]])
        trigs.append(values[slots[inj.trigger_signal]] == 1.0)
    return outs, trigs


def read_trace_csv(path_or_file) -> TraceLog:
    """The ``TraceLog`` that ``TraceLog.to_csv`` wrote to a path or an open
    text file, its values as the ``%.9g`` text gives them."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, newline="") as fh:
            return read_trace_csv(fh)
    names = path_or_file.readline().strip().split(",")
    if names[0] != "t":
        raise ValueError("trace CSV must start with a 't' column")
    rows = [[float(v) for v in line.split(",")] for line in path_or_file if line.strip()]
    arr = np.array(rows).reshape(len(rows), len(names))
    return TraceLog(columns=tuple(names[1:]), t=arr[:, 0], data=arr[:, 1:])


@pytest.fixture(scope="session")
def case_study_cfg():
    return load_scenario(data_path("case_study.json"))


@pytest.fixture(scope="session")
def minimal_cfg():
    return load_scenario(data_path("minimal.json"))


NAN, INF = math.nan, math.inf
NOISE = {"fault_type": {"kind": "noise", "boundary_pct": 5.0}}
DELAY = {"fault_type": {"kind": "time_delay", "delay": 0.002}}
MTTF = {"event": {"kind": "mean_time_to_failure", "mttf": 1.0}}
BIAS = {"fault_type": {"kind": "bias", "offset": 0.0}}
# (field path, value, parts that replace those of the first case-study
# injector): each value once crashed `validate`, `run` or `sweep`, or was
# accepted although not finite
BAD_NUMBER_CASES = [
    pytest.param(("injectors", 0, "fault_type", "delay"), NAN, DELAY, id="delay=nan"),
    pytest.param(("injectors", 0, "fault_type", "delay"), INF, DELAY, id="delay=inf"),
    pytest.param(("control", "kp"), 10**400, {}, id="kp=10**400"),
    pytest.param(("clock", "dt_s"), NAN, {}, id="dt_s=nan"),
    pytest.param(("clock", "dt_s"), INF, {}, id="dt_s=inf"),
    pytest.param(("clock", "dt_s"), NAN, DELAY, id="dt_s=nan-with-delay"),
    pytest.param(("clock", "t_end_s"), NAN, {}, id="t_end_s=nan"),
    pytest.param(("clock", "t_end_s"), INF, {}, id="t_end_s=inf"),
    pytest.param(("dmp", "alpha_s"), NAN, {}, id="alpha_s=nan"),
    pytest.param(("dmp", "alpha_s"), INF, {}, id="alpha_s=inf"),
    pytest.param(("injectors", 0, "fault_type", "boundary_pct"), NAN, NOISE,
                 id="boundary_pct=nan"),
    pytest.param(("injectors", 0, "fault_type", "boundary_pct"), INF, NOISE,
                 id="boundary_pct=inf"),
    pytest.param(("injectors", 0, "effect", "duration"), NAN, {}, id="duration=nan"),
    pytest.param(("joints", 4, "max_torque_nm"), INF, {}, id="max_torque_nm=inf"),
    pytest.param(("injectors", 0, "event", "mttf"), INF, MTTF, id="mttf=inf"),
    pytest.param(("injectors", 0, "fault_type", "offset"), -INF, BIAS, id="offset=-inf"),
    pytest.param(("dmp", "alpha_z"), 2**1024, {}, id="alpha_z=2**1024"),
]


def write_bad_number_case(tmp_path, where, value, parts):
    """The case study, 0.3 s long with its first injector firing on every
    step, with ``parts`` in that injector and ``value`` at ``where``."""
    raw = json.loads(data_path("case_study.json").read_text())
    raw["clock"]["t_end_s"] = 0.3
    raw["injectors"][0]["event"]["p"] = 1.0
    raw["injectors"][0].update(copy.deepcopy(parts))
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(raw))
    return path
