"""Scenario configuration: JSON schema, validation, and demo trajectory I/O.

A scenario is a single JSON object:

    {
      "clock":    {"dt_s": 0.001, "t_end_s": 7.0},
      "joints":   [{"name": "right_knee", "inertia_kgm2": 0.8, ...}, ...],
      "dmp":      {"alpha_z": 25.0, "alpha_s": 4.6, "n_basis": 50,
                   "demo_file": "demo_gait.csv"},
      "control":  {"kp": 200.0, "kd": 20.0},
      "injectors": [{"name": ..., "target_signal": ..., "enabled": true,
                     "chain_to": ...,
                     "fault_type": {"kind": "stuck_at" | "package_drop" |
                                    "bias" | "noise" | "time_delay" |
                                    "bit_flip", ...},
                     "event":  {"kind": "failure_probability" |
                                "mean_time_to_failure", ...},
                     "effect": {"kind": "once" | "constant_time" |
                                "infinite_time" | "mean_time_to_repair", ...}},
                    ...],
      "monitors": {"signals": ["plant.right_knee.pos", ...]},  # omit = all
      "seed":     0
    }

Numeric fields carry their unit as a suffix except inside ``fault_type`` /
``event`` / ``effect``, whose keys mirror the fault model fields verbatim
(``p``, ``mttf``, ``sigma``, ``duration``, ``mttr``, ``delay``,
``replacement``, ``offset``, ``boundary_pct``, ``n_bits``, ``bit_positions``).

Demo trajectories are CSV files ``t, joint_0, ..., joint_{n-1}`` in seconds
and radians, one column per configured joint, uniformly sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import faults, plant


class ScenarioParseError(Exception):
    """The scenario file cannot be read as a JSON object at all."""


class ScenarioError(Exception):
    """The scenario parsed but violates the schema or its cross-references."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ClockConfig:
    dt_s: float = 1e-3
    t_end_s: float = 7.0

    @property
    def n_steps(self) -> int:
        return round(self.t_end_s / self.dt_s)


@dataclass(frozen=True)
class DmpConfig:
    alpha_z: float = 25.0
    beta_z: float | None = None  # must equal alpha_z / 4 when given
    alpha_s: float = 4.6
    n_basis: int = 50
    demo_file: str = "demo_gait.csv"


@dataclass(frozen=True)
class ControlConfig:
    kp: float = 200.0
    kd: float = 20.0


@dataclass(frozen=True)
class MonitorConfig:
    signals: tuple[str, ...] | None = None  # None = record everything


@dataclass(frozen=True)
class ScenarioConfig:
    clock: ClockConfig
    joints: tuple[plant.JointParams, ...]
    dmp: DmpConfig
    control: ControlConfig
    injectors: tuple[faults.FaultSpec, ...]
    monitors: MonitorConfig
    seed: int
    demo_path: str

    @property
    def joint_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.joints)


def base_signal_names(joint_names) -> list[str]:
    """Signals produced by the trajectory generator, plant, and monitor."""
    names = []
    for j in joint_names:
        names += [f"dmp.{j}.pos", f"dmp.{j}.vel", f"dmp.{j}.acc"]
    for j in joint_names:
        names += [f"plant.{j}.pos", f"plant.{j}.vel",
                  f"plant.{j}.torque", f"plant.{j}.torque_cmd"]
    names.append("monitor.violations")
    return names


def data_path(name: str) -> Path:
    """Path of a packaged data file (shipped presets and demo trajectories)."""
    return Path(resources.files("faultbench").joinpath("data", name))


# --------------------------------------------------------------------------
# parsing


def _num(raw: dict, key: str, errs: list[str], ctx: str, default=None):
    if key not in raw:
        if default is None:
            errs.append(f"{ctx}: missing required field '{key}'")
            return 0.0
        return default
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errs.append(f"{ctx}: field '{key}' must be a number, got {v!r}")
        return 0.0
    return float(v)


def _parse_fault_type(raw, errs, ctx) -> faults.FaultType:
    kind = raw.get("kind")
    if kind == "stuck_at":
        return faults.StuckAt()
    if kind == "package_drop":
        return faults.PackageDrop(replacement=_num(raw, "replacement", errs, ctx))
    if kind == "bias":
        return faults.Bias(offset=_num(raw, "offset", errs, ctx))
    if kind == "noise":
        return faults.Noise(boundary_pct=_num(raw, "boundary_pct", errs, ctx))
    if kind == "time_delay":
        return faults.TimeDelay(delay=_num(raw, "delay", errs, ctx))
    if kind == "bit_flip":
        n_bits = raw.get("n_bits")
        if not isinstance(n_bits, int) or isinstance(n_bits, bool):
            errs.append(f"{ctx}: 'n_bits' must be an integer")
            n_bits = 1
        positions = raw.get("bit_positions", "random")
        if positions != "random":
            if not isinstance(positions, list) or not all(
                    isinstance(b, int) and not isinstance(b, bool) for b in positions):
                errs.append(f"{ctx}: 'bit_positions' must be \"random\" or a list of integers")
                positions = "random"
            else:
                positions = tuple(positions)
        return faults.BitFlip(n_bits=n_bits, bit_positions=positions)
    errs.append(f"{ctx}: unknown fault_type kind {kind!r}")
    return faults.StuckAt()


def _parse_event(raw, errs, ctx) -> faults.FaultEvent:
    kind = raw.get("kind")
    if kind == "failure_probability":
        return faults.FailureProbability(p=_num(raw, "p", errs, ctx))
    if kind == "mean_time_to_failure":
        return faults.MeanTimeToFailure(mttf=_num(raw, "mttf", errs, ctx),
                                        sigma=_num(raw, "sigma", errs, ctx, default=0.0))
    errs.append(f"{ctx}: unknown event kind {kind!r}")
    return faults.FailureProbability(p=0.0)


def _parse_effect(raw, errs, ctx) -> faults.FaultEffect:
    kind = raw.get("kind")
    if kind == "once":
        return faults.Once()
    if kind == "constant_time":
        return faults.ConstantTime(duration=_num(raw, "duration", errs, ctx))
    if kind == "infinite_time":
        return faults.InfiniteTime()
    if kind == "mean_time_to_repair":
        return faults.MeanTimeToRepair(mttr=_num(raw, "mttr", errs, ctx),
                                       sigma=_num(raw, "sigma", errs, ctx, default=0.0))
    errs.append(f"{ctx}: unknown effect kind {kind!r}")
    return faults.InfiniteTime()


def _parse_joint(raw, errs, i) -> plant.JointParams | None:
    ctx = f"joints[{i}]"
    name = raw.get("name")
    if name not in plant.JOINT_NAMES:
        errs.append(f"{ctx}: name must be one of {', '.join(plant.JOINT_NAMES)}; got {name!r}")
        return None
    overrides = {}
    for key, attr, conv in (
        ("inertia_kgm2", "inertia", 1.0),
        ("damping_nms", "damping", 1.0),
        ("rot_min_deg", "rot_min", plant.DEG),
        ("rot_max_deg", "rot_max", plant.DEG),
        ("max_torque_nm", "max_torque", 1.0),
        ("max_speed_rpm", "max_speed_rpm", 1.0),
    ):
        if key in raw:
            overrides[attr] = _num(raw, key, errs, ctx) * conv
    return plant.default_joint_params(name, **overrides)


def parse_scenario(raw: dict, base_dir: Path) -> tuple[ScenarioConfig, list[str]]:
    """Build a typed config from a raw JSON object, collecting every violation."""
    errs: list[str] = []
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    known = {"clock", "joints", "dmp", "control", "injectors", "monitors", "seed"}
    for key in raw:
        if key not in known:
            errs.append(f"unknown top-level field {key!r}")

    craw = raw.get("clock", {})
    clock = ClockConfig(dt_s=_num(craw, "dt_s", errs, "clock", default=1e-3),
                        t_end_s=_num(craw, "t_end_s", errs, "clock", default=7.0))
    if clock.dt_s <= 0:
        errs.append("clock: dt_s must be > 0")
    if clock.t_end_s < 0:
        errs.append("clock: t_end_s must be >= 0")

    jraw = raw.get("joints")
    if jraw is None:
        joints = tuple(plant.default_joint_params(n) for n in plant.JOINT_NAMES)
    elif not isinstance(jraw, list) or not jraw:
        errs.append("joints: must be a non-empty array")
        joints = tuple(plant.default_joint_params(n) for n in plant.JOINT_NAMES)
    else:
        parsed = [_parse_joint(j, errs, i) for i, j in enumerate(jraw)]
        joints = tuple(p for p in parsed if p is not None)
        names = [p.name for p in joints]
        if len(set(names)) != len(names):
            errs.append("joints: names must be unique")
        if not joints:
            joints = tuple(plant.default_joint_params(n) for n in plant.JOINT_NAMES)
    for p in joints:
        if p.inertia <= 0:
            errs.append(f"joints[{p.name}]: inertia_kgm2 must be > 0")
        if p.damping < 0:
            errs.append(f"joints[{p.name}]: damping_nms must be >= 0")
        if not p.rot_min < p.rot_max:
            errs.append(f"joints[{p.name}]: rot_min_deg must be < rot_max_deg")
        if p.max_torque <= 0:
            errs.append(f"joints[{p.name}]: max_torque_nm must be > 0")
        if p.max_speed_rpm <= 0:
            errs.append(f"joints[{p.name}]: max_speed_rpm must be > 0")

    draw = raw.get("dmp", {})
    dmp_cfg = DmpConfig(
        alpha_z=_num(draw, "alpha_z", errs, "dmp", default=25.0),
        beta_z=(None if "beta_z" not in draw else _num(draw, "beta_z", errs, "dmp")),
        alpha_s=_num(draw, "alpha_s", errs, "dmp", default=4.6),
        n_basis=draw.get("n_basis", 50),
        demo_file=draw.get("demo_file", "demo_gait.csv"),
    )
    if dmp_cfg.alpha_z <= 0:
        errs.append("dmp: alpha_z must be > 0")
    if dmp_cfg.beta_z is not None and not math.isclose(
            dmp_cfg.beta_z, dmp_cfg.alpha_z / 4.0, rel_tol=1e-9, abs_tol=1e-12):
        errs.append("dmp: beta_z must equal alpha_z / 4 (critical damping constraint); "
                    f"got beta_z={dmp_cfg.beta_z}, alpha_z/4={dmp_cfg.alpha_z / 4.0}")
    if dmp_cfg.alpha_s <= 0:
        errs.append("dmp: alpha_s must be > 0")
    if not isinstance(dmp_cfg.n_basis, int) or isinstance(dmp_cfg.n_basis, bool) \
            or dmp_cfg.n_basis < 1:
        errs.append("dmp: n_basis must be a positive integer")

    crw = raw.get("control", {})
    control = ControlConfig(kp=_num(crw, "kp", errs, "control", default=200.0),
                            kd=_num(crw, "kd", errs, "control", default=20.0))
    if control.kp < 0 or control.kd < 0:
        errs.append("control: kp and kd must be >= 0")

    injectors = _parse_injectors(raw.get("injectors", []), errs, joints, clock)

    mraw = raw.get("monitors", {})
    mon_signals = mraw.get("signals") if isinstance(mraw, dict) else None
    if mon_signals is not None:
        if not isinstance(mon_signals, list) or not all(isinstance(s, str) for s in mon_signals):
            errs.append("monitors: signals must be an array of signal names")
            mon_signals = None
        else:
            available = set(base_signal_names([p.name for p in joints]))
            for spec in injectors:
                available.add(f"inj.{spec.name}.out")
                available.add(f"inj.{spec.name}.trigger")
            for s in mon_signals:
                if s not in available:
                    errs.append(f"monitors: unknown signal {s!r}")
            for s in sorted({s for s in mon_signals if mon_signals.count(s) > 1}):
                errs.append(f"monitors: signal {s!r} listed more than once")
    monitors = MonitorConfig(signals=None if mon_signals is None else tuple(mon_signals))

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        errs.append("seed: must be an integer in [0, 2^64)")
        seed = 0

    demo_path = _resolve_demo(dmp_cfg.demo_file, base_dir)
    if demo_path is None:
        errs.append(f"dmp: demo_file {dmp_cfg.demo_file!r} not found")
        demo_path = ""
    else:
        try:
            _, ys = load_demo_csv(demo_path)
            if ys.shape[1] != len(joints):
                errs.append(f"dmp: demo has {ys.shape[1]} joint columns, scenario has "
                            f"{len(joints)} joints")
        except ValueError as exc:
            errs.append(f"dmp: demo_file unreadable: {exc}")

    cfg = ScenarioConfig(clock=clock, joints=joints, dmp=dmp_cfg, control=control,
                         injectors=injectors, monitors=monitors, seed=seed,
                         demo_path=str(demo_path))
    return cfg, errs


def _parse_injectors(raw, errs, joints, clock) -> tuple[faults.FaultSpec, ...]:
    if not isinstance(raw, list):
        errs.append("injectors: must be an array")
        return ()
    specs: list[faults.FaultSpec] = []
    for i, item in enumerate(raw):
        ctx = f"injectors[{i}]"
        if not isinstance(item, dict):
            errs.append(f"{ctx}: must be an object")
            continue
        name = item.get("name")
        if not isinstance(name, str) or not name:
            errs.append(f"{ctx}: missing injector name")
            name = f"injector_{i}"
        target = item.get("target_signal")
        if not isinstance(target, str):
            errs.append(f"{ctx}: missing target_signal")
            target = ""
        ft = _parse_fault_type(item.get("fault_type", {}), errs, f"{ctx}.fault_type")
        ev = _parse_event(item.get("event", {}), errs, f"{ctx}.event")
        ef = _parse_effect(item.get("effect", {}), errs, f"{ctx}.effect")
        enabled = item.get("enabled", True)
        if not isinstance(enabled, bool):
            errs.append(f"{ctx}: enabled must be a boolean")
            enabled = True
        chain_to = item.get("chain_to")
        if chain_to is not None and not isinstance(chain_to, str):
            errs.append(f"{ctx}: chain_to must be an injector name")
            chain_to = None
        specs.append(faults.FaultSpec(name=name, target_signal=target, fault_type=ft,
                                      event=ev, effect=ef, enabled=enabled,
                                      chain_to=chain_to))

    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        errs.append("injectors: names must be unique")
    injectable = set(base_signal_names([p.name for p in joints]))
    for s in specs:
        ctx = f"injector '{s.name}'"
        if s.target_signal not in injectable:
            errs.append(f"{ctx}: target_signal {s.target_signal!r} does not exist")
        if s.chain_to is not None:
            if s.chain_to == s.name:
                errs.append(f"{ctx}: chained to itself")
            elif s.chain_to not in names:
                errs.append(f"{ctx}: chain_to {s.chain_to!r} names no injector")
        errs.extend(_check_fault_params(s, clock.dt_s, ctx))
    return tuple(specs)


def _check_fault_params(spec: faults.FaultSpec, dt: float, ctx: str) -> list[str]:
    errs = []
    ft = spec.fault_type
    if isinstance(ft, faults.Noise) and ft.boundary_pct < 0:
        errs.append(f"{ctx}: noise boundary_pct must be >= 0")
    if isinstance(ft, faults.TimeDelay):
        if ft.delay <= 0:
            errs.append(f"{ctx}: time_delay delay must be > 0")
        elif abs(ft.delay / dt - round(ft.delay / dt)) > 1e-6:
            errs.append(f"{ctx}: time_delay delay must be a multiple of dt_s ({dt})")
    if isinstance(ft, faults.BitFlip):
        if not 1 <= ft.n_bits <= 64:
            errs.append(f"{ctx}: bit_flip n_bits must be in 1..64")
        if ft.bit_positions != "random":
            pos = ft.bit_positions
            if len(pos) != ft.n_bits:
                errs.append(f"{ctx}: bit_positions length must equal n_bits")
            if len(set(pos)) != len(pos):
                errs.append(f"{ctx}: bit_positions must be distinct")
            if any(not 0 <= b <= 63 for b in pos):
                errs.append(f"{ctx}: bit_positions must be in 0..63")
    ev = spec.event
    if isinstance(ev, faults.FailureProbability) and not 0.0 <= ev.p <= 1.0:
        errs.append(f"{ctx}: failure_probability p must be in [0, 1]")
    if isinstance(ev, faults.MeanTimeToFailure):
        if ev.mttf <= 0:
            errs.append(f"{ctx}: mttf must be > 0")
        if ev.sigma < 0:
            errs.append(f"{ctx}: event sigma must be >= 0")
    ef = spec.effect
    if isinstance(ef, faults.ConstantTime) and ef.duration < 0:
        errs.append(f"{ctx}: constant_time duration must be >= 0")
    if isinstance(ef, faults.MeanTimeToRepair):
        if ef.mttr <= 0:
            errs.append(f"{ctx}: mttr must be > 0")
        if ef.sigma < 0:
            errs.append(f"{ctx}: effect sigma must be >= 0")
    return errs


def _resolve_demo(demo_file: str, base_dir: Path) -> Path | None:
    p = Path(demo_file)
    if p.is_absolute():
        return p if p.exists() else None
    local = Path(base_dir) / p
    if local.exists():
        return local
    packaged = data_path(demo_file)
    if packaged.exists():
        return packaged
    return None


def load_scenario_file(path) -> tuple[ScenarioConfig, list[str]]:
    """Parse a scenario file; raises ScenarioParseError if it is not JSON."""
    p = Path(path)
    if not p.exists():
        candidate = data_path(str(path))
        if candidate.exists():
            p = candidate
        else:
            raise ScenarioParseError(f"scenario file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{p}: top level must be a JSON object")
    return parse_scenario(raw, p.parent)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate, raising on any violation."""
    cfg, violations = load_scenario_file(path)
    if violations:
        raise ScenarioError(violations)
    return cfg


def with_injector_durations(cfg: ScenarioConfig, names: tuple[str, ...],
                            duration: float) -> ScenarioConfig:
    """Copy of the scenario with the named injectors' exposure windows set."""
    new_specs = []
    for spec in cfg.injectors:
        if spec.name in names:
            spec = replace(spec, effect=faults.ConstantTime(duration=duration))
        new_specs.append(spec)
    return replace(cfg, injectors=tuple(new_specs))


def set_faults_enabled(cfg: ScenarioConfig, enabled: bool) -> ScenarioConfig:
    new_specs = tuple(replace(s, enabled=enabled) for s in cfg.injectors)
    return replace(cfg, injectors=new_specs)


# --------------------------------------------------------------------------
# demonstration trajectories


def load_demo_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a demo CSV ``t, joint_0, ...``; returns (times, positions[n, j])."""
    try:
        with open(path) as fh:
            header = [name.strip() for name in fh.readline().split(",")]
            if header[0] != "t":
                raise ValueError("demo CSV must have header 't, joint_0, ...'")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    if len(table) < 3:
        raise ValueError("demo must have at least 3 samples")
    if table.shape[1] != len(header):
        raise ValueError(f"demo header names {len(header)} columns, rows have "
                         f"{table.shape[1]}")
    if table.shape[1] < 2:
        raise ValueError("demo has no joint columns")
    return table[:, 0], table[:, 1:]
