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

A key that the schema does not name is a violation, in every object.
Injector names consist of letters, digits, ``_`` and ``-``.

Numeric fields carry their unit as a suffix except inside ``fault_type`` /
``event`` / ``effect``, whose keys mirror the fault model fields verbatim
(``p``, ``mttf``, ``sigma``, ``duration``, ``mttr``, ``delay``,
``replacement``, ``offset``, ``boundary_pct``, ``n_bits``, ``bit_positions``).

Demo trajectories are CSV files ``t, joint_0, ..., joint_{n-1}`` in seconds
and radians, one column per configured joint, uniformly sampled.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import MISSING, dataclass, fields, replace
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


def injectable_signal_names(joint_names) -> list[str]:
    """The signals an injector may target: those some block reads through
    the injector chain. Only the monitor reads ``plant.<j>.torque_cmd``, and
    raw; nothing reads ``monitor.violations``."""
    names = []
    for j in joint_names:
        names += [f"dmp.{j}.pos", f"dmp.{j}.vel", f"dmp.{j}.acc",
                  f"plant.{j}.pos", f"plant.{j}.vel", f"plant.{j}.torque"]
    return names


def data_path(name: str) -> Path:
    """Path of a packaged data file (shipped presets and demo trajectories)."""
    return Path(resources.files("faultbench").joinpath("data", name))


# --------------------------------------------------------------------------
# parsing

# A float field's rule, worded as its violation states it. Every float must
# also be finite.
_RANGES = {
    "": lambda v: True,
    "> 0": lambda v: v > 0.0,
    ">= 0": lambda v: v >= 0.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}

# kind -> (dataclass, {field: rule}) for each part of an injector; see
# ``_num`` for the rules. An absent field takes the dataclass default.
# ``bit_positions`` is checked with ``n_bits``.
_FAULT_KINDS = {
    "fault_type": {
        "stuck_at": (faults.StuckAt, {}),
        "package_drop": (faults.PackageDrop, {"replacement": ""}),
        "bias": (faults.Bias, {"offset": ""}),
        "noise": (faults.Noise, {"boundary_pct": ">= 0"}),
        "time_delay": (faults.TimeDelay, {"delay": "> 0"}),
        "bit_flip": (faults.BitFlip, {"n_bits": (1, 64)}),
    },
    "event": {
        "failure_probability": (faults.FailureProbability, {"p": "in [0, 1]"}),
        "mean_time_to_failure": (faults.MeanTimeToFailure, {"mttf": "> 0", "sigma": ">= 0"}),
    },
    "effect": {
        "once": (faults.Once, {}),
        "constant_time": (faults.ConstantTime, {"duration": ">= 0"}),
        "infinite_time": (faults.InfiniteTime, {}),
        "mean_time_to_repair": (faults.MeanTimeToRepair, {"mttr": "> 0", "sigma": ">= 0"}),
    },
}

# JSON key -> (JointParams field, unit factor, rule); absent keys keep the
# joint kind's defaults
_JOINT_FIELDS = (
    ("inertia_kgm2", "inertia", 1.0, "> 0"),
    ("damping_nms", "damping", 1.0, ">= 0"),
    ("rot_min_deg", "rot_min", plant.DEG, ""),
    ("rot_max_deg", "rot_max", plant.DEG, ""),
    ("max_torque_nm", "max_torque", 1.0, "> 0"),
    ("max_speed_rpm", "max_speed_rpm", 1.0, "> 0"),
)


def _num(raw: dict, key: str, errs: list[str], ctx: str, rule="", default=MISSING):
    """``raw[key]`` checked against ``rule``, or ``default`` if the field is
    absent.

    A float rule is a key of ``_RANGES``, an int rule a range ``(lo, hi)``
    (``hi`` None: no upper bound). A missing required field, a value of the
    wrong type, a non-finite float (NaN, ±inf, or an int too large for a
    float) and a value out of range each append a violation and give None.
    """
    if key not in raw:
        if default is MISSING:
            errs.append(f"{ctx}: missing required field '{key}'")
            return None
        return default
    v = raw[key]
    if isinstance(rule, tuple):
        lo, hi = rule
        if isinstance(v, int) and not isinstance(v, bool) and lo <= v \
                and (hi is None or v <= hi):
            return v
        errs.append(f"{ctx}: {key} must be an integer "
                    + (f">= {lo}" if hi is None else f"in {lo}..{hi}"))
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errs.append(f"{ctx}: {key} must be a number, got {v!r}")
        return None
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        errs.append(f"{ctx}: {key} must be finite")
    elif not _RANGES[rule](v):
        errs.append(f"{ctx}: {key} must be {rule}")
    else:
        return v
    return None


def _obj(raw, errs: list[str], ctx: str) -> dict:
    if isinstance(raw, dict):
        return raw
    errs.append(f"{ctx}: must be an object")
    return {}


def _check_fields(raw: dict, known, errs: list[str], ctx: str) -> None:
    """One violation per key of ``raw`` that ``known`` does not hold."""
    errs.extend(f"{ctx}: unknown field {key!r}" for key in raw if key not in known)


def _build(cls, rules: dict, raw: dict, errs: list[str], ctx: str, **fixed):
    """``cls`` from the fields of ``raw`` that ``rules`` names, each checked
    against its rule, plus the ``fixed`` fields. A key of ``raw`` that names
    no field of ``cls`` is a violation."""
    defaults = {f.name: f.default for f in fields(cls)}
    _check_fields(raw, defaults, errs, ctx)
    return cls(**{key: _num(raw, key, errs, ctx, rule, defaults[key])
                  for key, rule in rules.items()}, **fixed)


def _parse_kind(part: str, raw, errs: list[str], ctx: str):
    """An injector's ``part`` ("fault_type", "event" or "effect"); None if
    its kind is unknown."""
    raw = dict(_obj(raw, errs, ctx))
    kind = raw.pop("kind", None)
    cls, rules = _FAULT_KINDS[part].get(kind if isinstance(kind, str) else "", (None, None))
    if cls is None:
        errs.append(f"{ctx}: unknown {part} kind {kind!r}")
        return None
    value = _build(cls, rules, raw, errs, ctx)
    if cls is faults.BitFlip:
        value = replace(value, bit_positions=_bit_positions(raw, value.n_bits, errs, ctx))
    return value


def _bit_positions(raw: dict, n_bits: int | None, errs: list[str], ctx: str):
    """``"random"``, or ``n_bits`` distinct bit indices as a tuple."""
    positions = raw.get("bit_positions", "random")
    if positions == "random":
        return positions
    if not isinstance(positions, list):
        errs.append(f"{ctx}: bit_positions must be \"random\" or a list of integers")
        return None
    items = {f"bit_positions[{i}]": b for i, b in enumerate(positions)}
    positions = tuple(_num(items, key, errs, ctx, (0, 63)) for key in items)
    if n_bits is not None and len(positions) != n_bits:
        errs.append(f"{ctx}: bit_positions length must equal n_bits")
    if None not in positions and len(set(positions)) != len(positions):
        errs.append(f"{ctx}: bit_positions must be distinct")
    return positions


def _parse_joint(raw, errs, i) -> plant.JointParams | None:
    ctx = f"joints[{i}]"
    raw = _obj(raw, errs, ctx)
    name = raw.get("name")
    if name not in plant.JOINT_NAMES:
        errs.append(f"{ctx}: name must be one of {', '.join(plant.JOINT_NAMES)}; got {name!r}")
        return None
    _check_fields(raw, ("name", *(key for key, *_ in _JOINT_FIELDS)), errs, ctx)
    overrides = {}
    for key, attr, unit, rule in _JOINT_FIELDS:
        if key in raw:
            v = _num(raw, key, errs, ctx, rule)
            overrides[attr] = None if v is None else v * unit
    p = plant.default_joint_params(name, **overrides)
    if None not in (p.rot_min, p.rot_max) and not p.rot_min < p.rot_max:
        errs.append(f"{ctx}: rot_min_deg must be < rot_max_deg")
    return p


def parse_scenario(raw: dict, base_dir: Path) -> tuple[ScenarioConfig, list[str]]:
    """Build a typed config from a raw JSON object, collecting every violation."""
    errs: list[str] = []
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    _check_fields(raw, ("clock", "joints", "dmp", "control", "injectors", "monitors", "seed"),
                  errs, "scenario")

    draw = _obj(raw.get("dmp", {}), errs, "dmp")
    demo_file = draw.get("demo_file", DmpConfig.demo_file)
    if not isinstance(demo_file, str):
        errs.append("dmp: demo_file must be a file name")
        demo_file = DmpConfig.demo_file
    clock = _build(ClockConfig, {"dt_s": "> 0", "t_end_s": ">= 0"},
                   _obj(raw.get("clock", {}), errs, "clock"), errs, "clock")
    dmp_cfg = _build(DmpConfig, {"alpha_z": "> 0", "beta_z": "", "alpha_s": "> 0",
                                 "n_basis": (1, None)}, draw, errs, "dmp", demo_file=demo_file)
    control = _build(ControlConfig, {"kp": ">= 0", "kd": ">= 0"},
                     _obj(raw.get("control", {}), errs, "control"), errs, "control")
    if None not in (dmp_cfg.beta_z, dmp_cfg.alpha_z) and not math.isclose(
            dmp_cfg.beta_z, dmp_cfg.alpha_z / 4.0, rel_tol=1e-9, abs_tol=1e-12):
        errs.append("dmp: beta_z must equal alpha_z / 4 (critical damping constraint); "
                    f"got beta_z={dmp_cfg.beta_z}, alpha_z/4={dmp_cfg.alpha_z / 4.0}")

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

    injectors = _parse_injectors(raw.get("injectors", []), errs, joints, clock)

    mraw = _obj(raw.get("monitors", {}), errs, "monitors")
    _check_fields(mraw, [f.name for f in fields(MonitorConfig)], errs, "monitors")
    mon_signals = mraw.get("signals")
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

    seed = _num(raw, "seed", errs, "scenario", (0, 2**64 - 1), default=0)

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


_INJECTOR_NAME = re.compile(r"[A-Za-z0-9_-]+")


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
        _check_fields(item, [f.name for f in fields(faults.FaultSpec)], errs, ctx)
        name = item.get("name")
        if not isinstance(name, str) or not name:
            errs.append(f"{ctx}: missing injector name")
            name = f"injector_{i}"
        elif not _INJECTOR_NAME.fullmatch(name):
            # the name is part of signal names and trace.csv column headers
            errs.append(f"{ctx}: name {name!r} must consist of letters, digits, '_' and '-'")
        target = item.get("target_signal")
        if not isinstance(target, str):
            errs.append(f"{ctx}: missing target_signal")
            target = ""
        ft, ev, ef = (_parse_kind(part, item.get(part, {}), errs, f"{ctx}.{part}")
                      for part in _FAULT_KINDS)
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
    joint_names = [p.name for p in joints]
    produced = set(base_signal_names(joint_names))
    injectable = set(injectable_signal_names(joint_names))
    for s in specs:
        ctx = f"injector '{s.name}'"
        if s.target_signal not in produced:
            errs.append(f"{ctx}: target_signal {s.target_signal!r} does not exist")
        elif s.target_signal not in injectable:
            errs.append(f"{ctx}: target_signal {s.target_signal!r} is read through no "
                        f"injector chain, so a fault on it changes nothing")
        if s.chain_to is not None:
            if s.chain_to == s.name:
                errs.append(f"{ctx}: chained to itself")
            elif s.chain_to not in names:
                errs.append(f"{ctx}: chain_to {s.chain_to!r} names no injector")
        # a value that is a violation already is None, and skips the check
        ft = s.fault_type
        if isinstance(ft, faults.TimeDelay) and None not in (ft.delay, clock.dt_s):
            steps = ft.delay / clock.dt_s
            if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-6):
                errs.append(f"{ctx}: delay must be a multiple of dt_s ({clock.dt_s})")
    return tuple(specs)


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


def load_demo_csv(source) -> tuple[np.ndarray, np.ndarray]:
    """Read a demo CSV ``t, joint_0, ...`` from its path or from the file's
    bytes; returns (times, positions[n, j])."""
    try:
        with (io.TextIOWrapper(io.BytesIO(source)) if isinstance(source, bytes)
              else open(source)) as fh:
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


def read_demo_bytes(path) -> bytes:
    """The bytes of a demo file; ValueError if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(str(exc)) from exc
