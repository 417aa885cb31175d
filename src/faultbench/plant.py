"""Six-joint lower-limb exoskeleton surrogate.

Each joint is an independent second-order rotational plant
I * d(omega)/dt = tau - b * omega, driven by a computed-torque + PD
controller that turns trajectory targets into torque demands. Fault
injectors attach to what the plant reads: the trajectory targets, the
sensor taps (true angle and angular velocity) and the applied torque. The
plant reads the possibly-faulted versions; the monitor reads the raw ones.

A constraint monitor checks every step against the straight-walking safety
limits: exceeding a torque or speed rating is an Error, leaving the joint's
range of travel is a Failure. Violations are recorded, never clamped; the
only physical limit enforced is actuator torque saturation.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .blocks import Block, slot_range

DEG = math.pi / 180.0

# Per-kind safety limits for straight walking: torque rating [N*m],
# speed rating [rpm], range of travel [deg]. Torque/speed breaches are
# classified Error, range-of-travel breaches Failure.
JOINT_KIND_LIMITS = {
    "hip": {"max_torque_nm": 72.9, "max_speed_rpm": 23.4, "rot_min_deg": -30.0, "rot_max_deg": 90.0},
    "knee": {"max_torque_nm": 54.9, "max_speed_rpm": 65.2, "rot_min_deg": -90.0, "rot_max_deg": 0.0},
    "ankle": {"max_torque_nm": 128.7, "max_speed_rpm": 50.8, "rot_min_deg": -30.0, "rot_max_deg": 30.0},
}

# surrogate dynamics defaults, tuned so the fault-free system tracks its
# targets well within tolerance; not physical identifications
JOINT_KIND_INERTIA = {"hip": 1.2, "knee": 0.8, "ankle": 0.4}
DEFAULT_DAMPING = 0.5

JOINT_NAMES = ("left_hip", "left_knee", "left_ankle", "right_hip", "right_knee", "right_ankle")


def joint_kind(name: str) -> str:
    kind = name.rsplit("_", 1)[-1]
    if kind not in JOINT_KIND_LIMITS:
        raise ValueError(f"joint name {name!r} must end in hip, knee, or ankle")
    return kind


@dataclass(frozen=True)
class JointParams:
    """Per-joint plant constants and safety limits (angles in rad)."""

    name: str
    inertia: float
    damping: float
    rot_min: float
    rot_max: float
    max_torque: float
    max_speed_rpm: float

    @functools.cached_property
    def max_speed(self) -> float:
        """Speed rating in rad/s."""
        return rpm_to_rad_s(self.max_speed_rpm)


class ViolationKind(enum.Enum):
    TORQUE_ERROR = "TorqueError"
    SPEED_ERROR = "SpeedError"
    ANGLE_FAILURE = "AngleFailure"


@dataclass(frozen=True)
class ViolationRecord:
    t: float
    joint: str
    kind: ViolationKind
    value: float


def default_joint_params(name: str, **overrides) -> JointParams:
    kind = joint_kind(name)
    limits = JOINT_KIND_LIMITS[kind]
    fields = {
        "inertia": JOINT_KIND_INERTIA[kind],
        "damping": DEFAULT_DAMPING,
        "rot_min": limits["rot_min_deg"] * DEG,
        "rot_max": limits["rot_max_deg"] * DEG,
        "max_torque": limits["max_torque_nm"],
        "max_speed_rpm": limits["max_speed_rpm"],
    }
    fields.update(overrides)
    return JointParams(name=name, **fields)


# --------------------------------------------------------------------------
# unit conversions and power


def rpm_to_rad_s(rpm: float) -> float:
    return rpm * math.tau / 60.0


def rad_s_to_rpm(rad_s: float) -> float:
    return rad_s * 60.0 / math.tau


def joint_power(torque_nm: float, speed_rpm: float) -> float:
    """Mechanical power at a joint [W] from torque [N*m] and speed [rpm]."""
    return torque_nm * rpm_to_rad_s(speed_rpm)


# --------------------------------------------------------------------------
# safety checks


def monitor(joints: list[JointParams], thetas, omegas, tau_demands,
            t: float) -> list[ViolationRecord]:
    """Check one step against the safety limits.

    ``tau_demands`` are the unsaturated torque demands: the applied torque is
    clipped to the rating by construction, so the demand is the observable
    that can exceed it.
    """
    records = []
    for p, theta, omega, tau in zip(joints, thetas, omegas, tau_demands):
        if abs(tau) <= p.max_torque and abs(omega) <= p.max_speed \
                and p.rot_min <= theta <= p.rot_max:
            continue
        if abs(tau) > p.max_torque:
            records.append(ViolationRecord(t, p.name, ViolationKind.TORQUE_ERROR, tau))
        if abs(omega) > p.max_speed:
            records.append(ViolationRecord(t, p.name, ViolationKind.SPEED_ERROR, omega))
        if theta < p.rot_min or theta > p.rot_max:
            records.append(ViolationRecord(t, p.name, ViolationKind.ANGLE_FAILURE, theta))
    return records


# --------------------------------------------------------------------------
# engine blocks


class PlantBlock(Block):
    """Joint dynamics plus the torque controller for all joints.

    True angle/velocity are state outputs (sensor taps, one-step causal);
    torques are emitted feedthrough from the current targets and
    measurements. ``reads`` maps a signal the plant consumes to the signal
    it reads in its place (``build_graph`` passes the end of each injector
    chain); every other signal is read as named. ``emit`` reads the three
    ``dmp.<j>.*`` targets and ``plant.<j>.pos``/``vel`` through it, and
    ``advance`` applies ``plant.<j>.torque`` through it. The applied torque
    is not a feedthrough input, so an injector on it closes no algebraic
    loop.
    """

    def __init__(self, name: str, joints: list[JointParams], kp: float, kd: float,
                 theta0: list[float], reads: dict[str, str] | None = None):
        self.name = name
        self.joints = list(joints)
        self.kp = kp
        self.kd = kd
        self.theta0 = list(theta0)
        reads = reads or {}

        def read(sig: str) -> str:
            return reads.get(sig, sig)

        jn = [p.name for p in joints]
        self.state_output_names = tuple(
            f"plant.{j}.{field}" for j in jn for field in ("pos", "vel")
        )
        self.emit_output_names = tuple(
            f"plant.{j}.{field}" for j in jn for field in ("torque", "torque_cmd")
        )
        self._state_pairs = tuple(zip(self.state_output_names[0::2],
                                      self.state_output_names[1::2]))
        # per joint: the five signals the controller reads, then the two it writes
        self._control_signals = tuple(
            (read(f"dmp.{j}.pos"), read(f"dmp.{j}.vel"), read(f"dmp.{j}.acc"),
             read(f"plant.{j}.pos"), read(f"plant.{j}.vel"),
             f"plant.{j}.torque", f"plant.{j}.torque_cmd")
            for j in jn)
        self._applied = tuple(read(f"plant.{j}.torque") for j in jn)
        self._feedthrough = tuple(sig for row in self._control_signals for sig in row[:5])
        self.inputs = self._feedthrough + self._applied
        self.reset()

    @property
    def feedthrough_inputs(self) -> tuple[str, ...]:
        return self._feedthrough

    def reset(self) -> None:
        self.thetas = list(self.theta0)
        self.omegas = [0.0] * len(self.joints)

    def bind(self, slots: dict[str, int]) -> None:
        written = slot_range(slots, self.state_output_names)
        self._thetas_written = slice(written.start, written.stop, 2)
        self._omegas_written = slice(written.start + 1, written.stop, 2)
        self._control_rows = tuple(
            (*(slots[sig] for sig in row), p.inertia, p.max_torque)
            for row, p in zip(self._control_signals, self.joints))
        self._dynamics = tuple((slots[sig], p.damping, p.inertia)
                               for sig, p in zip(self._applied, self.joints))

    def restart(self, k: int, golden, rng) -> None:
        """The angles and velocities of row ``k`` of ``golden``."""
        self.thetas = [float(golden.signal(pos)[k]) for pos, _ in self._state_pairs]
        self.omegas = [float(golden.signal(vel)[k]) for _, vel in self._state_pairs]

    def state_outputs(self, t: float, values: list) -> None:
        values[self._thetas_written] = self.thetas
        values[self._omegas_written] = self.omegas

    def emit(self, t: float, values: list, rng) -> None:
        """The computed-torque + PD law per joint: writes the raw demand and
        the applied torque, the demand saturated to the rating by two
        comparisons (as ``max(-m, min(m, demand))``, NaN included). The
        measurements are whatever the sensor path delivers."""
        kp, kd = self.kp, self.kd
        for pos, vel, acc, meas_pos, meas_vel, torque, torque_cmd, inertia, max_torque \
                in self._control_rows:
            demand = (inertia * values[acc] + kp * (values[pos] - values[meas_pos])
                      + kd * (values[vel] - values[meas_vel]))
            cmd = demand if demand < max_torque else max_torque
            values[torque] = cmd if cmd > -max_torque else -max_torque
            values[torque_cmd] = demand

    def advance(self, t: float, values: list, dt: float) -> None:
        """A semi-implicit Euler step of I * d(omega)/dt = tau - b * omega
        per joint, on the state lists in place."""
        thetas, omegas = self.thetas, self.omegas
        for i, (applied, damping, inertia) in enumerate(self._dynamics):
            omega = omegas[i]
            alpha = (values[applied] - damping * omega) / inertia
            omega += alpha * dt
            omegas[i] = omega
            thetas[i] += omega * dt


class MonitorBlock(Block):
    """Safety monitor over the true joint states and torque demands.

    Always reads the raw plant outputs: a fault on a sensor path changes
    what the controller sees, not what physically happened, and the safety
    verdict is about the physical state. A step on which every joint passes
    ``monitor``'s own skip test is checked here without calling it; any
    other step goes through ``monitor``, which makes every record.
    """

    def __init__(self, name: str, joints: list[JointParams]):
        self.name = name
        self.joints = list(joints)
        self.inputs = tuple(f"plant.{p.name}.{field}" for field in ("pos", "vel", "torque_cmd")
                            for p in joints)
        self.emit_output_names = ("monitor.violations",)
        self.reset()

    def reset(self) -> None:
        self.violations: list[ViolationRecord] = []

    def bind(self, slots: dict[str, int]) -> None:
        n = len(self.joints)
        read = [slots[sig] for sig in self.inputs]
        self._read = (read[:n], read[n:2 * n], read[2 * n:])  # pos, vel, demand
        self._checks = tuple(
            (pos, vel, demand, p.max_torque, p.max_speed, p.rot_min, p.rot_max)
            for p, pos, vel, demand in zip(self.joints, *self._read))
        self._written = slots[self.emit_output_names[0]]

    def restart(self, k: int, golden, rng) -> None:
        """``experiments.simulate`` adds the golden run's records."""

    def emit(self, t: float, values: list, rng) -> None:
        for pos, vel, demand, max_torque, max_speed, rot_min, rot_max in self._checks:
            if not (abs(values[demand]) <= max_torque and abs(values[vel]) <= max_speed
                    and rot_min <= values[pos] <= rot_max):
                break
        else:
            values[self._written] = 0.0
            return
        records = monitor(self.joints, *([values[i] for i in read] for read in self._read), t)
        self.violations.extend(records)
        values[self._written] = float(len(records))
