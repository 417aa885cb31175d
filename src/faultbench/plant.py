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
from typing import NamedTuple

from .blocks import Block

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


class JointState(NamedTuple):
    theta: float
    omega: float
    tau_applied: float = 0.0


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
# control and dynamics


def dynamic_control(y_target: float, yd_target: float, ydd_target: float,
                    theta_meas: float, omega_meas: float,
                    inertia: float, kp: float, kd: float,
                    max_torque: float) -> tuple[float, float]:
    """Computed-torque + PD law; returns (tau_cmd, tau_demand).

    ``tau_demand`` is the raw control demand, ``tau_cmd`` the value after
    saturation to the actuator rating. The measured values are whatever the
    sensor path delivers, faulted or not. The saturation is
    ``max(-max_torque, min(max_torque, demand))`` written as two
    comparisons, which give the same value for every demand, NaN included.
    """
    demand = inertia * ydd_target + kp * (y_target - theta_meas) + kd * (yd_target - omega_meas)
    cmd = demand if demand < max_torque else max_torque
    return (cmd if cmd > -max_torque else -max_torque), demand


def joint_step(params: JointParams, state: JointState, tau: float, dt: float) -> JointState:
    """Semi-implicit Euler step of I * d(omega)/dt = tau - b * omega."""
    alpha = (tau - params.damping * state.omega) / params.inertia
    omega = state.omega + alpha * dt
    theta = state.theta + omega * dt
    return JointState(theta, omega, tau)


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
        self._control_rows = tuple(
            (read(f"dmp.{j}.pos"), read(f"dmp.{j}.vel"), read(f"dmp.{j}.acc"),
             read(f"plant.{j}.pos"), read(f"plant.{j}.vel"),
             p.inertia, p.max_torque, f"plant.{j}.torque", f"plant.{j}.torque_cmd")
            for p, j in zip(self.joints, jn))
        self._dynamics = tuple((read(f"plant.{j}.torque"), p.damping, p.inertia)
                               for p, j in zip(self.joints, jn))
        self._feedthrough = tuple(sig for row in self._control_rows for sig in row[:5])
        self.inputs = self._feedthrough + tuple(sig for sig, _, _ in self._dynamics)
        self.reset()

    @property
    def feedthrough_inputs(self) -> tuple[str, ...]:
        return self._feedthrough

    def reset(self) -> None:
        self.thetas = list(self.theta0)
        self.omegas = [0.0] * len(self.joints)

    def restart(self, k: int, golden, rng) -> None:
        """The angles and velocities of row ``k`` of ``golden``."""
        self.thetas = [float(golden.signal(pos)[k]) for pos, _ in self._state_pairs]
        self.omegas = [float(golden.signal(vel)[k]) for _, vel in self._state_pairs]

    def state_outputs(self, t: float) -> dict[str, float]:
        out = {}
        for (pos, vel), theta, omega in zip(self._state_pairs, self.thetas, self.omegas):
            out[pos] = theta
            out[vel] = omega
        return out

    def emit(self, t: float, signals: dict[str, float], rng) -> dict[str, float]:
        out = {}
        kp, kd = self.kp, self.kd
        for pos, vel, acc, meas_pos, meas_vel, inertia, max_torque, torque, torque_cmd \
                in self._control_rows:
            out[torque], out[torque_cmd] = dynamic_control(
                signals[pos], signals[vel], signals[acc], signals[meas_pos], signals[meas_vel],
                inertia, kp, kd, max_torque,
            )
        return out

    def advance(self, t: float, signals: dict[str, float], dt: float) -> None:
        """``joint_step`` for every joint, on the state lists in place."""
        thetas, omegas = self.thetas, self.omegas
        for i, (sig, damping, inertia) in enumerate(self._dynamics):
            omega = omegas[i]
            alpha = (signals[sig] - damping * omega) / inertia
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
        jn = [p.name for p in joints]
        self.pos_signals = [f"plant.{j}.pos" for j in jn]
        self.vel_signals = [f"plant.{j}.vel" for j in jn]
        self.demand_signals = [f"plant.{j}.torque_cmd" for j in jn]
        self.inputs = tuple(self.pos_signals + self.vel_signals + self.demand_signals)
        self.emit_output_names = ("monitor.violations",)
        self._checks = tuple(
            (pos, vel, demand, p.max_torque, p.max_speed, p.rot_min, p.rot_max)
            for p, pos, vel, demand in zip(joints, self.pos_signals, self.vel_signals,
                                           self.demand_signals))
        self.reset()

    def reset(self) -> None:
        self.violations: list[ViolationRecord] = []

    def restart(self, k: int, golden, rng) -> None:
        """``experiments.simulate`` adds the golden run's records."""

    def emit(self, t: float, signals: dict[str, float], rng) -> dict[str, float]:
        for pos, vel, demand, max_torque, max_speed, rot_min, rot_max in self._checks:
            if not (abs(signals[demand]) <= max_torque and abs(signals[vel]) <= max_speed
                    and rot_min <= signals[pos] <= rot_max):
                break
        else:
            return {"monitor.violations": 0.0}
        records = monitor(self.joints, [signals[s] for s in self.pos_signals],
                          [signals[s] for s in self.vel_signals],
                          [signals[s] for s in self.demand_signals], t)
        self.violations.extend(records)
        return {"monitor.violations": float(len(records))}
