"""Joint dynamics, control law, conversions, and the safety monitor."""

import math
import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faultbench import plant
from faultbench.scenario import ClockConfig

from conftest import bind_alone, emit_named


# --------------------------------------------------------------------------
# the one-joint reference kernels of the plant block's controller and dynamics


class JointState(NamedTuple):
    theta: float
    omega: float
    tau_applied: float = 0.0


def dynamic_control(y_target, yd_target, ydd_target, theta_meas, omega_meas,
                    inertia, kp, kd, max_torque):
    """Computed-torque + PD law; returns (tau_cmd, tau_demand), the demand
    saturated to the rating and the raw demand."""
    demand = inertia * ydd_target + kp * (y_target - theta_meas) + kd * (yd_target - omega_meas)
    cmd = demand if demand < max_torque else max_torque
    return (cmd if cmd > -max_torque else -max_torque), demand


def joint_step(params, state, tau, dt):
    """Semi-implicit Euler step of I * d(omega)/dt = tau - b * omega."""
    alpha = (tau - params.damping * state.omega) / params.inertia
    omega = state.omega + alpha * dt
    theta = state.theta + omega * dt
    return JointState(theta, omega, tau)


def test_dynamic_control_zero_error_zero_torque():
    cmd, demand = dynamic_control(0.3, 0.1, 0.0, 0.3, 0.1,
                                        inertia=0.8, kp=200.0, kd=20.0, max_torque=54.9)
    assert cmd == 0.0 and demand == 0.0


def test_dynamic_control_proportional_term():
    cmd, demand = dynamic_control(0.1, 0.0, 0.0, 0.0, 0.0,
                                        inertia=1.0, kp=200.0, kd=0.0, max_torque=100.0)
    assert math.isclose(demand, 20.0, rel_tol=1e-12)
    assert cmd == demand


def test_dynamic_control_saturates_at_rating():
    cmd, demand = dynamic_control(10.0, 0.0, 0.0, 0.0, 0.0,
                                        inertia=0.8, kp=200.0, kd=20.0, max_torque=54.9)
    assert demand > 54.9
    assert cmd == 54.9
    cmd, _ = dynamic_control(-10.0, 0.0, 0.0, 0.0, 0.0,
                                   inertia=0.8, kp=200.0, kd=20.0, max_torque=54.9)
    assert cmd == -54.9


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def ratings_and_demands(draw):
    """A torque rating and a demand at or near its edges, or any float."""
    m = draw(st.floats(min_value=5e-324, max_value=1.7e308))
    up, down = math.inf, -math.inf
    edges = [math.nan, up, down, m, -m, 0.0, -0.0, math.nextafter(m, up),
             math.nextafter(m, 0.0), math.nextafter(-m, down), math.nextafter(-m, 0.0)]
    return m, draw(st.sampled_from(edges) | st.floats())


@given(ratings_and_demands())
def test_dynamic_control_clamp_equals_max_min(case):
    m, d = case
    # the PD terms are -0.0 and d + -0.0 is d, so the demand is d bit for bit
    cmd, demand = dynamic_control(0.0, 0.0, d, 0.0, 0.0,
                                        inertia=1.0, kp=-0.0, kd=-0.0, max_torque=m)
    assert _bits(demand) == _bits(d)
    assert _bits(cmd) == _bits(max(-m, min(m, d)))


def knee(**overrides):
    return plant.default_joint_params("right_knee", **overrides)


def test_joint_step_rest_is_fixed_point():
    p = knee(damping=0.3)
    st0 = JointState(theta=0.2, omega=0.0)
    st1 = joint_step(p, st0, 0.0, 1e-3)
    assert (st1.theta, st1.omega) == (0.2, 0.0)


def test_joint_step_unit_integration():
    p = knee(inertia=1.0, damping=0.0)
    st1 = joint_step(p, JointState(0.0, 0.0), 1.0, 1e-3)
    assert math.isclose(st1.omega, 1e-3, rel_tol=1e-12)


def test_joint_step_uniform_acceleration():
    # constant torque = inertia for 1 s from rest, no damping -> omega = 1
    p = knee(inertia=1.3, damping=0.0)
    state = JointState(0.0, 0.0)
    for _ in range(1000):
        state = joint_step(p, state, 1.3, 1e-3)
    assert abs(state.omega - 1.0) < 1e-6


def test_energy_non_increasing_with_damping_and_no_torque():
    p = knee(damping=0.8)
    state = JointState(0.0, 3.0)
    energy = 0.5 * p.inertia * state.omega**2
    for _ in range(2000):
        state = joint_step(p, state, 0.0, 1e-3)
        e = 0.5 * p.inertia * state.omega**2
        assert e <= energy + 1e-12
        energy = e


# --------------------------------------------------------------------------
# conversions and power


def test_joint_power_zero_torque():
    assert plant.joint_power(0.0, 123.4) == 0.0


def test_joint_power_unit_identity():
    assert math.isclose(plant.joint_power(1.0, 60.0 / math.tau), 1.0, rel_tol=1e-12)


def test_joint_power_hip_maxima():
    # direct evaluation of T * (2*pi/60) * n with the hip ratings
    expected = 72.9 * (math.tau / 60.0) * 23.4
    assert math.isclose(plant.joint_power(72.9, 23.4), expected, rel_tol=1e-12)
    assert abs(plant.joint_power(72.9, 23.4) - 178.6372) < 0.01


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_rpm_round_trip(rpm):
    back = plant.rad_s_to_rpm(plant.rpm_to_rad_s(rpm))
    assert back == pytest.approx(rpm, rel=1e-12, abs=1e-15)


# --------------------------------------------------------------------------
# the safety monitor


def joints6():
    return [plant.default_joint_params(n) for n in plant.JOINT_NAMES]


def clamped(p, tau):
    """The applied torque without a fault on it: the demand saturated to the
    rating as the plant saturates it, NaN included."""
    return max(-p.max_torque, min(p.max_torque, tau))


def signals_of(joints, step):
    """The monitor's input signals of one step of (theta, omega, demand,
    applied) per joint."""
    signals = {}
    for p, (theta, omega, demand, applied) in zip(joints, step):
        signals.update({f"plant.{p.name}.pos": theta, f"plant.{p.name}.vel": omega,
                        f"plant.{p.name}.torque_cmd": demand, f"plant.{p.name}.torque": applied})
    return signals


def monitor_step(joints, thetas, omegas, demands, k=0, dt=1e-3):
    """The records ``MonitorBlock`` makes of step ``k`` of a run of its own,
    with the demands saturated as the applied torques; also checks the
    record count it writes."""
    block = plant.MonitorBlock("monitor", joints)
    step = [(th, om, tau, clamped(p, tau)) for p, th, om, tau in zip(joints, thetas, omegas, demands)]
    written = emit_named(block, k, signals_of(joints, step), dt=dt)
    assert written == {"monitor.violations": float(len(block.violations))}
    return block.violations


def rule(p, theta, omega, demand, applied, t):
    """The safety rule for one joint at time ``t``: a torque past the rating
    (the demand where it is past it, else the applied torque) or a speed past
    the rating is an Error, an angle outside the range of travel a Failure.
    Limits are inclusive, and a NaN is past none."""
    torque = demand if abs(demand) > p.max_torque else applied
    checks = [(plant.ViolationKind.TORQUE_ERROR, torque, abs(torque) > p.max_torque),
              (plant.ViolationKind.SPEED_ERROR, omega, abs(omega) > p.max_speed),
              (plant.ViolationKind.ANGLE_FAILURE, theta,
               not (math.isnan(theta) or p.rot_min <= theta <= p.rot_max))]
    return [plant.ViolationRecord(t, p.name, kind, value) for kind, value, past in checks if past]


def test_monitor_all_quiet_at_rest():
    assert monitor_step(joints6(), [0.0] * 6, [0.0] * 6, [0.0] * 6) == []


def test_monitor_angle_failure_beyond_rot():
    js = [plant.default_joint_params("left_hip")]
    recs = monitor_step(js, [91.0 * plant.DEG], [0.0], [0.0], k=1000)
    assert len(recs) == 1
    assert recs[0].kind is plant.ViolationKind.ANGLE_FAILURE
    assert recs[0].joint == "left_hip"
    assert recs[0].t == 1000 * 1e-3
    # at the limit itself: no violation
    assert monitor_step(js, [90.0 * plant.DEG], [0.0], [0.0], k=1000) == []


def test_monitor_speed_error_above_rating():
    js = [plant.default_joint_params("right_knee")]
    fast = plant.rpm_to_rad_s(65.3)
    recs = monitor_step(js, [-0.5], [fast], [0.0], k=2000)
    assert [r.kind for r in recs] == [plant.ViolationKind.SPEED_ERROR]
    ok = plant.rpm_to_rad_s(65.1)
    assert monitor_step(js, [-0.5], [ok], [0.0], k=2000) == []


def test_monitor_torque_error_on_demand_not_applied():
    js = [plant.default_joint_params("right_knee")]
    recs = monitor_step(js, [-0.5], [0.0], [60.0], k=3000)
    assert [(r.kind, r.value) for r in recs] == [(plant.ViolationKind.TORQUE_ERROR, 60.0)]


def test_monitor_one_record_per_joint_and_step():
    thetas = [2.0] * 6  # everything out of range
    recs = monitor_step(joints6(), thetas, [0.0] * 6, [0.0] * 6)
    assert len(recs) == 6
    assert [r.joint for r in recs] == list(plant.JOINT_NAMES)


def test_default_limits_table():
    hip = plant.default_joint_params("left_hip")
    assert hip.max_torque == 72.9 and hip.max_speed_rpm == 23.4
    assert hip.rot_min == pytest.approx(-30 * plant.DEG)
    assert hip.rot_max == pytest.approx(90 * plant.DEG)
    kneep = plant.default_joint_params("right_knee")
    assert kneep.max_torque == 54.9 and kneep.max_speed_rpm == 65.2
    assert kneep.rot_min == pytest.approx(-90 * plant.DEG)
    assert kneep.rot_max == pytest.approx(0.0)
    ankle = plant.default_joint_params("right_ankle")
    assert ankle.max_torque == 128.7 and ankle.max_speed_rpm == 50.8
    # range of travel is symmetric about zero
    assert ankle.rot_min == pytest.approx(-30 * plant.DEG)
    assert ankle.rot_max == pytest.approx(30 * plant.DEG)


def test_unknown_joint_kind_rejected():
    with pytest.raises(ValueError):
        plant.default_joint_params("left_elbow")


# --------------------------------------------------------------------------
# engine blocks against the one-joint kernels


def step_plant_block(block, targets, dt):
    """Drive ``block`` through the engine's step order with the given
    (pos, vel, acc) targets per step; returns the per-step outputs."""
    rows = []
    slots, values = bind_alone(block, block.inputs, ClockConfig(dt_s=dt))
    for k, step_targets in enumerate(targets):
        block.state_outputs(k, values)
        for p, triple in zip(block.joints, step_targets):
            for field, value in zip(("pos", "vel", "acc"), triple):
                values[slots[f"dmp.{p.name}.{field}"]] = value
        block.emit(k, values)
        rows.append([values[slots[name]] for name in block.output_names])
        block.advance(k, values)
    return np.array(rows)


def step_reference_kernels(joints, kp, kd, theta0, targets, dt):
    """The same run as a loop of ``dynamic_control`` and ``joint_step``."""
    states = [JointState(theta=th, omega=0.0) for th in theta0]
    rows = []
    for step_targets in targets:
        positions = [v for st in states for v in (st.theta, st.omega)]
        torques = []
        for p, st, (y, yd, ydd) in zip(joints, states, step_targets):
            torques.extend(dynamic_control(y, yd, ydd, st.theta, st.omega,
                                                 p.inertia, kp, kd, p.max_torque))
        rows.append(positions + torques)
        states = [joint_step(p, st, tau_cmd, dt)
                  for p, st, tau_cmd in zip(joints, states, torques[0::2])]
    return np.array(rows)


def test_plant_block_matches_reference_kernels_bit_for_bit():
    joints = [plant.default_joint_params(n, damping=0.3 + 0.1 * i)
              for i, n in enumerate(plant.JOINT_NAMES)]
    theta0 = [0.1, -0.4, 0.05, 0.2, -0.3, -0.1]
    dt = 1e-3
    rng = np.random.default_rng(3)
    # smooth targets, plus steps large enough to saturate every actuator
    targets = []
    for k in range(1500):
        jump = 2.0 if 300 <= k < 400 or 900 <= k < 950 else 0.0
        targets.append([(math.sin(1e-3 * k + i) * 0.5 + jump * (-1) ** i,
                         math.cos(1e-3 * k + i) * 0.5, rng.normal(0.0, 50.0))
                        for i in range(len(joints))])
    block = plant.PlantBlock("plant", joints, kp=200.0, kd=20.0, theta0=theta0)
    got = step_plant_block(block, targets, dt)
    want = step_reference_kernels(joints, 200.0, 20.0, theta0, targets, dt)
    assert np.array_equal(got, want)
    demands = want[:, 2 * len(joints) + 1::2]
    limits = np.array([p.max_torque for p in joints])
    assert (np.abs(demands) > limits).any(axis=0).all()  # every joint saturated

    # a second run starts from theta0 again
    assert np.array_equal(step_plant_block(block, targets, dt), want)


def test_plant_block_controller_reads_the_measured_signals_it_is_given():
    p = plant.default_joint_params("right_knee")
    block = plant.PlantBlock("plant", [p], kp=200.0, kd=20.0, theta0=[0.0],
                             reads={"plant.right_knee.pos": "inj.a.out",
                                    "plant.right_knee.vel": "inj.b.out"})
    targets = ("dmp.right_knee.pos", "dmp.right_knee.vel", "dmp.right_knee.acc")
    assert block.feedthrough_inputs == targets + ("inj.a.out", "inj.b.out")
    assert block.inputs == block.feedthrough_inputs + ("plant.right_knee.torque",)
    signals = dict(zip(targets, (0.1, 0.2, 30.0)))
    signals.update({"inj.a.out": -0.05, "inj.b.out": 0.4,
                    "plant.right_knee.pos": 9.0, "plant.right_knee.vel": 9.0})
    tau_cmd, demand = dynamic_control(0.1, 0.2, 30.0, -0.05, 0.4, p.inertia,
                                            200.0, 20.0, p.max_torque)
    assert emit_named(block, 0, signals) == {"plant.right_knee.torque": tau_cmd,
                                              "plant.right_knee.torque_cmd": demand}


def monitor_cases(p):
    """(theta, omega, tau_demand) probes of one joint's limits."""
    up, down = math.inf, -math.inf
    return [
        (p.rot_min, 0.0, 0.0), (p.rot_max, 0.0, 0.0),          # at the limits
        (0.5 * (p.rot_min + p.rot_max), p.max_speed, p.max_torque),
        (0.5 * (p.rot_min + p.rot_max), -p.max_speed, -p.max_torque),
        (math.nextafter(p.rot_min, down), 0.0, 0.0),           # just past each
        (math.nextafter(p.rot_max, up), 0.0, 0.0),
        (p.rot_min, math.nextafter(p.max_speed, up), 0.0),
        (p.rot_min, math.nextafter(-p.max_speed, down), 0.0),
        (p.rot_max, 0.0, math.nextafter(p.max_torque, up)),
        (p.rot_max, 0.0, math.nextafter(-p.max_torque, down)),
        (p.rot_max + 1.0, -2.0 * p.max_speed, 3.0 * p.max_torque),  # all three kinds
        (math.nan, math.nan, math.nan),
        (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (p.rot_min, 0.0, math.nan),
    ]


def test_monitor_block_records_follow_the_rule():
    joints = joints6()
    block = plant.MonitorBlock("monitor", joints)
    probes = [monitor_cases(p) for p in joints]
    expected = []
    for k in range(len(probes[0])):
        cases = [probes[i][(k + i) % len(probes[i])] for i in range(len(joints))]
        step = [(theta, omega, tau, clamped(p, tau)) for p, (theta, omega, tau) in zip(joints, cases)]
        records = [r for p, state in zip(joints, step) for r in rule(p, *state, 0.25 * k)]
        assert emit_named(block, k, signals_of(joints, step), dt=0.25) == \
            {"monitor.violations": float(len(records))}
        assert block.violations == records  # emit_named binds: a run of its own
        expected.extend(records)
    kinds = {(r.joint, r.kind) for r in expected}
    assert len(kinds) == 3 * len(joints)  # every kind on every joint


def test_one_joint_monitor_block():
    p = plant.default_joint_params("right_knee")
    counts = []
    for k, (theta, omega, tau) in enumerate(monitor_cases(p)):
        records = monitor_step([p], [theta], [omega], [tau], k=k, dt=1.0)
        assert records == rule(p, theta, omega, tau, clamped(p, tau), float(k))
        counts.append(len(records))
    # at the limits and NaN inputs: nothing; past one limit: one record each
    assert counts == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 3, 0, 0, 0, 0]


@st.composite
def monitored_steps(draw):
    """Some of the six joints, in declaration order, and a few steps of
    (theta, omega, demand, applied) per joint: each value at, just inside or
    just past one of the joint's limits, inside all of them, or any float.
    The applied torque is drawn apart from the demand, as an injector on it
    makes it."""
    names = draw(st.sets(st.sampled_from(plant.JOINT_NAMES), min_size=1))
    joints = [plant.default_joint_params(n) for n in plant.JOINT_NAMES if n in names]

    def near(low, high):
        edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5 * (low + high)]
        for x in (low, high):
            edges += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
        return st.sampled_from(edges) | st.floats()

    state = [st.tuples(near(p.rot_min, p.rot_max), near(-p.max_speed, p.max_speed),
                       near(-p.max_torque, p.max_torque), near(-p.max_torque, p.max_torque))
             for p in joints]
    steps = draw(st.lists(st.tuples(*state), min_size=1, max_size=4))
    return joints, draw(st.integers(0, 7000)), steps


@given(monitored_steps())
def test_monitor_block_applies_the_rule_at_every_limit(case):
    joints, k0, steps = case
    reads = {f"plant.{p.name}.torque": f"inj.{p.name}.out" for p in joints}
    block = plant.MonitorBlock("monitor", joints, reads=reads)
    dt = 1e-3
    slots, values = bind_alone(block, block.inputs, ClockConfig(dt_s=dt))
    expected = []
    for k, step in enumerate(steps, start=k0):
        for name, value in signals_of(joints, step).items():
            values[slots[reads.get(name, name)]] = value
        block.emit(k, values)
        records = [r for p, state in zip(joints, step) for r in rule(p, *state, k * dt)]
        assert values[slots["monitor.violations"]] == float(len(records))
        expected.extend(records)
        assert block.violations == expected


def test_monitor_block_checks_the_applied_torque_it_reads():
    p = plant.default_joint_params("right_knee")
    block = plant.MonitorBlock("monitor", [p], reads={"plant.right_knee.torque": "inj.t.out"})
    assert "inj.t.out" in block.inputs and "plant.right_knee.torque" not in block.inputs
    m = p.max_torque
    # (demand, applied) -> the one torque record's value, or None
    for demand, applied, recorded in [(0.0, 0.0, None), (0.5 * m, m, None),
                                      (0.5 * m, 2.0 * m, 2.0 * m), (-0.5 * m, -2.0 * m, -2.0 * m),
                                      (1.5 * m, 3.0 * m, 1.5 * m), (1.5 * m, 0.0, 1.5 * m)]:
        emit_named(block, 0, {"plant.right_knee.pos": -0.5, "plant.right_knee.vel": 0.0,
                              "plant.right_knee.torque_cmd": demand, "inj.t.out": applied})
        assert [(r.kind, r.value) for r in block.violations] == \
            ([] if recorded is None else [(plant.ViolationKind.TORQUE_ERROR, recorded)])
