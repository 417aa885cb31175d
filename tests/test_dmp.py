"""Attractor behaviour, canonical phase, and learn/replay fidelity.

The package only rolls primitives out as a table (``dmp.rollout``). The
reference below steps one joint's transformation system and the canonical
phase one Euler step at a time; the attractor and phase tests run on it,
and the rollout must equal it bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from faultbench import dmp
from faultbench.scenario import ClockConfig, data_path, load_demo_csv

from conftest import bind_alone


# --------------------------------------------------------------------------
# step-by-step reference


@dataclass(frozen=True)
class DmpState:
    y: float
    z: float


@dataclass(frozen=True)
class CanonicalSystem:
    s: float
    alpha_s: float
    tau: float


def forcing(params, s):
    psi = np.exp(-params.widths * (s - params.centers) ** 2)
    denom = float(psi.sum())
    if denom < 1e-300:
        return 0.0
    return float(psi @ params.weights) / denom * s * (params.g - params.y0)


def dmp_step(params, state, s, dt):
    """Advance one joint by explicit Euler; returns (state', y, dy, ddy).

    The returned targets are the values at the current step, before the
    Euler update.
    """
    f = forcing(params, s)
    zdot = (params.alpha_z * (params.beta_z * (params.g - state.y) - state.z) + f) / params.tau
    ydot = state.z / params.tau
    new_state = DmpState(y=state.y + ydot * dt, z=state.z + zdot * dt)
    return new_state, state.y, ydot, zdot / params.tau


def canonical_step(cs, dt):
    """Exact decay of the linear phase system over one step."""
    return cs.s * math.exp(-cs.alpha_s * dt / cs.tau)


def learn_weights(times, positions, params):
    """The system fit of a single joint's demonstration."""
    return dmp.learn_system_weights(times, np.asarray(positions, dtype=float)[:, None],
                                    params)[0]


def replay(params, times):
    """Integrate the primitive at the given uniform time grid; returns y(t)."""
    return dmp.rollout([params], float(times[1] - times[0]), len(times))[:, 0].copy()


def integrate(params, T, dt=1e-3, y0=None, z0=None):
    state = DmpState(y=params.y0 if y0 is None else y0,
                     z=params.z0 if z0 is None else z0)
    s = 1.0
    ys = []
    for _ in range(round(T / dt)):
        state, y, _, _ = dmp_step(params, state, s, dt)
        ys.append(y)
        s = canonical_step(CanonicalSystem(s=s, alpha_s=params.alpha_s, tau=params.tau), dt)
    return np.array(ys)


def test_fixed_point():
    p = dmp.make_params(tau=1.0, g=0.7, y0=0.7)
    state = DmpState(y=0.7, z=0.0)
    new, y, yd, ydd = dmp_step(p, state, 0.5, 1e-3)
    assert (new.y, new.z) == (0.7, 0.0)
    assert (y, yd, ydd) == (0.7, 0.0, 0.0)


def test_attractor_converges_without_overshoot():
    for y0 in (-1.0, 0.0, 2.0):
        for g in (-0.5, 1.0):
            for tau in (0.5, 1.0, 2.0):
                p = dmp.make_params(tau=tau, g=g, y0=y0)
                T = 4 * 10 * tau / p.alpha_z
                ys = integrate(p, T)
                assert abs(ys[-1] - g) < 1e-3
                dev = ys - g
                crossings = np.sum((dev[1:] * dev[:-1] < 0) &
                                   (np.abs(dev[1:]) > 1e-6))
                assert crossings <= 1


def test_tau_scaling_slows_trajectory():
    # same primitive at tau and 2*tau matches at corresponding phases
    dt = 1e-4
    rng = np.random.default_rng(3)
    weights = rng.normal(0, 20.0, size=50)
    p1 = dmp.make_params(tau=1.0, g=1.0, y0=0.0, weights=weights)
    p2 = dmp.make_params(tau=2.0, g=1.0, y0=0.0, weights=weights)
    y1 = integrate(p1, 1.0, dt=dt)
    y2 = integrate(p2, 2.0, dt=dt)
    assert np.max(np.abs(y2[1::2] - y1)) < 1e-3


def test_canonical_step_closed_form():
    cs = CanonicalSystem(s=1.0, alpha_s=2.0, tau=1.0)
    assert canonical_step(cs, 0.0) == 1.0
    assert math.isclose(canonical_step(cs, 0.5), math.exp(-1.0), rel_tol=1e-12)


def test_canonical_reaches_one_percent_at_log_time():
    alpha_s, tau, dt = 4.6, 2.0, 1e-3
    t_target = tau * math.log(100.0) / alpha_s
    s = 1.0
    steps = round(t_target / dt)
    for _ in range(steps):
        s = canonical_step(CanonicalSystem(s=s, alpha_s=alpha_s, tau=tau), dt)
    assert math.isclose(s, 0.01, rel_tol=1e-3)


def test_phase_strictly_decreasing_and_positive():
    s = 1.0
    for _ in range(10000):
        s_next = canonical_step(CanonicalSystem(s=s, alpha_s=4.6, tau=1.0), 1e-3)
        assert 0.0 < s_next < s
        s = s_next


# --------------------------------------------------------------------------
# learning


def test_learn_replay_min_jerk():
    t = np.arange(2001) * 1e-3
    u = t / 2.0
    demo = 10 * u**3 - 15 * u**4 + 6 * u**5  # 0 -> 1 rad over 2 s
    p = learn_weights(t, demo, dmp.make_params(tau=1.0, g=0.0))
    assert p.tau == 2.0 and p.g == 1.0
    rep = replay(p, t)
    assert float(np.sqrt(np.mean((rep - demo) ** 2))) < 0.01


def test_learn_replay_sin_ramp():
    t = np.arange(7001) * 1e-3
    demo = 0.5 * t / 7.0 + 0.3 * np.sin(2 * np.pi * t / 3.5) * np.sin(np.pi * t / 7.0) ** 2
    p = learn_weights(t, demo, dmp.make_params(tau=1.0, g=0.0))
    rep = replay(p, t)
    assert float(np.sqrt(np.mean((rep - demo) ** 2))) < 0.02


def test_learn_constant_demo_warns_and_zeroes():
    t = np.arange(101) * 1e-2
    demo = np.full(101, 0.4)
    with pytest.warns(dmp.DegenerateDemo):
        p = learn_weights(t, demo, dmp.make_params(tau=1.0, g=0.0))
    assert np.all(p.weights == 0.0)
    rep = replay(p, t)
    assert np.allclose(rep, 0.4, atol=1e-9)


def test_learn_rejects_bad_demos():
    p = dmp.make_params(tau=1.0, g=0.0)
    with pytest.raises(ValueError):
        learn_weights(np.array([0.0, 1.0]), np.array([0.0, 1.0]), p)
    with pytest.raises(ValueError):
        learn_weights(np.array([0.0, 0.1, 0.5]), np.array([0.0, 1.0, 2.0]), p)
    # a stiffness so large that the forcing target overflows
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="non-finite forcing weights"):
        learn_weights(t, t**2, dmp.make_params(tau=1.0, g=0.0, alpha_z=1e308))


def fit_alone(times, positions, params):
    """The single-joint fit as it was before the joints of one system shared
    their basis activations: the phase and ``psi`` built for this joint."""
    dt = float(times[1] - times[0])
    tau = float(times[-1] - times[0])
    g, y0 = float(positions[-1]), float(positions[0])
    vel = np.gradient(positions, dt)
    acc = np.gradient(vel, dt)
    f_target = tau**2 * acc - params.alpha_z * (params.beta_z * (g - positions) - tau * vel)
    s = np.exp(-params.alpha_s * (times - times[0]) / tau)
    gate = s * (g - y0)
    psi = np.exp(-params.widths[:, None] * (s[None, :] - params.centers[:, None]) ** 2)
    num = psi @ (gate * f_target)
    den = psi @ (gate * gate)
    weights = np.divide(num, den, out=np.zeros_like(num), where=np.abs(den) > 1e-300)
    return tau, g, y0, tau * float(vel[0]), weights


@pytest.mark.parametrize("demo", ["demo_gait.csv", "demo_minimal.csv"])
def test_a_system_fit_equals_fitting_each_joint_alone(demo):
    times, ys = load_demo_csv(data_path(demo))
    base = dmp.make_params(tau=1.0, g=0.0)
    fitted = dmp.learn_system_weights(times, ys, base)
    assert len(fitted) == ys.shape[1]
    for j, p in enumerate(fitted):
        tau, g, y0, z0, weights = fit_alone(times, ys[:, j], base)
        assert (p.tau, p.g, p.y0, p.z0) == (tau, g, y0, z0)
        assert np.array_equal(p.weights, weights)
        assert np.array_equal(learn_weights(times, ys[:, j], base).weights, weights)


def test_shipped_demo_replay_within_one_percent():
    times, ys = load_demo_csv(data_path("demo_gait.csv"))
    for j in range(ys.shape[1]):
        p = learn_weights(times, ys[:, j], dmp.make_params(tau=1.0, g=0.0))
        rep = replay(p, times)
        err = float(np.sqrt(np.mean((rep - ys[:, j]) ** 2)))
        amplitude = float(ys[:, j].max() - ys[:, j].min())
        assert err < 0.01 * amplitude


def test_critical_damping_enforced_by_construction():
    p = dmp.make_params(tau=1.0, g=0.0)
    assert p.beta_z == p.alpha_z / 4.0


# --------------------------------------------------------------------------
# the system block: shared phase


def test_joints_share_phase():
    t = np.arange(1001) * 1e-3
    demo = 0.3 * (1 - np.cos(2 * np.pi * t))
    p = learn_weights(t, demo, dmp.make_params(tau=1.0, g=0.0))
    block = dmp.DmpSystemBlock("dmp", ["left_knee", "right_knee"],
                               dmp.TargetTable([p, p], 1e-3, 500))
    block.reset()
    slots, values = bind_alone(block, clock=ClockConfig(dt_s=1e-3, t_end_s=0.5))
    for k in range(500):
        block.state_outputs(k, values)
        assert values[slots["dmp.left_knee.pos"]] == values[slots["dmp.right_knee.pos"]]


def test_velocity_is_scaled_state_identity():
    # dy/dt = z / tau holds for every emitted target by construction
    t = np.arange(2001) * 1e-3
    u = t / 2.0
    demo = 10 * u**3 - 15 * u**4 + 6 * u**5
    p = learn_weights(t, demo, dmp.make_params(tau=1.0, g=0.0))
    state = DmpState(y=p.y0, z=p.z0)
    s = 1.0
    for _ in range(200):
        new_state, y, yd, ydd = dmp_step(p, state, s, 1e-3)
        assert yd == state.z / p.tau
        state = new_state
        s = canonical_step(CanonicalSystem(s=s, alpha_s=p.alpha_s, tau=p.tau), 1e-3)


def test_joints_must_share_phase():
    p = dmp.make_params(tau=1.0, g=0.5)
    with pytest.raises(ValueError):
        dmp.TargetTable([p, dmp.make_params(tau=2.0, g=0.5)], 1e-3, 10)
    with pytest.raises(ValueError):
        dmp.rollout([p, dmp.make_params(tau=1.0, g=0.5, alpha_s=3.0)], 1e-3, 10)


def test_joints_must_share_basis():
    from dataclasses import replace
    p = dmp.make_params(tau=1.0, g=0.5)
    with pytest.raises(ValueError):
        dmp.TargetTable([p, dmp.make_params(tau=1.0, g=0.5, n_basis=40)], 1e-3, 10)
    with pytest.raises(ValueError):
        dmp.rollout([p, replace(p, widths=2.0 * p.widths)], 1e-3, 10)
    with pytest.raises(ValueError):
        dmp.rollout([p, replace(p, centers=p.centers + 1e-9)], 1e-3, 10)


def stepped_block_targets(params, dt, n_steps):
    """Step-by-step copy of the arithmetic the system block used before its
    targets became a table: state outputs, then the Euler advance."""
    states = [DmpState(y=p.y0, z=p.z0) for p in params]
    s = 1.0
    out = np.empty((n_steps, 3 * len(params)))
    for k in range(n_steps):
        derivs = []
        for j, (p, st) in enumerate(zip(params, states)):
            _, y, yd, ydd = dmp_step(p, st, s, 0.0)
            derivs.append((yd, ydd * p.tau))
            out[k, 3 * j:3 * j + 3] = (y, yd, ydd)
        states = [DmpState(y=st.y + yd * dt, z=st.z + zd * dt)
                  for st, (yd, zd) in zip(states, derivs)]
        p = params[0]
        s = canonical_step(CanonicalSystem(s=s, alpha_s=p.alpha_s, tau=p.tau), dt)
    return out


def test_rollout_matches_stepped_block_on_shipped_gait(case_study_cfg):
    times, ys = load_demo_csv(data_path("demo_gait.csv"))
    c = case_study_cfg.dmp
    params = [learn_weights(times, ys[:, j],
                                dmp.make_params(tau=1.0, g=0.0, alpha_z=c.alpha_z,
                                                alpha_s=c.alpha_s, n_basis=c.n_basis))
              for j in range(ys.shape[1])]
    clock = case_study_cfg.clock
    assert clock.n_steps == 7000
    table = dmp.rollout(params, clock.dt_s, clock.n_steps)
    assert table.shape == (7000, 3 * len(params))
    assert not table.flags.writeable
    assert np.array_equal(table, stepped_block_targets(params, clock.dt_s, clock.n_steps))


@pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257, 1000])
def test_rollout_matches_stepped_block_across_chunks(n_steps):
    t = np.arange(1001) * 1e-3
    demos = [0.3 * (1 - np.cos(2 * np.pi * t)), -0.5 * t**2, np.sin(3 * t)]
    params = [learn_weights(t, demo, dmp.make_params(tau=1.0, g=0.0))
              for demo in demos]
    table = dmp.rollout(params, 1e-3, n_steps)
    assert table.shape == (n_steps, 9)
    assert np.array_equal(table, stepped_block_targets(params, 1e-3, n_steps))


def test_rollout_matches_stepped_block_on_edge_bases():
    from dataclasses import replace
    single = dmp.make_params(tau=0.5, g=1.0, y0=0.2, n_basis=1, weights=np.array([30.0]))
    assert np.array_equal(dmp.rollout([single], 1e-3, 700),
                          stepped_block_targets([single], 1e-3, 700))
    # kernels so sharp that every activation underflows away from the centers:
    # the forcing term is zero there
    sharp = dmp.make_params(tau=1.0, g=1.0, weights=np.full(50, 100.0))
    sharp = replace(sharp, widths=sharp.widths * 1e6)
    table = dmp.rollout([sharp, replace(sharp, g=-1.0)], 1e-3, 1000)
    assert np.array_equal(table, stepped_block_targets([sharp, replace(sharp, g=-1.0)],
                                                       1e-3, 1000))


def test_rollout_keeps_the_sign_of_a_one_basis_zero_forcing():
    # row.dot on a one-element basis multiplies as scalars: -0.0 here, and the
    # forcing is then +0.0; a forcing of -0.0 would make every acceleration -0.0
    p = dmp.make_params(tau=1.0, g=-0.0, y0=0.0, n_basis=1, weights=np.array([-0.0]))
    acc = dmp.rollout([p], 1e-3, 300)[:, 2]
    assert np.all(acc == 0.0) and not np.signbit(acc).any()


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e300, -1e300, math.nan])
DOT_ELEMENTS = st.one_of(EDGE_FLOATS, st.floats(-1e3, 1e3))


@st.composite
def dot_operands(draw, rows=st.integers(0, 300)):
    n, m, j = draw(rows), draw(st.integers(1, 80)), draw(st.integers(1, 6))
    return (draw(arrays(np.float64, (n, m), elements=DOT_ELEMENTS)),
            draw(arrays(np.float64, (j, m), elements=DOT_ELEMENTS)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dot_operands() | dot_operands(rows=st.sampled_from([255, 256, 257])))
@example((np.zeros((1, 1)), -np.zeros((1, 1))))  # vecdot alone gives +0.0 here
def test_row_dots_equal_row_dot_bit_for_bit(operands):
    # the rollout's forcing relies on this: one call over a chunk gives the
    # bits of ndarray.dot on each (row, weights) pair, signed zeros included
    a, w = operands
    with np.errstate(all="ignore"):
        bulk = dmp._row_dots(a, w)
        rowwise = np.array([[row.dot(v) for v in w] for row in a]).reshape(bulk.shape)
    assert bulk.shape == (len(a), len(w))
    assert bulk.tobytes() == rowwise.tobytes()
