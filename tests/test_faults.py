"""Exact behaviour of the fault injector schedule and fault types."""

import hashlib
import math
import struct
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultbench import engine, faults
from faultbench.plant import JOINT_NAMES
from faultbench.scenario import ClockConfig

from conftest import bind_alone, drive_injector, make_scenario

DT = 1e-3


def make_injector(fault_type, event=None, effect=None, enabled=True):
    spec = faults.FaultSpec(
        name="x",
        target_signal="sig",
        fault_type=fault_type,
        event=event or faults.FailureProbability(p=0.0),
        effect=effect or faults.InfiniteTime(),
        enabled=enabled,
    )
    return faults.Injector(spec, in_signal="sig")


def drive(inj, inputs, triggers=None, seed=1):
    """Schedule ``inj`` from ``default_rng(seed)`` and step it on ``inputs``."""
    return drive_injector(inj, inputs, np.random.default_rng(seed), triggers)


# --------------------------------------------------------------------------
# fault types


def test_stuck_at_holds_last_correct_value():
    inj = make_injector(faults.StuckAt(), event=faults.FailureProbability(0.0))
    # force activation at the 2nd step via trigger
    outs, _ = drive(inj, [1.0, 2.0, 3.0], triggers=[False, True, True])
    assert outs == [1.0, 1.0, 1.0]


def test_stuck_at_window_constancy():
    inj = make_injector(faults.StuckAt(), effect=faults.ConstantTime(duration=5 * DT))
    inputs = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]
    triggers = [False, False, True, False, False, False, False, False]
    outs, _ = drive(inj, inputs, triggers)
    assert outs[:2] == [0.5, 1.5]
    assert outs[2:7] == [1.5] * 5  # held at last pre-activation input
    assert outs[7] == 7.5


def test_package_drop_replaces_value():
    inj = make_injector(faults.PackageDrop(replacement=0.0))
    outs, _ = drive(inj, [3.0, 4.0], triggers=[True, True])
    assert outs == [0.0, 0.0]


def test_bias_is_additive():
    inj = make_injector(faults.Bias(offset=0.5))
    outs, _ = drive(inj, [2.0], triggers=[True])
    assert outs == [2.5]


@given(x=st.floats(-1e6, 1e6, allow_nan=False), offset=st.floats(-1e3, 1e3))
def test_bias_exactness(x, offset):
    inj = make_injector(faults.Bias(offset=offset))
    outs, _ = drive(inj, [x], triggers=[True])
    assert outs[0] == x + offset


@given(x=st.floats(-1e6, 1e6, allow_nan=False), pct=st.floats(0.0, 200.0),
       seed=st.integers(0, 2**31))
@example(x=1.0, pct=1.0142271022548366e-14, seed=0)  # x + noise rounds past the bound
def test_noise_boundedness(x, pct, seed):
    inj = make_injector(faults.Noise(boundary_pct=pct))
    outs, _ = drive(inj, [x] * 5, triggers=[True] * 5, seed=seed)
    bound = abs(x) * pct / 100.0
    for y in outs:
        assert abs(y - x) <= bound


def test_noise_bound_that_overflows_is_cut_to_half_the_float_range():
    inj = make_injector(faults.Noise(boundary_pct=1e308))
    outs, _ = drive(inj, [100.0] * 5, triggers=[True] * 5)
    assert all(abs(y - 100.0) <= sys.float_info.max / 2 for y in outs)
    assert len(set(outs)) == 5


def test_time_delay_holds_then_replays():
    delay = 3 * DT
    inj = make_injector(faults.TimeDelay(delay=delay))
    inputs = [float(i) for i in range(10)]
    # activation at step 4
    triggers = [False] * 4 + [True] + [False] * 5
    outs, _ = drive(inj, inputs, triggers)
    assert outs[:4] == [0.0, 1.0, 2.0, 3.0]
    # hold phase: last armed input was 3.0
    assert outs[4:7] == [3.0, 3.0, 3.0]
    # replay phase: x(k - 3)
    assert outs[7:] == [4.0, 5.0, 6.0]


def test_time_delay_longer_than_any_run_holds():
    inj = make_injector(faults.TimeDelay(delay=1e20))  # 1e23 steps
    outs, _ = drive(inj, [1.0, 2.0, 3.0, 4.0], triggers=[False, True, False, False])
    assert outs == [1.0, 1.0, 1.0, 1.0]


def test_bit_flip_sign_bit():
    inj = make_injector(faults.BitFlip(n_bits=1, bit_positions=(63,)))
    outs, _ = drive(inj, [1.0], triggers=[True])
    assert outs == [-1.0]


def test_bit_flip_mantissa_errors_small():
    # brute force over all 52 mantissa-bit flips of 100.0, via an independent
    # uint64 view of the float
    rel_errors = []
    for bit in range(52):
        raw = np.array([100.0]).view(np.uint64)
        raw ^= np.uint64(1 << bit)
        flipped = float(raw.view(np.float64)[0])
        rel_errors.append(abs(flipped - 100.0) / 100.0)
        assert faults.flip_bits(100.0, 1 << bit) == flipped
    assert max(rel_errors) < 0.5
    assert sorted(rel_errors)[len(rel_errors) // 2] < 1e-3  # typical flip is tiny


@given(x=st.floats(allow_nan=False, allow_infinity=False),
       mask=st.integers(0, 2**64 - 1))
def test_bit_flip_involution(x, mask):
    once = faults.flip_bits(x, mask)
    twice = faults.flip_bits(once, mask)
    assert struct.pack("<d", twice) == struct.pack("<d", x)


def test_bit_flip_random_positions_fixed_within_window():
    inj = make_injector(faults.BitFlip(n_bits=2, bit_positions="random"),
                        effect=faults.ConstantTime(duration=4 * DT))
    x = 7.25
    outs, _ = drive(inj, [x] * 6, triggers=[True] + [False] * 5)
    faulty = outs[:4]
    assert len(set(faulty)) == 1  # same mask for the whole window
    assert faulty[0] != x
    assert outs[4:] == [x, x]


# --------------------------------------------------------------------------
# identity invariants


@given(xs=st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50),
       seed=st.integers(0, 2**31), triggered=st.booleans())
@settings(max_examples=60)
def test_identity_when_disabled(xs, seed, triggered):
    inj = make_injector(faults.Noise(boundary_pct=50.0),
                        event=faults.FailureProbability(1.0), enabled=False)
    # a true trigger input does not force a disabled injector either
    outs, trigs = drive(inj, xs, triggers=[triggered] * len(xs), seed=seed)
    assert outs == [float(x) for x in xs]
    assert not any(trigs)
    assert inj.windows == []


@given(xs=st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50))
def test_identity_when_armed(xs):
    inj = make_injector(faults.Bias(offset=123.0), event=faults.FailureProbability(0.0))
    outs, trigs = drive(inj, xs)
    assert outs == [float(x) for x in xs]
    assert not any(trigs)


def test_identity_between_exposures():
    inj = make_injector(faults.Bias(offset=10.0), effect=faults.ConstantTime(2 * DT))
    inputs = [1.0] * 9
    triggers = [False, True, False, False, False, True, False, False, False]
    outs, trigs = drive(inj, inputs, triggers)
    assert outs == [1.0, 11.0, 11.0, 1.0, 1.0, 11.0, 11.0, 1.0, 1.0]
    assert trigs == [False, True, True, False, False, True, True, False, False]
    assert inj.windows == [(1, 2), (5, 2)]  # (first step, length in steps)
    bind_alone(inj, ("sig",))  # a new run drops the old run's schedule
    assert inj.windows == []


# --------------------------------------------------------------------------
# effects: exposure windows


def test_constant_time_window_exact_length():
    for duration_steps in (1, 2, 50, 250):
        inj = make_injector(faults.Bias(offset=1.0),
                            effect=faults.ConstantTime(duration_steps * DT))
        n = duration_steps + 10
        outs, _ = drive(inj, [0.0] * n, triggers=[True] + [False] * (n - 1))
        assert sum(1 for y in outs if y != 0.0) == duration_steps
        assert all(y == 1.0 for y in outs[:duration_steps])


def test_window_too_long_to_count_lasts_to_the_end():
    for effect in (faults.ConstantTime(1e308), faults.MeanTimeToRepair(mttr=1e308)):
        inj = make_injector(faults.Bias(offset=1.0), effect=effect)
        outs, trigs = drive(inj, [0.0] * 5, triggers=[True] + [False] * 4)
        assert outs == [1.0] * 5 and all(trigs)


def test_once_single_sample_never_rearms():
    # expired despite p = 1, and despite a true trigger input
    for triggers in (None, [True] * 10):
        inj = make_injector(faults.Bias(offset=1.0), event=faults.FailureProbability(1.0),
                            effect=faults.Once())
        outs, trigs = drive(inj, [0.0] * 10, triggers=triggers)
        assert outs[0] == 1.0
        assert outs[1:] == [0.0] * 9
        assert trigs == [True] + [False] * 9
        assert inj.windows == [(0, 1)]


def test_infinite_time_until_end():
    inj = make_injector(faults.Bias(offset=1.0), effect=faults.InfiniteTime())
    outs, trigs = drive(inj, [0.0] * 20, triggers=[False, True] + [False] * 18)
    assert outs[0] == 0.0
    assert outs[1:] == [1.0] * 19
    assert all(trigs[1:])
    assert inj.windows == [(1, None)]


def test_rearming_after_constant_time():
    inj = make_injector(faults.Bias(offset=1.0), event=faults.FailureProbability(1.0),
                        effect=faults.ConstantTime(3 * DT))
    outs, _ = drive(inj, [0.0] * 9)
    # p = 1: re-activates on the first armed step after each window
    assert outs == [1.0] * 9
    assert inj.windows == [(0, 3), (3, 3), (6, 3)]


def test_zero_duration_window_is_a_no_op():
    inj = make_injector(faults.Bias(offset=1.0), event=faults.FailureProbability(1.0),
                        effect=faults.ConstantTime(0.0))
    outs, trigs = drive(inj, [5.0] * 10)
    assert outs == [5.0] * 10
    assert not any(trigs)
    assert inj.windows == []  # an empty window is no activation


# --------------------------------------------------------------------------
# events


def test_sample_activation_time_degenerate_sigma():
    rng = np.random.default_rng(0)
    ev = faults.MeanTimeToFailure(mttf=1.0, sigma=0.0)
    for t_now in (0.0, 0.5, 3.25):
        assert faults.sample_activation_time(ev, t_now, rng, DT) == t_now + 1.0


def test_sample_activation_time_truncated_at_dt():
    rng = np.random.default_rng(42)
    ev = faults.MeanTimeToFailure(mttf=0.0005, sigma=0.01)
    samples = [faults.sample_activation_time(ev, 0.0, rng, DT) for _ in range(2000)]
    assert min(samples) >= DT


def test_mttf_fires_at_scheduled_step():
    for triggers, expected, log in (
        # armed at step 0, scheduled 5 steps later
        (None, [0.0] * 5 + [1.0, 1.0] + [0.0] * 5, [(5, 2)]),
        # a trigger opens the window before the scheduled step; the schedule
        # is redrawn on the first armed step after it (step 3, so step 8)
        ([False, True] + [False] * 10, [0.0, 1.0, 1.0] + [0.0] * 5 + [1.0, 1.0, 0.0, 0.0],
         [(1, 2), (8, 2)]),
    ):
        inj = make_injector(faults.Bias(offset=1.0),
                            event=faults.MeanTimeToFailure(mttf=5 * DT, sigma=0.0),
                            effect=faults.ConstantTime(2 * DT))
        outs, _ = drive(inj, [0.0] * 12, triggers=triggers)
        assert outs == expected
        assert inj.windows == log


@pytest.mark.parametrize("fault_type,effect,draws_per_armed_step", [
    (faults.PackageDrop(0.0), faults.ConstantTime(0.005), 0),
    (faults.StuckAt(), faults.MeanTimeToRepair(0.005, 0.0), 0),
    (faults.BitFlip(n_bits=1, bit_positions=(3,)), faults.Once(), 0),
    (faults.Noise(boundary_pct=5.0), faults.ConstantTime(0.005), 1),
    (faults.BitFlip(n_bits=1), faults.ConstantTime(0.005), 1),
    (faults.StuckAt(), faults.MeanTimeToRepair(0.005, 0.002), 1),
], ids=["drop", "stuck-mttr", "fixed-flip", "noise", "random-flip", "stuck-drawn-mttr"])
def test_p_zero_draws_only_where_the_generator_is_read_elsewhere(fault_type, effect,
                                                                 draws_per_armed_step):
    inj = make_injector(fault_type, event=faults.FailureProbability(0.0), effect=effect)
    rng, drawn = _generator(1), _generator(1)
    assert drive(inj, [1.0] * 10, seed=rng) == ([1.0] * 10, [False] * 10)
    drawn.random(10 * draws_per_armed_step)
    assert rng.bit_generator.state == drawn.bit_generator.state
    # a trigger still opens a window
    assert drive(inj, [1.0] * 11, triggers=[False] * 10 + [True])[1][10]
    assert inj.windows and inj.windows[0][0] == 10


def test_sample_exposure_values():
    rng = np.random.default_rng(0)
    assert faults.sample_exposure(faults.Once(), rng, DT) == DT
    assert faults.sample_exposure(faults.ConstantTime(0.25), rng, DT) == 0.25
    assert math.isinf(faults.sample_exposure(faults.InfiniteTime(), rng, DT))
    assert faults.sample_exposure(faults.MeanTimeToRepair(mttr=0.2, sigma=0.0), rng, DT) == 0.2


def test_sample_exposure_mttr_truncated():
    rng = np.random.default_rng(7)
    eff = faults.MeanTimeToRepair(mttr=0.001, sigma=0.05)
    samples = [faults.sample_exposure(eff, rng, DT) for _ in range(2000)]
    assert min(samples) >= DT


def test_constant_time_250_steps_at_1ms():
    # a 0.25 s window is exactly 250 erroneous samples at dt = 1 ms
    inj = make_injector(faults.PackageDrop(0.0), effect=faults.ConstantTime(0.25))
    n = 300
    outs, _ = drive(inj, [1.0] * n, triggers=[True] + [False] * (n - 1))
    assert sum(1 for y in outs if y == 0.0) == 250


# --------------------------------------------------------------------------
# pinned runs of the injector paths the case study does not take


def _spec(name, target, fault_type, event, effect, enabled=True, chain_to=None):
    return faults.FaultSpec(name=name, target_signal=target, fault_type=fault_type,
                            event=event, effect=effect, enabled=enabled, chain_to=chain_to)


PATH_INJECTORS = [
    _spec("noise", "plant.left_hip.pos", faults.Noise(boundary_pct=5.0),
          faults.FailureProbability(0.002), faults.MeanTimeToRepair(0.05, 0.02)),
    _spec("delay", "plant.left_knee.vel", faults.TimeDelay(0.005),
          faults.FailureProbability(0.003), faults.ConstantTime(0.1)),
    _spec("flip", "plant.left_ankle.pos", faults.BitFlip(n_bits=2),
          faults.MeanTimeToFailure(0.6, 0.2), faults.Once()),
    _spec("bias", "plant.right_hip.vel", faults.Bias(0.01),
          faults.FailureProbability(0.001), faults.InfiniteTime()),
    _spec("off", "plant.right_ankle.pos", faults.StuckAt(),
          faults.FailureProbability(0.5), faults.ConstantTime(0.1), enabled=False),
    _spec("up", "plant.right_knee.pos", faults.StuckAt(),
          faults.FailureProbability(0.002), faults.ConstantTime(0.05), chain_to="down"),
    _spec("down", "plant.right_knee.vel", faults.PackageDrop(0.0),
          faults.FailureProbability(0.0), faults.ConstantTime(0.05)),
]

# seed -> (sha256 of trace.csv with every signal, or the divergence message;
# the windows each injector opened)
PATH_PINS = {
    0: ("5013e19dce6320f01355d7edf809228adab0e8173736b4c83e3529cb98aa7081",
        {"inj.noise": [(453, 62)],
         "inj.delay": [(203, 100), (521, 100), (893, 100), (1149, 100), (1279, 100)],
         "inj.flip": [(798, 1)], "inj.bias": [(1057, None)], "inj.off": [],
         "inj.up": [(499, 50), (865, 50)], "inj.down": [(499, 50), (865, 50)]}),
    1: ("31a20172260167ac2e8aebaffe7febc25678d0f29ecf9a498ae37e3b14ee8c56",
        {"inj.noise": [(486, 33), (893, 25)], "inj.delay": [(552, 100), (806, 100)],
         "inj.flip": [(653, 1)], "inj.bias": [(177, None)], "inj.off": [],
         "inj.up": [(472, 50), (612, 50), (793, 50), (1291, 50)],
         "inj.down": [(472, 50), (612, 50), (793, 50), (1291, 50)]}),
    2: ("fe7b297b0b80b87cf7927c01eded8b5d48e93ac54bf5924c4f49abfc21553822",
        {"inj.noise": [(463, 42), (599, 17)],
         "inj.delay": [(14, 100), (303, 100), (613, 100), (888, 100)],
         "inj.flip": [(623, 1)], "inj.bias": [(61, None)], "inj.off": [],
         "inj.up": [(60, 50), (258, 50), (343, 50)],
         "inj.down": [(60, 50), (258, 50), (343, 50)]}),
}


def pinned_outcome(injectors, seed):
    """The run of ``injectors`` on the case-study joints for 1.5 s: the
    sha256 of its trace.csv or its divergence message, and the windows that
    start at or before its last step run."""
    cfg = make_scenario(joints=JOINT_NAMES, injectors=injectors,
                        demo="demo_gait.csv", t_end=1.5)
    graph = engine.build_graph(cfg)
    try:
        trace = engine.run(graph, cfg.clock, seed)
        outcome = hashlib.sha256(trace.to_csv_str().encode()).hexdigest()
        last = cfg.clock.n_steps
    except engine.NumericalDivergence as exc:
        outcome = str(exc)
        last = round(exc.t / cfg.clock.dt_s)
    return outcome, {b.name: [w for w in b.windows if w[0] <= last] for b in graph.blocks
                     if isinstance(b, faults.Injector)}


@pytest.mark.parametrize("seed", sorted(PATH_PINS))
def test_injector_paths_pinned(seed):
    """Noise with a drawn repair time, a delay window, a random two-bit flip
    at a drawn time, an endless bias, a disabled injector and a chain whose
    downstream event never fires, on the case-study joints for 1.5 s."""
    assert pinned_outcome(PATH_INJECTORS, seed) == PATH_PINS[seed]


MORE_PATH_INJECTORS = [
    _spec("target", "dmp.left_hip.pos", faults.Bias(0.05),
          faults.FailureProbability(0.002), faults.ConstantTime(0.1)),
    _spec("torque", "plant.left_knee.torque", faults.Bias(-20.0),
          faults.FailureProbability(0.002), faults.MeanTimeToRepair(0.03, 0.01)),
    _spec("lead", "plant.right_ankle.vel", faults.StuckAt(),
          faults.FailureProbability(0.003), faults.ConstantTime(0.04), chain_to="lag"),
    _spec("lag", "plant.right_ankle.pos", faults.TimeDelay(0.01),
          faults.FailureProbability(0.0), faults.ConstantTime(0.04)),
    _spec("blowup", "plant.right_hip.pos", faults.BitFlip(n_bits=1, bit_positions=(62,)),
          faults.FailureProbability(0.0002), faults.Once()),
]

MORE_PATH_PINS = {
    0: ("c70355e6cb693aea5847fb1376542356ea5040a967b233a4989d79efa2af83ad",
        {"inj.target": [(622, 100), (1287, 100)],
         "inj.torque": [(40, 30), (607, 31), (856, 31), (1428, 38)],
         "inj.lead": [(955, 40), (1459, 40)], "inj.lag": [(955, 40), (1459, 40)],
         "inj.blowup": []}),
    1: ("19c63efa46ab0f46f271f39add616af85f9f7ff282bbd681ed4e77abac18d2bb",
        {"inj.target": [(993, 100)], "inj.torque": [(925, 13)],
         "inj.lead": [(1375, 40)], "inj.lag": [(1375, 40)], "inj.blowup": []}),
    2: ("non-finite value -inf on 'plant.right_hip.torque_cmd' from block 'plant' "
        "at t=1.171000s",
        {"inj.target": [(491, 100), (1058, 100)],
         "inj.torque": [(92, 49), (967, 44), (1024, 38)],
         "inj.lead": [(146, 40), (372, 40)], "inj.lag": [(146, 40), (372, 40)],
         "inj.blowup": [(1171, 1)]}),
}


@pytest.mark.parametrize("seed", sorted(MORE_PATH_PINS))
def test_more_injector_paths_pinned(seed):
    """A bias on a DMP target, a bias on an applied torque with a drawn
    repair time, a time delay opened by an upstream trigger, and an exponent
    flip whose run diverges at seed 2, on the case-study joints for 1.5 s."""
    assert pinned_outcome(MORE_PATH_INJECTORS, seed) == MORE_PATH_PINS[seed]


# --------------------------------------------------------------------------
# the schedule: the windows of a run, drawn before its first step


def _generator(seed=4):
    return np.random.Generator(np.random.PCG64(seed))


RESTART_CASES = [
    pytest.param(faults.StuckAt(), faults.FailureProbability(0.02), faults.ConstantTime(0.01),
                 True, id="p"),
    pytest.param(faults.Noise(5.0), faults.FailureProbability(0.0), faults.ConstantTime(0.01),
                 True, id="p0-noise"),
    pytest.param(faults.PackageDrop(0.0), faults.FailureProbability(0.0), faults.Once(),
                 True, id="p0-drop"),
    pytest.param(faults.BitFlip(n_bits=1, bit_positions=(2,)),
                 faults.MeanTimeToFailure(0.08, 0.0), faults.Once(), True, id="mttf"),
    pytest.param(faults.BitFlip(n_bits=2), faults.MeanTimeToFailure(0.08, 0.03),
                 faults.Once(), True, id="mttf-sigma"),
    pytest.param(faults.TimeDelay(0.2), faults.FailureProbability(0.02),
                 faults.ConstantTime(0.3), True, id="delay-longer-than-k"),
    pytest.param(faults.TimeDelay(0.005), faults.MeanTimeToFailure(0.08, 0.0),
                 faults.ConstantTime(0.05), True, id="delay-shorter-than-k"),
    pytest.param(faults.TimeDelay(0.005), faults.FailureProbability(0.02),
                 faults.ConstantTime(0.01), False, id="disabled"),
]


@pytest.mark.parametrize("fault_type,event,effect,enabled", RESTART_CASES)
def test_restart_sets_the_state_of_the_steps_it_skips(fault_type, event, effect, enabled):
    inputs = _generator(9).normal(size=400)
    golden = engine.TraceLog(columns=("sig",), t=np.arange(400) * DT, data=inputs[:, None])
    clock = ClockConfig(dt_s=DT, t_end_s=0.4)
    stepped = make_injector(fault_type, event, effect, enabled)
    slots, values = bind_alone(stepped, ("sig",), clock)
    stepped.schedule(_generator())
    k = min(stepped.windows[0][0] if stepped.windows else 400, 150)
    for i in range(k):
        values[slots["sig"]] = float(inputs[i])
        assert stepped.emit(i, values) == {"inj.x.trigger": 0.0}
        assert values[slots["inj.x.out"]] == inputs[i]
    restarted = make_injector(fault_type, event, effect, enabled)
    assert bind_alone(restarted, ("sig",), clock)[0] == slots
    restarted.schedule(_generator())
    restarted.restart(k, golden)

    def state(inj):
        return {name: list(v) if name == "_dbuf" and v is not None else v
                for name, v in vars(inj).items() if name != "_apply"}
    assert 0 < k and state(restarted) == state(stepped)
    outs = []
    for inj in (restarted, stepped):  # and the steps after it, on the first binding
        out = []
        for i in range(k, 400):
            values[slots["sig"]] = float(inputs[i])
            out.append((inj.emit(i, values), values[slots["inj.x.out"]]))
        outs.append(out)
    assert outs[0] == outs[1] and state(restarted) == state(stepped)


@pytest.mark.parametrize("fault_type,event,effect,enabled", RESTART_CASES)
@pytest.mark.parametrize("seed", range(4))
def test_the_first_window_is_the_first_activation_of_a_run(fault_type, event, effect,
                                                           enabled, seed):
    inj = make_injector(fault_type, event, effect, enabled)
    drive(inj, [1.0] * 400, seed=_generator(seed))
    first = inj.windows[0][0] if inj.windows else 400
    # a shorter run draws the windows that start inside it
    for n_steps, windows in ((first + 1, inj.windows[:1]), (first // 2, [])):
        short = make_injector(fault_type, event, effect, enabled)
        bind_alone(short, ("sig",), ClockConfig(dt_s=DT, t_end_s=n_steps * DT))
        short.schedule(_generator(seed))
        assert short.windows == windows


def test_a_window_of_no_steps_is_not_scheduled():
    # it fires and logs nothing, so a run restarts at no such window
    empty = make_injector(faults.StuckAt(), faults.FailureProbability(0.01),
                          faults.ConstantTime(0.0))
    logged = make_injector(faults.StuckAt(), faults.FailureProbability(0.01),
                           faults.ConstantTime(0.005))
    drive(empty, [1.0] * 400, seed=_generator())
    drive(logged, [1.0] * 400, seed=_generator())
    assert empty.windows == [] and logged.windows


# --------------------------------------------------------------------------
# the schedule against the online state machine it replaced


class OnlineInjector:
    """The injector as a state machine that draws on each step: the
    reference ``Injector.schedule`` and ``Injector.emit`` must match, draw
    for draw. On step ``k`` it is armed if ``k >= _armed_from`` and active
    if ``k < _active_until``; the two never hold at once."""

    def __init__(self, spec: faults.FaultSpec, dt: float):
        self.spec = spec
        self.dt = dt
        ft = spec.fault_type
        self._delay_steps = round(ft.delay / dt) if isinstance(ft, faults.TimeDelay) else 0
        if isinstance(ft, faults.BitFlip) and ft.bit_positions != "random":
            self._fixed_mask = faults.mask_from_positions(ft.bit_positions)
        else:
            self._fixed_mask = None
        self._p = spec.event.p if isinstance(spec.event, faults.FailureProbability) else None
        draws_elsewhere = (isinstance(ft, faults.Noise)
                           or isinstance(ft, faults.BitFlip) and self._fixed_mask is None
                           or isinstance(spec.effect, faults.MeanTimeToRepair)
                           and spec.effect.sigma > 0.0)
        self._draws_p = self._p is not None and (self._p > 0.0 or draws_elsewhere)
        self._armed_from = 0 if spec.enabled else math.inf
        self._active_until = 0
        self._held = 0.0
        self._step_idx = 0
        self._scheduled_t = None
        self._mask = self._fixed_mask or 0
        self._dbuf = (deque(maxlen=min(self._delay_steps, sys.maxsize))
                      if self._delay_steps > 0 else None)
        self.activations = []

    def step(self, x: float, t: float, trigger_in: bool, rng) -> tuple[float, bool]:
        """Process one sample; returns (output, trigger_out)."""
        k = self._step_idx
        self._step_idx = k + 1
        if k == 0:
            self._held = x
        if k >= self._armed_from:
            if trigger_in:
                fires = True
            elif self._p is not None:
                fires = self._draws_p and rng.random() < self._p
            else:
                fires = self._scheduled_time_reached(t, rng)
            if not fires:
                self._held = x
                if self._dbuf is not None:
                    self._dbuf.append(x)
                return x, False
            self._activate(k, rng)
            if k >= self._active_until:  # zero-length window
                self._held = x
        y, trig = x, False
        if k < self._active_until:
            y, trig = self._apply(x, k, rng), True
        if self._dbuf is not None:
            self._dbuf.append(x)
        return y, trig

    def _scheduled_time_reached(self, t: float, rng) -> bool:
        if self._scheduled_t is None:
            self._scheduled_t = faults.sample_activation_time(self.spec.event, t, rng, self.dt)
        return t >= self._scheduled_t - 1e-9 * self.dt

    def _activate(self, k: int, rng) -> None:
        steps = faults.sample_exposure(self.spec.effect, rng, self.dt) / self.dt
        steps = None if math.isinf(steps) else round(steps)
        if steps == 0:
            return  # degenerate empty window: stay armed
        self._active_until = math.inf if steps is None else k + steps
        self._armed_from = (math.inf if isinstance(self.spec.effect, faults.Once)
                            else self._active_until)
        self._scheduled_t = None
        self.activations.append((k, steps))
        ft = self.spec.fault_type
        if isinstance(ft, faults.BitFlip) and self._fixed_mask is None:
            self._mask = faults.mask_from_positions(rng.choice(64, size=ft.n_bits,
                                                               replace=False))

    def _apply(self, x: float, k: int, rng) -> float:
        ft = self.spec.fault_type
        if isinstance(ft, faults.StuckAt):
            return self._held
        if isinstance(ft, faults.PackageDrop):
            return ft.replacement
        if isinstance(ft, faults.Bias):
            return x + ft.offset
        if isinstance(ft, faults.Noise):
            bound = min(abs(x) * ft.boundary_pct / 100.0, sys.float_info.max / 2)
            y = x + rng.uniform(-bound, bound)
            while abs(y - x) > bound:
                y = math.nextafter(y, x)
            return y
        if isinstance(ft, faults.TimeDelay):
            if k - self.activations[-1][0] < self._delay_steps:
                return self._held
            return self._dbuf[0]
        return faults.flip_bits(x, self._mask)


EDGE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


@st.composite
def fault_specs(draw):
    fault_type = draw(st.one_of(
        st.just(faults.StuckAt()),
        st.builds(faults.PackageDrop, st.floats(-10.0, 10.0)),
        st.builds(faults.Bias, st.floats(-10.0, 10.0)),
        st.builds(faults.Noise, st.sampled_from([0.0, 5.0, 150.0, 1e308])),
        st.builds(faults.TimeDelay, st.integers(1, 20).map(lambda n: n * DT)),
        st.builds(faults.BitFlip, st.integers(1, 64)),
        st.sets(st.integers(0, 63), min_size=1, max_size=3).map(
            lambda bits: faults.BitFlip(len(bits), tuple(sorted(bits)))),
    ))
    event = draw(st.one_of(
        st.builds(faults.FailureProbability, st.sampled_from([0.0, 0.005, 0.05, 0.5, 1.0])),
        st.builds(faults.MeanTimeToFailure, st.floats(0.0, 0.1),
                  st.sampled_from([0.0, 0.01, 0.05])),
    ))
    effect = draw(st.one_of(
        st.just(faults.Once()), st.just(faults.InfiniteTime()),
        st.builds(faults.ConstantTime, st.sampled_from([0.0, 0.4 * DT, DT, 5 * DT, 0.03])),
        st.builds(faults.MeanTimeToRepair, st.floats(0.0, 0.03),
                  st.sampled_from([0.0, 0.005])),
    ))
    return faults.FaultSpec(name="x", target_signal="sig", fault_type=fault_type,
                            event=event, effect=effect,
                            enabled=draw(st.sampled_from([True, True, True, False])))


@settings(max_examples=300, deadline=None)
@given(spec=fault_specs(), n_steps=st.integers(0, 400), seed=st.integers(0, 2**32),
       pool=st.lists(st.one_of(st.sampled_from(EDGE_INPUTS),
                               st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=6),
       windows=st.lists(st.tuples(st.integers(0, 399), st.integers(1, 30)), max_size=4))
def test_the_schedule_steps_as_the_online_state_machine(spec, n_steps, seed, pool, windows):
    """Outputs bit for bit, trigger line, activation log and the generator's
    final state, on inputs drawn from ``pool`` and a trigger line of up to
    four windows."""
    inputs = [pool[i] for i in _generator(seed + 1).integers(len(pool), size=n_steps)]
    triggers = [any(start <= k < start + length for start, length in windows)
                for k in range(n_steps)]
    online, rng = OnlineInjector(spec, DT), _generator(seed)
    expected = [online.step(x, k * DT, triggers[k], rng) for k, x in enumerate(inputs)]
    scheduled, drawn = faults.Injector(spec, in_signal="sig"), _generator(seed)
    outs, trigs = drive_injector(scheduled, inputs, drawn, triggers)
    assert [struct.pack("<d", y) for y in outs] == [struct.pack("<d", y) for y, _ in expected]
    assert trigs == [trig for _, trig in expected]
    assert scheduled.windows == online.activations
    assert drawn.bit_generator.state == rng.bit_generator.state


@given(x=st.one_of(st.sampled_from(EDGE_INPUTS), st.floats(allow_nan=False, allow_infinity=False)),
       pct=st.one_of(st.floats(0.0, 1e3), st.just(1e308)), seed=st.integers(0, 2**32))
def test_noise_is_uniform_arithmetic_on_the_raw_draw(x, pct, seed):
    # the same bound as Injector._noise, capped at half the float range
    b = min(abs(x) * pct / 100.0, sys.float_info.max / 2)
    raw, uniform = _generator(seed), _generator(seed)
    for _ in range(8):
        assert x + (-b + (b - -b) * raw.random()) == x + uniform.uniform(-b, b)
