"""Exact behaviour of the fault injector state machine and fault types."""

import hashlib
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultbench import engine, faults
from faultbench.plant import JOINT_NAMES

from conftest import make_scenario

DT = 1e-3


def make_injector(fault_type, event=None, effect=None, enabled=True, dt=DT):
    spec = faults.FaultSpec(
        name="x",
        target_signal="sig",
        fault_type=fault_type,
        event=event or faults.FailureProbability(p=0.0),
        effect=effect or faults.InfiniteTime(),
        enabled=enabled,
    )
    return faults.Injector(spec, dt, in_signal="sig")


def drive(inj, inputs, triggers=None, seed=1):
    rng = np.random.default_rng(seed)
    triggers = triggers or [False] * len(inputs)
    outs, trigs = [], []
    for k, (x, tr) in enumerate(zip(inputs, triggers)):
        y, t = inj.step(float(x), k * inj.dt, tr, rng)
        outs.append(y)
        trigs.append(t)
    return outs, trigs


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
    assert inj.activations == []


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
    assert inj.activations == [(1, 2), (5, 2)]  # (first step, length in steps)
    inj.reset()
    assert inj.activations == []


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
        assert inj.activations == [(0, 1)]


def test_infinite_time_until_end():
    inj = make_injector(faults.Bias(offset=1.0), effect=faults.InfiniteTime())
    outs, trigs = drive(inj, [0.0] * 20, triggers=[False, True] + [False] * 18)
    assert outs[0] == 0.0
    assert outs[1:] == [1.0] * 19
    assert all(trigs[1:])
    assert inj.activations == [(1, None)]


def test_rearming_after_constant_time():
    inj = make_injector(faults.Bias(offset=1.0), event=faults.FailureProbability(1.0),
                        effect=faults.ConstantTime(3 * DT))
    outs, _ = drive(inj, [0.0] * 9)
    # p = 1: re-activates on the first armed step after each window
    assert outs == [1.0] * 9
    assert inj.activations == [(0, 3), (3, 3), (6, 3)]


def test_zero_duration_window_is_a_no_op():
    inj = make_injector(faults.Bias(offset=1.0), event=faults.FailureProbability(1.0),
                        effect=faults.ConstantTime(0.0))
    outs, trigs = drive(inj, [5.0] * 10)
    assert outs == [5.0] * 10
    assert not any(trigs)
    assert inj.activations == []  # an empty window is no activation


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
        assert inj.activations == log


class CountingRng:
    """A generator that counts the draws taken from it."""

    def __init__(self, seed=1):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.draws += 1
            return draw(*args, **kwargs)
        return counted


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
    rng = CountingRng()
    for k in range(10):
        assert inj.step(1.0, k * DT, False, rng) == (1.0, False)
    assert rng.draws == 10 * draws_per_armed_step
    # a trigger still opens a window
    assert inj.step(1.0, 10 * DT, True, rng)[1]
    assert inj.activations and inj.activations[0][0] == 10


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
# the activation log of each injector)
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
    sha256 of its trace.csv or its divergence message, and the logs."""
    cfg = make_scenario(joints=JOINT_NAMES, injectors=injectors,
                        demo="demo_gait.csv", t_end=1.5)
    graph = engine.build_graph(cfg)
    try:
        trace = engine.run(graph, cfg.clock, seed)
        outcome = hashlib.sha256(trace.to_csv_str().encode()).hexdigest()
    except engine.NumericalDivergence as exc:
        outcome = str(exc)
    return outcome, {b.name: b.activations for b in graph.blocks
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
# restarting an injector at the first step on which it can fire


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
    stepped = make_injector(fault_type, event, effect, enabled)
    k = min(stepped.first_fire(_generator(), 400), 150)
    stepped_rng = _generator()
    for i in range(k):
        assert stepped.step(float(inputs[i]), i * DT, False, stepped_rng) == (inputs[i], False)
    restarted = make_injector(fault_type, event, effect, enabled)
    restarted_rng = _generator()
    restarted.restart(k, golden, restarted_rng)

    def state(inj):
        return {name: list(v) if name == "_dbuf" and v is not None else v
                for name, v in vars(inj).items() if name != "_apply"}
    assert 0 < k and state(restarted) == state(stepped)
    assert restarted_rng.bit_generator.state == stepped_rng.bit_generator.state
    for i in range(k, 400):  # and the steps after it
        assert restarted.step(float(inputs[i]), i * DT, False, restarted_rng) \
            == stepped.step(float(inputs[i]), i * DT, False, stepped_rng)
    assert restarted.activations == stepped.activations


@pytest.mark.parametrize("fault_type,event,effect,enabled", RESTART_CASES)
@pytest.mark.parametrize("seed", range(4))
def test_first_fire_is_the_first_window_of_a_run(fault_type, event, effect, enabled, seed):
    inj = make_injector(fault_type, event, effect, enabled)
    first = inj.first_fire(_generator(seed), 400)
    drive(inj, [1.0] * 400, seed=_generator(seed))
    assert first == (inj.activations[0][0] if inj.activations else 400)
    assert inj.first_fire(_generator(seed), first // 2) == first // 2


def test_first_fire_counts_a_window_of_no_steps():
    # a zero-length window fires and logs nothing
    empty = make_injector(faults.StuckAt(), faults.FailureProbability(0.01),
                          faults.ConstantTime(0.0))
    logged = make_injector(faults.StuckAt(), faults.FailureProbability(0.01),
                           faults.ConstantTime(0.005))
    drive(empty, [1.0] * 400, seed=_generator())
    drive(logged, [1.0] * 400, seed=_generator())
    assert empty.activations == [] and logged.activations
    assert empty.first_fire(_generator(), 400) == logged.activations[0][0]
