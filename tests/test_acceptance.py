"""Acceptance suite: one test per acceptance criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The sweep-based criteria share one module-scoped fine sweep
(10 durations x 20 seeds, paired reference/faulty runs).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from faultbench import cli, dmp, engine, faults, plant
from faultbench import experiments as ex
from faultbench.scenario import data_path, load_demo_csv, load_scenario, set_faults_enabled

from conftest import drive_injector, make_scenario


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.monotonic() - start
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS in {elapsed:.1f}s")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


@pytest.fixture(scope="module")
def case_study():
    return load_scenario(data_path("case_study.json"))


@pytest.fixture(scope="module")
def fine_sweep(case_study):
    plan = ex.SweepPlan(scenario=case_study, durations=ex.FINE_DURATIONS,
                        seeds_per_duration=20, base_seed=0)
    start = time.monotonic()
    result = ex.run_sweep(plan, jobs=8)
    return result, time.monotonic() - start


# --------------------------------------------------------------------------
# 1. fault-model unit suite: exact invariants over generated input traces


def test_criterion_1_fault_model_invariants():
    with criterion(1, "fault-model invariants", budget_s=10.0):
        rng_in = np.random.default_rng(31415)
        traces = [rng_in.uniform(-100, 100, size=400) for _ in range(5)]
        dt = 1e-3

        def drive(spec, xs, triggers=None, seed=1):
            inj = faults.Injector(spec, in_signal="s")
            outs, trigs = drive_injector(inj, xs, np.random.default_rng(seed),
                                         None if triggers is None else triggers.tolist(), dt)
            return np.array(outs), np.array(trigs)

        def spec(ft, event=None, effect=None, enabled=True):
            return faults.FaultSpec(
                name="x", target_signal="s", fault_type=ft,
                event=event or faults.FailureProbability(p=0.0),
                effect=effect or faults.InfiniteTime(), enabled=enabled)

        for xs in traces:
            # identity when disabled, even with a certain event
            outs, trigs = drive(spec(faults.Noise(50.0),
                                     event=faults.FailureProbability(1.0),
                                     enabled=False), xs)
            assert np.array_equal(outs, xs) and not trigs.any()

            # identity while armed
            outs, trigs = drive(spec(faults.Bias(5.0)), xs)
            assert np.array_equal(outs, xs) and not trigs.any()

            # stuck-at window constancy: forced window in the middle
            triggers = np.zeros(len(xs), bool)
            triggers[100] = True
            outs, _ = drive(spec(faults.StuckAt(),
                                 effect=faults.ConstantTime(50 * dt)), xs, triggers)
            assert np.all(outs[100:150] == xs[99])
            assert np.array_equal(outs[:100], xs[:100])
            assert np.array_equal(outs[150:], xs[150:])

            # bias exactness on every active step
            outs, _ = drive(spec(faults.Bias(0.5),
                                 effect=faults.ConstantTime(50 * dt)), xs, triggers)
            assert np.all(outs[100:150] == xs[100:150] + 0.5)

            # noise boundedness
            outs, _ = drive(spec(faults.Noise(10.0),
                                 effect=faults.ConstantTime(50 * dt)), xs, triggers)
            window = slice(100, 150)
            assert np.all(np.abs(outs[window] - xs[window])
                          <= np.abs(xs[window]) * 0.10 + 1e-15)

            # exposure-length exactness
            outs, trigs = drive(spec(faults.PackageDrop(1e6),
                                     effect=faults.ConstantTime(37 * dt)), xs, triggers)
            assert int(trigs.sum()) == 37
            assert np.count_nonzero(outs == 1e6) == 37

        # bit-flip involution, bit-exact, over random masks and values
        rng = np.random.default_rng(999)
        for _ in range(2000):
            x = float(rng.uniform(-1e12, 1e12))
            mask = int(rng.integers(0, 2**64, dtype=np.uint64))
            assert faults.flip_bits(faults.flip_bits(x, mask), mask) == x

        # chaining synchrony: equal windows -> identical active step sets
        pair_cfg = make_scenario(injectors=[
            faults.FaultSpec(name="up", target_signal="plant.right_knee.pos",
                             fault_type=faults.StuckAt(),
                             event=faults.FailureProbability(p=0.002),
                             effect=faults.ConstantTime(duration=0.05),
                             chain_to="down"),
            faults.FaultSpec(name="down", target_signal="plant.right_knee.vel",
                             fault_type=faults.PackageDrop(replacement=0.0),
                             event=faults.FailureProbability(p=0.0),
                             effect=faults.ConstantTime(duration=0.05)),
        ], t_end=3.0)
        graph = engine.build_graph(pair_cfg)
        trace = engine.run(graph, pair_cfg.clock, seed=5)
        up = trace.signal("inj.up.trigger")
        down = trace.signal("inj.down.trigger")
        assert up.sum() > 0
        assert np.array_equal(up, down)


# --------------------------------------------------------------------------
# 2. stochastic soundness


def test_criterion_2_stochastic_soundness():
    with criterion(2, "stochastic soundness", budget_s=60.0):
        rng = np.random.default_rng(2024)
        ev = faults.MeanTimeToFailure(mttf=1.0, sigma=0.1)
        samples = np.array([faults.sample_activation_time(ev, 0.0, rng, 1e-3)
                            for _ in range(100_000)])
        assert abs(samples.mean() - 1.0) < 0.002
        assert abs(samples.std(ddof=1) - 0.1) < 0.01

        p = 0.0005
        spec = faults.FaultSpec(
            name="s", target_signal="sig", fault_type=faults.StuckAt(),
            event=faults.FailureProbability(p=p),
            effect=faults.ConstantTime(duration=1e-3))
        inj = faults.Injector(spec, in_signal="sig")
        rng = np.random.default_rng(99)
        n_steps = 2_000_000
        activations = sum(drive_injector(inj, [1.0] * n_steps, rng)[1])
        armed = n_steps - activations
        rate = activations / armed
        assert abs(rate - p) / p <= 0.10
        expected = armed * p
        chi2 = ((activations - expected) ** 2 / expected
                + (activations - expected) ** 2 / (armed - expected))
        assert math.erfc(math.sqrt(chi2 / 2.0)) > 0.01


# --------------------------------------------------------------------------
# 3. DMP attractor and learn/replay


def test_criterion_3_dmp_attractor_and_replay():
    with criterion(3, "DMP attractor + learn/replay", budget_s=30.0):
        dt = 1e-3
        for y0 in np.linspace(-1.5, 1.5, 5):
            for g in np.linspace(-1.0, 1.0, 5):
                for tau in (0.5, 1.0, 2.0):
                    p = dmp.make_params(tau=tau, g=float(g), y0=float(y0))
                    steps = round(4 * 10 * tau / p.alpha_z / dt)
                    ys = dmp.rollout([p], dt, steps)[:, 0]
                    assert abs(ys[-1] - g) < 1e-3
                    dev = ys - g
                    crossings = np.sum((dev[1:] * dev[:-1] < 0)
                                       & (np.abs(dev[1:]) > 1e-6))
                    assert crossings <= 1

        times, demo = load_demo_csv(data_path("demo_gait.csv"))
        fitted = dmp.learn_system_weights(times, demo, dmp.make_params(tau=1.0, g=0.0))
        table = dmp.rollout(fitted, float(times[1] - times[0]), len(times))
        for j in range(demo.shape[1]):
            rep = table[:, 3 * j]
            err = float(np.sqrt(np.mean((rep - demo[:, j]) ** 2)))
            amplitude = float(demo[:, j].max() - demo[:, j].min())
            assert err < 0.01 * amplitude, f"joint {j}: {err:.4f} vs {amplitude:.3f}"


# --------------------------------------------------------------------------
# 4. fault-free baseline


def test_criterion_4_fault_free_baseline(case_study):
    with criterion(4, "fault-free baseline", budget_s=10.0):
        out = ex.simulate(set_faults_enabled(case_study, False), seed=0)
        assert out.violations == ()
        assert out.classification is ex.Classification.NOMINAL
        assert len(out.trace) == 7000
        for j in case_study.joint_names:
            err = (out.trace.signal(f"plant.{j}.pos")
                   - out.trace.signal(f"dmp.{j}.pos"))
            assert float(np.sqrt(np.mean(err**2))) < 0.05


# --------------------------------------------------------------------------
# 5 + 6. fine sweep trend and failure threshold


def test_criterion_5_fine_sweep_trend(fine_sweep):
    result, elapsed = fine_sweep
    with criterion(5, "fine sweep trend"):
        assert elapsed < 600.0, f"sweep took {elapsed:.0f}s, budget 600s"
        means = [a["mean"]["rmse_pos_rad"] for a in result.summary["aggregates"]]
        inversions = sum(1 for i in range(len(means) - 1) if means[i + 1] < means[i])
        assert inversions <= 1
        assert means[-1] >= 5.0 * means[0]
        fit_a = result.summary["fit"]["rmse_pos_rad"]["a"]
        assert fit_a > 0.0
        print(f"    mean position RMSE {means[0]:.4f} -> {means[-1]:.4f} rad "
              f"(x{means[-1] / means[0]:.0f}), inversions={inversions}, "
              f"fit a={fit_a:.2f}")


def test_criterion_6_failure_threshold(fine_sweep):
    result, _ = fine_sweep
    with criterion(6, "failure threshold d*"):
        d_star = result.summary["d_star_s"]
        assert d_star is not None, "failure fraction never crossed 50%"
        assert 0.05 < d_star < 0.5
        d_consec = result.summary["bins"]["consecutive"]["d_star_s"]
        d_isolated = result.summary["bins"]["isolated"]["d_star_s"]
        inf = float("inf")
        assert (d_consec if d_consec is not None else inf) \
            < (d_isolated if d_isolated is not None else inf), \
            f"consecutive d*={d_consec} not below isolated d*={d_isolated}"
        print(f"    d* = {d_star:g} s (consecutive {d_consec}, isolated "
              f"{d_isolated}); reference points for comparison: 0.1 s "
              f"(consecutive) / 0.3 s (isolated)")


# --------------------------------------------------------------------------
# 7. bit-flip robustness


def test_criterion_7_bitflip_robustness(case_study):
    with criterion(7, "bit-flip robustness"):
        mantissa = ex.run_bitflip_study(case_study, "right_knee",
                                        bits=range(0, 52), n_seeds=100, base_seed=0)
        failures = [o for o in mantissa
                    if o.classification is ex.Classification.FAILURE or o.diverged]
        assert failures == [], f"mantissa flips caused failures: {failures[:3]}"

        # sign and exponent flips: reported separately, not asserted
        sign = ex.run_bitflip_study(case_study, "right_knee", bits=[63],
                                    n_seeds=12, base_seed=1)
        exponent = ex.run_bitflip_study(case_study, "right_knee",
                                        bits=range(52, 63), n_seeds=12, base_seed=2)

        def summary(outcomes):
            counts = {"Nominal": 0, "Error": 0, "Failure": 0, "diverged": 0}
            for o in outcomes:
                if o.diverged:
                    counts["diverged"] += 1
                else:
                    counts[o.classification.value] += 1
            return counts

        print(f"    mantissa flips (100 runs): {summary(mantissa)}")
        print(f"    sign-bit flips (12 runs): {summary(sign)}")
        print(f"    exponent-bit flips (12 runs): {summary(exponent)}")


# --------------------------------------------------------------------------
# 8. power equation and unit conversions


def test_criterion_8_power_and_conversions():
    with criterion(8, "power equation + rpm round trip"):
        expected = 72.9 * (2.0 * math.pi / 60.0) * 23.4  # direct evaluation
        assert abs(plant.joint_power(72.9, 23.4) - expected) < 0.01
        assert plant.joint_power(72.9, 23.4) == pytest.approx(178.63724, abs=1e-4)
        rng = np.random.default_rng(8)
        for rpm in rng.uniform(-1e4, 1e4, size=1000):
            back = plant.rad_s_to_rpm(plant.rpm_to_rad_s(float(rpm)))
            assert abs(back - rpm) <= 1e-12 * abs(rpm)


# --------------------------------------------------------------------------
# 9. end-to-end determinism across parallelism degrees


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "sweep determinism across --jobs"):
        scenario = str(data_path("case_study.json"))
        out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
        code1 = cli.main(["sweep", scenario, "--preset", "fine", "--seeds", "5",
                          "--jobs", "1", "--out", str(out1), "--quiet"])
        code8 = cli.main(["sweep", scenario, "--preset", "fine", "--seeds", "5",
                          "--jobs", "8", "--out", str(out8), "--quiet"])
        assert code1 == 0 and code8 == 0
        for name in ("sweep_results.csv", "sweep_summary.json"):
            b1 = (out1 / name).read_bytes()
            b8 = (out8 / name).read_bytes()
            assert b1 == b8, f"{name} differs between --jobs 1 and --jobs 8"
