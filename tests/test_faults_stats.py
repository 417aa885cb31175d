"""Statistical soundness of the stochastic fault event and effect models.

Fixed seeds make these tests deterministic; the sample sizes put the
asserted tolerances several standard deviations out, so they only fail if
the sampling itself is wrong.
"""

import math

import numpy as np

from faultbench import faults

from conftest import drive_injector

DT = 1e-3


def test_mttf_sample_moments():
    rng = np.random.default_rng(2024)
    ev = faults.MeanTimeToFailure(mttf=1.0, sigma=0.1)
    n = 100_000
    samples = np.array([faults.sample_activation_time(ev, 0.0, rng, DT)
                        for _ in range(n)])
    assert abs(samples.mean() - 1.0) < 0.002
    assert abs(samples.std(ddof=1) - 0.1) < 0.01


def test_mttr_sample_moments():
    rng = np.random.default_rng(77)
    eff = faults.MeanTimeToRepair(mttr=0.2, sigma=0.05)
    n = 100_000
    samples = np.array([faults.sample_exposure(eff, rng, DT) for _ in range(n)])
    assert abs(samples.mean() - 0.2) < 0.001
    assert abs(samples.std(ddof=1) - 0.05) < 0.005


def test_failure_probability_rate_chi_square():
    # single-step windows: every non-active step is an armed Bernoulli trial
    p = 0.0005
    spec = faults.FaultSpec(
        name="s", target_signal="sig", fault_type=faults.StuckAt(),
        event=faults.FailureProbability(p=p),
        effect=faults.ConstantTime(duration=DT),
    )
    inj = faults.Injector(spec, in_signal="sig")
    rng = np.random.default_rng(99)
    n_steps = 2_000_000
    activations = sum(drive_injector(inj, [1.0] * n_steps, rng)[1])
    armed_steps = n_steps - activations
    rate = activations / armed_steps
    assert abs(rate - p) / p <= 0.10

    # chi-square against Binomial(armed_steps, p), 1 degree of freedom
    expected = armed_steps * p
    chi2 = (activations - expected) ** 2 / expected \
        + (armed_steps - activations - (armed_steps - expected)) ** 2 / (armed_steps - expected)
    p_value = math.erfc(math.sqrt(chi2 / 2.0))
    assert p_value > 0.01


def test_expected_activation_count_per_run():
    # 7000-step runs at p = 0.0005: about 3.5 activations each before
    # exposure windows suppress re-arming (single-step windows here)
    p = 0.0005
    spec = faults.FaultSpec(
        name="s", target_signal="sig", fault_type=faults.StuckAt(),
        event=faults.FailureProbability(p=p),
        effect=faults.ConstantTime(duration=DT),
    )
    n_runs, n_steps = 400, 7000
    counts = np.empty(n_runs)
    for r in range(n_runs):
        inj = faults.Injector(spec, in_signal="sig")
        rng = np.random.default_rng(np.random.SeedSequence([123, r]))
        counts[r] = sum(drive_injector(inj, [0.0] * n_steps, rng)[1])
    # Binomial mean 3.5, sd of the sample mean ~ 1.87 / sqrt(400) = 0.094
    assert abs(counts.mean() - 3.5) < 0.35


def test_bit_choice_without_replacement():
    rng = np.random.default_rng(5)
    spec = faults.FaultSpec(
        name="s", target_signal="sig",
        fault_type=faults.BitFlip(n_bits=64, bit_positions="random"),
        event=faults.FailureProbability(p=1.0),
        effect=faults.Once(),
    )
    inj = faults.Injector(spec, in_signal="sig")
    drive_injector(inj, [1.0], rng)
    # all 64 distinct bits flipped: the full complement mask
    assert inj._draws == [2**64 - 1]
