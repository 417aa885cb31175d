"""RMSE, classification, quadratic fits, and the sweep harness."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faultbench import engine, faults
from faultbench import experiments as ex
from faultbench.plant import (DEG, JOINT_NAMES, MonitorBlock, ViolationKind, ViolationRecord,
                              default_joint_params)
from faultbench.cli import GRAPH_ERRORS
from faultbench.scenario import (ClockConfig, MonitorConfig, base_signal_names,
                                 parse_scenario, set_faults_enabled, with_injector_durations)

from conftest import make_scenario, stuck_spec
from test_cli import fault_parts, short_scenarios
from test_faults import PATH_INJECTORS, _spec


# --------------------------------------------------------------------------
# rmse


def test_rmse_identical_traces():
    a = np.arange(100.0)
    assert ex.rmse(a, a.copy()) == 0.0


def test_rmse_constant_offset():
    a = np.linspace(-1, 1, 50)
    assert ex.rmse(a + 0.5, a) == pytest.approx(0.5, rel=1e-12)


def test_rmse_half_the_samples_off_by_one():
    ref = np.zeros(10)
    faulty = ref.copy()
    faulty[:5] = 1.0
    assert ex.rmse(faulty, ref) == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_rmse_length_mismatch():
    with pytest.raises(ex.LengthMismatch):
        ex.rmse(np.zeros(5), np.zeros(6))


def test_rmse_empty_traces():
    assert ex.rmse(np.empty(0), np.empty(0)) == 0.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_rmse_non_negative_and_zero_iff_equal(vals):
    a = np.array(vals)
    assert ex.rmse(a, a) == 0.0
    assert ex.rmse(a, a + 1.0) == pytest.approx(1.0, rel=1e-9)


# --------------------------------------------------------------------------
# classification


def rec(kind):
    return ViolationRecord(t=1.0, joint="right_knee", kind=kind, value=0.0)


def test_classify_empty_is_nominal():
    assert ex.classify_run([]) is ex.Classification.NOMINAL


def test_classify_torque_error():
    assert ex.classify_run([rec(ViolationKind.TORQUE_ERROR)]) is ex.Classification.ERROR


def test_classify_speed_error():
    assert ex.classify_run([rec(ViolationKind.SPEED_ERROR)]) is ex.Classification.ERROR


def test_classify_failure_dominates_errors():
    records = [rec(ViolationKind.TORQUE_ERROR)] * 3 + [rec(ViolationKind.ANGLE_FAILURE)]
    assert ex.classify_run(records) is ex.Classification.FAILURE


# --------------------------------------------------------------------------
# quadratic fit


def test_fit_exact_parabola():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    fit = ex.fit_quadratic(xs, xs**2)
    assert fit.a == pytest.approx(1.0, abs=1e-9)
    assert fit.b == pytest.approx(0.0, abs=1e-9)
    assert fit.c == pytest.approx(0.0, abs=1e-9)
    assert fit.residual < 1e-9


def test_fit_collinear_points():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    fit = ex.fit_quadratic(xs, 2.0 * xs + 1.0)
    assert abs(fit.a) < 1e-9
    assert fit.b == pytest.approx(2.0, abs=1e-9)
    assert fit.c == pytest.approx(1.0, abs=1e-9)


def test_fit_degenerate_inputs():
    with pytest.raises(ex.DegenerateFit):
        ex.fit_quadratic([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ex.DegenerateFit):
        ex.fit_quadratic([1.0, 2.0], [0.0, 0.0])


def test_fit_matches_normal_equations():
    rng = np.random.default_rng(11)
    xs = np.linspace(0.05, 0.5, 10)
    ys = 3.0 * xs**2 - 0.2 * xs + 0.01 + rng.normal(0, 0.01, size=10)
    fit = ex.fit_quadratic(xs, ys)
    # independent solve via the normal equations
    A = np.vander(xs, 3)
    coef = np.linalg.solve(A.T @ A, A.T @ ys)
    assert fit.a == pytest.approx(coef[0], rel=1e-6)
    assert fit.b == pytest.approx(coef[1], rel=1e-6)
    assert fit.c == pytest.approx(coef[2], rel=1e-6)


# --------------------------------------------------------------------------
# sweep harness


def chained_pair(duration=0.25):
    from faultbench import faults
    a = stuck_spec(name="a_pos", target="plant.right_knee.pos", p=0.0005,
                   duration=duration, chain_to="b_vel")
    b = faults.FaultSpec(
        name="b_vel", target_signal="plant.right_knee.vel",
        fault_type=faults.PackageDrop(replacement=0.0),
        event=faults.FailureProbability(p=0.0),
        effect=faults.ConstantTime(duration=duration),
    )
    return [a, b]


def small_plan(durations, seeds=2, t_end=2.0):
    cfg = make_scenario(injectors=chained_pair(), t_end=t_end)
    return ex.SweepPlan(scenario=cfg, durations=tuple(durations),
                        seeds_per_duration=seeds, base_seed=0)


def test_degenerate_zero_duration_plan():
    plan = small_plan([0.0], seeds=3)
    res = ex.run_sweep(plan)
    assert all(c.rmse_pos == 0.0 and c.rmse_vel == 0.0 and c.rmse_torque == 0.0
               for c in res.cells)
    assert all(c.classification is ex.Classification.NOMINAL for c in res.cells)


def test_sweep_jobs_equivalence(tmp_path):
    plan = small_plan([0.05, 0.2], seeds=2, t_end=1.5)
    res1 = ex.run_sweep(plan, jobs=1)
    res2 = ex.run_sweep(plan, jobs=2)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    ex.write_results_csv(res1, p1)
    ex.write_results_csv(res2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    ex.write_summary_json(res1, s1)
    ex.write_summary_json(res2, s2)
    assert s1.read_bytes() == s2.read_bytes()


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    ex.run_sweep(small_plan([0.05], seeds=2, t_end=0.1), jobs=4)
    assert asked == [2]


def test_sweep_cell_seed_paired_across_durations():
    # same seed slot -> same first activation step across durations
    plan = small_plan([0.05, 0.1], seeds=1, t_end=2.0)
    assert ex.cell_seed(0, 0) == ex.cell_seed(0, 0)
    assert ex.cell_seed(0, 0) != ex.cell_seed(0, 1)
    assert ex.cell_seed(0, 0) != ex.cell_seed(1, 0)


def read_results_csv(path) -> list[dict]:
    """The rows of a ``sweep_results.csv``, one dict per cell."""
    rows = []
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != ex.RESULTS_HEADER:
            raise ValueError(f"unexpected results header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d, seed, rp, rv, rt, cls = line.split(",")
            rows.append({
                "duration_s": float(d), "seed": int(seed), "rmse_pos_rad": float(rp),
                "rmse_vel_rad_s": float(rv), "rmse_torque_Nm": float(rt),
                "classification": ex.Classification(cls),
            })
    return rows


def test_sweep_results_csv_round_trip(tmp_path):
    plan = small_plan([0.05, 0.15, 0.3], seeds=2, t_end=1.0)
    res = ex.run_sweep(plan)
    path = tmp_path / "sweep_results.csv"
    ex.write_results_csv(res, path)
    rows = read_results_csv(path)
    assert len(rows) == len(res.cells) == 6
    for row, cell in zip(rows, res.cells):
        assert row["duration_s"] == cell.duration_s
        assert row["seed"] == cell.seed_index
        assert row["classification"] is cell.classification
        assert row["rmse_pos_rad"] == pytest.approx(cell.rmse_pos, rel=1e-8)


def test_sweep_summary_json_round_trip(tmp_path):
    plan = small_plan([0.05, 0.15, 0.3], seeds=2, t_end=1.0)
    res = ex.run_sweep(plan)
    path = tmp_path / "sweep_summary.json"
    ex.write_summary_json(res, path)
    summary = json.loads(path.read_text())
    assert summary == res.summary
    assert summary["durations_s"] == [0.05, 0.15, 0.3]
    assert summary["seeds_per_duration"] == 2
    assert {a["duration_s"] for a in summary["aggregates"]} == {0.05, 0.15, 0.3}
    assert set(summary["fit"]) == {"rmse_pos_rad", "rmse_vel_rad_s", "rmse_torque_nm"}
    assert "consecutive" in summary["bins"] and "isolated" in summary["bins"]


def cell(d, seed_index, cls="Nominal", n_activations=0, min_gap_s=None, rmse_pos=0.0):
    return ex.CellResult(duration_s=d, seed_index=seed_index, rmse_pos=rmse_pos,
                         rmse_vel=0.0, rmse_torque=0.0,
                         classification=ex.Classification(cls),
                         n_activations=n_activations, min_gap_s=min_gap_s)


def summarize_cells(durations, cells):
    plan = ex.SweepPlan(scenario=None, durations=tuple(durations),
                        seeds_per_duration=2, base_seed=7)
    return ex.summarize(plan, cells)


def test_summarize_half_failing_crosses_d_star():
    cells = [cell(0.1, 0), cell(0.1, 1, "Error"),
             cell(0.2, 0, "Failure"), cell(0.2, 1),
             cell(0.3, 0, "Failure"), cell(0.3, 1, "Failure")]
    summary = summarize_cells((0.1, 0.2, 0.3), cells)
    assert [a["failure_fraction"] for a in summary["aggregates"]] == [0.0, 0.5, 1.0]
    assert summary["aggregates"][0]["classifications"] == {
        "Nominal": 1, "Error": 1, "Failure": 0}
    assert summary["d_star_s"] == 0.2
    assert summary["gap_threshold_s"] == ex.GAP_THRESHOLD_S == 0.5
    assert (summary["base_seed"], summary["seeds_per_duration"]) == (7, 2)


def test_summarize_bins_runs_by_their_minimum_gap():
    below = math.nextafter(0.5, 0.0)
    cells = [cell(0.1, 0, "Failure", n_activations=2, min_gap_s=below),
             cell(0.1, 1, "Failure", n_activations=2, min_gap_s=0.5),
             cell(0.2, 0, "Failure", n_activations=1),
             cell(0.2, 1, "Failure", n_activations=3, min_gap_s=0.01),
             cell(0.3, 0), cell(0.3, 1)]
    bins = summarize_cells((0.1, 0.2, 0.3), cells)["bins"]
    # a gap of exactly the threshold, or a single activation, is isolated
    assert bins == {"consecutive": {"d_star_s": 0.1, "runs": 2},
                    "isolated": {"d_star_s": 0.1, "runs": 4}}
    assert bins["consecutive"]["runs"] + bins["isolated"]["runs"] == len(cells)


def test_summarize_bin_without_runs_has_no_d_star():
    cells = [cell(d, si, "Failure") for d in (0.1, 0.2) for si in range(2)]
    assert summarize_cells((0.1, 0.2), cells)["bins"] == {
        "consecutive": {"d_star_s": None, "runs": 0},
        "isolated": {"d_star_s": 0.1, "runs": 4}}


def test_summarize_fits_three_or_more_durations_only():
    cells = [cell(d, si, rmse_pos=d * d) for d in (0.1, 0.2, 0.3) for si in range(2)]
    assert summarize_cells((0.1, 0.2), cells[:4])["fit"] == {}
    fit = summarize_cells((0.1, 0.2, 0.3), cells)["fit"]
    assert set(fit) == {"rmse_pos_rad", "rmse_vel_rad_s", "rmse_torque_nm"}
    assert fit["rmse_pos_rad"]["a"] == pytest.approx(1.0)
    assert set(fit["rmse_pos_rad"]) == {"a", "b", "c", "residual"}


def test_sweep_requires_increasing_distinct_durations():
    with pytest.raises(ValueError):
        ex.run_sweep(small_plan([0.2, 0.1]))
    with pytest.raises(ValueError):
        ex.run_sweep(small_plan([0.1, 0.1]))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("durations", [(math.nan, 0.1), (0.1, math.nan),
                                       (0.1, math.inf), (-math.inf, 0.1), (-0.1, 0.2), ()])
def test_sweep_rejects_repeated_non_finite_or_negative_durations(durations, jobs, monkeypatch):
    monkeypatch.setattr(ex, "simulate", None)  # no cell may run
    with pytest.raises(ValueError, match="distinct|finite and non-negative|at least one"):
        ex.run_sweep(small_plan(durations), jobs=jobs)


def spy_simulate(monkeypatch):
    """Record whether some injector is enabled, the monitored signals and
    the trace columns of every run."""
    runs = []
    simulate = ex.simulate

    def spy(cfg, seed=None, reference=None):
        out = simulate(cfg, seed=seed, reference=reference)
        runs.append((any(spec.enabled for spec in cfg.injectors), cfg.monitors.signals,
                     out.trace.columns))
        return out
    monkeypatch.setattr(ex, "simulate", spy)
    return runs


def test_sweep_cells_record_the_three_columns_they_read(monkeypatch):
    runs = spy_simulate(monkeypatch)
    cfg = make_scenario(injectors=chained_pair(), t_end=0.5, monitored=("dmp.right_knee.acc",))
    ex.run_sweep(ex.SweepPlan(scenario=cfg, durations=(0.05, 0.1), seeds_per_duration=2))
    columns = ("plant.right_knee.pos", "plant.right_knee.vel", "plant.right_knee.torque")
    assert runs == [(enabled, columns, columns) for _ in range(4) for enabled in (False, True)]


def test_probes_record_no_column(case_study_cfg, monkeypatch):
    runs = spy_simulate(monkeypatch)
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.8))
    ex.run_bitflip_study(cfg, "right_knee", bits=range(52), n_seeds=1)
    ex.run_small_fault_probes(cfg, "right_knee", n_seeds=1)
    assert runs == [(True, (), ())] * 3


def test_sweep_requires_a_seed_per_duration():
    for seeds in (0, -1):
        with pytest.raises(ValueError):
            ex.run_sweep(small_plan([0.1], seeds=seeds))


def test_plan_resolution(case_study_cfg):
    plan = ex.SweepPlan(scenario=case_study_cfg, durations=(0.1,))
    assert plan.resolved_varied() == ("knee_pos_stuck", "knee_vel_freeze")
    assert plan.resolved_primary() == "knee_pos_stuck"
    assert plan.metric_joint() == "right_knee"


def test_plan_without_constant_time_injector_rejected():
    cfg = make_scenario(injectors=())
    plan = ex.SweepPlan(scenario=cfg, durations=(0.1,))
    with pytest.raises(ValueError):
        plan.resolved_varied()


def test_presets_match_declared_grids():
    assert len(ex.FINE_DURATIONS) == 10
    assert ex.FINE_DURATIONS[0] == 0.05 and ex.FINE_DURATIONS[-1] == 0.5
    assert len(ex.COARSE_DURATIONS) == 11
    assert ex.COARSE_DURATIONS[0] == 0.5 and ex.COARSE_DURATIONS[-1] == 3.0
    steps_fine = np.diff(ex.FINE_DURATIONS)
    steps_coarse = np.diff(ex.COARSE_DURATIONS)
    assert np.allclose(steps_fine, 0.05) and np.allclose(steps_coarse, 0.25)


def test_activation_windows_from_a_log():
    # the log of the trigger line [0, 1, 1, 0, 0, 0, 1, 0, 0, 1]
    n, gap = ex._activation_windows([(1, 2), (6, 1), (9, 1)], 0.1)
    assert n == 3
    assert gap == pytest.approx(0.2)  # two inactive steps between windows 2 and 3
    # a window that starts where the last one ends extends it
    assert ex._activation_windows([(0, 3), (3, 3), (10, None)], 0.5) == (2, 2.0)
    assert ex._activation_windows([(4, None)], 0.1) == (1, None)
    assert ex._activation_windows([], 0.1) == (0, None)


def trigger_windows(active, dt):
    """Windows and their minimum gap as the trigger line shows them: the
    reference that the activation log must reproduce."""
    starts, ends = [], []
    prev = False
    for k, a in enumerate(active):
        if a and not prev:
            starts.append(k)
        if not a and prev:
            ends.append(k - 1)
        prev = a
    if prev:
        ends.append(len(active) - 1)
    if len(starts) < 2:
        return len(starts), None
    return len(starts), min((starts[i + 1] - ends[i] - 1) * dt
                            for i in range(len(starts) - 1))


def check_log_against_trigger(cfg, name, seed):
    """Run ``cfg`` recording injector ``name``'s trigger line; its log must
    cover exactly the active steps and give the line's windows. Returns the
    log."""
    cfg = replace(cfg, monitors=MonitorConfig(signals=(f"inj.{name}.trigger",)))
    out = ex.simulate(cfg, seed=seed)
    active = out.trace.signal(f"inj.{name}.trigger") >= 0.5
    log = out.activations[name]
    logged = np.zeros(len(active), dtype=bool)
    for start, steps in log:
        logged[start:None if steps is None else start + steps] = True
    assert np.array_equal(logged, active)
    dt = cfg.clock.dt_s
    assert ex._activation_windows(log, dt) == trigger_windows(active, dt)
    return log


@pytest.mark.parametrize("seed", [0, 1, 18])
def test_activation_log_matches_the_trigger_line(case_study_cfg, seed):
    check_log_against_trigger(case_study_cfg, "knee_pos_stuck", seed)


def test_touching_activations_make_one_window():
    # p = 1 re-activates on the step after each 3-step window ends, so the
    # trigger line is all ones
    cfg = make_scenario(injectors=[stuck_spec(p=1.0, duration=0.003)], t_end=0.05)
    log = check_log_against_trigger(cfg, "stuck", 0)
    assert len(log) == 17
    assert ex._activation_windows(log, cfg.clock.dt_s) == (1, None)


def test_chained_injectors_log_in_lockstep(case_study_cfg):
    out = ex.simulate(case_study_cfg, seed=0)
    assert out.activations["knee_pos_stuck"]
    assert out.activations["knee_pos_stuck"] == out.activations["knee_vel_freeze"]


def test_reference_run_is_fault_free(case_study_cfg):
    out = ex.simulate(set_faults_enabled(case_study_cfg, False), seed=0)
    assert out.classification is ex.Classification.NOMINAL
    assert out.violations == ()


def test_a_torque_fault_past_the_rating_is_a_torque_error(case_study_cfg):
    push = _spec("push", "plant.right_knee.torque", faults.Bias(100.0),
                 faults.FailureProbability(1.0), faults.ConstantTime(0.01))
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.3), injectors=(push,))
    first = ex.simulate(cfg, seed=0).violations[0]
    # the demand is about 0.005 N*m, within the 54.9 N*m rating; the joint gets 100 more
    assert (first.t, first.joint, first.kind) == (0.0, "right_knee", ViolationKind.TORQUE_ERROR)
    assert first.value == pytest.approx(100.0046, abs=1e-4)


def test_divergence_carries_cell_context_across_processes():
    import math
    import pickle
    from faultbench import engine, faults
    bad = faults.FaultSpec(
        name="inf_drop", target_signal="plant.right_knee.pos",
        fault_type=faults.PackageDrop(replacement=math.inf),
        event=faults.FailureProbability(p=1.0),
        effect=faults.ConstantTime(duration=0.05),
    )
    cfg = make_scenario(injectors=[bad], t_end=0.5)
    plan = ex.SweepPlan(scenario=cfg, durations=(0.05,), seeds_per_duration=1,
                        base_seed=0)
    with pytest.raises(engine.NumericalDivergence) as exc_info:
        ex.run_sweep(plan, jobs=2)  # crosses a process boundary
    assert exc_info.value.cell == (0.05, 0)
    clone = pickle.loads(pickle.dumps(exc_info.value))
    assert clone.cell == (0.05, 0) and clone.block == "inj.inf_drop"


# --------------------------------------------------------------------------
# a sweep cell's faulty run simulates only the faulted joints


def six_joints(t_end, limits=None, injectors=()):
    """The case-study joints on the gait demo, with ``limits`` giving a
    joint's ``rot_max`` [deg] in place of its default."""
    cfg = make_scenario(joints=JOINT_NAMES, demo="demo_gait.csv", t_end=t_end,
                        injectors=injectors)
    joints = tuple(default_joint_params(p.name, rot_max=limits[p.name] * DEG)
                   if p.name in (limits or {}) else p for p in cfg.joints)
    return replace(cfg, joints=joints)


# Both hips leave a tight range of travel in the fault-free run, left_hip
# from step 0 and right_hip from about step 270, so the reference's records
# interleave with a cut run's.
TIGHT_HIPS = {"left_hip": 8.3, "right_hip": 8.7}
# every fault path, and a bias on a DMP target
CUT_INJECTORS = PATH_INJECTORS + [faults.FaultSpec(
    name="target", target_signal="dmp.right_ankle.pos", fault_type=faults.Bias(0.05),
    event=faults.FailureProbability(0.004), effect=faults.ConstantTime(0.05))]
CUT_SEED = 2  # every enabled injector fires within 0.7 s


@pytest.fixture(scope="module")
def tight_hips_reference():
    return ex.simulate(six_joints(0.7, TIGHT_HIPS), seed=CUT_SEED)


@pytest.mark.parametrize("subset", [
    subset for r in range(1, len(JOINT_NAMES) + 1)
    for subset in itertools.combinations(JOINT_NAMES, r)], ids="+".join)
def test_a_run_cut_to_its_faulted_joints_matches_the_full_run(subset, tight_hips_reference):
    injectors = [s for s in CUT_INJECTORS if s.target_signal.split(".")[1] in subset]
    cfg = six_joints(0.7, TIGHT_HIPS, injectors)
    full = ex.simulate(cfg, seed=CUT_SEED)
    cut = ex.simulate(cfg, seed=CUT_SEED, reference=tight_hips_reference)
    assert ex._faulted_joints(cfg) == subset
    cut_away = set(JOINT_NAMES) - set(subset)
    assert cut.trace.columns == tuple(c for c in full.trace.columns
                                      if c.split(".")[1] not in cut_away)
    assert_matches_full_run(cut, full)


def test_a_scenario_without_injectors_returns_its_reference(tight_hips_reference,
                                                             monkeypatch):
    monkeypatch.setattr(MonitorBlock, "emit", lambda *args: pytest.fail("a step ran"))
    out = ex.simulate(six_joints(0.7, TIGHT_HIPS), seed=CUT_SEED, reference=tight_hips_reference)
    assert out.trace.columns == ("monitor.violations",)
    assert np.array_equal(out.trace.data[:, 0],
                          tight_hips_reference.trace.signal("monitor.violations"))
    assert (out.violations, out.classification, out.activations) == \
        (tight_hips_reference.violations, tight_hips_reference.classification, {})
    assert out.classification is ex.Classification.FAILURE


def test_the_cut_runs_fire_every_fault_path_and_the_hips_interleave(tight_hips_reference):
    full = ex.simulate(six_joints(0.7, TIGHT_HIPS, CUT_INJECTORS), seed=CUT_SEED)
    assert [name for name, log in full.activations.items() if not log] == ["off"]
    steps = {j: {round(v.t / 1e-3) for v in tight_hips_reference.violations if v.joint == j}
             for j in TIGHT_HIPS}
    assert steps["left_hip"] & steps["right_hip"]


def test_a_cell_is_classified_from_the_reference_on_the_joints_it_cuts():
    # right_knee is faulted; left_hip violates in the fault-free run already
    cfg = six_joints(0.3, {"left_hip": 8.3}, chained_pair())
    plan = ex.SweepPlan(scenario=cfg, durations=(0.05,), seeds_per_duration=1)
    faulty = with_injector_durations(cfg, plan.resolved_varied(), 0.05)
    full = ex.simulate(faulty, seed=ex.cell_seed(0, 0))
    assert full.classification is ex.Classification.FAILURE
    assert ex.run_sweep(plan).cells[0].classification is full.classification


def test_a_diverging_cut_cell_raises_what_the_full_run_raised():
    flip = faults.FaultSpec(
        name="exp_flip", target_signal="plant.right_knee.pos",
        fault_type=faults.BitFlip(n_bits=1, bit_positions=(62,)),
        event=faults.MeanTimeToFailure(0.1, 0.02), effect=faults.ConstantTime(0.05))
    cfg = six_joints(0.3, injectors=[flip])
    plan = ex.SweepPlan(scenario=cfg, durations=(0.05,), seeds_per_duration=1)
    with pytest.raises(engine.NumericalDivergence) as full:
        ex.simulate(with_injector_durations(cfg, ("exp_flip",), 0.05), seed=ex.cell_seed(0, 0))
    with pytest.raises(engine.NumericalDivergence) as cut:
        ex.run_sweep(plan)
    expected = full.value
    assert (cut.value.t, cut.value.block, cut.value.signal, cut.value.cell) \
        == (expected.t, expected.block, expected.signal, (0.05, 0))
    assert np.array_equal([cut.value.value], [expected.value], equal_nan=True)


# --------------------------------------------------------------------------
# a faulty run against its reference starts at its first activation


KNEE_POS, KNEE_VEL = "plant.right_knee.pos", "plant.right_knee.vel"
# (scenario, seed, first activation or None for one inside the run)
RESTARTED_RUNS = [
    pytest.param(six_joints(0.7, TIGHT_HIPS, CUT_INJECTORS), seed, None,
                 id=f"every-path-seed{seed}") for seed in range(3)
] + [
    pytest.param(six_joints(0.7, TIGHT_HIPS, [s for s in CUT_INJECTORS if s.name in
                                              ("noise", "up", "down")]),
                 CUT_SEED, None, id="cut-to-two-joints"),
    # the reference's records on the hips, which are cut away, are not the run's
    pytest.param(six_joints(0.7, TIGHT_HIPS, [s for s in CUT_INJECTORS if s.name in
                                              ("up", "down")]),
                 CUT_SEED, None, id="cut-to-right-knee"),
    pytest.param(make_scenario(t_end=1.0, injectors=[_spec(
        "flip", KNEE_POS, faults.BitFlip(n_bits=1, bit_positions=(40,)),
        faults.MeanTimeToFailure(0.3), faults.ConstantTime(0.05))]), 0, 300, id="mttf"),
    pytest.param(make_scenario(t_end=1.0, injectors=[_spec(
        "noise", KNEE_VEL, faults.Noise(20.0), faults.MeanTimeToFailure(0.3, 0.1),
        faults.MeanTimeToRepair(0.05, 0.02))]), 3, None, id="mttf-sigma"),
    pytest.param(make_scenario(t_end=1.0, injectors=[
        _spec("up", "dmp.right_knee.pos", faults.StuckAt(), faults.FailureProbability(0.005),
              faults.ConstantTime(0.05), chain_to="down"),
        _spec("down", KNEE_VEL, faults.Noise(30.0), faults.FailureProbability(0.0),
              faults.ConstantTime(0.05)),
        _spec("torque", "plant.right_knee.torque", faults.Bias(5.0),
              faults.FailureProbability(0.002), faults.MeanTimeToRepair(0.02, 0.01))]),
        1, None, id="chained-drawing"),
    pytest.param(make_scenario(t_end=1.0, injectors=[_spec(
        "delay", KNEE_POS, faults.TimeDelay(0.1), faults.MeanTimeToFailure(0.02),
        faults.ConstantTime(0.2))]), 0, 20, id="delay-longer-than-k"),
    pytest.param(make_scenario(t_end=1.0, injectors=[stuck_spec(p=1.0, duration=0.05)]),
                 0, 0, id="k0"),
    pytest.param(make_scenario(t_end=1.0, injectors=[_spec(
        "drop", KNEE_POS, faults.PackageDrop(0.0), faults.MeanTimeToFailure(1e-3),
        faults.Once())]), 0, 1, id="k1"),
    pytest.param(make_scenario(t_end=1.0, injectors=[
        _spec("noise", KNEE_POS, faults.Noise(5.0), faults.FailureProbability(0.0),
              faults.ConstantTime(0.05)),
        stuck_spec(name="off", p=0.5, enabled=False)]), 0, 1000, id="never"),
]


def assert_matches_full_run(restarted, full):
    """A run against its reference holds the full run's columns of the
    joints it holds, equal but for ``monitor.violations``, which counts the
    held joints' records only from the first window on, and the full run's
    activations and violations."""
    assert set(restarted.trace.columns) <= set(full.trace.columns)
    assert np.array_equal(restarted.trace.t, full.trace.t)
    for column in restarted.trace.columns:
        if column != "monitor.violations":
            assert np.array_equal(restarted.trace.signal(column), full.trace.signal(column),
                                  equal_nan=True), column
    assert (restarted.activations, restarted.violations) == (full.activations, full.violations)
    # each record's t is its step's trace.t, bit for bit: the merge compares it exactly
    step_of = {t: k for k, t in enumerate(full.trace.t.tolist())}
    assert all(v.t in step_of for v in restarted.violations + full.violations)
    if "monitor.violations" in full.trace.columns:
        steps = np.array([step_of[v.t] for v in full.violations], dtype=int)
        assert np.array_equal(np.bincount(steps, minlength=len(full.trace)),
                              full.trace.signal("monitor.violations"))


@pytest.mark.parametrize("cfg,seed,first", RESTARTED_RUNS)
def test_a_restarted_run_returns_what_the_full_run_returns(cfg, seed, first):
    reference = ex.simulate(replace(cfg, injectors=()), seed=seed)  # every signal, every joint
    full = ex.simulate(cfg, seed=seed)
    k = first_window(full, cfg.clock.n_steps)
    assert k == first if first is not None else 1 < k < cfg.clock.n_steps
    assert_matches_full_run(ex.simulate(cfg, seed=seed, reference=reference), full)


def first_window(out, n_steps=None):
    """The first step of a run's first logged window, or ``n_steps``."""
    return min((log[0][0] for log in out.activations.values() if log), default=n_steps)


def run_or_divergence(cfg, **kwargs):
    """The run's output, or what its divergence reports."""
    try:
        return ex.simulate(cfg, **kwargs)
    except engine.NumericalDivergence as exc:
        return (exc.t, exc.block, exc.signal, repr(exc.value))


def assert_restarts_match_full_runs(raw):
    """A valid scenario's run against its reference returns what the full
    run returns, or raises what it raises."""
    cfg, violations = parse_scenario(raw, Path("."))
    assume(not violations)
    cfg = replace(cfg, monitors=MonitorConfig(signals=None))  # may monitor a cut joint
    try:
        engine.build_graph(cfg)
        reference = ex.simulate(replace(cfg, injectors=()))
    except (*GRAPH_ERRORS, engine.NumericalDivergence):
        assume(False)
    full = run_or_divergence(cfg)
    restarted = run_or_divergence(cfg, reference=reference)
    if isinstance(full, tuple):
        assert restarted == full
    else:
        assert_matches_full_run(restarted, full)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(short_scenarios())
def test_restarted_runs_of_valid_scenarios_match_their_full_runs(raw):
    assert_restarts_match_full_runs(raw)


@st.composite
def restartable_scenarios(draw):
    """A 0.3 s scenario whose one to three injectors, of every fault type and
    effect, are likely to fire first inside the run."""
    six = draw(st.booleans())
    joints = list(JOINT_NAMES) if six else ["right_knee"]
    raw = {"clock": {"dt_s": 1e-3, "t_end_s": 0.3}, "joints": [{"name": j} for j in joints],
           "dmp": {"demo_file": "demo_gait.csv" if six else "demo_minimal.csv"},
           "seed": draw(st.integers(0, 2**64 - 1)), "injectors": []}
    names = [f"inj{k}" for k in range(draw(st.integers(1, 3)))]
    for name in names:
        fault_type, event, effect = draw(fault_parts(1e-3))
        if event["kind"] == "failure_probability":
            event["p"] = draw(st.sampled_from([0.0, 0.003, 0.01, 0.05]))
        else:
            event["mttf"] = draw(st.floats(1e-4, 0.4))
            event.pop("sigma", None)
            if draw(st.booleans()):
                event["sigma"] = draw(st.floats(0.0, 0.2))
        raw["injectors"].append({
            "name": name, "target_signal": draw(st.sampled_from(base_signal_names(joints))),
            "fault_type": fault_type, "event": event, "effect": effect,
            "enabled": draw(st.sampled_from([True, True, False])),
            "chain_to": draw(st.one_of(st.none(), st.sampled_from(names))),
        })
    return raw


@settings(max_examples=100, derandomize=True, deadline=None)
@given(restartable_scenarios())
def test_restarted_runs_of_random_fault_mixes_match_their_full_runs(raw):
    assert_restarts_match_full_runs(raw)


def test_the_golden_run_violates_on_a_faulted_joint_before_the_restart():
    cfg = six_joints(0.7, TIGHT_HIPS, CUT_INJECTORS)
    full = ex.simulate(cfg, seed=CUT_SEED)
    k = first_window(full)
    golden = ex.simulate(replace(cfg, injectors=()), seed=CUT_SEED)
    assert {v.joint for v in golden.violations if v.t < k * 1e-3} == {"left_hip"}
    assert {"noise", "up"} <= {name for name, log in full.activations.items() if log}


@pytest.mark.parametrize("seed", range(12))
def test_a_run_logs_every_window_its_injectors_draw(case_study_cfg, seed):
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=2.0))
    graph = engine.build_graph(cfg, ("right_knee",))
    engine.run(graph, cfg.clock, seed)
    injectors = [b for b in graph.blocks if isinstance(b, faults.Injector)]
    assert [b.activations for b in injectors] == [b.windows for b in injectors]
    # a window of no steps logs nothing and starts no restart: no step runs
    empty = with_injector_durations(cfg, ("knee_pos_stuck", "knee_vel_freeze"), 0.0)
    assert ex.simulate(empty, seed=seed).activations == {"knee_pos_stuck": (),
                                                         "knee_vel_freeze": ()}
    golden = ex.simulate(replace(cfg, injectors=()), seed=seed)
    graph = engine.build_graph(empty)
    graph.blocks[0].state_outputs = lambda *args: pytest.fail("a step ran")
    restarted = engine.run(graph, cfg.clock, seed, golden.trace)
    for column in golden.trace.columns:
        assert np.array_equal(restarted.signal(column), golden.trace.signal(column)), column


def unskipped_cell(cfg, plan, duration, seed_index) -> ex.CellResult:
    """A sweep cell from a full reference and a full faulty run."""
    seed = ex.cell_seed(plan.base_seed, seed_index)
    reference = ex.simulate(set_faults_enabled(cfg, False), seed=seed)
    out = ex.simulate(with_injector_durations(cfg, plan.resolved_varied(), duration), seed=seed)
    joint = plan.metric_joint()
    n_act, min_gap = ex._activation_windows(out.activations[plan.resolved_primary()],
                                            cfg.clock.dt_s)
    return ex.CellResult(duration, seed_index,
                         *map(ex.rmse, ex._joint_columns(out.trace, joint),
                              ex._joint_columns(reference.trace, joint)),
                         classification=out.classification, n_activations=n_act,
                         min_gap_s=min_gap)


@pytest.mark.parametrize("scenario", ["case-study", "knee-violates-before-k"])
def test_a_cell_equals_the_one_its_unskipped_runs_give(case_study_cfg, scenario):
    if scenario == "case-study":
        cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=2.0))
    else:  # right_knee leaves its range from step 525 to 1840 in the reference
        cfg = six_joints(2.0, {"right_knee": -45.0}, chained_pair())
    plan = ex.SweepPlan(scenario=cfg, durations=(0.05, 0.3), seeds_per_duration=8)
    cfg = replace(cfg, monitors=MonitorConfig(signals=ex._joint_signals(plan.metric_joint())))
    cells = [ex._run_cell(cfg, plan.resolved_varied(), plan.resolved_primary(),
                          plan.metric_joint(), d, si, plan.base_seed)
             for d in plan.durations for si in range(plan.seeds_per_duration)]
    assert cells == [unskipped_cell(cfg, plan, d, si)
                     for d in plan.durations for si in range(plan.seeds_per_duration)]
    assert {c.n_activations for c in cells} >= {0, 1}  # some slots never fire
    if scenario == "case-study":
        assert len({c.classification for c in cells}) > 1
