"""Graph construction, execution order, determinism, and trace I/O."""

import io
import math

import numpy as np
import pytest

from faultbench import dmp, engine, faults, plant
from faultbench.blocks import Block, slot_range
from faultbench.scenario import ClockConfig, MonitorConfig

from conftest import make_scenario, read_trace_csv, stuck_spec


def run_cfg(cfg, seed=0):
    graph = engine.build_graph(cfg)
    return graph, engine.run(graph, cfg.clock, seed)


# --------------------------------------------------------------------------
# construction


def test_minimal_graph_has_three_nodes(minimal_cfg):
    graph = engine.build_graph(minimal_cfg)
    assert [b.name for b in graph.blocks] == ["dmp", "plant", "monitor"]


def test_case_study_chains_trigger(case_study_cfg):
    graph = engine.build_graph(case_study_cfg)
    names = [b.name for b in graph.blocks]
    assert "inj.knee_pos_stuck" in names and "inj.knee_vel_freeze" in names
    # upstream trigger output feeds the downstream injector's trigger input
    assert "inj.knee_pos_stuck.trigger" in graph.block("inj.knee_vel_freeze").inputs
    # controller reads the faulted signals, monitor the raw ones
    plant_block = graph.block("plant")
    assert {"inj.knee_pos_stuck.out", "inj.knee_vel_freeze.out"} <= set(plant_block.inputs)
    assert not {"plant.right_knee.pos", "plant.right_knee.vel"} & set(plant_block.inputs)
    monitor_block = graph.block("monitor")
    assert "plant.right_knee.pos" in monitor_block.inputs


def test_unknown_target_signal_is_wiring_error():
    # the last two exist, but no block reads them through an injector chain
    for target in ("plant.right_knee.bogus", "plant.right_knee.torque_cmd",
                   "monitor.violations"):
        cfg = make_scenario(injectors=[stuck_spec(target=target)])
        with pytest.raises(engine.WiringError):
            engine.build_graph(cfg)


def test_mutual_trigger_chain_is_algebraic_loop():
    a = stuck_spec(name="a", target="plant.right_knee.pos")
    b = stuck_spec(name="b", target="plant.right_knee.pos", chain_to="a")
    with pytest.raises(engine.AlgebraicLoop) as exc_info:
        engine.build_graph(make_scenario(injectors=[a, b]))
    assert "inj.a" in str(exc_info.value) and "inj.b" in str(exc_info.value)


# the case-study joints and demo on a short clock
SIX_JOINTS = dict(joints=plant.JOINT_NAMES, demo="demo_gait.csv", t_end=0.3)


def drop_spec(target, name="drop", chain_to=None):
    """An injector that replaces ``target`` with 0 from the first step on."""
    return faults.FaultSpec(name=name, target_signal=target,
                            fault_type=faults.PackageDrop(replacement=0.0),
                            event=faults.FailureProbability(p=1.0),
                            effect=faults.InfiniteTime(), chain_to=chain_to)


@pytest.fixture(scope="module")
def six_joint_reference():
    return run_cfg(make_scenario(**SIX_JOINTS))[1]


@pytest.mark.parametrize("target", [f"{block}.right_knee.{field}" for block, field in (
    ("dmp", "pos"), ("dmp", "vel"), ("dmp", "acc"),
    ("plant", "pos"), ("plant", "vel"), ("plant", "torque"))])
def test_an_injector_changes_its_joint_and_only_its_joint(six_joint_reference, target):
    ref = six_joint_reference
    _, trace = run_cfg(make_scenario(injectors=[drop_spec(target)], **SIX_JOINTS))
    assert not np.array_equal(trace.signal("plant.right_knee.pos"),
                              ref.signal("plant.right_knee.pos"))
    others = [c for c in ref.columns if c.split(".")[1] not in ("right_knee", "violations")]
    assert len(others) == 5 * 7
    for column in others:
        assert np.array_equal(trace.signal(column), ref.signal(column)), column


def test_torque_injector_builds_and_chained_into_a_sensor_is_an_algebraic_loop():
    torque = drop_spec("plant.right_knee.torque", name="torque")
    engine.build_graph(make_scenario(injectors=[torque], **SIX_JOINTS))
    # the plant's torque feeds inj.torque, whose trigger feeds inj.pos,
    # whose output the plant's controller reads
    chained = [drop_spec("plant.right_knee.torque", name="torque", chain_to="pos"),
               drop_spec("plant.right_knee.pos", name="pos")]
    with pytest.raises(engine.AlgebraicLoop) as exc_info:
        engine.build_graph(make_scenario(injectors=chained, **SIX_JOINTS))
    cycle = exc_info.value.cycle
    assert cycle[0] == cycle[-1]
    assert sorted(cycle[1:]) == ["inj.pos", "inj.torque", "plant"]


def test_duplicate_block_names_rejected():
    a = stuck_spec(name="dup")
    b = stuck_spec(name="dup")
    with pytest.raises(engine.WiringError):
        engine.build_graph(make_scenario(injectors=[a, b]))


# --------------------------------------------------------------------------
# execution


def test_step_count_and_time_axis(case_study_cfg):
    _, trace = run_cfg(case_study_cfg)
    assert len(trace) == 7000
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(6.999)
    assert len(trace.t) == trace.data.shape[0]


def test_zero_duration_clock_gives_empty_trace(minimal_cfg):
    from dataclasses import replace
    from faultbench.scenario import ClockConfig
    cfg = replace(minimal_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.0))
    _, trace = run_cfg(cfg)
    assert len(trace) == 0
    assert trace.data.shape == (0, len(trace.columns))


def test_determinism_same_seed_identical_bytes(case_study_cfg):
    _, tr1 = run_cfg(case_study_cfg, seed=1234)
    _, tr2 = run_cfg(case_study_cfg, seed=1234)
    assert tr1.to_csv_str() == tr2.to_csv_str()
    assert np.array_equal(tr1.data, tr2.data)


def test_different_seeds_differ(case_study_cfg):
    _, tr1 = run_cfg(case_study_cfg, seed=1)
    _, tr2 = run_cfg(case_study_cfg, seed=2)
    assert not np.array_equal(tr1.data, tr2.data)


def test_no_time_travel_prefix_property():
    from dataclasses import replace
    from faultbench.scenario import ClockConfig
    noisy = faults.FaultSpec(
        name="n", target_signal="plant.right_knee.pos",
        fault_type=faults.Noise(boundary_pct=10.0),
        event=faults.FailureProbability(p=0.01),
        effect=faults.ConstantTime(duration=0.05),
    )
    cfg_long = make_scenario(injectors=[noisy], t_end=2.0)
    cfg_short = replace(cfg_long, clock=ClockConfig(dt_s=1e-3, t_end_s=1.0))
    _, long_tr = run_cfg(cfg_long, seed=9)
    _, short_tr = run_cfg(cfg_short, seed=9)
    assert long_tr.columns == short_tr.columns
    assert np.array_equal(long_tr.data[: len(short_tr)], short_tr.data)


def test_order_independence_of_unrelated_injectors():
    left = faults.FaultSpec(
        name="left_noise", target_signal="plant.left_knee.pos",
        fault_type=faults.Noise(boundary_pct=20.0),
        event=faults.FailureProbability(p=0.05),
        effect=faults.ConstantTime(duration=0.02),
    )
    right = faults.FaultSpec(
        name="right_noise", target_signal="plant.right_knee.pos",
        fault_type=faults.Noise(boundary_pct=20.0),
        event=faults.FailureProbability(p=0.05),
        effect=faults.ConstantTime(duration=0.02),
    )
    joints = ("left_hip", "left_knee", "left_ankle", "right_hip", "right_knee",
              "right_ankle")
    cfg_ab = make_scenario(joints=joints, injectors=[left, right],
                           demo="demo_gait.csv", t_end=1.0)
    cfg_ba = make_scenario(joints=joints, injectors=[right, left],
                           demo="demo_gait.csv", t_end=1.0)
    _, tr_ab = run_cfg(cfg_ab, seed=5)
    _, tr_ba = run_cfg(cfg_ba, seed=5)
    assert set(tr_ab.columns) == set(tr_ba.columns)
    for name in tr_ab.columns:
        assert np.array_equal(tr_ab.signal(name), tr_ba.signal(name)), name


def test_a_block_without_restart_refuses_a_later_start():
    clock = ClockConfig(dt_s=0.1, t_end_s=0.3)
    src = Emitter("src", {"x": 1.0}, emitted=False)
    golden = engine.run(engine.BlockGraph([src]), clock, 0)

    def bias(event):
        spec = faults.FaultSpec(name="bias", target_signal="src.x", fault_type=faults.Bias(1.0),
                                event=event, effect=faults.Once())
        return faults.Injector(spec, "src.x")
    # the injector's first window opens on step 1
    graph = engine.BlockGraph([src, bias(faults.MeanTimeToFailure(0.1))])
    with pytest.raises(NotImplementedError, match="'src' cannot start a run at step 1"):
        engine.run(graph, clock, 0, golden=golden)
    # a run without a window restarts no block: every row is the golden run's
    graph = engine.BlockGraph([src, bias(faults.FailureProbability(0.0))], ("src.x",))
    assert np.array_equal(engine.run(graph, clock, 0, golden=golden).data, golden.data)


def test_non_finite_output_raises_divergence():
    bad = faults.FaultSpec(
        name="inf_drop", target_signal="plant.right_knee.pos",
        fault_type=faults.PackageDrop(replacement=math.inf),
        event=faults.FailureProbability(p=1.0),
        effect=faults.Once(),
    )
    cfg = make_scenario(injectors=[bad], t_end=0.5)
    graph = engine.build_graph(cfg)
    with pytest.raises(engine.NumericalDivergence) as exc_info:
        engine.run(graph, cfg.clock, 0)
    assert exc_info.value.block == "inj.inf_drop"
    assert exc_info.value.t == 0.0


class Emitter(Block):
    """Puts out ``values`` under ``prefix.<key>`` from step ``bad_step`` on
    and 0.0 before, as state outputs or as emitted outputs."""

    def __init__(self, name, values, emitted, bad_step=3):
        self.name = name
        self.values = values
        self.bad_step = bad_step
        names = tuple(f"{name}.{key}" for key in values)
        if emitted:
            self.emit_output_names = names
        else:
            self.state_output_names = names

    def bind(self, slots, clock):
        self.written = slot_range(slots, self.emit_output_names or self.state_output_names)

    def _out(self, k, values):
        if k < self.bad_step:
            values[self.written] = [0.0] * len(self.values)
        else:
            values[self.written] = list(self.values.values())

    def state_outputs(self, k, values):
        self._out(k, values)

    def emit(self, k, values):
        self._out(k, values)


NON_FINITE_OUTPUTS = [
    ({"a": 1.0, "b": math.nan, "c": 2.0}, "b"),
    ({"a": math.inf, "b": 1.0}, "a"),
    ({"a": 1.0, "b": 2.0, "c": -math.inf}, "c"),
    ({"a": 1.0, "b": math.inf, "c": -math.inf}, "b"),
]


@pytest.mark.parametrize("emitted", [False, True], ids=["state", "emit"])
@pytest.mark.parametrize("values,signal", NON_FINITE_OUTPUTS,
                         ids=["nan", "+inf", "-inf", "inf-inf"])
def test_first_non_finite_output_names_block_signal_and_time(values, signal, emitted):
    graph = engine.BlockGraph([Emitter("quiet", {"x": 1.0}, emitted=False),
                               Emitter("src", values, emitted)])
    with pytest.raises(engine.NumericalDivergence) as exc_info:
        engine.run(graph, ClockConfig(dt_s=0.25, t_end_s=2.0), 0)
    err = exc_info.value
    assert (err.block, err.signal, err.t) == ("src", f"src.{signal}", 0.75)
    assert repr(err.value) == repr(values[signal])


@pytest.mark.parametrize("emitted", [False, True], ids=["state", "emit"])
def test_finite_outputs_whose_sum_overflows_pass(emitted):
    graph = engine.BlockGraph([Emitter("src", {"a": 1e308, "b": 1e308, "c": -1e308},
                                       emitted)])
    trace = engine.run(graph, ClockConfig(dt_s=0.25, t_end_s=1.0), 0)
    assert trace.data.tolist()[-1] == [1e308, 1e308, -1e308]


def test_of_two_non_finite_blocks_on_one_step_the_first_written_is_named():
    clock = ClockConfig(dt_s=0.25, t_end_s=2.0)
    # a state output is written before any emitted output
    graph = engine.BlockGraph([Emitter("emits", {"x": math.nan}, emitted=True),
                               Emitter("state", {"x": math.inf}, emitted=False)])
    with pytest.raises(engine.NumericalDivergence) as exc_info:
        engine.run(graph, clock, 0)
    assert (exc_info.value.block, exc_info.value.signal) == ("state", "state.x")
    # "late" is declared first but reads "early", so "early" emits first
    late = Emitter("late", {"y": math.nan}, emitted=True)
    late.inputs = ("early.x",)
    graph = engine.BlockGraph([late, Emitter("early", {"x": -math.inf}, emitted=True)])
    assert [b.name for b in graph.emit_order] == ["early", "late"]
    with pytest.raises(engine.NumericalDivergence) as exc_info:
        engine.run(graph, clock, 0)
    assert (exc_info.value.block, exc_info.value.signal, exc_info.value.t) == \
        ("early", "early.x", 0.75)


def test_run_calls_each_step_method_once_per_step(case_study_cfg):
    """engine.run looks up and calls state_outputs, emit and advance on the
    instance of each block that has them (the plant has all three, an
    injector only emit) once per step, and an injector's emit returns a
    dict with its trigger signal; tracing that wraps these methods relies
    on both."""
    from dataclasses import replace
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.2))
    graph = engine.build_graph(cfg)
    plant_block = graph.block("plant")
    calls = {"state_outputs": 0, "emit": 0, "advance": 0}
    for method in calls:
        def counted(*args, method=method, original=getattr(plant_block, method)):
            calls[method] += 1
            return original(*args)
        setattr(plant_block, method, counted)
    injectors = [b for b in graph.blocks if isinstance(b, faults.Injector)]
    assert len(injectors) == 2
    emitted = {b.name: [] for b in injectors}
    for b in injectors:
        def recorded(*args, out=emitted[b.name], original=b.emit):
            out.append(original(*args))
            return out[-1]
        b.emit = recorded

    engine.run(graph, cfg.clock, 0)
    assert calls == {"state_outputs": 200, "emit": 200, "advance": 200}
    for b in injectors:
        assert len(emitted[b.name]) == 200
        assert all(type(out) is dict and b.trigger_signal in out for out in emitted[b.name])


def test_dmp_block_leads_and_publishes_once_per_step(case_study_cfg):
    """Tracing counts steps from the state outputs of block 0: it is the
    DMP, and the engine calls them once per step, also across the rows of
    more than one chunk of its target table."""
    from dataclasses import replace
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.3))
    graph = engine.build_graph(cfg)
    block = graph.blocks[0]
    assert isinstance(block, dmp.DmpSystemBlock)
    seen = []

    def counted(k, values, original=block.state_outputs):
        seen.append(k)
        return original(k, values)
    block.state_outputs = counted
    trace = engine.run(graph, cfg.clock, 0)
    assert seen == list(range(300))
    assert np.array_equal(trace.signal("dmp.right_knee.pos"),
                          block.targets.rows[:, 3 * cfg.joint_names.index("right_knee")])



def test_a_cut_graph_reads_the_dmp_columns_of_its_joints(case_study_cfg):
    """Two joints that are not neighbours in the table read the columns of
    the full graph's run, bit for bit, across a chunk of table rows."""
    from dataclasses import replace
    joints = ("left_hip", "right_knee")
    first, second = (case_study_cfg.joint_names.index(j) for j in joints)
    assert second - first > 1
    columns = tuple(f"dmp.{j}.{field}" for j in joints for field in ("pos", "vel", "acc"))
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.3), injectors=(),
                  monitors=MonitorConfig(signals=columns))
    full = engine.run(engine.build_graph(cfg), cfg.clock, 0)
    cut = engine.run(engine.build_graph(cfg, joints), cfg.clock, 0)
    for column in columns:
        assert full.signal(column).tobytes() == cut.signal(column).tobytes(), column

class Recorder(Block):
    """Copies the values of ``signals`` in its emit, after every block it
    reads: the per-step reference for the rows of a trace."""

    def __init__(self, signals):
        self.name = "recorder"
        self.inputs = tuple(signals)
        self.emit_output_names = ("recorder.rows",)

    def bind(self, slots, clock):
        self.rows = []
        self.read = [slots[name] for name in self.inputs]
        self.written = slots["recorder.rows"]

    def emit(self, k, values):
        self.rows.append([values[slot] for slot in self.read])
        values[self.written] = float(len(self.rows))


@pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 1001])
def test_trace_rows_match_a_per_step_record(n_steps):
    cfg = make_scenario(injectors=[stuck_spec(p=0.01, duration=0.02)], t_end=n_steps * 1e-3)
    graph = engine.build_graph(cfg)
    every = graph.monitored
    recorder = Recorder(every)
    three = ("inj.stuck.trigger", "dmp.right_knee.acc", "plant.right_knee.torque")
    for monitored in ((), ("plant.right_knee.pos",), three, every):
        trace = engine.run(engine.BlockGraph(graph.blocks + [recorder], monitored),
                           cfg.clock, 7)
        assert trace.columns == monitored
        assert trace.data.shape == (n_steps, len(monitored))
        want = np.array(recorder.rows)
        for name in monitored:
            assert np.array_equal(trace.signal(name), want[:, every.index(name)]), name


def test_blocks_look_up_their_slots_on_every_run(case_study_cfg):
    """The same blocks in reversed declaration order hold other slots; a
    block that kept the slots of its first run would read the wrong ones."""
    from dataclasses import replace
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.5))
    graph = engine.build_graph(cfg)
    reversed_graph = engine.BlockGraph(graph.blocks[::-1], graph.monitored)
    assert reversed_graph.slots != graph.slots
    first = engine.run(graph, cfg.clock, 3)
    assert np.array_equal(engine.run(reversed_graph, cfg.clock, 3).data, first.data)
    assert np.array_equal(engine.run(graph, cfg.clock, 3).data, first.data)


def test_a_run_of_a_graph_keeps_nothing_of_its_last_run():
    """``bind`` alone starts a run: the monitor's records, the injectors'
    windows and the plant's state must not carry over into the next run."""
    lag = faults.FaultSpec(name="lag", target_signal="plant.right_knee.vel",
                           fault_type=faults.TimeDelay(0.1),
                           event=faults.FailureProbability(0.004),
                           effect=faults.ConstantTime(0.4))
    cfg = make_scenario(injectors=[stuck_spec(p=0.004, duration=0.4), lag], t_end=1.5)

    def outcome(graph, seed):
        trace = engine.run(graph, cfg.clock, seed)
        return (trace.data.tobytes(), list(graph.block("monitor").violations),
                [list(b.windows) for b in graph.blocks if isinstance(b, faults.Injector)])
    fresh = {seed: outcome(engine.build_graph(cfg), seed) for seed in (0, 1)}
    assert fresh[1][1] and not fresh[0][1]  # seed 1 violates a limit, seed 0 does not
    assert all(fresh[1][2]) and fresh[0][2] != fresh[1][2]
    graph = engine.build_graph(cfg)
    for seed in (1, 1, 0, 1):
        assert outcome(graph, seed) == fresh[seed]


def test_chaining_synchrony(case_study_cfg):
    _, trace = run_cfg(case_study_cfg, seed=3)
    up = trace.signal("inj.knee_pos_stuck.trigger")
    down = trace.signal("inj.knee_vel_freeze.trigger")
    assert up.sum() > 0  # the fault fired at least once for this seed
    assert np.array_equal(up, down)  # equal windows activate in lockstep


def test_monitored_subset_limits_columns():
    cfg = make_scenario(monitored=("plant.right_knee.pos", "dmp.right_knee.pos"),
                        t_end=0.1)
    _, trace = run_cfg(cfg)
    assert trace.columns == ("plant.right_knee.pos", "dmp.right_knee.pos")


def test_duplicate_monitored_signal_rejected():
    cfg = make_scenario(monitored=("plant.right_knee.pos", "plant.right_knee.pos"),
                        t_end=0.1)
    with pytest.raises(engine.WiringError):
        engine.build_graph(cfg)


def test_unknown_monitored_signal_rejected():
    cfg = make_scenario(monitored=("plant.right_knee.nope",), t_end=0.1)
    with pytest.raises(engine.WiringError):
        engine.build_graph(cfg)


# --------------------------------------------------------------------------
# trace I/O


def test_trace_csv_round_trip(minimal_cfg):
    from dataclasses import replace
    from faultbench.scenario import ClockConfig
    cfg = replace(minimal_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.05))
    _, trace = run_cfg(cfg)
    buf = io.StringIO(trace.to_csv_str())
    back = read_trace_csv(buf)
    assert back.columns == trace.columns
    # %.9g formatting bounds the round-trip error
    assert np.allclose(back.data, trace.data, rtol=1e-8, atol=1e-12)
    assert np.allclose(back.t, trace.t, rtol=1e-8)


def test_trace_csv_header_and_format(minimal_cfg):
    from dataclasses import replace
    from faultbench.scenario import ClockConfig
    cfg = replace(minimal_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.002))
    _, trace = run_cfg(cfg)
    text = trace.to_csv_str()
    lines = text.strip().split("\n")
    assert lines[0].startswith("t,")
    assert len(lines) == 1 + 2
    assert lines[1].split(",")[0] == "0"


def per_value_csv(trace):
    """The trace writer as it was before rows were formatted in chunks, with
    a header of ``t`` alone when there are no columns."""
    lines = [",".join(("t",) + trace.columns)]
    for i in range(len(trace.t)):
        lines.append(",".join(f"{v:.9g}" for v in (trace.t[i], *trace.data[i])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, engine.TRACE_CSV_CHUNK - 1, engine.TRACE_CSV_CHUNK,
                                    engine.TRACE_CSV_CHUNK + 1, 3 * engine.TRACE_CSV_CHUNK + 5])
@pytest.mark.parametrize("n_columns", [0, 1, 7])
def test_trace_csv_bytes_match_per_value_formatting(n_rows, n_columns):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3]
    rng = np.random.default_rng(n_rows * 10 + n_columns)
    values = rng.normal(0.0, 10.0, size=n_rows * n_columns) * 10.0 ** rng.integers(
        -12, 12, size=n_rows * n_columns)
    values[:len(specials)] = specials[:len(values)]
    trace = engine.TraceLog(columns=tuple(f"s{i}" for i in range(n_columns)),
                            t=np.arange(n_rows) * 1e-3,
                            data=values.reshape(n_rows, n_columns))
    assert trace.to_csv_str() == per_value_csv(trace)


def test_zero_column_trace_round_trip():
    trace = engine.TraceLog(columns=(), t=np.arange(3) * 0.5, data=np.empty((3, 0)))
    text = trace.to_csv_str()
    assert text == "t\n0\n0.5\n1\n"
    back = read_trace_csv(io.StringIO(text))
    assert back.columns == ()
    assert np.array_equal(back.t, trace.t)
    assert back.data.shape == (3, 0)


@pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257])
@pytest.mark.parametrize("monitored", [(), ("plant.right_knee.vel",),
                                       ("plant.right_knee.torque", "dmp.right_knee.pos")])
def test_monitored_columns_match_the_full_trace(monitored, n_steps):
    _, full = run_cfg(make_scenario(t_end=n_steps * 1e-3))
    _, trace = run_cfg(make_scenario(monitored=monitored, t_end=n_steps * 1e-3))
    assert trace.columns == monitored
    assert trace.data.shape == (n_steps, len(monitored))
    for name in monitored:
        assert full.signal(name).tobytes() == trace.signal(name).tobytes(), name


def test_trace_csv_writer_holds_no_copy_of_the_trace(tmp_path):
    """Writing a 7000-step, 47-column trace to a file holds the Python
    objects of a few rows at a time, not a copy of a large share of the
    trace (2.6 MB), and still writes every row."""
    import tracemalloc
    n_steps, n_columns = 7000, 47
    rng = np.random.default_rng(5)
    trace = engine.TraceLog(columns=tuple(f"s{i}" for i in range(n_columns)),
                            t=np.arange(n_steps) * 1e-3,
                            data=rng.normal(0.0, 1.0, size=(n_steps, n_columns)))
    trace.to_csv(tmp_path / "warm.csv")  # the file machinery's one-time allocations
    tracemalloc.start()
    try:
        trace.to_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak
    assert (tmp_path / "trace.csv").read_text() == per_value_csv(trace)


def test_empty_trace_round_trip():
    trace = engine.TraceLog(columns=("a", "b"), t=np.empty(0), data=np.empty((0, 2)))
    back = read_trace_csv(io.StringIO(trace.to_csv_str()))
    assert back.columns == ("a", "b")
    assert len(back) == 0


def test_clock_step_count():
    from faultbench.scenario import ClockConfig
    assert ClockConfig(dt_s=1e-3, t_end_s=7.0).n_steps == 7000
    assert ClockConfig(dt_s=1e-3, t_end_s=0.0).n_steps == 0
    assert ClockConfig(dt_s=0.25, t_end_s=1.0).n_steps == 4


# --------------------------------------------------------------------------
# the DMP target table: fitted once per process, rolled out on first use


@pytest.fixture
def rollouts(monkeypatch):
    """Starts from an empty memo and counts the DMP rollouts."""
    from faultbench import dmp
    calls = []
    rollout = dmp.rollout

    def counted(*args):
        calls.append(args)
        return rollout(*args)

    monkeypatch.setattr(engine, "_dmp_memo", None)
    monkeypatch.setattr(dmp, "rollout", counted)
    return calls


def test_build_graph_defers_the_rollout_and_shares_it(rollouts):
    cfg = make_scenario(injectors=[stuck_spec()], t_end=0.5)
    g1 = engine.build_graph(cfg)
    assert rollouts == []
    engine.run(g1, cfg.clock, 0)
    assert len(rollouts) == 1
    g2 = engine.build_graph(cfg)
    assert g2.block("dmp").targets is g1.block("dmp").targets
    engine.run(g2, cfg.clock, 1)
    assert len(rollouts) == 1


def test_simulate_twice_gives_identical_bytes(rollouts, case_study_cfg):
    from dataclasses import replace
    from faultbench import experiments
    from faultbench.scenario import ClockConfig
    cfg = replace(case_study_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=1.0))
    first = experiments.simulate(cfg, seed=3)
    second = experiments.simulate(cfg, seed=3)
    assert len(rollouts) == 1
    assert first.trace.to_csv_str() == second.trace.to_csv_str()
    assert first.violations == second.violations


def test_what_determines_the_table_gets_a_fresh_one(rollouts, tmp_path):
    from dataclasses import replace
    from faultbench.scenario import ClockConfig, DmpConfig
    demo = tmp_path / "demo.csv"
    t = np.arange(501) * 1e-3
    demo.write_text("t,right_knee\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, 0.2 * t)))
    cfg = replace(make_scenario(t_end=0.2), demo_path=str(demo))

    def targets(c):
        graph = engine.build_graph(c)
        engine.run(graph, c.clock, 0)
        return graph.block("dmp").targets

    first = targets(cfg)
    assert targets(cfg) is first
    demo.write_text("t,right_knee\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, 0.3 * t)))
    rewritten = targets(cfg)
    assert rewritten is not first
    assert not np.array_equal(rewritten.rows, first.rows)
    stiffer = targets(replace(cfg, dmp=DmpConfig(alpha_z=30.0)))
    assert stiffer is not rewritten
    assert not np.array_equal(stiffer.rows, rewritten.rows)
    longer = targets(replace(cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.3)))
    assert longer is not stiffer
    assert longer.rows.shape == (300, 3)
    assert len(rollouts) == 4


def test_a_second_build_does_not_parse_the_demo(rollouts, monkeypatch):
    cfg = make_scenario(t_end=0.2)
    first = engine.build_graph(cfg)

    def parse_again(source):
        raise AssertionError("the demo was parsed again")

    monkeypatch.setattr(engine, "load_demo_csv", parse_again)
    second = engine.build_graph(cfg)
    assert second.block("dmp").targets is first.block("dmp").targets
    assert second.block("plant").theta0 == first.block("plant").theta0


def test_dmp_block_rejects_another_step_size(minimal_cfg):
    from dataclasses import replace
    from faultbench.scenario import ClockConfig
    graph = engine.build_graph(minimal_cfg)
    with pytest.raises(ValueError):
        engine.run(graph, replace(minimal_cfg.clock, dt_s=2e-3), 0)
    # a longer clock than the graph was built on: more steps than its table
    short = replace(minimal_cfg, clock=ClockConfig(dt_s=1e-3, t_end_s=0.3))
    graph = engine.build_graph(short)
    with pytest.raises(ValueError, match="rolled out for 300 steps, run for 500"):
        engine.run(graph, ClockConfig(dt_s=1e-3, t_end_s=0.5), 0)
