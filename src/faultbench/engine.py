"""Deterministic fixed-step executor for a graph of signal-processing blocks.

Signals are named scalars; trigger lines are booleans carried as 0/1. The
graph numbers one slot per signal, and a run keeps the values in one list.
``blocks`` states the protocol: how ``bind`` starts a run, and the three
phases of a step (state outputs, emits in feedthrough order, advances).
The engine alone counts the steps and passes each step method the step
index ``k``; between the emits and the advances it tests the whole list
for a non-finite value, once.

Randomness comes from one PCG64 substream per injector, derived from the
run seed and the block name, so traces are bit-identical for a fixed
(graph, clock, seed) and unaffected by the declaration order of unrelated
blocks. Each injector draws its schedule from it before the first step.
"""

from __future__ import annotations

import contextlib
import graphlib
import hashlib
import io
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import dmp as dmp_mod
from . import faults as faults_mod
from . import plant as plant_mod
from .blocks import Block
from .scenario import (ClockConfig, ScenarioConfig, injectable_signal_names, load_demo_csv,
                       read_demo_bytes)


class WiringError(Exception):
    """A consumed signal has no producer, or a signal has two producers."""


class AlgebraicLoop(Exception):
    """Cycle among instantaneous-feedthrough ports."""

    def __init__(self, cycle: list[str]):
        super().__init__("algebraic loop among feedthrough blocks: " + " -> ".join(cycle))
        self.cycle = cycle

    def __reduce__(self):  # survives process-pool boundaries
        return (AlgebraicLoop, (self.cycle,))


class NumericalDivergence(Exception):
    """A block produced a non-finite signal value."""

    def __init__(self, t: float, block: str, signal: str, value: float,
                 cell: tuple | None = None):
        where = f" in sweep cell (duration={cell[0]}, seed={cell[1]})" if cell else ""
        super().__init__(f"non-finite value {value!r} on {signal!r} from block "
                         f"{block!r} at t={t:.6f}s{where}")
        self.t = t
        self.block = block
        self.signal = signal
        self.value = value
        self.cell = cell

    def __reduce__(self):  # survives process-pool boundaries
        return (NumericalDivergence, (self.t, self.block, self.signal, self.value,
                                      self.cell))


# rows formatted per trace.csv write: the rows' Python floats and strings are
# all the writer holds besides the trace, a few tens of KB at 47 columns
TRACE_CSV_CHUNK = 32


def _opened(path_or_file):
    """A context that opens a path for writing and closes it on exit, or
    yields an open file object as it is and leaves it open."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, "w", newline="")
    return contextlib.nullcontext(path_or_file)


@dataclass(frozen=True)
class TraceLog:
    """Immutable per-step record of monitored signals: the time axis and
    one 1-D array per column. A column may be a view of a larger array, as
    a run's ``dmp.*`` columns are of the shared DMP target table, so
    ``run`` returns every column read-only."""

    columns: tuple[str, ...]
    t: np.ndarray
    data: tuple[np.ndarray, ...]  # one array of len(t) values per column, in columns order

    def signal(self, name: str) -> np.ndarray:
        return self.data[self.columns.index(name)]

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path_or_file) -> None:
        """Write a ``t`` column and one column per signal, every value as
        ``%.9g``, ``TRACE_CSV_CHUNK`` rows per write, each formatted from
        the chunk's slice of every column."""
        with _opened(path_or_file) as fh:
            fh.write(",".join(("t",) + self.columns) + "\n")
            row_format = ",".join(["%.9g"] * (1 + len(self.columns))) + "\n"
            arrays = (self.t, *self.data)
            for start in range(0, len(self.t), TRACE_CSV_CHUNK):
                stop = start + TRACE_CSV_CHUNK
                fh.write("".join([row_format % row for row in zip(
                    *[a[start:stop].tolist() for a in arrays])]))

    def to_csv_str(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


class BlockGraph:
    """Validated, ordered set of blocks with a shared signal namespace."""

    def __init__(self, blocks: list, monitored: tuple[str, ...] | None = None):
        self.blocks = list(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise WiringError("block names must be unique")

        producers: dict[str, str] = {}
        for b in self.blocks:
            for sig in b.output_names:
                if sig in producers:
                    raise WiringError(f"signal {sig!r} produced by both "
                                      f"{producers[sig]!r} and {b.name!r}")
                producers[sig] = b.name
        for b in self.blocks:
            for sig in b.inputs:
                if sig not in producers:
                    raise WiringError(f"block {b.name!r} reads unknown signal {sig!r}")

        # each block's outputs in declaration order
        self.slots = {sig: i for i, sig in enumerate(
            sig for b in self.blocks for sig in b.output_names)}
        if monitored is None:
            self.monitored = tuple(self.slots)
        else:
            for sig in monitored:
                if sig not in producers:
                    raise WiringError(f"monitored signal {sig!r} is not produced")
            if len(set(monitored)) != len(monitored):
                raise WiringError("monitored signals must be unique")
            self.monitored = tuple(monitored)

        self.emit_order = self._sort_feedthrough()

    def _sort_feedthrough(self) -> list:
        emitters = [b for b in self.blocks if b.emit_output_names]
        emitted_by = {sig: b for b in emitters for sig in b.emit_output_names}
        sorter = graphlib.TopologicalSorter()
        for b in emitters:  # declaration order, so every process sorts alike
            sorter.add(b, *dict.fromkeys(emitted_by[sig] for sig in b.feedthrough_inputs
                                         if sig in emitted_by))
        try:
            return list(sorter.static_order())
        except graphlib.CycleError as exc:
            raise AlgebraicLoop([b.name for b in exc.args[1]]) from None

    def block(self, name: str):
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


def _block_seed(run_seed: int, block_name: str) -> np.random.SeedSequence:
    digest = hashlib.sha256(block_name.encode()).digest()
    return np.random.SeedSequence([run_seed, int.from_bytes(digest[:8], "big")])


def run(graph: BlockGraph, clock: ClockConfig, seed: int,
        golden: TraceLog | None = None) -> TraceLog:
    """Execute all steps; returns the trace of monitored signals.

    Bit-identical output for identical (graph, clock, seed). Raises
    NumericalDivergence on the first non-finite value written: publishers
    first, then ``emit_order``, each block's outputs in declaration order.

    ``bind`` starts every block's run on ``graph.slots`` and ``clock``, then
    each injector draws its schedule, in ``emit_order``. With ``golden``,
    the trace of the same run without injectors on at least this graph's
    joints, the blocks ``restart`` at the first window, and the rows before
    it come from ``golden``: an injector's output column is its target's,
    its trigger column 0.

    Then each block's step methods are taken from the instance, so a tracer
    may replace them there before the run, and called once per step with
    positional arguments. Every slot starts as ``None`` and has one
    producer that writes it every step, so a block that reads a signal
    before its producer writes it fails on the first step run.

    The trace's columns are read-only. A DMP block's output columns are
    the views of its target table that ``DmpSystemBlock.trace_columns``
    gives, which the block's outputs equal bit for bit. Each step packs the
    other monitored values into its row of one ``(steps, m)`` array in
    place, and a restarted run copies the golden prefix into that array
    alone. A run with no step, or with no ``dmp.*`` column, takes no column
    from the table, so it forces no rollout.
    """
    steps = clock.n_steps
    dt = clock.dt_s
    columns = graph.monitored
    # the DMP blocks whose outputs the trace takes from their target table
    tabled = [] if steps == 0 else [
        b for b in graph.blocks if isinstance(b, dmp_mod.DmpSystemBlock)
        and not set(b.state_output_names).isdisjoint(columns)]
    from_table = {name for b in tabled for name in b.state_output_names}
    recorded = [c for c in columns if c not in from_table]
    data = np.empty((steps, len(recorded)))
    t_arr = np.arange(steps) * dt
    # each step packs its recorded values into its row of ``data`` in place
    slots = [graph.slots[c] for c in recorded]
    if len(slots) > 1:
        monitored_values = operator.itemgetter(*slots)
    elif slots:  # a one-element slice, so that one value is a sequence too
        monitored_values = operator.itemgetter(slice(slots[0], slots[0] + 1))
    else:
        monitored_values = None
    pack_row = struct.Struct(f"{len(recorded)}d").pack_into
    row_bytes = data.itemsize * len(recorded)

    for b in graph.blocks:
        b.bind(graph.slots, clock)
    windows = {}  # trigger signal -> its injector's windows
    for b in graph.emit_order:
        if isinstance(b, faults_mod.Injector):
            b.schedule(np.random.Generator(np.random.PCG64(_block_seed(seed, b.name))),
                       [w for sig in b.trigger_sources for w in windows[sig]])
            windows[b.trigger_signal] = b.windows
    start = 0 if golden is None else min(
        (log[0][0] for log in windows.values() if log), default=steps)
    if start:
        for i, column in enumerate(recorded):
            data[:start, i] = _golden_column(graph, golden, column)[:start]
        if start < steps:
            for b in graph.blocks:
                b.restart(start, golden)

    publishers = [b.state_outputs for b in graph.blocks if b.state_output_names]
    emitters = [b.emit for b in graph.emit_order]
    advancers = [b.advance for b in graph.blocks if type(b).advance is not Block.advance]
    isfinite = math.isfinite
    values: list = [None] * len(graph.slots)
    for k in range(start, steps):
        for state_outputs in publishers:
            state_outputs(k, values)
        for emit in emitters:
            emit(k, values)
        if not isfinite(sum(values)):
            _check_finite(graph, values, k * dt)
        if monitored_values is not None:
            pack_row(data, k * row_bytes, *monitored_values(values))
        for advance in advancers:
            advance(k, values)
    data.flags.writeable = False
    trace = dict(zip(recorded, data.T))
    for b in tabled:
        trace.update(b.trace_columns(steps))
    return TraceLog(columns=columns, t=t_arr, data=tuple(trace[c] for c in columns))


def _golden_column(graph: BlockGraph, golden: TraceLog, column: str) -> np.ndarray:
    """What ``column`` holds while no injector has fired, from the golden run."""
    for b in graph.blocks:
        if isinstance(b, faults_mod.Injector):
            if column == b.out_signal:
                return golden.signal(b.spec.target_signal)
            if column == b.trigger_signal:
                return np.zeros(len(golden))
    return golden.signal(column)


def _check_finite(graph: BlockGraph, values: list, t: float) -> None:
    """Raise on the first non-finite value in the order the step wrote
    them: publishers first, then ``emit_order``, each block's outputs in
    declaration order. The step loop calls it when the sum of all values is
    not finite, so a finite overflow of the sum passes the scan."""
    written = [(b, b.state_output_names) for b in graph.blocks] + \
        [(b, b.emit_output_names) for b in graph.emit_order]
    for b, names in written:
        for sig in names:
            value = values[graph.slots[sig]]
            if not math.isfinite(value):
                raise NumericalDivergence(t, b.name, sig, value)


# --------------------------------------------------------------------------
# scenario -> graph


# One entry: every workload runs a single DMP system per process (a run, a
# sweep worker's cells, a study's probes), so the last fit is the one reused.
_dmp_memo: tuple[tuple, dmp_mod.TargetTable, list[float]] | None = None


def _dmp_targets(cfg: ScenarioConfig) -> tuple[dmp_mod.TargetTable, list[float]]:
    """The fitted primitives with their lazily rolled-out table, and the
    demo's first row (the plant's initial angles). Both are reused while
    everything that determines them is unchanged: the demo file's bytes
    (not its path), the DMP settings, the joints and the clock. Only a new
    key parses the demo."""
    global _dmp_memo
    data = read_demo_bytes(cfg.demo_path)
    joint_names = cfg.joint_names
    # The fit below sets a sweep worker's peak memory. blake2b is built into
    # Python, where sha256 would page in OpenSSL before it, and the file's
    # bytes are dropped before it.
    key = (hashlib.blake2b(data).digest(), cfg.dmp, joint_names, cfg.clock)
    if _dmp_memo is None or _dmp_memo[0] != key:
        times, demo = load_demo_csv(data)
        del data
        if demo.shape[1] != len(joint_names):
            raise WiringError(f"demo has {demo.shape[1]} joint columns, scenario has "
                              f"{len(joint_names)} joints")
        base = dmp_mod.make_params(tau=1.0, g=0.0, alpha_z=cfg.dmp.alpha_z,
                                   alpha_s=cfg.dmp.alpha_s, n_basis=cfg.dmp.n_basis)
        params = dmp_mod.learn_system_weights(times, demo, base)
        _dmp_memo = (key, dmp_mod.TargetTable(params, cfg.clock.dt_s, cfg.clock.n_steps),
                     demo[0].tolist())
    return _dmp_memo[1], _dmp_memo[2]


def build_graph(cfg: ScenarioConfig, joints: tuple[str, ...] | None = None) -> BlockGraph:
    """Wire trajectory generator, plant, injectors, and monitor as declared.

    Injectors targeting the same signal are chained in declaration order;
    every consumer then reads the end of the chain, except that the monitor
    reads the raw angle and velocity, because the safety verdict concerns
    the physical state, not the sensor view. Per joint ``<j>``:

    =====================  ===================================  ===========
    injectable signal      read through the chain by            phase
    =====================  ===================================  ===========
    ``dmp.<j>.pos/vel``    plant controller (targets)           emit
    ``dmp.<j>.acc``        plant controller (feedforward)       emit
    ``plant.<j>.pos/vel``  plant controller (measurements)      emit
    ``plant.<j>.torque``   plant dynamics (applied torque)      advance
    ``plant.<j>.torque``   monitor (torque rating)              emit
    =====================  ===================================  ===========

    Only the monitor reads ``plant.<j>.torque_cmd``, and raw; nothing reads
    ``monitor.violations``. An injector on either would change nothing, so
    it is a ``WiringError`` here and a violation to the scenario parser.

    The trajectory generator is open-loop, so its targets depend only on the
    demo, the DMP settings and the clock. They are fitted once per process
    and rolled out on the first step of the first run of the graph (not
    here); later graphs of the same scenario share that table, so the graph
    must run on ``cfg.clock`` (a run on another step size, or on more steps,
    is a ``ValueError`` before its first step).

    ``joints`` names the joints the graph holds (by default all of them),
    kept in declaration order. The trajectory generator reads their columns
    of the whole scenario's table, the plant and the monitor take only
    them, and every injector must target one of them.
    """
    targets, theta0 = _dmp_targets(cfg)
    unknown = set(joints or ()) - set(cfg.joint_names)
    if unknown:
        raise WiringError(f"the scenario has no joint {sorted(unknown)}")
    indices = [i for i, name in enumerate(cfg.joint_names) if joints is None or name in joints]
    joint_names = [cfg.joint_names[i] for i in indices]

    # chain injectors per target signal, in declaration order
    chained_from: dict[str, list[str]] = {}
    for spec in cfg.injectors:
        if spec.chain_to is not None:
            chained_from.setdefault(spec.chain_to, []).append(spec.name)

    injectable = set(injectable_signal_names(joint_names))
    chain_end: dict[str, str] = {}
    injectors = []
    for spec in cfg.injectors:
        if spec.target_signal not in injectable:
            raise WiringError(f"injector {spec.name!r} targets {spec.target_signal!r}, "
                              f"which is no injectable signal")
        upstream = chain_end.get(spec.target_signal, spec.target_signal)
        triggers = tuple(f"inj.{src}.trigger" for src in chained_from.get(spec.name, ()))
        inj = faults_mod.Injector(spec, upstream, triggers)
        chain_end[spec.target_signal] = inj.out_signal
        injectors.append(inj)

    joint_params = [cfg.joints[i] for i in indices]
    dmp_block = dmp_mod.DmpSystemBlock("dmp", joint_names, targets, indices)
    plant_block = plant_mod.PlantBlock(
        "plant", joint_params, cfg.control.kp, cfg.control.kd,
        theta0=[theta0[i] for i in indices], reads=chain_end,
    )
    monitor_block = plant_mod.MonitorBlock("monitor", joint_params, reads=chain_end)

    blocks = [dmp_block, plant_block, monitor_block] + injectors
    return BlockGraph(blocks, monitored=cfg.monitors.signals)
