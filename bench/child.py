"""One unit of benchmark work, run in a fresh interpreter by ``bench/run.py``.

    python3 bench/child.py setup SCENARIO
    python3 bench/child.py bitflip SCENARIO BASE_SEED N_SEEDS OUT_JSON
    python3 bench/child.py --trace SPANS_JSON cli run SCENARIO --seed 0 ...
    python3 bench/child.py --trace SPANS_JSON bitflip SCENARIO BASE_SEED N_SEEDS OUT_JSON

``faultbench`` must be importable (``PYTHONPATH=src``). Without ``--trace``
nothing of faultbench is wrapped. With it, the tracer below wraps faultbench
from outside before any work starts: every public function of the layer
modules, the sweep cell function, ``TraceLog.to_csv``, and the
``state_outputs``/``emit``/``advance`` methods of every block instance that
``engine.run`` executes. No file of faultbench is changed.
"""

import time

T0 = time.perf_counter()  # before any import of numpy or faultbench: setup_s counts imports

import functools  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYER_MODULES = ("scenario", "dmp", "faults", "plant", "engine", "experiments", "svgplot")
# Kernels called from block step methods, dozens of times per step: their time
# is in the block's layer, and a wrapper per call would cost more than they do.
STEP_KERNELS = {"dmp.forcing", "dmp.dmp_step", "dmp.canonical_step", "plant.dynamic_control",
                "plant.joint_step", "plant.monitor", "plant.rpm_to_rad_s", "faults.flip_bits"}


class Tracer:
    """In-memory span recorder.

    A span is ``[pid, sid, parent_sid, name, start, end]`` with
    ``time.perf_counter`` times, which on Linux read one clock shared by all
    processes. Calls of block step methods are too many to keep one by one
    (about a dozen per simulated step), so each ``engine.run`` span carries
    them summed per layer: ``steps[sid] = {layer: [calls, seconds]}``, plus
    its counts in ``runs[sid]``. Forked pool workers inherit the open span
    stack, so their top-level spans name the parent's open span as parent;
    each worker appends what it recorded to ``<path>.<pid>`` whenever it
    returns to the depth it was forked at, and the main process merges those
    files into ``path`` at the end.
    """

    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.seq = 0
        self.forked = False
        self.base_depth = 0
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.steps: dict[int, dict[str, list]] = {}
        self.runs: dict[int, dict[str, int]] = {}
        self.in_step = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.forked = True
        self.base_depth = len(self.stack)
        self.spans, self.steps, self.runs = [], {}, {}

    def open(self, name: str) -> list:
        self.seq += 1
        parent = self.stack[-1][1] if self.stack else None
        rec = [self.pid, (self.pid << 32) | self.seq, parent, name, time.perf_counter(), None]
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()
        self.spans.append(rec)
        if self.forked and len(self.stack) == self.base_depth:
            self._flush(f"{self.path}.{self.pid}")

    def _flush(self, path: str) -> None:
        with open(path, "a") as fh:
            fh.write(json.dumps(self._payload()) + "\n")
        self.spans, self.steps, self.runs = [], {}, {}

    def _payload(self) -> dict:
        return {"spans": self.spans,
                "steps": {str(k): v for k, v in self.steps.items()},
                "runs": {str(k): v for k, v in self.runs.items()}}

    def dump(self) -> None:
        """Write this process's spans and every worker's into ``path``."""
        merged = self._payload()
        for part in sorted(glob.glob(glob.escape(self.path) + ".*")):
            with open(part) as fh:
                for line in fh:
                    chunk = json.loads(line)
                    merged["spans"].extend(chunk["spans"])
                    merged["steps"].update(chunk["steps"])
                    merged["runs"].update(chunk["runs"])
            os.remove(part)
        with open(self.path, "w") as fh:
            json.dump(merged, fh)

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_step:  # called from a block step method: counted there
                return fn(*args, **kwargs)
            rec = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)
        return wrapper

    def step_method(self, fn, acc: list, after=None):
        tracer = self

        def wrapper(*args):
            tracer.in_step += 1
            t = time.perf_counter()
            try:
                out = fn(*args)
            finally:
                acc[1] += time.perf_counter() - t
                acc[0] += 1
                tracer.in_step -= 1
            if after is not None:
                after(out)
            return out
        return wrapper


def block_layer(block, method: str) -> str:
    """Per-layer name of one block step method."""
    cls = type(block)
    module = cls.__module__.rsplit(".", 1)[-1]
    if cls.__name__ == "PlantBlock":
        return "plant.control" if method == "emit" else "plant.dynamics"
    if cls.__name__ == "MonitorBlock":
        return "plant.monitor"
    if module in ("dmp", "faults"):
        return f"{module}.step"
    return f"{module}.{cls.__name__}.{method}"


def install(tracer: Tracer) -> None:
    """Wrap faultbench's layer functions, rebinding every module reference."""
    import faultbench.cli  # noqa: F401  (its imported names are rebound too)
    from faultbench import engine, experiments, faults

    modules = {name: importlib.import_module(f"faultbench.{name}") for name in LAYER_MODULES}
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "faultbench"]
    wrapped: dict[int, object] = {}
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_") and f"{short}.{name}" not in STEP_KERNELS:
                wrapped[id(obj)] = tracer.span(f"{short}.{name}", obj)
    # a sweep cell has no public function of its own
    wrapped[id(experiments._run_cell)] = tracer.span("experiments.cell", experiments._run_cell)
    wrapped[id(engine.run)] = _traced_run(tracer, engine.run, faults.Injector)
    for mod in package:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, name, wrapped[id(obj)])

    to_csv = engine.TraceLog.to_csv

    @functools.wraps(to_csv)
    def traced_to_csv(self, path_or_file):
        rec = tracer.open("engine.trace_write")
        try:
            to_csv(self, path_or_file)
            if isinstance(path_or_file, (str, os.PathLike)):
                rec.append(os.path.getsize(path_or_file))  # bytes written, a seventh field
        finally:
            tracer.close(rec)
    engine.TraceLog.to_csv = traced_to_csv


def _traced_run(tracer: Tracer, run, injector_cls):
    @functools.wraps(run)
    def traced(graph, clock, seed, *args, **kwargs):
        rec = tracer.open("engine.run")
        injectors = [b for b in graph.blocks if isinstance(b, injector_cls)]
        counts = {"steps": 0, "activations": 0,
                  "reference": int(all(not b.enabled for b in injectors))}
        tracer.runs[rec[1]] = counts
        layers = tracer.steps.setdefault(rec[1], {})
        patched = []
        for i, block in enumerate(graph.blocks):
            for method in ("state_outputs", "emit", "advance"):
                acc = layers.setdefault(block_layer(block, method), [0, 0.0])
                after = None
                if i == 0 and method == "state_outputs":
                    def after(_out, counts=counts):
                        counts["steps"] += 1
                elif method == "emit" and isinstance(block, injector_cls):
                    after = _edge_counter(block.trigger_signal, counts)
                setattr(block, method, tracer.step_method(getattr(block, method), acc, after))
                patched.append((block, method))
        try:
            return run(graph, clock, seed, *args, **kwargs)
        finally:
            for block, method in patched:
                delattr(block, method)
            tracer.close(rec)
    return traced


def _edge_counter(trigger_signal: str, counts: dict):
    """Counts activation windows: rising edges of an injector's trigger output."""
    last = [0.0]

    def after(out):
        now = out.get(trigger_signal, 0.0)
        if now >= 0.5 and last[0] < 0.5:
            counts["activations"] += 1
        last[0] = now
    return after


# --------------------------------------------------------------------------
# commands


def cmd_setup(scenario: str) -> int:
    """Import, scenario load and validation, demo parse, DMP fit, graph build."""
    from faultbench import engine
    from faultbench.scenario import load_scenario

    cfg = load_scenario(scenario)
    engine.build_graph(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


BITFLIP_REGIONS = {"mantissa": range(0, 52), "exponent": range(52, 63), "sign": (63,)}


def cmd_bitflip(scenario: str, base_seed: int, n_seeds: int, out_path: str) -> int:
    """Bit-flip study over the three bit regions plus the small-fault probes."""
    from faultbench import experiments
    from faultbench.scenario import load_scenario

    cfg = load_scenario(scenario)
    outcomes = []
    for bits in BITFLIP_REGIONS.values():
        outcomes += experiments.run_bitflip_study(cfg, "right_knee", bits=bits,
                                                  n_seeds=n_seeds, base_seed=base_seed)
    small = experiments.run_small_fault_probes(cfg, "right_knee", n_seeds=n_seeds,
                                               base_seed=base_seed + 1)
    for kind in sorted(small):
        outcomes += small[kind]
    rows = [[o.detail, o.classification.value if o.classification else None, o.diverged]
            for o in outcomes]
    with open(out_path, "w") as fh:
        json.dump(rows, fh)
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace"]:
        tracer = Tracer(argv[1])
        argv = argv[2:]
        install(tracer)
    command, args = argv[0], argv[1:]
    try:
        if command == "setup":
            return cmd_setup(args[0])
        if command == "bitflip":
            return cmd_bitflip(args[0], int(args[1]), int(args[2]), args[3])
        if command == "cli":
            from faultbench import cli
            return cli.main(args)
        raise SystemExit(f"unknown command {command!r}")
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
