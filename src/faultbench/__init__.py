"""faultbench: deterministic fault-injection simulation of a trajectory-
controlled multi-joint exoskeleton, with Monte-Carlo fault-duration sweeps."""

from .engine import (AlgebraicLoop, BlockGraph, NumericalDivergence, TraceLog,
                     WiringError, build_graph, run)
from .experiments import (Classification, SweepPlan, SweepResult, classify_run,
                          fit_quadratic, rmse, run_sweep, simulate)
from .faults import (Bias, BitFlip, ConstantTime, FailureProbability, FaultSpec,
                     InfiniteTime, Injector, MeanTimeToFailure, MeanTimeToRepair,
                     Noise, Once, PackageDrop, StuckAt, TimeDelay)
from .scenario import (ClockConfig, ScenarioConfig, ScenarioError, ScenarioParseError,
                       load_scenario)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicLoop", "Bias", "BitFlip", "BlockGraph", "Classification", "ClockConfig",
    "ConstantTime", "FailureProbability", "FaultSpec", "InfiniteTime", "Injector",
    "MeanTimeToFailure", "MeanTimeToRepair", "Noise", "NumericalDivergence",
    "Once", "PackageDrop", "ScenarioConfig", "ScenarioError", "ScenarioParseError",
    "StuckAt", "SweepPlan", "SweepResult", "TimeDelay", "TraceLog",
    "WiringError", "build_graph", "classify_run", "fit_quadratic", "load_scenario",
    "rmse", "run", "run_sweep", "simulate",
]
