"""Per-signal fault injector: fault types, activation events, exposure effects.

An injector sits inline on one scalar signal. Outside its exposure windows
it is armed: it passes the signal through unchanged and watches its
activation event. An activation opens a window drawn from the effect model;
while it lasts the injector corrupts the signal according to its fault type.
When it closes the injector is armed again (repeatable effects), or never
(``Once``, and a disabled injector). A boolean trigger output mirrors the
active window so injectors can be chained: a true trigger input forces
activation of a downstream armed injector in the same step, regardless of
the downstream event model.

None of this depends on the signal: ``Injector.schedule`` draws a run's
windows and their random values before its first step, and no step draws.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .blocks import Block

# --------------------------------------------------------------------------
# fault types


@dataclass(frozen=True)
class StuckAt:
    """Hold the last value seen before activation."""


@dataclass(frozen=True)
class PackageDrop:
    """Replace the signal with a fixed value (lost-sample semantics)."""

    replacement: float


@dataclass(frozen=True)
class Bias:
    """Add a constant offset to the signal."""

    offset: float


@dataclass(frozen=True)
class Noise:
    """Add uniform noise bounded by a percentage of the correct value."""

    boundary_pct: float


@dataclass(frozen=True)
class TimeDelay:
    """Hold the pre-activation value for ``delay`` seconds, then replay the
    input delayed by ``delay`` while the fault remains active.

    ``delay`` must be a positive multiple of the simulation step.
    """

    delay: float


@dataclass(frozen=True)
class BitFlip:
    """Invert bits of the IEEE-754 binary64 representation of the value.

    Bit 0 is the least-significant mantissa bit, bit 63 the sign bit.
    With ``bit_positions == "random"``, ``n_bits`` distinct positions are
    drawn per activation and held fixed for that exposure window.
    """

    n_bits: int
    bit_positions: tuple[int, ...] | str = "random"


FaultType = StuckAt | PackageDrop | Bias | Noise | TimeDelay | BitFlip


# --------------------------------------------------------------------------
# fault events (when a fault activates)


@dataclass(frozen=True)
class FailureProbability:
    """Constant activation probability per armed execution of the block."""

    p: float


@dataclass(frozen=True)
class MeanTimeToFailure:
    """Activation scheduled Normal(mttf, sigma^2) seconds after (re-)arming."""

    mttf: float
    sigma: float = 0.0


FaultEvent = FailureProbability | MeanTimeToFailure


# --------------------------------------------------------------------------
# fault effects (how long the erroneous output lasts)


@dataclass(frozen=True)
class Once:
    """Exactly one erroneous sample; the injector never re-arms."""


@dataclass(frozen=True)
class ConstantTime:
    """Erroneous output for a fixed time window."""

    duration: float


@dataclass(frozen=True)
class InfiniteTime:
    """Erroneous output until the end of the run."""


@dataclass(frozen=True)
class MeanTimeToRepair:
    """Window length drawn Normal(mttr, sigma^2) per activation."""

    mttr: float
    sigma: float = 0.0


FaultEffect = Once | ConstantTime | InfiniteTime | MeanTimeToRepair


@dataclass(frozen=True)
class FaultSpec:
    """Full configuration of one injector instance."""

    name: str
    target_signal: str
    fault_type: FaultType
    event: FaultEvent
    effect: FaultEffect
    enabled: bool = True
    chain_to: str | None = None


# --------------------------------------------------------------------------
# stochastic draws


def sample_activation_time(event: MeanTimeToFailure, t_now: float, rng, dt: float) -> float:
    """Next activation time for a mean-time-to-failure event.

    The normal draw is truncated below at one step so an activation can
    never be scheduled at or before the arming step.
    """
    x = rng.normal(event.mttf, event.sigma) if event.sigma > 0.0 else event.mttf
    return t_now + max(dt, x)


def sample_exposure(effect: FaultEffect, rng, dt: float) -> float:
    """Exposure window in seconds. ``math.inf`` means until the end of the run.

    ``Once`` maps to a single step (``dt``); normal draws are truncated below
    at one step.
    """
    if isinstance(effect, Once):
        return dt
    if isinstance(effect, ConstantTime):
        return effect.duration
    if isinstance(effect, InfiniteTime):
        return math.inf
    if isinstance(effect, MeanTimeToRepair):
        x = rng.normal(effect.mttr, effect.sigma) if effect.sigma > 0.0 else effect.mttr
        return max(dt, x)
    raise TypeError(f"unknown fault effect: {effect!r}")


def flip_bits(value: float, mask: int) -> float:
    """XOR ``mask`` into the binary64 representation of ``value``.

    Involutive: applying the same mask twice restores the original bit
    pattern exactly. The result may be non-finite when exponent bits flip.
    """
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ mask))[0]


def mask_from_positions(positions) -> int:
    mask = 0
    for pos in positions:
        mask |= 1 << int(pos)
    return mask


# --------------------------------------------------------------------------
# the injector block


class Injector(Block):
    """Stateful fault injector on one scalar signal, with trigger chaining.

    A run starts armed on step 0 (never, if disabled) with no window open.
    An activation on step ``k`` opens the window ``[k, k + steps)``
    (``[k, inf)`` for a window to the end of the run) and arms the injector
    again where it closes (never after a ``Once`` window).

    ``trigger_sources`` are the trigger-output signal names of upstream
    injectors chained into this one; any of them being true forces
    activation while armed. ``emit`` does not read them: their windows
    enter through ``schedule``.

    ``windows`` holds one ``(step, steps)`` entry per window drawn for the
    run: its first step and its length in steps, ``None`` when it lasts to
    the end of the run. A zero-length window is no activation and has no
    entry. A run that completes opens every window in it; one that
    diverges opens those that start before it fails.

    ``bind`` starts a run: it takes the step size and the run length from
    the run's clock and empties the schedule; ``schedule`` then draws it.
    """

    def __init__(self, spec: FaultSpec, in_signal: str,
                 trigger_sources: tuple[str, ...] = ()):
        self.spec = spec
        self.name = f"inj.{spec.name}"
        # bench/child.py's tracer reads this until the benchmark counts from
        # what the package returns (ROADMAP item 1(a))
        self.enabled = spec.enabled
        self.in_signal = in_signal
        self.trigger_sources = tuple(trigger_sources)
        self.out_signal = f"inj.{spec.name}.out"
        self.trigger_signal = f"inj.{spec.name}.trigger"
        self.inputs = (in_signal,) + self.trigger_sources
        self.emit_output_names = (self.out_signal, self.trigger_signal)
        ft = spec.fault_type
        if isinstance(ft, BitFlip) and ft.bit_positions != "random":
            self._fixed_mask = mask_from_positions(ft.bit_positions)
        else:
            self._fixed_mask = None
        # the per-step activation probability, or None for a scheduled event
        self._p = spec.event.p if isinstance(spec.event, FailureProbability) else None
        # A draw against p = 0 never fires. Where nothing else reads the generator
        # (no noise, no drawn bit positions or repair time) it is skipped,
        # which changes no output; elsewhere it keeps the stream's place.
        draws_elsewhere = (isinstance(ft, Noise)
                           or isinstance(ft, BitFlip) and self._fixed_mask is None
                           or isinstance(spec.effect, MeanTimeToRepair) and spec.effect.sigma > 0.0)
        self._draws_p = self._p is not None and (self._p > 0.0 or draws_elsewhere)
        appliers = {StuckAt: self._stuck_at, PackageDrop: self._package_drop,
                    Bias: self._bias, Noise: self._noise, TimeDelay: self._time_delay,
                    BitFlip: self._bit_flip}
        if type(ft) not in appliers:
            raise TypeError(f"unknown fault type: {ft!r}")
        self._apply = appliers[type(ft)]

    # -- the schedule ---------------------------------------------------------

    def schedule(self, rng, triggers=()) -> None:
        """Draw the windows of the run that ``bind`` started from ``rng``,
        with the upstream ``triggers`` windows as trigger line.

        The draws are a stepped run's, in its order: an armed step without a
        trigger draws its ``p`` or, first after arming, its activation time;
        an activation draws its exposure, bit positions, then one uniform
        per step of its window in the run.
        """
        dt, n_steps = self._dt, self._n_steps
        spans = sorted((start, n_steps if steps is None else start + steps)
                       for start, steps in triggers)  # [start, end) with a trigger
        k = 0 if self.enabled else n_steps  # the first armed step
        threshold = None  # a scheduled event fires once k * dt >= threshold
        while k < n_steps:
            while spans and spans[0][1] <= k:
                del spans[0]
            fire = max(spans[0][0], k) if spans else n_steps  # the next step with a trigger
            if fire > k and self._p is None:
                if threshold is None:
                    threshold = sample_activation_time(self.spec.event, k * dt, rng, dt) \
                        - 1e-9 * dt
                fire = k + int(np.searchsorted(np.arange(k, fire) * dt, threshold))
            elif fire > k and self._draws_p:
                fire = self._first_draw_below_p(rng, k, fire)
            if fire == n_steps:
                break
            # a window whose step count overflows a float (InfiniteTime's among
            # them) lasts to the end of the run
            steps = sample_exposure(self.spec.effect, rng, dt) / dt
            steps = None if math.isinf(steps) else round(steps)
            if steps == 0:  # degenerate empty window: stay armed
                k = fire + 1
                continue
            self.windows.append((fire, steps))
            ft = self.spec.fault_type
            if isinstance(ft, BitFlip):
                self._draws.append(self._fixed_mask if self._fixed_mask is not None else
                                   mask_from_positions(rng.choice(64, size=ft.n_bits,
                                                                  replace=False)))
            elif isinstance(ft, Noise):
                in_run = n_steps - fire if steps is None else min(steps, n_steps - fire)
                self._draws.append(rng.random(in_run).tolist())
            if steps is None or isinstance(self.spec.effect, Once):
                break
            k = fire + steps
            threshold = None
        self._next_start = self.windows[0][0] if self.windows else math.inf

    def _first_draw_below_p(self, rng, k: int, stop: int) -> int:
        """The first step in ``[k, stop)`` whose draw is below ``p``, else
        ``stop``; takes the draws up to it from ``rng``."""
        p = self._p
        while k < stop:
            n = min(stop - k, 512)  # small arrays, few draws taken twice
            drawn_from = rng.bit_generator.state
            below = (rng.random(n) < p).tolist()
            if True in below:
                i = below.index(True)
                rng.bit_generator.state = drawn_from
                rng.random(i + 1)
                return k + i
            k += n
        return stop

    def restart(self, k: int, golden) -> None:
        """The state after ``k`` steps before the first window, on the
        inputs in ``golden``'s column of the target signal."""
        seen = golden.signal(self.spec.target_signal)
        self._held = float(seen[k - 1])
        if self._dbuf is not None:
            self._dbuf.extend(seen[max(0, k - self._delay_steps):k].tolist())

    # -- fault types: the output of one active step ---------------------------

    def _stuck_at(self, x: float, k: int) -> float:
        return self._held

    def _package_drop(self, x: float, k: int) -> float:
        return self.spec.fault_type.replacement

    def _bias(self, x: float, k: int) -> float:
        return x + self.spec.fault_type.offset

    def _noise(self, x: float, k: int) -> float:
        # Generator.uniform(-bound, bound)'s sum; a bound that overflows is
        # cut to the widest range uniform() takes
        bound = min(abs(x) * self.spec.fault_type.boundary_pct / 100.0,
                    sys.float_info.max / 2)
        y = x + (-bound + (bound - -bound) * self._drawn[k - self._start])
        while abs(y - x) > bound:  # the sum rounded past the bound
            y = math.nextafter(y, x)
        return y

    def _time_delay(self, x: float, k: int) -> float:
        if k - self._start < self._delay_steps:
            return self._held
        return self._dbuf[0]  # input from delay_steps ago; buffer is full here

    def _bit_flip(self, x: float, k: int) -> float:
        return flip_bits(x, self._drawn)

    # -- block protocol -------------------------------------------------------

    def bind(self, slots: dict[str, int], clock) -> None:
        self._read = slots[self.in_signal]
        self._out_slot = slots[self.out_signal]
        self._trigger_slot = slots[self.trigger_signal]
        self._dt, self._n_steps = clock.dt_s, clock.n_steps
        ft = self.spec.fault_type
        self._delay_steps = round(ft.delay / self._dt) if isinstance(ft, TimeDelay) else 0
        # a delay longer than the run never replays, so the buffer holds at
        # most the run's steps
        self._dbuf: deque[float] | None = (
            deque(maxlen=min(self._delay_steps, self._n_steps)) if self._delay_steps > 0 else None
        )
        self._held = 0.0
        self._active_until = 0
        self._next_start = math.inf
        self._opened = 0  # windows opened so far
        self.windows: list[tuple[int, int | None]] = []
        self._draws: list = []  # per window: a bit mask, or noise's uniform per step

    # bench/child.py's tracer reads the returned trigger until the benchmark
    # counts from what the package returns (ROADMAP item 1(a))
    def emit(self, k: int, values: list) -> dict[str, float]:
        x = y = values[self._read]
        active = k < self._active_until or k == self._next_start
        if active:
            if k >= self._active_until:  # the next window opens
                i = self._opened
                self._opened = i + 1
                self._start, steps = self.windows[i]
                self._active_until = math.inf if steps is None else k + steps
                self._next_start = self.windows[i + 1][0] if i + 1 < len(self.windows) else math.inf
                if k == 0:
                    self._held = x
                if self._draws:
                    self._drawn = self._draws[i]
            y = self._apply(x, k)
        else:  # the common step: pass the sample through
            self._held = x
        if self._dbuf is not None:
            self._dbuf.append(x)
        values[self._out_slot] = y
        trigger = values[self._trigger_slot] = 1.0 if active else 0.0
        return {self.trigger_signal: trigger}
