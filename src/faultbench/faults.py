"""Per-signal fault injector: fault types, activation events, exposure effects.

An injector sits inline on one scalar signal. Its state is its current
exposure window, kept as two step indices: it is armed on step ``k`` when
``k >= _armed_from`` and active when ``k < _active_until``. While armed it
passes the signal through unchanged and watches its activation event. An
activation opens a window drawn from the effect model; while it lasts the
injector corrupts the signal according to its fault type. When it closes the
injector is armed again (repeatable effects), or never (``Once``, and a
disabled injector). A boolean trigger output mirrors the active window so
injectors can be chained: a true trigger input forces activation of a
downstream armed injector in the same step, regardless of the downstream
event model.
"""

from __future__ import annotations

import bisect
import math
import struct
import sys
from collections import deque
from dataclasses import dataclass

from .blocks import Block

FIRE_SCAN_CHUNK = 1024  # draws Injector.first_fire takes at once

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

    On step ``k`` the injector is armed if ``k >= _armed_from`` and active
    if ``k < _active_until``; the two never hold at once. A run starts armed
    from step 0 (never, if disabled) with no window open. An activation on
    step ``k`` opens the window ``[k, k + steps)`` (``[k, inf)`` for a window
    to the end of the run) and arms the injector again where it closes
    (never after a ``Once`` window).

    ``trigger_sources`` are the trigger-output signal names of upstream
    injectors chained into this one; any of them being true forces
    activation while armed.

    ``activations`` logs one ``(step, steps)`` entry per activation of the
    current run: the first step of the window and its length in steps,
    ``None`` when it lasts to the end of the run. A zero-length window is
    no activation and leaves no entry.
    """

    def __init__(self, spec: FaultSpec, dt: float, in_signal: str,
                 trigger_sources: tuple[str, ...] = ()):
        self.spec = spec
        self.dt = dt
        self.name = f"inj.{spec.name}"
        self.enabled = spec.enabled
        self.in_signal = in_signal
        self.trigger_sources = tuple(trigger_sources)
        self.out_signal = f"inj.{spec.name}.out"
        self.trigger_signal = f"inj.{spec.name}.trigger"
        self.inputs = (in_signal,) + self.trigger_sources
        self.emit_output_names = (self.out_signal, self.trigger_signal)
        ft = spec.fault_type
        self._delay_steps = round(ft.delay / dt) if isinstance(ft, TimeDelay) else 0
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
        self.reset()

    def reset(self) -> None:
        self._armed_from = 0 if self.enabled else math.inf
        self._active_until = 0
        self._held = 0.0
        self._step_idx = 0
        self._scheduled_t: float | None = None
        self._mask = self._fixed_mask or 0
        # no run has more steps than a deque can hold
        self._dbuf: deque[float] | None = (
            deque(maxlen=min(self._delay_steps, sys.maxsize)) if self._delay_steps > 0 else None
        )
        self.activations: list[tuple[int, int | None]] = []

    def first_fire(self, rng, limit: int) -> int:
        """The first step before ``limit`` on which the event fires, or
        ``limit``, drawn from a fresh copy ``rng`` of the generator: a
        ``p``-event's first draw below ``p``, or the first step that passes
        ``_scheduled_time_reached``'s test."""
        if not self.enabled:
            return limit
        if self._p is None:
            threshold = sample_activation_time(self.spec.event, 0.0, rng, self.dt) \
                - 1e-9 * self.dt
            # k * dt does not decrease with k, so the test holds from one step on
            return bisect.bisect_left(range(limit), True,
                                      key=lambda k: k * self.dt >= threshold)
        if self._draws_p:
            for start in range(0, limit, FIRE_SCAN_CHUNK):
                fires = rng.random(min(FIRE_SCAN_CHUNK, limit - start)) < self._p
                if fires.any():
                    return start + int(fires.argmax())
        return limit

    def restart(self, k: int, golden, rng) -> None:
        """The state after ``k`` steps that fired nothing, on the inputs in
        ``golden``'s column of the target signal."""
        seen = golden.signal(self.spec.target_signal)
        self._step_idx = k
        self._held = float(seen[k - 1 if self.enabled else 0])  # kept while armed
        if self._dbuf is not None:
            self._dbuf.extend(seen[max(0, k - self._delay_steps):k].tolist())
        if not self.enabled:
            return
        if self._draws_p:
            rng.bit_generator.advance(k)
        elif self._p is None:
            self._scheduled_t = sample_activation_time(self.spec.event, 0.0, rng, self.dt)

    # -- state machine ------------------------------------------------------

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
            if not fires:  # the common step: pass the sample through
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
            self._scheduled_t = sample_activation_time(self.spec.event, t, rng, self.dt)
        return t >= self._scheduled_t - 1e-9 * self.dt

    def _activate(self, k: int, rng) -> None:
        # a window whose step count overflows a float (InfiniteTime's among
        # them) lasts to the end of the run
        steps = sample_exposure(self.spec.effect, rng, self.dt) / self.dt
        steps = None if math.isinf(steps) else round(steps)
        if steps == 0:
            return  # degenerate empty window: stay armed
        self._active_until = math.inf if steps is None else k + steps
        self._armed_from = math.inf if isinstance(self.spec.effect, Once) else self._active_until
        self._scheduled_t = None  # re-sample activation time on the next armed step
        self.activations.append((k, steps))
        ft = self.spec.fault_type
        if isinstance(ft, BitFlip) and self._fixed_mask is None:
            positions = rng.choice(64, size=ft.n_bits, replace=False)
            self._mask = mask_from_positions(positions)

    # -- fault types: the output of one active step ---------------------------

    def _stuck_at(self, x: float, k: int, rng) -> float:
        return self._held

    def _package_drop(self, x: float, k: int, rng) -> float:
        return self.spec.fault_type.replacement

    def _bias(self, x: float, k: int, rng) -> float:
        return x + self.spec.fault_type.offset

    def _noise(self, x: float, k: int, rng) -> float:
        # a bound that overflows is cut to the widest range uniform() takes
        bound = min(abs(x) * self.spec.fault_type.boundary_pct / 100.0,
                    sys.float_info.max / 2)
        y = x + rng.uniform(-bound, bound)
        while abs(y - x) > bound:  # the sum rounded past the bound
            y = math.nextafter(y, x)
        return y

    def _time_delay(self, x: float, k: int, rng) -> float:
        if k - self.activations[-1][0] < self._delay_steps:
            return self._held
        return self._dbuf[0]  # input from delay_steps ago; buffer is full here

    def _bit_flip(self, x: float, k: int, rng) -> float:
        return flip_bits(x, self._mask)

    # -- block protocol -------------------------------------------------------

    def bind(self, slots: dict[str, int]) -> None:
        self._read = slots[self.in_signal]
        self._trigger_slots = tuple(slots[sig] for sig in self.trigger_sources)
        self._out_slot = slots[self.out_signal]
        self._trigger_slot = slots[self.trigger_signal]

    def emit(self, t: float, values: list, rng) -> dict[str, float]:
        trigger_in = False
        for slot in self._trigger_slots:
            if values[slot] >= 0.5:
                trigger_in = True
                break
        y, trig = self.step(float(values[self._read]), t, trigger_in, rng)
        values[self._out_slot] = y
        trigger = values[self._trigger_slot] = 1.0 if trig else 0.0
        return {self.trigger_signal: trigger}
