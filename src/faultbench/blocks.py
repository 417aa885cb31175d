"""Block protocol shared by the simulation engine and all block implementations.

A block exposes two kinds of output signals:

* state outputs   -- computed from internal state only, available at the start
                     of a step before any input of the current step exists
                     (a one-step-old view of the world; breaks feedback loops)
* emitted outputs -- computed by ``emit`` from the current step's inputs
                     (instantaneous feedthrough)

A run keeps every signal's value in one list, ``values``, at the signal's
slot. A block's outputs get consecutive slots in ``output_names`` order
(``slot_range``).

``bind(slots, clock)`` starts a run: the block looks up the graph's slot
of each of its signals, takes what it needs of the run's clock, and sets
its step-0 state, so nothing of an earlier run survives it. The engine
then lets each injector draw its schedule, and a run that starts late
calls ``restart`` to set the state of its first step.

The engine owns the step index ``k``; the step's time is ``k * clock.dt_s``.
Once per step it calls ``state_outputs(k, values)`` on every block that
declares state outputs, then ``emit(k, values)`` in topological order over
feedthrough dependencies (any such order gives the same trace, because
``emit`` reads only a block's feedthrough inputs), then tests the whole
list for a non-finite value once, then calls ``advance(k, values)`` on
every block whose class overrides ``Block.advance``; the first two write
all their outputs into ``values``. A block with neither (the monitor, an
injector) costs the step loop one ``emit`` call. The methods are taken
from the block instance once per run and called with positional
arguments.
"""

from __future__ import annotations


class Block:
    """Base block: stateless pass-through with no ports.

    Subclasses override the port tuples, ``bind`` and whichever step methods
    they need; a step method gets the step index, never a time or a step
    size. ``feedthrough_inputs`` must list every input that ``emit``'s
    outputs depend on in the same step (an injector's upstream triggers
    through its schedule); the engine orders emits from it.
    """

    name: str = ""
    inputs: tuple[str, ...] = ()
    state_output_names: tuple[str, ...] = ()
    emit_output_names: tuple[str, ...] = ()

    @property
    def feedthrough_inputs(self) -> tuple[str, ...]:
        return self.inputs if self.emit_output_names else ()

    @property
    def output_names(self) -> tuple[str, ...]:
        return self.state_output_names + self.emit_output_names

    def bind(self, slots: dict[str, int], clock) -> None:
        """Start a run: look up this run's slots of the block's signals in
        ``slots`` and set the step-0 state; ``clock`` is the run's
        ``scenario.ClockConfig``."""

    def state_outputs(self, k: int, values: list) -> None:
        pass

    def emit(self, k: int, values: list) -> None:
        pass

    # bench/child.py's tracer wraps this no-op on every block until the
    # benchmark counts from what the package returns (ROADMAP item 1(a))
    def advance(self, k: int, values: list) -> None:
        pass

    def restart(self, k: int, golden) -> None:
        """Set the state of step ``k`` > 0, where the first fault window
        opens, from ``golden``, the run's trace without injectors."""
        raise NotImplementedError(f"block {self.name!r} cannot start a run at step {k}")


def slot_range(slots: dict[str, int], names: tuple[str, ...]) -> slice:
    """The slots of ``names``, consecutive outputs of one block."""
    start = slots[names[0]] if names else 0
    return slice(start, start + len(names))
