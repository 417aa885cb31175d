"""Block protocol shared by the simulation engine and all block implementations.

A block exposes two kinds of output signals:

* state outputs   -- computed from internal state only, available at the start
                     of a step before any input of the current step exists
                     (a one-step-old view of the world; breaks feedback loops)
* emitted outputs -- computed by ``emit`` from the current step's inputs
                     (instantaneous feedthrough)

A run keeps every signal's value in one list, ``values``, at the signal's
slot. A block knows only its signal names: at the start of each run the
engine calls ``bind`` with the graph's slot of every signal. A block's
outputs get consecutive slots in ``output_names`` order (``slot_range``).

Once per step the engine calls ``state_outputs(t, values)`` on every block
that declares state outputs, then ``emit(t, values, rng)`` in topological
order over feedthrough dependencies, then ``advance(t, values, dt)`` on every
block whose class overrides ``Block.advance``; the first two write all their
outputs into ``values``. A block with neither (the monitor, an injector)
costs the step loop one ``emit`` call. ``emit``'s ``rng`` is ``None`` except
in an injector, whose ``emit`` also returns a dict holding its trigger. The
methods are taken from the block instance once per run and called with
positional arguments. A run that starts late calls ``restart`` after ``bind``.
"""

from __future__ import annotations


class Block:
    """Base block: stateless pass-through with no ports.

    Subclasses override the port tuples, ``bind`` and whichever step methods
    they need. ``feedthrough_inputs`` must list exactly the inputs that
    ``emit`` reads; the engine orders emits from it.
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

    def reset(self) -> None:
        pass

    def bind(self, slots: dict[str, int]) -> None:
        """Look up this run's slots of the block's signals in ``slots``."""

    def state_outputs(self, t: float, values: list) -> None:
        pass

    def emit(self, t: float, values: list, rng) -> None:
        pass

    def advance(self, t: float, values: list, dt: float) -> None:
        pass

    def restart(self, k: int, golden, rng) -> None:
        """Set the state of step ``k`` > 0 of a run where no injector has
        fired, from ``golden``, that run's trace without injectors."""
        raise NotImplementedError(f"block {self.name!r} cannot start a run at step {k}")


def slot_range(slots: dict[str, int], names: tuple[str, ...]) -> slice:
    """The slots of ``names``, consecutive outputs of one block."""
    start = slots[names[0]] if names else 0
    return slice(start, start + len(names))
