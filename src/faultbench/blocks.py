"""Block protocol shared by the simulation engine and all block implementations.

A block exposes two kinds of output signals:

* state outputs   -- computed from internal state only, available at the start
                     of a step before any input of the current step exists
                     (a one-step-old view of the world; breaks feedback loops)
* emitted outputs -- computed by ``emit`` from the current step's inputs
                     (instantaneous feedthrough)

Once per step the engine calls ``state_outputs`` on every block that
declares state outputs, then ``emit`` in topological order over feedthrough
dependencies, then ``advance`` on every block whose class overrides
``Block.advance``. A block with neither (the monitor, an injector) costs the
step loop one ``emit`` call. ``emit``'s ``rng`` is ``None`` except in an
injector. A run that starts late calls ``restart`` after ``reset``.
"""

from __future__ import annotations


class Block:
    """Base block: stateless pass-through with no ports.

    Subclasses override the port tuples and whichever of the three step
    methods they need. ``feedthrough_inputs`` must list exactly the inputs
    that ``emit`` reads; the engine orders emits from it.
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

    def state_outputs(self, t: float) -> dict[str, float]:
        return {}

    def emit(self, t: float, signals: dict[str, float], rng) -> dict[str, float]:
        return {}

    def advance(self, t: float, signals: dict[str, float], dt: float) -> None:
        pass

    def restart(self, k: int, golden, rng) -> None:
        """Set the state of step ``k`` > 0 of a run where no injector has
        fired, from ``golden``, that run's trace without injectors."""
        raise NotImplementedError(f"block {self.name!r} cannot start a run at step {k}")
