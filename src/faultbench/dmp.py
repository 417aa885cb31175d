"""Dynamic Movement Primitives: per-joint point attractors with a learned
forcing term, synchronized by one shared canonical phase system.

Each joint runs the transformation system

    tau * dz/dt = alpha_z * (beta_z * (g - y) - z) + f(s)
    dy/dt       = z / tau

which for f = 0 and beta_z = alpha_z / 4 is a critically damped attractor
with unique fixed point (z, y) = (0, g). The forcing term is a normalized
radial-basis mix gated by s * (g - y0), so it vanishes as the phase decays
and goal convergence is preserved for any learned weights.

The canonical phase obeys ds/dt = -alpha_s * s / tau and is stepped with its
exact solution, not Euler.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .blocks import Block, slot_range

DEFAULT_ALPHA_Z = 25.0
DEFAULT_ALPHA_S = 4.6  # phase reaches 1% of its initial value at t = tau
DEFAULT_N_BASIS = 50


class DegenerateDemo(UserWarning):
    """Demonstration has no displacement; forcing weights are set to zero."""


@dataclass(frozen=True)
class DmpParams:
    """Constants of one joint primitive. ``beta_z`` must equal ``alpha_z / 4``."""

    alpha_z: float
    beta_z: float
    tau: float
    g: float
    alpha_s: float
    centers: np.ndarray  # basis centers in phase space, decreasing from ~1
    widths: np.ndarray
    weights: np.ndarray
    y0: float = 0.0  # start position, gates the forcing amplitude
    z0: float = 0.0  # start scaled velocity (tau * dy/dt at t=0)


WIDTH_FACTOR = 2.5  # kernel sharpness relative to neighbour spacing


def make_basis(n_basis: int, alpha_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers spaced evenly in time (exponentially in phase), with widths
    tied to the local spacing so every region of the phase is covered."""
    if n_basis < 1:
        raise ValueError("need at least one basis function")
    if n_basis == 1:
        return np.array([math.exp(-alpha_s / 2)]), np.array([1.0])
    times = np.linspace(0.0, 1.0, n_basis)
    centers = np.exp(-alpha_s * times)
    gaps = np.diff(centers)
    with np.errstate(divide="ignore"):  # see TargetTable.rows
        widths = WIDTH_FACTOR / gaps**2
    widths = np.append(widths, widths[-1])
    return centers, widths


def make_params(*, tau: float, g: float, y0: float = 0.0, z0: float = 0.0,
                alpha_z: float = DEFAULT_ALPHA_Z, alpha_s: float = DEFAULT_ALPHA_S,
                n_basis: int = DEFAULT_N_BASIS,
                weights: np.ndarray | None = None) -> DmpParams:
    centers, widths = make_basis(n_basis, alpha_s)
    if weights is None:
        weights = np.zeros(n_basis)
    return DmpParams(alpha_z=alpha_z, beta_z=alpha_z / 4.0, tau=tau, g=g,
                     alpha_s=alpha_s, centers=centers, widths=widths,
                     weights=np.asarray(weights, dtype=float), y0=y0, z0=z0)


def learn_system_weights(times: np.ndarray, demo: np.ndarray,
                         params: DmpParams) -> list[DmpParams]:
    """Fit forcing weights to each column of a demonstrated trajectory by
    locally weighted least squares; returns one params per column with its
    weights, goal and start state set.

    The demonstration must be uniformly sampled with at least 3 samples.
    Rolling a returned primitive out from (y0, z0) at the demonstration's
    time scale reproduces its column. The columns share one clock, so the
    basis activations are computed once; each joint keeps its own products
    with them, so its weights equal fitting it alone.
    """
    times = np.asarray(times, dtype=float)
    demo = np.asarray(demo, dtype=float)
    if times.ndim != 1 or demo.ndim != 2 or len(demo) != len(times) or len(times) < 3:
        raise ValueError("demonstration needs >= 3 (t, y) samples")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-12) or steps[0] <= 0:
        raise ValueError("demonstration must be uniformly sampled in time")
    dt = float(steps[0])

    tau = float(times[-1] - times[0])
    # an overflow here shows as a non-finite weight, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(-params.alpha_s * (times - times[0]) / tau)
        # exp(-widths * (s - centers) ** 2), built in one array
        psi = np.subtract(s[None, :], params.centers[:, None])
        np.square(psi, out=psi)
        np.multiply(-params.widths[:, None], psi, out=psi)
        np.exp(psi, out=psi)
    fitted = []
    for positions in demo.T:
        g = float(positions[-1])
        y0 = float(positions[0])
        vel = np.gradient(positions, dt)
        acc = np.gradient(vel, dt)
        joint = replace(params, tau=tau, g=g, y0=y0, z0=tau * float(vel[0]))

        amplitude = float(np.max(positions) - np.min(positions))
        if amplitude < 1e-12 and abs(g - y0) < 1e-12:
            warnings.warn("constant demonstration with g == y0; weights set to zero",
                          DegenerateDemo)
            fitted.append(replace(joint, weights=np.zeros_like(params.weights)))
            continue

        # target forcing from the inverse transformation system
        with np.errstate(over="ignore", invalid="ignore"):
            f_target = tau**2 * acc - params.alpha_z * (params.beta_z * (g - positions)
                                                        - tau * vel)
            gate = s * (g - y0)
            num = psi @ (gate * f_target)
            den = psi @ (gate * gate)
            weights = np.divide(num, den, out=np.zeros_like(num), where=np.abs(den) > 1e-300)
        if not np.all(np.isfinite(weights)):
            raise ValueError("DMP fit gives non-finite forcing weights "
                             "(alpha_z or the demonstration too large)")
        fitted.append(replace(joint, weights=weights))
    return fitted


def _shared_phase(params: list[DmpParams]) -> tuple[float, float]:
    """The (alpha_s, tau) every joint of one system shares with its phase.

    The joints must also share one basis (``centers`` and ``widths``), so
    the basis activations at a phase serve them all.
    """
    taus = {p.tau for p in params}
    alphas = {p.alpha_s for p in params}
    if len(taus) != 1 or len(alphas) != 1:
        raise ValueError("all joints of one system must share tau and alpha_s")
    first = params[0]
    if not all(np.array_equal(p.centers, first.centers)
               and np.array_equal(p.widths, first.widths) for p in params):
        raise ValueError("all joints of one system must share the basis centers and widths")
    return alphas.pop(), taus.pop()


ROLLOUT_CHUNK = 256  # steps whose basis activations are held at once


def _row_dots(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``[[row.dot(w) for w in weights] for row in rows]``, bit for bit, in
    one call.

    ``np.vecdot`` takes each product through the BLAS ``ddot`` call that
    ``ndarray.dot`` makes on two vectors (``np.einsum`` and ``@`` do not).
    But ``ndarray.dot`` multiplies one-element vectors as scalars, where
    ``vecdot`` adds the product to +0.0 and so turns a -0.0 into +0.0.
    """
    if rows.shape[1] == 1:
        return rows * weights[:, 0]
    return np.vecdot(rows[:, None, :], weights)


def rollout(params: list[DmpParams], dt: float, n_steps: int) -> np.ndarray:
    """Targets of the joints ``params`` driven by one shared phase, for
    ``n_steps`` steps of ``dt`` from the start state.

    Returns a read-only array of shape (n_steps, 3 * len(params)) holding
    pos, vel, acc per joint, row k being the targets at t = k * dt. Each
    step evaluates the transformation system at the current state, then
    advances it by Euler with dz = (ddy * tau) * dt. That product is not
    bit-equal to zdot * dt, and the pinned simulation outputs depend on it.

    The forcing term depends on the phase alone, never on a joint's state,
    so it is computed in bulk, ``ROLLOUT_CHUNK`` steps at a time: the phase,
    the basis activations shared by all joints, and then every joint's
    forcing ``psi . weights / sum(psi) * s * (g - y0)`` in one call
    (0 where ``sum(psi)`` underflows). Only the Euler recurrence is
    stepped, one joint at a time over the chunk.

    The table is bit-equal to stepping each joint alone with
    ``row.dot(weights)`` (``tests/test_dmp.py`` holds that step-by-step
    reference): ``_row_dots`` gives the bits of each of those dot products,
    and the division and the two products are single elementwise
    operations in the scalar expression's order.
    """
    alpha_s, tau = _shared_phase(params)
    # the phase's exact decay over one step; row k's phase is its k-th power,
    # taken as a running product
    phase = np.full(n_steps, math.exp(-alpha_s * dt / tau))
    phase[:1] = 1.0
    np.multiply.accumulate(phase, out=phase)
    neg_widths = -params[0].widths
    centers = params[0].centers
    weights = np.array([p.weights for p in params])
    amplitudes = np.array([p.g - p.y0 for p in params])
    states = [(p.y0, p.z0) for p in params]
    table = np.empty((n_steps, 3 * len(params)))
    for start in range(0, n_steps, ROLLOUT_CHUNK):
        s_chunk = phase[start:start + ROLLOUT_CHUNK, None]
        # vecdot is a ufunc and checks the FP flags, unlike ndarray.dot;
        # see TargetTable.rows
        with np.errstate(all="ignore"):
            psi = np.exp(neg_widths * (s_chunk - centers) ** 2)
            denom = psi.sum(axis=1, keepdims=True)
            forcing = _row_dots(psi, weights) / denom * s_chunk * amplitudes
            forcing[denom[:, 0] < 1e-300] = 0.0
        stop = start + len(forcing)
        for j, p in enumerate(params):
            alpha_z, beta_z, g = p.alpha_z, p.beta_z, p.g
            y, z = states[j]
            ys, yds, ydds = [], [], []
            for f in forcing[:, j].tolist():
                zdot = (alpha_z * (beta_z * (g - y) - z) + f) / tau
                yd = z / tau
                ydd = zdot / tau
                ys.append(y)
                yds.append(yd)
                ydds.append(ydd)
                y = y + yd * dt
                z = z + (ydd * tau) * dt
            states[j] = (y, z)
            # one flat list per column: a list of row tuples takes numpy's
            # slower nested-sequence conversion
            table[start:stop, 3 * j] = ys
            table[start:stop, 3 * j + 1] = yds
            table[start:stop, 3 * j + 2] = ydds
    table.flags.writeable = False
    return table


class TargetTable:
    """The rollout of one DMP system on one clock, computed on first use.

    The system is open-loop, so its targets are a constant of the scenario;
    every graph built for that scenario can share one table. A non-finite
    table is a ``ValueError``: no fault caused it.
    """

    def __init__(self, params: list[DmpParams], dt: float, n_steps: int):
        _shared_phase(params)
        self.params = list(params)
        self.dt = dt
        self.n_steps = n_steps

    @functools.cached_property
    def rows(self) -> np.ndarray:
        table = rollout(self.params, self.dt, self.n_steps)
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            raise ValueError(f"the DMP rollout is not finite from "
                             f"t={int(finite.argmin()) * self.dt:.6f}s")
        return table


class DmpSystemBlock(Block):
    """All joint primitives of one system, driven by a single shared phase.

    Emits per-joint position/velocity/acceleration targets as state outputs
    (they depend only on internal state), so downstream blocks can consume
    them in the same step. The system has no inputs: its targets are fixed
    by the scenario, so the block reads them row by row from a shared
    ``TargetTable``, which rolls the primitives out on the first step of the
    first run that uses it.

    ``indices`` are the positions in the table of ``joint_names``' primitives
    (by default all of them, in order). The block reads those joints'
    columns, a chunk of rows at a time, and ``trace_columns`` gives a run's
    trace those columns of the table itself.
    """

    def __init__(self, name: str, joint_names: list[str], targets: TargetTable,
                 indices: list[int] | None = None):
        if indices is None:
            indices = range(len(targets.params))
        if len(joint_names) != len(indices):
            raise ValueError("one parameter set per joint required")
        self.name = name
        self.joint_names = list(joint_names)
        self.targets = targets
        self._columns = [3 * i + field for i in indices for field in range(3)]
        self.state_output_names = tuple(
            f"dmp.{j}.{field}" for j in joint_names for field in ("pos", "vel", "acc")
        )

    def bind(self, slots: dict[str, int], clock) -> None:
        """Also check that the run is one the table holds: its step size and
        at most its number of steps."""
        if clock.dt_s != self.targets.dt:
            raise ValueError(f"DMP targets were rolled out with dt={self.targets.dt}, "
                             f"run with dt={clock.dt_s}")
        if clock.n_steps > self.targets.n_steps:
            raise ValueError(f"DMP targets were rolled out for {self.targets.n_steps} steps, "
                             f"run for {clock.n_steps}")
        self._written = slot_range(slots, self.state_output_names)
        self._chunk_start = 0
        self._chunk: list[list[float]] = []  # rows from _chunk_start on, as floats

    def state_outputs(self, k: int, values: list) -> None:
        i = k - self._chunk_start
        if not 0 <= i < len(self._chunk):
            self._chunk_start = k
            rows = self.targets.rows[k:k + ROLLOUT_CHUNK]
            self._chunk = rows[:, self._columns].tolist()
            i = 0
        values[self._written] = self._chunk[i]

    def trace_columns(self, steps: int) -> dict[str, np.ndarray]:
        """Each output's values over the first ``steps`` steps, by name: the
        read-only views of the table's columns that the outputs equal bit
        for bit."""
        rows = self.targets.rows[:steps]
        return {name: rows[:, c] for name, c in zip(self.state_output_names, self._columns)}

    def restart(self, k: int, golden) -> None:
        """Nothing to set: the targets are read by step."""
