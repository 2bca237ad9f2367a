"""Fixed-step simulation of plants under hold or feedback inputs.

Plants are stateful simulation entities positioned at a time t with an
integration state; normal-form plants append their output jet to a history
buffer so operators with memory can look back.  Integration is classical
RK4 with steps aligned to the zero-order-hold grid of the input.

The funnel feedback law implemented here cancels the plant drift and keeps
the norm ratio of the highest chained error to its funnel radius constant;
it doubles as the warm-start generator for the optimal control solver and
as a standalone baseline controller.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errchain import top_error_rows
from .errors import PreconditionViolation
from .funnel import FunnelChain, chain_margins
from .systems import (
    ReferenceSignal, RelativeDegreeSystem, StateSpaceSystem, _DelayOperator, _guard_gain_matrix
)

__all__ = [
    "ControlSignal",
    "Trajectory",
    "JetHistory",
    "StateSpacePlant",
    "NormalFormPlant",
    "make_plant",
    "integrate_open_loop",
    "FeedbackLaw",
    "feasibility_feedback",
    "feedback_rollout",
    "zoh_feedback_rollout",
    "rollout_jets_batch",
    "rk4_step_maps",
]

BLOWUP_NORM = 1e8
# steps per block of a held span on a linear plant: bounds the propagator
# a held span builds to 256 steps, whatever the span
AFFINE_BLOCK = 256
# steps per block of the exact feedback on a linear plant: bounds its step
# maps and their scan to 4096 (n+1)^2 floats, whatever the span
FEEDBACK_BLOCK = 4096


@dataclass(frozen=True)
class ControlSignal:
    """Zero-order-hold input: values[i] is applied on [t_start + i*step, + step)."""

    t_start: float
    step: float
    values: np.ndarray
    saturation: float | None = None

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("control values must form a nonempty (N, m) array")
        object.__setattr__(self, "values", vals)
        if not self.step > 0.0:
            raise ValueError("ZOH step must be positive")
        if self.saturation is not None:
            if not self.saturation > 0.0:
                raise ValueError("saturation level must be positive")
            _require_box(vals, self.saturation)

    @property
    def t_end(self) -> float:
        return self.t_start + self.step * self.values.shape[0]

    def index_at(self, t):
        """The row held at time t, or at each time of an array, clipped to the rows."""
        idx = np.floor((np.asarray(t) - self.t_start) / self.step + 1e-9).astype(int)
        return np.clip(idx, 0, self.values.shape[0] - 1)

    def value_at(self, t: float) -> np.ndarray:
        if t < self.t_start - 1e-9 or t > self.t_end + 1e-9:
            raise ValueError(f"time {t} outside control coverage [{self.t_start}, {self.t_end}]")
        return self.values[self.index_at(t)]


def _require_box(values: np.ndarray, saturation: float):
    """Raise ValueError when an entry of values exceeds the saturation level."""
    if values.size and np.max(np.abs(values)) > saturation + 1e-12:
        raise ValueError("control values exceed the saturation level")


@dataclass
class Trajectory:
    """Simulation record on a uniform grid."""

    grid: np.ndarray
    state: np.ndarray
    output_jet: np.ndarray
    input: np.ndarray
    status: str = "completed"


class JetHistory:
    """Output-jet history: an initial segment plus appended integration samples.

    ``query`` reads the jets at an array of times, a call its row at one
    time.  Reads at s <= t0 use the supplied initial segment, else Lagrange
    interpolation over the stencil of the four nearest stored samples, or
    of all while fewer are stored (``_stencil``); at a stored time that
    stencil returns the sample itself, except that a -0.0 reads as +0.0
    and a non-finite neighbour makes the read NaN.  Reads beyond the
    newest sample raise PreconditionViolation.  ``ts`` and ``jets`` view
    arrays that grow by doubling (``reserve``); a batch's first (B, r*m)
    row broadcasts the stored past once.  A span of a delay plant reserves
    its room and writes its samples there (``_delay_windows``).
    """

    __slots__ = ("t0", "segment", "size", "_ts", "_jets")

    def __init__(self, t0: float, jet0: np.ndarray, initial_segment=None):
        self.t0 = float(t0)
        self.segment = initial_segment
        self.size = 1
        self._ts = np.array([self.t0])
        self._jets = np.array(jet0, dtype=float).reshape(1, -1)

    @property
    def ts(self) -> np.ndarray:
        return self._ts[: self.size]

    @property
    def jets(self) -> np.ndarray:
        return self._jets[: self.size]

    def append(self, t: float, jet: np.ndarray):
        """Append the sample jet at a time t after the stored ones."""
        jet = np.asarray(jet, dtype=float)
        self.reserve(np.array([t], dtype=float), jet.shape)
        self._jets[self.size] = jet
        self.size += 1

    def reserve(self, ts: np.ndarray, row: tuple):
        """Make room for samples at the increasing times ts after the stored
        ones, with rows of shape ``row``: the times are written past the
        stored ones, and the stored rows broadcast to the shape the two
        rows broadcast to.  The size is kept."""
        n, k = self.size, ts.size
        if not (ts[0] > self._ts[n - 1] and np.all(ts[1:] > ts[:-1])):
            raise ValueError("history samples must be appended in increasing time order")
        row = np.broadcast_shapes(self._jets.shape[1:], row)
        if n + k > self._ts.size or row != self._jets.shape[1:]:
            grown_ts, grown = np.empty(2 * (n + k)), np.empty((2 * (n + k),) + row)
            grown_ts[:n], grown[:n] = self.ts, _unit_axes(self.jets, 1, len(row) + 1)
            self._ts, self._jets = grown_ts, grown
        self._ts[n : n + k] = ts

    def latest(self) -> float:
        return float(self._ts[self.size - 1])

    def clone(self) -> "JetHistory":
        out = copy.copy(self)
        out._ts, out._jets = self._ts.copy(), self._jets.copy()
        return out

    def _segment_value(self, s: float) -> np.ndarray:
        """The jet at a time s <= t0: the initial segment's, else the first sample."""
        if self.segment is None:
            return self._jets[0]
        return np.asarray(self.segment(s), dtype=float).ravel()

    def query(self, s: np.ndarray) -> np.ndarray:
        """The jets at the times of an array s, shape s.shape + a sample's."""
        n, ts = self.size, self.ts
        if np.any(s > ts[-1] + 1e-9):
            raise PreconditionViolation(
                f"history queried at {np.max(s)} beyond newest sample {ts[-1]}"
            )
        near, weights = _stencil(ts, s, np.searchsorted(ts, s), n, min(n, 4))
        out = _weighted_sum(weights, self._jets[near])
        for pos in zip(*np.nonzero(s <= self.t0 + 1e-12)):
            out[pos] = self._segment_value(float(s[pos]))
        return out

    def __call__(self, s: float) -> np.ndarray:
        """The jet at one time s: ``query``'s row there."""
        return self.query(np.array([float(s)]))[0]


def _unit_axes(a: np.ndarray, lead: int, ndim: int) -> np.ndarray:
    """a with unit axes after its first ``lead`` axes, up to ``ndim`` axes."""
    return a.reshape(a.shape[:lead] + (1,) * (ndim - a.ndim) + a.shape[lead:])


def _stencil(ts: np.ndarray, s: np.ndarray, idx: np.ndarray, n, k: int):
    """Interpolation stencils at the times of an array s, whose insertion
    points among the n stored times ts are idx: the indices near
    (k,) + s.shape of the k stored samples from max(min(idx - 2, n - 4), 0)
    on, and the Lagrange weight of each at s, the same shape.  ``n`` may
    be an array broadcast against s when k = 4.  With ``_weighted_sum`` it
    is the one interpolation behind every read of a history: ``query`` and
    the planned windows (``_delay_windows``)."""
    near = np.maximum(np.minimum(idx - 2, n - 4), 0) + _unit_axes(np.arange(k), 1, s.ndim + 1)
    t = ts[near]
    # sample j weighs the product of (s - t_l) / (t_j - t_l) over l != j,
    # taken in the order of l
    col = np.arange(k - 1)
    others = t[col + (col >= np.arange(k)[:, None])]
    return near, ((s - others) / (t[:, None] - others)).prod(axis=1)


def _weighted_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j weights[j] rows[j] over a stencil's k samples, added in order
    from 0.0, for weights (k, ...) and rows (k, ...) + a sample's shape:
    the sum step of every read of a history (``_stencil``)."""
    out = 0.0
    for term in _unit_axes(weights, weights.ndim, rows.ndim) * rows:
        out = out + term
    return out


class _Plant:
    """Copy and advance shared by the plants: a time t, a state, a history."""

    # slots, not instance dicts: with dicts, copy.copy left the closed loop
    # of a plant with memory about 4 % slower (bench workload delay_mpc)
    __slots__ = ("system", "m", "r", "state_dim", "sigma", "linear", "t", "state", "history")

    def clone(self):
        """A copy with its own state and history; the system record is shared."""
        out = copy.copy(self)
        out.state = self.state.copy()
        out.history = None if self.history is None else self.history.clone()
        return out

    def advance(self, t, state):
        """Move to (t, state); a plant with a history appends the output jet."""
        self.t = float(t)
        self.state = np.asarray(state, dtype=float)
        if self.history is not None and t > self.history.latest():
            self.history.append(t, self.output_jet(self.state))


class StateSpacePlant(_Plant):
    """Simulation wrapper for a StateSpaceSystem positioned at (t, x).

    ``rhs`` and ``output_jet`` map states with any leading axes, so one call
    covers a batch of members or a whole trajectory.  ``linear`` is the
    record's (A, B, C_jet) or None; the exact-map paths read it, and
    ``yr_parts`` falls back on it.
    """

    __slots__ = ()

    def __init__(self, system: StateSpaceSystem, t0: float, x0):
        self.system = system
        self.m = system.m
        self.r = system.r
        self.state_dim = system.n
        self.sigma = 0.0
        self.t = float(t0)
        self.state = np.asarray(x0, dtype=float).reshape(system.n).copy()
        self.history = None
        self.linear = system.linear

    def rhs(self, t, x, u):
        """State derivative for states (..., n) and inputs (..., m)."""
        return self.system.drift(x) + _times_input(self.system.input_map(x), u)

    # the benchmark's tracer hooks this name; kept until the benchmark drops it
    rhs_batch = rhs

    def output_jet(self, x=None):
        """Flat output jets (..., r*m) of states (..., n); the plant's own by default."""
        x = self.state if x is None else x
        jet = np.asarray(self.system.output_jet(x), dtype=float)
        return jet.reshape(np.shape(x)[:-1] + (self.r * self.m,))

    def yr_parts(self, t, x):
        if self.system.yr_parts is not None:
            fval, gmat = self.system.yr_parts(x)
        elif self.linear is not None:
            # y^(r) = C_{r-1} A x + C_{r-1} B u from the last jet block
            a, b, c_jet = self.linear
            top = c_jet[(self.r - 1) * self.m :]
            fval, gmat = top @ (a @ x), top @ b
        else:
            raise PreconditionViolation(
                "state-space plant lacks a highest-derivative decomposition (yr_parts)"
            )
        return np.asarray(fval, dtype=float).reshape(self.m), np.atleast_2d(
            np.asarray(gmat, dtype=float)
        )


class NormalFormPlant(_Plant):
    """Simulation wrapper for a RelativeDegreeSystem.

    The integration state stacks the flat output jet and the operator's
    internal state.  When the operator has memory, a jet history buffer is
    maintained; the initial segment must cover [t0 - sigma, t0].  ``rhs``
    and ``output_jet`` map states with any leading axes; with memory, a
    batch is stepped on a clone whose history holds one row per member.  A
    pure-delay plant crosses its held spans and batches window by window
    (``_delay_windows``), without ``rhs``.  ``linear`` is the record's
    (A, B, C_jet) in these coordinates, or None.
    """

    __slots__ = ("_rm",)

    def __init__(
        self, system: RelativeDegreeSystem, t0: float, xi0, eta0=None, initial_segment=None
    ):
        self.system = system
        self.m = system.m
        self.r = system.r
        self._rm = system.r * system.m
        op_dim = system.T.state_dim
        self.state_dim = self._rm + op_dim
        self.sigma = system.sigma
        self.linear = system.linear
        self.t = float(t0)
        xi0 = np.asarray(xi0, dtype=float).reshape(self._rm)
        if op_dim:
            eta = system.T.initial_state() if eta0 is None else np.asarray(eta0, dtype=float)
            self.state = np.concatenate([xi0, eta.reshape(op_dim)])
        else:
            self.state = xi0.copy()
        self.history = (
            JetHistory(self.t, xi0, initial_segment) if system.sigma > 0.0 else None
        )

    def _operator_value(self, t, x):
        T = self.system.T
        xi = x[..., : self._rm]
        return xi, T.evaluate(t, xi, self.history, x[..., self._rm :] if T.state_dim else None)

    def rhs(self, t, x, u):
        """State derivative for states (..., n) and inputs (..., m)."""
        rm, m = self._rm, self.m
        sys = self.system
        xi, w = self._operator_value(t, x)
        out = np.empty_like(x)
        out[..., : rm - m] = xi[..., m:]
        out[..., rm - m : rm] = sys.f(w) + _times_input(np.asarray(sys.g(w), dtype=float), u)
        if sys.T.state_dim:
            out[..., rm:] = sys.T.state_derivative(t, xi, x[..., rm:])
        return out

    # the benchmark's tracer hooks this name; kept until the benchmark drops it
    rhs_batch = rhs

    def output_jet(self, x=None):
        """Flat output jets (..., r*m) of states (..., n); the plant's own by default."""
        x = self.state if x is None else x
        return x[..., : self._rm]

    def yr_parts(self, t, x):
        _, w = self._operator_value(t, x)
        fval = np.asarray(self.system.f(w), dtype=float).reshape(self.m)
        gmat = np.atleast_2d(np.asarray(self.system.g(w), dtype=float))
        return fval, gmat


def _times_input(gmat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """gmat @ u over leading axes; a plain product when there is one input."""
    if u.shape[-1] == 1:
        return gmat[..., 0] * u
    return (gmat @ u[..., None])[..., 0]


def make_plant(system, t0: float, initial, eta0=None, initial_segment=None):
    """Position a system record as a simulation plant at time t0."""
    if isinstance(system, StateSpaceSystem):
        return StateSpacePlant(system, t0, initial)
    if isinstance(system, RelativeDegreeSystem):
        return NormalFormPlant(system, t0, initial, eta0=eta0, initial_segment=initial_segment)
    raise TypeError(f"unsupported system record {type(system).__name__}")


def _is_multiple(a: float, b: float) -> bool:
    """a / b is an integer up to 1e-9 * max(1, |a / b|); False when b <= 0."""
    if b <= 0.0:
        return False
    ratio = a / b
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio))


def _step_grid(plant, t_span, h: float, step: float):
    """Check a rollout span; return its RK4 grid and the RK4 steps per ZOH step.

    Both steps must be positive and the span nonempty; the plant must sit at
    the span start; h must divide the ZOH step and the span, and must not
    exceed the memory length of an operator with memory.  The last grid
    point is t1 itself.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (h > 0.0 and step > 0.0):
        raise ValueError(f"integration step {h} and ZOH step {step} must be positive")
    if not t1 > t0:
        raise ValueError(f"empty integration span [{t0}, {t1}]")
    if abs(plant.t - t0) > 1e-9:
        raise ValueError(f"plant is positioned at t = {plant.t}, span starts at {t0}")
    if not _is_multiple(step, h):
        raise ValueError(f"step {h} does not divide the ZOH interval {step}")
    if not _is_multiple(t1 - t0, h):
        raise ValueError(f"span length {t1 - t0} is not a multiple of the step {h}")
    if plant.sigma > 0.0 and h > plant.sigma + 1e-12:
        raise ValueError("integration step must not exceed the operator memory length")
    grid = t0 + h * np.arange(round((t1 - t0) / h) + 1)
    grid[-1] = t1
    return grid, round(step / h)


def _control_callable(control, m: int):
    if isinstance(control, ControlSignal):
        return control.value_at
    if callable(control):
        return lambda t: np.atleast_1d(np.asarray(control(t), dtype=float)).reshape(m)
    raise TypeError("control must be a ControlSignal or a callable of time")


def _blown(rows: np.ndarray) -> np.ndarray:
    """Whether each row (..., n) has blown up: an entry above BLOWUP_NORM
    in magnitude, or a non-finite one, since NaN fails the comparison too."""
    return ~(np.abs(rows).max(axis=-1) <= BLOWUP_NORM)


def _march(plant, grid: np.ndarray, h: float, u_of, states: np.ndarray):
    """RK4 along the grid from states[0] ([B,] n), with the input
    ``u_of(i, t, x)`` ([B,] m) evaluated at every stage of step i.

    Fills states[1:] and advances the plant to every filled point, so
    operators with memory see the trajectory's history.  A span without
    batch axes stops at the first state whose norm exceeds BLOWUP_NORM or
    that is not finite, leaving the plant at the last good point; a batch
    runs on.  Returns (inputs, count): the first ``count`` rows are valid,
    and count < grid.size means the step to row ``count`` blew up.  The
    last input of a completed run is the caller's.
    """
    inputs = np.empty(grid.shape + states.shape[1:-1] + (plant.m,))
    rhs = plant.rhs
    x = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(grid[:-1]):
            inputs[i] = u = u_of(i, t, x)
            k1 = rhs(t, x, u)
            x2 = x + (0.5 * h) * k1
            k2 = rhs(t + 0.5 * h, x2, u_of(i, t + 0.5 * h, x2))
            x3 = x + (0.5 * h) * k2
            k3 = rhs(t + 0.5 * h, x3, u_of(i, t + 0.5 * h, x3))
            x4 = x + h * k3
            k4 = rhs(t + h, x4, u_of(i, t + h, x4))
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if states.ndim == 2 and _blown(x):
                return inputs, i + 1
            states[i + 1] = x
            plant.advance(grid[i + 1], x)
    return inputs, grid.size


def _trajectory(plant, grid, states, inputs, count: int) -> Trajectory:
    return Trajectory(
        grid=grid[:count],
        state=states[:count],
        output_jet=plant.output_jet(states[:count]),
        input=inputs[:count],
        status="completed" if count == grid.size else "blow-up",
    )


def integrate_open_loop(plant, control, t_span, h: float) -> Trajectory:
    """RK4 trajectory of the plant under the given input over t_span.

    A ControlSignal is one held span (``_hold``); its step must divide the
    ZOH step and the span, so input discontinuities land on grid points.  A
    callable of time is evaluated at every RK4 stage (``_march``).
    Integration stops early with status 'blow-up' when the state norm
    exceeds 1e8 or turns non-finite.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    held_input = isinstance(control, ControlSignal)
    grid, substeps = _step_grid(plant, t_span, h, control.step if held_input else h)
    u_of = _control_callable(control, plant.m)
    states = np.empty((grid.size, plant.state_dim))
    states[0] = plant.state
    if held_input:
        if not _is_multiple(t0 - control.t_start, h):
            raise ValueError("control breakpoints are not aligned with the grid")
        if control.t_start > t0 + 1e-9 or control.t_end < t1 - 1e-9:
            raise ValueError("control does not cover the integration span")
        inputs = np.empty((grid.size, plant.m))
        inputs[:-1] = control.values[control.index_at(grid[:-1])]
        # a span that starts inside an interval is held in pieces of
        # gcd(offset, substeps) steps, so that every piece starts at a knot
        piece = math.gcd(round((t0 - control.t_start) / h), substeps)
        count = _hold(plant, grid, h, piece, states, inputs[:-1:piece])
    else:
        inputs, count = _march(plant, grid, h, lambda i, t, x: u_of(t), states)
    if count == grid.size:
        inputs[-1] = u_of(t1 - 1e-12)
    return _trajectory(plant, grid, states, inputs, count)


class FeedbackLaw:
    """Funnel feedback: cancels the drift and locks the top error ratio.

    u(t) = g^{-1} (-f + y_ref^(r)(t) - sum_j k_j e_j^{(r-j)}(t)
                   + e_r(t) * theta'(t)/theta(t))

    With zeta = jet - ref, e_r = lock @ zeta and the sum is correction @
    zeta, for (m, r*m) maps the chain keeps per gains and m.  So u = g^{-1}
    (-f - correction @ jet + w lock @ jet + shift), where w = theta'/theta
    and shift = y_ref^(r) - w lock @ ref + correction @ ref depend on t
    only: ``time_terms`` forms them on an array of times for every reader
    of the law, ``evaluate`` applies them at a state, and a call does both
    at one time.  The law does not check funnel membership;
    ``feasibility_feedback`` and ``feedback_rollout`` do.
    """

    def __init__(self, chain: FunnelChain, gains, yref: ReferenceSignal):
        self.chain = chain
        self.gains = np.asarray(gains, dtype=float)
        self.yref = yref
        r, m = chain.r, yref.m
        if self.gains.size != r - 1:
            raise ValueError(f"need {r - 1} gains, got {self.gains.size}")
        self.r = r
        key = ("feedback law maps", self.gains.tobytes(), m)
        if key not in chain.cache:
            # e_r: the blocks of p_{r-1}(s), ascending
            lock = top_error_rows(self.gains, m)
            # sum_j k_j e_j^{(r-j)} = e_r' - e^{(r)}: the blocks of
            # s p_{r-1}(s) - s^r, which stay inside the jet
            correction = np.zeros_like(lock)
            correction[:, m:] = lock[:, :-m]
            for arr in (lock, correction):
                arr.setflags(write=False)
            chain.cache[key] = lock, correction
        self.lock, self.correction = chain.cache[key]

    def time_terms(self, ts: np.ndarray):
        """w = theta'/theta (K,) and the reference part shift (K, m) of the
        law at the K times of an array."""
        r, m = self.r, self.yref.m
        ext = self.yref.jet_array(ts, r + 1).reshape(ts.size, (r + 1) * m)
        ref, ref_high = ext[:, : r * m], ext[:, r * m :]
        theta = self.chain.theta
        w = np.divide(theta.derivative(ts), theta.value(ts), dtype=float)
        return w, ref_high - w[:, None] * (ref @ self.lock.T) + ref @ self.correction.T

    def evaluate(self, t, plant, x, w, shift):
        """The law at (t, x) from its time terms w and shift at t."""
        fval, gmat = plant.yr_parts(t, x)
        jet = plant.output_jet(x)
        target = -fval - self.correction @ jet + w * (self.lock @ jet) + shift
        gmat = _guard_gain_matrix(gmat)
        if gmat.shape == (1, 1):
            return target / float(gmat[0, 0])
        return np.linalg.solve(gmat, target)

    def __call__(self, t, plant, x):
        w, shift = self.time_terms(np.array([float(t)]))
        return self.evaluate(t, plant, x, w[0], shift[0])


def _require_membership(chain: FunnelChain, gains, ts, zeta):
    """Raise PreconditionViolation at the first point where a chained error
    leaves its funnel (see ``funnel.chain_margins``)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    margins = chain_margins(chain, gains, ts, zeta)
    bad = ~(margins > 0.0)
    if bad.any():
        k, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise PreconditionViolation(
            f"jet leaves funnel {i + 1} at t = {float(ts[k])}: margin {float(margins[k, i])}"
        )


def feasibility_feedback(plant, chain: FunnelChain, gains, yref: ReferenceSignal, t):
    """The funnel feedback at the plant's state at time t, after checking membership there."""
    _require_membership(chain, gains, t, plant.output_jet() - yref.jet(t, chain.r).ravel())
    return FeedbackLaw(chain, gains, yref)(t, plant, plant.state)


def feedback_rollout(
    plant,
    chain: FunnelChain,
    gains,
    yref: ReferenceSignal,
    t_span,
    h: float,
    zoh_step: float | None = None,
):
    """Closed-loop trajectory under the funnel feedback law.

    The feedback is evaluated at every integrator stage (exact law); the
    returned ControlSignal holds its samples at the ZOH grid.  Membership
    of every chained error in its funnel is checked at every grid point
    afterwards; the first violation raises PreconditionViolation.
    On a plant whose ``linear`` matrices are set the same law is applied
    as affine RK4 step maps, one product with the record's step polynomial
    per block, composed by one scan (``_affine_feedback``); on any other
    plant ``_march`` evaluates it stage by stage from time terms formed
    once for the span.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    step = h if zoh_step is None else float(zoh_step)
    grid, substeps = _step_grid(plant, t_span, h, step)
    law = FeedbackLaw(chain, gains, yref)
    states = np.empty((grid.size, plant.state_dim))
    states[0] = plant.state
    if plant.linear is not None:
        inputs, count = _affine_feedback(law, plant, grid, h, states)
    else:
        # the law's time terms at the stages t, t + h/2 and t + h of every
        # step, then at t1, formed once for the span
        w, shift = law.time_terms(np.append(grid[:-1, None] + np.array([0.0, 0.5 * h, h]), t1))

        def u_of(i, t, x):
            j = 3 * i + round(2.0 * (t - grid[i]) / h)
            return law.evaluate(t, plant, x, w[j], shift[j])

        inputs, count = _march(plant, grid, h, u_of, states)
        if count == grid.size:
            inputs[-1] = law.evaluate(t1, plant, states[-1], w[-1], shift[-1])

    trajectory = _trajectory(plant, grid, states, inputs, count)
    ref = yref.jet_array(trajectory.grid, chain.r).reshape(count, -1)
    _require_membership(chain, law.gains, trajectory.grid, trajectory.output_jet - ref)
    zoh_values = inputs[: min(count, grid.size - 1) : substeps].copy()
    control = ControlSignal(t_start=t0, step=step, values=zoh_values)
    return trajectory, control


def _affine_feedback(law: FeedbackLaw, plant, grid, h: float, states: np.ndarray):
    """RK4 under the exact law on a linear plant x' = A x + B u, y-jet = C x.

    The law is affine in the state there, so every RK4 step is an affine
    map x+ = M_i x + v_i whose four stages still apply the law at t_i,
    t_i + h/2 and t_i + h.  Each block of FEEDBACK_BLOCK steps forms the
    law's time terms at its stage times (``FeedbackLaw.time_terms``),
    evaluates its augmented maps [[M_i, v_i], [0, 1]] as one product with
    the record's step polynomial (``_step_polynomial``) and composes them
    from the block's first state by ``_scan``.

    Fills states[1:] from states[0], leaves the plant at the last good
    point and returns (inputs, count) as ``_march`` does.
    """
    poly = _step_polynomial(law, plant, h)
    n, n_steps = states.shape[1], grid.size - 1
    # w and c of the law at the grid points
    w_at, c_at = np.empty(grid.size), np.empty((grid.size, plant.m))
    stages = np.array([0.0, 0.5 * h, h])[:, None]
    count = grid.size
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, FEEDBACK_BLOCK):
            hi = min(lo + FEEDBACK_BLOCK, n_steps)
            k = hi - lo
            # the terms at the steps' stages a, b and c, then at the block's end
            w, shift = law.time_terms(np.append(grid[lo:hi] + stages, grid[hi]))
            c = shift @ poly.gain_inverse.T
            w_at[lo:hi], c_at[lo:hi], w_at[hi], c_at[hi] = w[:k], c[:k], w[-1], c[-1]
            maps = poly.maps(w[:-1].reshape(3, k), c[:-1].reshape(3, k, -1))
            block = states[lo + 1 : hi + 1]
            block[:] = _scan(maps, np.append(states[lo], 1.0)[:, None])[:, :n, 0]
            # one max over the whole block; rows are scanned only once it fails
            if _blown(block.ravel()):
                count = lo + 1 + int(np.argmax(_blown(block)))
                break
        done = states[:count]
        inputs = done @ poly.k0.T + w_at[:count, None] * (done @ poly.k1.T) + c_at[:count]
    plant.advance(grid[count - 1], states[count - 1].copy())
    return inputs, count


def _scan(maps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Every prefix composition of square maps applied to a start:
    out[i] = maps[i] @ ... @ maps[0] @ start for maps (L, d, d) and a
    start (d, k), shape (L, d, k).

    Two levels over ceil(sqrt(L)) chunks of consecutive maps, the last
    one padded with identities: the prefix products inside the chunks one
    step at a time, all chunks at once; then each chunk's start from the
    one before, one product per chunk; then every row in one batched
    product.  That is about 2 sqrt(L) numpy calls for L steps.  When no
    chunk needs padding the products overwrite ``maps``.
    """
    n_maps, d = maps.shape[:2]
    chunks = math.isqrt(n_maps - 1) + 1
    size = -(-n_maps // chunks)
    pad = chunks * size - n_maps
    if pad:
        maps = np.concatenate([maps, np.broadcast_to(np.eye(d), (pad, d, d))])
    pre = maps.reshape(chunks, size, d, d)
    for k in range(1, size):
        pre[:, k] = pre[:, k] @ pre[:, k - 1]
    heads = np.empty((chunks,) + start.shape)
    heads[0] = start
    for j in range(1, chunks):
        heads[j] = pre[j - 1, -1] @ heads[j - 1]
    out = pre.reshape(chunks, size * d, d) @ heads
    return out.reshape((chunks * size,) + start.shape)[:n_maps]


class _StepPolynomial:
    """The RK4 step maps of the exact funnel feedback on a linear plant, as
    one polynomial in the law's time terms.

    With F = C_{r-1} A and g = C_{r-1} B the law is affine in the state,
    u = (k0 + w(t) k1) x + c(t) with k0 = -g^{-1} (F + correction C_jet),
    k1 = g^{-1} lock C_jet from the law's maps, and with w = theta'/theta
    and c = g^{-1} shift from its ``time_terms``, so the closed loop
    is x' = (P0 + w P1) x + B c with P0 = A + B k0 and P1 = B k1.  Its
    augmented stage matrices S = [[P0 + w P1, B c], [0, 0]] are linear in
    (1, w, c), and the RK4 step map

        I + h/6 (m1 + 2 m2 + 2 m3 + m4),  m1 = S_a,  m2 = S_b + h/2 S_b m1,
        m3 = S_b + h/2 S_b m2,  m4 = S_c + h S_c m3,

    with stages a, b, c at t, t + h/2 and t + h, is a fixed polynomial in
    the stage values w_a, w_b, w_c and c_a, c_b, c_c.  A product whose
    left factor is a c term vanishes, since every stage's last row is zero,
    so each monomial is a product of stage w's times at most one entry of
    a c: 12 + 11 m of them.  Their coefficients, (n+1)^2 each, are formed
    once by running that recursion on matrix polynomials.  The arrays are
    read-only.
    """

    def __init__(self, law: FeedbackLaw, linear, h: float):
        a, b, c_jet = linear
        n, m = b.shape
        top = c_jet[(law.r - 1) * m :]
        self.d = n + 1
        gmat = _guard_gain_matrix(top @ b)
        self.gain_inverse = np.linalg.inv(gmat)
        self.k0 = np.linalg.solve(gmat, -top @ a - law.correction @ c_jet)
        self.k1 = np.linalg.solve(gmat, law.lock @ c_jet)

        # a matrix polynomial maps (e_a, e_b, e_c, col) to the coefficient of
        # w_a^e_a w_b^e_b w_c^e_c times entry col of the stacked (c_a, c_b,
        # c_c), or times 1 when col is -1
        d = self.d
        p0, p1, drive = np.zeros((d, d)), np.zeros((d, d)), np.zeros((m, d, d))
        p0[:n, :n], p1[:n, :n] = a + b @ self.k0, b @ self.k1
        drive[:, :n, n] = b.T

        def stage(s):
            unit = tuple(int(k == s) for k in range(3))
            return {(0, 0, 0, -1): p0, unit + (-1,): p1,
                    **{(0, 0, 0, s * m + j): drive[j] for j in range(m)}}

        def product(x, y, scale):
            """scale * x @ y; a left c term meets a zero last row."""
            out = {}
            for kx, cx in x.items():
                if kx[3] < 0:
                    for ky, cy in y.items():
                        key = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2], ky[3])
                        out[key] = out.get(key, 0.0) + scale * (cx @ cy)
            return out

        def combine(*terms):
            """The sum of weight * polynomial over (weight, polynomial) pairs."""
            out = {}
            for weight, poly in terms:
                for key, coef in poly.items():
                    out[key] = out.get(key, 0.0) + weight * coef
            return out

        s_a, s_b, s_c = stage(0), stage(1), stage(2)
        m2 = combine((1.0, s_b), (1.0, product(s_b, s_a, 0.5 * h)))
        m3 = combine((1.0, s_b), (1.0, product(s_b, m2, 0.5 * h)))
        m4 = combine((1.0, s_c), (1.0, product(s_c, m3, h)))
        sixth = h / 6.0
        step = combine((1.0, {(0, 0, 0, -1): np.eye(d)}), (sixth, s_a),
                       (2.0 * sixth, m2), (2.0 * sixth, m3), (sixth, m4))

        # rows: every w monomial in C order, then the driven monomials, a w
        # monomial times one c entry, by c entry; rows c_bounds[j] up to
        # c_bounds[j + 1] of the driven ones take entry j
        self.degree = tuple(max(key[s] for key in step) for s in range(3))
        shape = tuple(e + 1 for e in self.degree)
        self.n_mono = math.prod(shape)
        driven = sorted((key for key in step if key[3] >= 0), key=lambda key: key[::-1])
        self.w_index = np.array([np.ravel_multi_index(key[:3], shape) for key in driven])
        self.c_bounds = np.searchsorted([key[3] for key in driven], np.arange(3 * m + 1))
        rows = {key: np.ravel_multi_index(key[:3], shape) for key in step if key[3] < 0}
        rows.update({key: self.n_mono + i for i, key in enumerate(driven)})
        self.coef = np.zeros((len(rows), d * d))
        for key, coef in step.items():
            self.coef[rows[key]] = coef.ravel()
        for arr in (self.gain_inverse, self.k0, self.k1, self.coef):
            arr.setflags(write=False)

    def maps(self, w: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Augmented step maps (L, n+1, n+1) from the stage values of L
        steps, w (3, L) and c (3, L, m): one product with the coefficients."""
        n_steps = w.shape[1]
        powers = []
        for stage, degree in zip(w, self.degree):
            power = np.ones((degree + 1, n_steps))
            for e in range(1, degree + 1):
                power[e] = power[e - 1] * stage
            powers.append(power)
        pa, pb, pc = powers
        # filled in place: temporaries of this size cost fresh pages
        values = np.empty((self.coef.shape[0], n_steps))
        mono, driven = values[: self.n_mono], values[self.n_mono :]
        np.multiply(pa[:, None, None] * pb[None, :, None], pc[None, None],
                    out=mono.reshape(pa.shape[:1] + pb.shape[:1] + pc.shape))
        np.take(mono, self.w_index, axis=0, out=driven)
        entries = c.transpose(0, 2, 1).reshape(-1, n_steps)
        for j, entry in enumerate(entries):
            driven[self.c_bounds[j] : self.c_bounds[j + 1]] *= entry
        return (values.T @ self.coef).reshape(n_steps, self.d, self.d)


def _step_polynomial(law: FeedbackLaw, plant, h: float) -> _StepPolynomial:
    """The step polynomial of the law's gains and the step h on the plant's
    linear record.  The record keeps one per (gains, h) in its ``cache``,
    so a run, whose plants share their record, builds it once."""
    cache = plant.system.cache
    key = ("step polynomial", law.gains.tobytes(), h)
    if key not in cache:
        cache[key] = _StepPolynomial(law, plant.linear, h)
    return cache[key]


def zoh_feedback_rollout(
    plant,
    chain: FunnelChain,
    gains,
    yref: ReferenceSignal,
    t_span,
    zoh_step: float,
    h: float,
    saturation: float | None = None,
    head=None,
):
    """Receding zero-order-hold application of the funnel feedback.

    The (k, m) ``head`` rows are held as given over the first k ZOH
    intervals; at each later knot t_span[0] + h j the law is evaluated on
    the knot's state, from its time terms formed once for all knots,
    optionally clamped to the saturation box, and held for one interval
    (``_sampled_feedback``, the loop that also builds every OCP start, the
    same on every plant).  The loop is open between knots, so the
    conservation property of the continuous law does not transfer; this is
    the implementable sampled controller.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    grid, substeps = _step_grid(plant, t_span, h, zoh_step)
    step = float(zoh_step)
    if not _is_multiple(t1 - t0, step):
        raise ValueError(f"span length {t1 - t0} is not a multiple of the ZOH step {step}")
    shape = (round((t1 - t0) / step), plant.m)
    head = np.empty((0, plant.m)) if head is None else np.asarray(head, dtype=float)
    if head.shape[1:] != shape[1:] or head.shape[0] > shape[0]:
        raise ValueError(f"head {head.shape} does not fit the span's control {shape}")
    values, states, count = _sampled_feedback(
        plant, chain, gains, yref, grid, h, substeps, head, saturation
    )
    inputs = np.empty((grid.size, plant.m))
    inputs[:-1] = np.repeat(values, substeps, axis=0)
    if count == grid.size:
        inputs[-1] = values[-1]
    control = ControlSignal(
        t_start=t0, step=step, values=values[: (count - 1) // substeps + 1], saturation=saturation
    )
    return _trajectory(plant, grid, states, inputs, count), control


def _sampled_feedback(plant, chain, gains, yref, grid, h: float, substeps: int, head, saturation):
    """The one knot loop of sampled funnel feedback, from the plant's state
    over a grid of ZOH intervals of ``substeps`` steps of length h.

    The (k, m) ``head`` rows are held over the first k intervals as one
    ``_hold``; the law's time terms are formed once, at every later knot
    (``FeedbackLaw.time_terms``), and at each such knot the law is
    evaluated from them on the knot's state, clamped to the box unless
    ``saturation`` is None, and held for one interval by one more
    ``_hold``, so a plant with memory reads its own past.  Returns the
    (N, m) rows, the grid states and their valid count as ``_hold`` gives
    it; rows past a blow-up are not to be used.  Raises a ControlSignal's
    ValueError for a head outside the box.
    """
    if saturation is not None:
        _require_box(head, saturation)
    law = FeedbackLaw(chain, gains, yref)
    N, k = (grid.size - 1) // substeps, head.shape[0]
    values = np.empty((N, plant.m))
    values[:k] = head
    states = np.empty((grid.size, plant.state_dim))
    states[0] = plant.state
    span = slice(0, k * substeps + 1)
    count = _hold(plant, grid[span], h, substeps, states[span], head)
    knots = grid[k * substeps : -1 : substeps]
    w, shift = law.time_terms(knots)
    for j, t in enumerate(knots):
        i = (k + j) * substeps
        if count <= i:
            break
        u = law.evaluate(t, plant, states[i], w[j], shift[j])
        values[k + j] = u if saturation is None else np.clip(u, -saturation, saturation)
        span = slice(i, i + substeps + 1)
        count = i + _hold(plant, grid[span], h, substeps, states[span], values[[k + j]])
    return values, states, count


def rollout_jets_batch(plant, values: np.ndarray, step: float, h: float):
    """Integrate a batch of ZOH controls on a clone of the plant.

    ``values`` has shape (B, N, m); the rollout covers N*step from the
    plant's current time as one batch-shaped held span (``_hold``): on a
    plant with memory each member reads its own predicted past in the
    clone's history, a blown member leaves the others untouched, and on a
    linear plant a member's rows do not depend on its batch.  Returns
    (grid, jets (B, K, r*m), inputs_ok) where inputs_ok flags batch members
    that stayed finite and bounded.  A blown member's jets hold its rows as
    they came out: from the blow-up on, entries above BLOWUP_NORM, inf or
    NaN.
    """
    B, N, m = values.shape
    grid, substeps = _step_grid(plant, (plant.t, plant.t + N * step), h, step)
    plant = plant.clone()
    states = np.empty((grid.size, B, plant.state_dim))
    states[0] = plant.state
    with np.errstate(over="ignore", invalid="ignore"):
        _hold(plant, grid, h, substeps, states, values.swapaxes(0, 1))
        jets = plant.output_jet(states.swapaxes(0, 1))
    return grid, jets, ~_blown(jets).any(axis=1)


def rk4_step_maps(a: np.ndarray, b: np.ndarray, h: float):
    """Exact maps of one RK4 step of x' = a x + b u under a held input.

    Returns (phi, gam) with x+ = phi x + gam u, where phi = I + h a T,
    gam = h T b and T = I + (h a)/2 (I + (h a)/3 (I + (h a)/4)).
    """
    n = a.shape[0]
    eye = np.eye(n)
    ha = h * a
    series = eye + (ha / 2.0) @ (eye + (ha / 3.0) @ (eye + ha / 4.0))
    return eye + ha @ series, h * (series @ b)


class LinearPropagator:
    """RK4 on a linear plant x' = A x + B u as exact state maps of one grid.

    The grid has ``n_intervals`` ZOH intervals of ``substeps`` steps of
    length h, K = n_intervals * substeps + 1 points.  With phi and gam the
    maps of one step (``rk4_step_maps``), ``powers`` (K, n, n) holds phi^k
    and ``forced`` (n_intervals * m, K * n) the state responses to each
    interval's input: from a start x0 under stacked controls v the grid
    states are powers @ x0 + (v @ forced).reshape(K, n).  Column block k of
    the response to interval p sums phi^j gam over the steps of p before k;
    it is taken as a difference of their cumulative sums.  The maps on
    fewer intervals are the leading blocks.  Output jets and chained errors
    are read off these maps (``top_errors``).  The arrays are read-only.
    """

    def __init__(self, linear, h: float, substeps: int, n_intervals: int):
        a, b, self.c_jet = linear
        n, m = b.shape
        self.m, self.substeps, self.n_intervals = m, substeps, n_intervals
        phi, gam = rk4_step_maps(a, b, h)
        n_grid = n_intervals * substeps + 1
        powers = np.empty((n_grid, n, n))
        powers[0] = np.eye(n)
        for k in range(1, n_grid):
            powers[k] = powers[k - 1] @ phi
        # cum[i] = sum_{j < i} phi^j gam, shape (K, n, m)
        cum = np.zeros((n_grid, n, m))
        np.cumsum(powers[:-1] @ gam, axis=0, out=cum[1:])
        k = np.arange(n_grid)[None, :]
        first = substeps * np.arange(n_intervals)[:, None]
        resp = cum[np.maximum(k - first, 0)] - cum[np.maximum(k - first - substeps, 0)]
        self.powers = powers
        self.forced = resp.transpose(0, 3, 1, 2).reshape(n_intervals * m, n_grid * n)
        for arr in (self.powers, self.forced):
            arr.setflags(write=False)
        self._top_errors = {}

    def top_errors(self, gains: np.ndarray, n_intervals: int):
        """(er_block, er_free, er_forced) of the chained errors with
        ``gains`` on the K grid points of the first ``n_intervals`` intervals.

        e_r = jet @ er_block.T.  With er_state = er_block C_jet (m, n), the
        jets of a start x0 under stacked controls v give
        er_free @ x0 + (v @ er_forced).reshape(K, m), before the reference's
        part is subtracted: er_free (K, m, n) is er_state phi^k and
        er_forced (n_intervals * m, K * m) is er_state applied to
        ``forced``.  Kept per gains and interval count.
        """
        key = (gains.tobytes(), n_intervals)
        if key not in self._top_errors:
            m, n = self.m, self.powers.shape[1]
            K = n_intervals * self.substeps + 1
            er_block = top_error_rows(gains, m)
            er_state = er_block @ self.c_jet
            er_free = er_state @ self.powers[:K]
            forced = self.forced[: n_intervals * m, : K * n].reshape(-1, K, n)
            er_forced = (forced @ er_state.T).reshape(-1, K * m)
            for arr in (er_block, er_free, er_forced):
                arr.setflags(write=False)
            self._top_errors[key] = er_block, er_free, er_forced
        return self._top_errors[key]


def linear_propagator(plant, h: float, substeps: int, n_intervals: int) -> LinearPropagator:
    """The propagator of the plant's record for steps h and ZOH intervals of
    ``substeps`` steps, covering at least ``n_intervals`` intervals.

    The record keeps one per (h, substeps) in its ``cache``, so a run, whose
    plants share their record, builds it once; a request for more intervals
    than it covers replaces it with a larger one.
    """
    cache = plant.system.cache
    key = ("propagator", h, substeps)
    prop = cache.get(key)
    if prop is None or prop.n_intervals < n_intervals:
        prop = cache[key] = LinearPropagator(plant.linear, h, substeps, n_intervals)
    return prop


def _hold(plant, grid, h: float, substeps: int, states: np.ndarray, rows: np.ndarray) -> int:
    """Fill states[1:] (K, [B,] n) from states[0] on the grid under
    ``rows`` (N, [B,] m) held over consecutive ZOH intervals of
    ``substeps`` steps of length h; the last interval may be cut short.
    Every held span, single or batched, is crossed here.

    An empty span returns 1 at once.  On a plant with ``linear`` matrices
    each block of intervals is one product with the record's propagator,
    which a held span asks to cover at most AFFINE_BLOCK steps; a
    pure-delay plant is stepped window by window (``_delay_windows``); any
    other plant is stepped by ``_march``.  A span without batch axes stops
    at its first blown row; a batch runs on.  Returns the count of valid
    rows as ``_march`` does and leaves the plant at the last good point.
    """
    n_steps = states.shape[0] - 1
    if not n_steps:
        return 1
    if plant.linear is None:
        inputs = rows[np.arange(n_steps) // substeps]
        if isinstance(getattr(plant.system, "T", None), _DelayOperator):
            return _delay_windows(plant, grid, h, states, inputs)
        return _march(plant, grid, h, lambda i, t, x: inputs[i], states)[1]
    prop = linear_propagator(
        plant, h, substeps, min(-(-n_steps // substeps), max(1, AFFINE_BLOCK // substeps))
    )
    n, m, batch = states.shape[-1], rows.shape[-1], states.shape[1:-1]
    block = prop.n_intervals * substeps
    count = n_steps + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, block):
            k = min(block, n_steps - lo)
            p, first = -(-k // substeps), lo // substeps
            # per-member matrix-vector products and einsum: a row rounds alike in any batch
            held = rows[first : first + p].swapaxes(0, -2).reshape(batch + (p * m,))
            gain = prop.forced[: p * m, n : (k + 1) * n]
            forced = np.einsum("bi,ij->bj", held, gain) if batch else held @ gain
            free = prop.powers[(slice(1, k + 1),) + (None,) * len(batch)] @ states[lo][..., None]
            out = states[lo + 1 : lo + k + 1]
            out[:] = free[..., 0] + forced.reshape(batch + (k, n)).swapaxes(0, -2)
            bad = _blown(out)
            if states.ndim == 2 and bad.any():
                count = lo + 1 + int(bad.argmax())
                break
    plant.advance(grid[count - 1], states[count - 1].copy())
    return count


def _delay_windows(plant, grid, h: float, states: np.ndarray, inputs: np.ndarray) -> int:
    """RK4 on a pure-delay plant by the method of steps: fills states[1:]
    (K, [B,] n) from states[0] under inputs[i] ([B,] m) held over step i.

    The span is planned once, before its first step.  Once crossed, the
    history holds its stored times and then grid[1:], so each stage time
    t + (0, h/2, h) - tau has a known insertion point, hit and segment
    flag, and stored count from which its read stays fixed: the initial
    segment, a stored time (every stencil holding it returns its sample),
    or a full stencil of four.  A window takes the next step and every
    later one whose reads are fixed by the count stored when it starts,
    and each step reads the stencil and weights ``JetHistory.query`` forms
    at that count (``_stencil``), clamped while not full.  Per window: one
    gather of the stencils' samples, their sum in query's order with the
    segment reads written over it, top block slopes f(w) + g(w) u, each
    lower block's from the block above, a cumulative sum per block (the
    stage operations of ``_march`` in order, bit for bit), and one write
    into history room reserved once per span.  A span without batch axes
    stops at a row that blows up, as ``_march`` does.  Returns the count of
    valid rows; the plant ends at the last one.
    """
    system, history, m = plant.system, plant.history, plant.m
    delay, n_steps, n0 = system.T, grid.size - 1, history.size
    stage_times = (grid[:-1, None] + np.array([0.0, 0.5 * h, h])) - delay.tau
    seg = stage_times <= history.t0 + 1e-12
    seg_values = np.array([history._segment_value(float(s)) for s in stage_times[seg]])
    # the segment reads of steps i to j - 1 are seg_values[seg_at[i] : seg_at[j]]
    seg_at = [0] + np.cumsum(seg.sum(axis=1)).tolist()
    # a batch's first window reads the one past its members share
    past = history._jets
    history.reserve(grid[1:], states.shape[1:-1] + (plant.r * m,))
    times = history._ts[: n0 + n_steps]
    idx = np.searchsorted(times, stage_times)
    hit = times[np.minimum(idx, times.size - 1)] == stage_times
    # the stored count from which all three reads of a step are settled
    settle = np.where(seg, 0, np.where(hit, idx + 1, np.maximum(idx + 2, 4))).max(axis=1)
    starts = [0]
    for j, count in enumerate(settle[1:].tolist(), 1):
        if count > n0 + starts[-1]:
            starts.append(j)
    ends = starts[1:] + [n_steps]
    # the count stored when each step's window starts, and the reads at it
    stored = n0 + np.repeat(starts, np.subtract(ends, starts))[:, None]
    idx = np.minimum(idx, stored)
    full = int(np.searchsorted(stored[:, 0], 4))
    near, weights = _stencil(times, stage_times[full:], idx[full:], stored[full:], 4)
    end = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in zip(starts, ends):
            src = history._jets if i else past
            if i < full:
                stencil = _stencil(times, stage_times[i:j], idx[i:j], n0 + i, n0 + i)
            else:
                stencil = near[:, i - full : j - full], weights[:, i - full : j - full]
            w = _weighted_sum(stencil[1], src[stencil[0]])
            if seg_at[j] > seg_at[i]:
                w[seg[i:j]] = _unit_axes(seg_values[seg_at[i] : seg_at[j]], 1, w.ndim - 1)
            w = delay.func(_unit_axes(w, 2, states.ndim + 1))
            top = system.f(w) + _times_input(np.asarray(system.g(w), dtype=float),
                                             inputs[i:j, None])
            slopes = top[:, 0], top[:, 1], top[:, 1], top[:, 2]
            for block in range(plant.r - 1, -1, -1):
                k1, k2, k3, k4 = slopes
                col = states[i : j + 1, ..., block * m : (block + 1) * m]
                col[1:] = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                np.cumsum(col, axis=0, out=col)
                x = col[:-1]
                slopes = x, x + (0.5 * h) * k1, x + (0.5 * h) * k2, x + h * k3
            new = states[i + 1 : j + 1]
            bad = _blown(new)
            end = i + int(bad.argmax()) if states.ndim == 2 and bad.any() else j
            history._jets[n0 + i : n0 + end] = plant.output_jet(new[: end - i])
            history.size = n0 + end
            if end < j:
                break
    if end:
        plant.advance(grid[end], states[end].copy())
    return end + 1
