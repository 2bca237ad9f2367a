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

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errchain import top_error_rows
from .errors import PreconditionViolation
from .funnel import FunnelChain, chain_margins
from .systems import ReferenceSignal, RelativeDegreeSystem, StateSpaceSystem, _guard_gain_matrix

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
    "linear_jet_response",
]

BLOWUP_NORM = 1e8
# steps per block of affine RK4 maps in the exact-feedback rollout of a
# linear plant; bounds each map array to 256 n^2 floats whatever the span
AFFINE_BLOCK = 256


@dataclass(frozen=True)
class ControlSignal:
    """Zero-order-hold input: values[i] is applied on [t_start + i*step, + step)."""

    t_start: float
    step: float
    values: np.ndarray
    saturation: float | None = None

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2:
            raise ValueError("control values must form an (N, m) array")
        object.__setattr__(self, "values", vals)
        if not self.step > 0.0:
            raise ValueError("ZOH step must be positive")
        if self.saturation is not None:
            if not self.saturation > 0.0:
                raise ValueError("saturation level must be positive")
            if np.max(np.abs(vals)) > self.saturation + 1e-12:
                raise ValueError("control values exceed the saturation level")

    @property
    def t_end(self) -> float:
        return self.t_start + self.step * self.values.shape[0]

    def index_at(self, t: float) -> int:
        idx = int(math.floor((t - self.t_start) / self.step + 1e-9))
        return min(max(idx, 0), self.values.shape[0] - 1)

    def value_at(self, t: float) -> np.ndarray:
        if t < self.t_start - 1e-9 or t > self.t_end + 1e-9:
            raise ValueError(f"time {t} outside control coverage [{self.t_start}, {self.t_end}]")
        return self.values[self.index_at(t)]


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

    Queries at s <= t0 use the supplied initial segment; later queries use
    cubic Lagrange interpolation over the four nearest stored samples.
    Queries beyond the newest sample raise PreconditionViolation.  Samples
    keep their shape, so a batch's (B, r*m) rows broadcast with the (r*m,) past.
    """

    def __init__(self, t0: float, jet0: np.ndarray, initial_segment=None):
        jet0 = np.asarray(jet0, dtype=float).ravel()
        self.t0 = float(t0)
        self.segment = initial_segment
        self.ts = [self.t0]
        self.jets = [jet0.copy()]
        self._memo = None  # the k2 and k3 stages of an RK4 step query one time

    def append(self, t: float, jet: np.ndarray):
        if t <= self.ts[-1]:
            raise ValueError("history samples must be appended in increasing time order")
        self.ts.append(float(t))
        self.jets.append(np.array(jet, dtype=float))

    def latest(self) -> float:
        return self.ts[-1]

    def clone(self) -> "JetHistory":
        out = JetHistory.__new__(JetHistory)
        out.t0 = self.t0
        out.segment = self.segment
        out.ts = list(self.ts)
        out.jets = [j.copy() for j in self.jets]
        out._memo = None
        return out

    def __call__(self, s: float) -> np.ndarray:
        if s <= self.t0 + 1e-12:
            if self.segment is not None:
                return np.asarray(self.segment(s), dtype=float).ravel()
            return self.jets[0]
        if s > self.ts[-1] + 1e-9:
            raise PreconditionViolation(
                f"history queried at {s} beyond newest sample {self.ts[-1]}"
            )
        ts = self.ts
        if self._memo is not None and self._memo[0] == (s, len(ts)):
            return self._memo[1]
        idx = bisect.bisect_left(ts, s)
        if idx < len(ts) and ts[idx] == s:
            return self.jets[idx]
        lo = max(0, min(idx - 2, len(ts) - 4))
        hi = min(len(ts), lo + 4)
        out = 0.0
        for j in range(lo, hi):
            w = 1.0
            for l in range(lo, hi):
                if l != j:
                    w *= (s - ts[l]) / (ts[j] - ts[l])
            out = out + w * self.jets[j]
        self._memo = ((s, len(ts)), out)
        return out


class StateSpacePlant:
    """Simulation wrapper for a StateSpaceSystem positioned at (t, x).

    ``rhs`` and ``output_jet`` map states with any leading axes, so one call
    covers a batch of members or a whole trajectory.  ``linear`` is the
    record's (A, B, C_jet) or None; the exact-map paths read it, and
    ``yr_parts`` falls back on it.
    """

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

    def clone(self) -> "StateSpacePlant":
        return StateSpacePlant(self.system, self.t, self.state)

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

    def advance(self, t, state):
        self.t = float(t)
        self.state = np.asarray(state, dtype=float)


class NormalFormPlant:
    """Simulation wrapper for a RelativeDegreeSystem.

    The integration state stacks the flat output jet and the operator's
    internal state.  When the operator has memory, a jet history buffer is
    maintained; the initial segment must cover [t0 - sigma, t0].  ``rhs``
    and ``output_jet`` map states with any leading axes; with memory, a
    batch is stepped on a clone whose history holds one row per member.
    ``linear`` is the record's (A, B, C_jet) in these coordinates, or None.
    """

    def __init__(self, system: RelativeDegreeSystem, t0: float, xi0, eta0=None, initial_segment=None):
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

    def clone(self) -> "NormalFormPlant":
        out = NormalFormPlant.__new__(NormalFormPlant)
        out.system = self.system
        out.m = self.m
        out.r = self.r
        out._rm = self._rm
        out.state_dim = self.state_dim
        out.sigma = self.sigma
        out.linear = self.linear
        out.t = self.t
        out.state = self.state.copy()
        out.history = self.history.clone() if self.history is not None else None
        return out

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

    def advance(self, t, state):
        self.t = float(t)
        self.state = np.asarray(state, dtype=float)
        if self.history is not None and t > self.history.latest():
            self.history.append(t, state[..., : self._rm])


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


def _rk4(field, t: float, x: np.ndarray, h: float):
    """One classical RK4 step of x' = field(t, x)[0].

    ``field(t, x)`` returns the derivative and the input it applied; the
    step returns the new state and the input applied at t.
    """
    k1, u = field(t, x)
    k2, _ = field(t + 0.5 * h, x + (0.5 * h) * k1)
    k3, _ = field(t + 0.5 * h, x + (0.5 * h) * k2)
    k4, _ = field(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), u


def _held_step(plant, h: float):
    """One step of length h under an input held over it: (t, x, u) -> x+.

    A plant whose ``linear`` matrices are set takes the exact RK4 map
    x+ = phi x + gam u of ``rk4_step_maps``; any other plant runs the four
    RK4 stages, each with the same held u.
    """
    if plant.linear is not None:
        phi, gam = rk4_step_maps(plant.linear[0], plant.linear[1], h)
        return lambda t, x, u: phi @ x + gam @ u
    rhs = plant.rhs
    return lambda t, x, u: _rk4(lambda s, y: (rhs(s, y, u), u), t, x, h)[0]


def _march(plant, step, grid: np.ndarray):
    """Step the plant along the grid with ``step(i, x) -> (x_next, u_i)``.

    Stores the states and the input applied at each grid point and advances
    the plant to every stored point, so operators with memory see the
    trajectory's history.  Stops at the first state whose norm exceeds
    BLOWUP_NORM or that is not finite, leaving the plant at the last good
    point.  Returns (states, inputs, count): the first ``count`` rows are
    valid, and count < grid.size means the step to row ``count`` blew up.
    The input at the final point of a completed run is left to the caller.
    """
    n_steps = grid.size - 1
    states = np.empty((n_steps + 1, plant.state_dim))
    inputs = np.empty((n_steps + 1, plant.m))
    x = plant.state.copy()
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            x, inputs[i] = step(i, x)
            # NaN fails the comparison too, so this covers non-finite states
            if not float(np.max(np.abs(x))) <= BLOWUP_NORM:
                return states, inputs, i + 1
            states[i + 1] = x
            plant.advance(grid[i + 1], x)
    return states, inputs, n_steps + 1


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

    The step must divide the ZOH step and the span, so input discontinuities
    land on grid points.  Integration stops early with status 'blow-up' when
    the state norm exceeds 1e8 or turns non-finite.  A plant whose
    ``linear`` matrices are set is stepped under a ControlSignal with the
    exact RK4 step maps of ``rk4_step_maps``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    held_input = isinstance(control, ControlSignal)
    grid, _ = _step_grid(plant, t_span, h, control.step if held_input else h)
    u_of = _control_callable(control, plant.m)
    if held_input:
        if not _is_multiple(t0 - control.t_start, h):
            raise ValueError("control breakpoints are not aligned with the grid")
        if control.t_start > t0 + 1e-9 or control.t_end < t1 - 1e-9:
            raise ValueError("control does not cover the integration span")
        # the interval's own value feeds every stage: u_of(t + h) at a knot
        # would already read the next interval
        held = _held_step(plant, h)

        def step(i, x):
            u = u_of(grid[i])
            return held(grid[i], x, u), u

    else:
        rhs = plant.rhs

        def field(t, x):
            u = u_of(t)
            return rhs(t, x, u), u

        def step(i, x):
            return _rk4(field, grid[i], x, h)

    states, inputs, count = _march(plant, step, grid)
    if count == grid.size:
        inputs[-1] = u_of(t1 - 1e-12)
    return _trajectory(plant, grid, states, inputs, count)


class FeedbackLaw:
    """Funnel feedback: cancels the drift and locks the top error ratio.

    u(t) = g^{-1} (-f + y_ref^(r)(t) - sum_j k_j e_j^{(r-j)}(t)
                   + e_r(t) * theta'(t)/theta(t))

    All derivative terms are exact linear functions of the current jet, with
    coefficients assembled once at construction.  The law does not check
    funnel membership; ``feasibility_feedback`` and ``feedback_rollout`` do.
    """

    def __init__(self, chain: FunnelChain, gains, yref: ReferenceSignal):
        self.chain = chain
        self.gains = np.asarray(gains, dtype=float)
        self.yref = yref
        r = chain.r
        if self.gains.size != r - 1:
            raise ValueError(f"need {r - 1} gains, got {self.gains.size}")
        self.r = r
        # e_r as ascending jet-block coefficients, those of p_{r-1}(s)
        self.top_row = top_error_rows(self.gains)[0]
        # sum_j k_j e_j^{(r-j)} = e_r' - e^{(r)}: the coefficients of
        # s p_{r-1}(s) - s^r, which stay inside the jet
        self.correction_row = np.concatenate(([0.0], self.top_row[:-1]))

    def __call__(self, t, plant, x):
        jet_mat = plant.output_jet(x).reshape(self.r, plant.m)
        ref = self.yref.jet(t, self.r + 1)
        zeta = jet_mat - ref[: self.r]
        theta = self.chain.theta
        fval, gmat = plant.yr_parts(t, x)
        target = (
            -fval
            + ref[self.r]
            - self.correction_row @ zeta
            + (self.top_row @ zeta) * (float(theta.derivative(t)) / float(theta.value(t)))
        )
        gmat = _guard_gain_matrix(gmat)
        if gmat.shape == (1, 1):
            return target / float(gmat[0, 0])
        return np.linalg.solve(gmat, target)


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


def feasibility_feedback(plant, chain: FunnelChain, gains, yref: ReferenceSignal, t, x=None):
    """Evaluate the funnel feedback at one point after checking membership there."""
    x = plant.state if x is None else np.asarray(x, dtype=float)
    _require_membership(chain, gains, t, plant.output_jet(x) - yref.jet(t, chain.r).ravel())
    return FeedbackLaw(chain, gains, yref)(t, plant, x)


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
    returned ControlSignal holds its samples at the ZOH grid for warm-start
    use.  Membership of every chained error in its funnel is checked at
    every grid point afterwards; the first violation raises
    PreconditionViolation.
    On a plant whose ``linear`` matrices are set the same law is applied
    as affine RK4 step maps (see ``_affine_feedback``).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    step = h if zoh_step is None else float(zoh_step)
    grid, substeps = _step_grid(plant, t_span, h, step)
    n_steps = grid.size - 1
    law = FeedbackLaw(chain, gains, yref)
    if plant.linear is not None:
        states, inputs, count = _affine_feedback(law, plant.linear, plant.state, grid, h)
        plant.advance(grid[count - 1], states[count - 1].copy())
    else:
        rhs = plant.rhs

        def field(t, x):
            u = np.atleast_1d(law(t, plant, x))
            return rhs(t, x, u), u

        states, inputs, count = _march(plant, lambda i, x: _rk4(field, grid[i], x, h), grid)
        if count == grid.size:
            inputs[-1] = np.atleast_1d(law(t1, plant, states[-1]))

    trajectory = _trajectory(plant, grid, states, inputs, count)
    ref = yref.jet_array(trajectory.grid, chain.r).reshape(count, -1)
    _require_membership(chain, law.gains, trajectory.grid, trajectory.output_jet - ref)
    zoh_values = inputs[: min(count, n_steps) : substeps].copy()
    control = ControlSignal(t_start=t0, step=step, values=zoh_values)
    return trajectory, control


def _affine_feedback(law: FeedbackLaw, linear, x0, grid, h: float):
    """RK4 under the exact law on a linear plant x' = A x + B u, y-jet = C x.

    With F = C_{r-1} A and g = C_{r-1} B the law is affine in the state,
    u = K(t) x + c(t), and K(t) = K0 + w(t) K1 with w = theta'/theta.  The
    closed loop x' = P(t) x + q(t) then makes every RK4 step an affine map
    x+ = M_i x + v_i whose four stages use P and q at t_i, t_i + h/2 and
    t_i + h, so the law still acts at every stage.  The time terms are
    evaluated once on all stage times; the maps are built in blocks of
    AFFINE_BLOCK steps and x is stepped through them in order.

    Returns (states, inputs, count) as ``_march`` does.
    """
    a, b, c_jet = linear
    n, m = b.shape
    r = law.r
    top = c_jet[(r - 1) * m :]
    gmat = _guard_gain_matrix(top @ b)
    # the zeta terms of the law as (m, r*m) maps of the flat jet error
    lock = top_error_rows(law.gains, m)
    correction = np.kron(law.correction_row, np.eye(m))
    k0 = np.linalg.solve(gmat, -top @ a - correction @ c_jet)
    k1 = np.linalg.solve(gmat, lock @ c_jet)
    p0 = a + b @ k0
    p1 = b @ k1

    theta = law.chain.theta

    def time_terms(ts):
        """w(t) and c(t) on a time array."""
        ext = law.yref.jet_array(ts, r + 1).reshape(ts.size, (r + 1) * m)
        ref, ref_high = ext[:, : r * m], ext[:, r * m :]
        w = np.asarray(theta.derivative(ts), dtype=float) / np.asarray(
            theta.value(ts), dtype=float
        )
        shift = ref_high - w[:, None] * (ref @ lock.T) + ref @ correction.T
        return w, np.linalg.solve(gmat, shift.T).T

    n_steps = grid.size - 1
    w_a, c_a = time_terms(grid)
    w_b, c_b = time_terms(grid[:-1] + 0.5 * h)
    w_c, c_c = time_terms(grid[:-1] + h)

    states = np.empty((n_steps + 1, n))
    states[0] = x0
    x = states[0]
    count = n_steps + 1
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, AFFINE_BLOCK):
            hi = min(lo + AFFINE_BLOCK, n_steps)
            p_a = p0 + w_a[lo:hi, None, None] * p1
            p_b = p0 + w_b[lo:hi, None, None] * p1
            p_c = p0 + w_c[lo:hi, None, None] * p1
            q_b = (c_b[lo:hi] @ b.T)[..., None]
            m1, v1 = p_a, (c_a[lo:hi] @ b.T)[..., None]
            m2 = p_b + (0.5 * h) * (p_b @ m1)
            v2 = (0.5 * h) * (p_b @ v1) + q_b
            m3 = p_b + (0.5 * h) * (p_b @ m2)
            v3 = (0.5 * h) * (p_b @ v2) + q_b
            m4 = p_c + h * (p_c @ m3)
            v4 = h * (p_c @ v3) + (c_c[lo:hi] @ b.T)[..., None]
            maps = eye + (h / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
            shifts = (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)[..., 0]
            for i in range(hi - lo):
                x = maps[i] @ x + shifts[i]
                states[lo + i + 1] = x
            # NaN fails the comparison too, so this covers non-finite states
            bad = ~(np.max(np.abs(states[lo + 1 : hi + 1]), axis=1) <= BLOWUP_NORM)
            if bad.any():
                count = lo + 1 + int(np.argmax(bad))
                break
        done = states[:count]
        inputs = done @ k0.T + w_a[:count, None] * (done @ k1.T) + c_a[:count]
    return states, inputs, count


def zoh_feedback_rollout(
    plant,
    chain: FunnelChain,
    gains,
    yref: ReferenceSignal,
    t_span,
    zoh_step: float,
    h: float,
    saturation: float | None = None,
):
    """Receding zero-order-hold application of the funnel feedback.

    At each knot the law is evaluated on the running trajectory, optionally
    clamped to the saturation box, and held for one interval.  The loop is
    open between knots, so the conservation property of the continuous law
    does not transfer; this is the implementable sampled controller and the
    solver's recovery start.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    grid, substeps = _step_grid(plant, t_span, h, zoh_step)
    step = float(zoh_step)
    if not _is_multiple(t1 - t0, step):
        raise ValueError(f"span length {t1 - t0} is not a multiple of the ZOH step {step}")
    law = FeedbackLaw(chain, gains, yref)
    values = np.empty((round((t1 - t0) / step), plant.m))
    held = _held_step(plant, h)

    def hold_law(i, x):
        knot, offset = divmod(i, substeps)
        if offset == 0:
            u = np.atleast_1d(law(grid[i], plant, x))
            values[knot] = u if saturation is None else np.clip(u, -saturation, saturation)
        u = values[knot]
        return held(grid[i], x, u), u

    states, inputs, count = _march(plant, hold_law, grid)
    if count == grid.size:
        inputs[-1] = values[-1]
    control = ControlSignal(
        t_start=t0, step=step, values=values[: (count - 1) // substeps + 1], saturation=saturation
    )
    return _trajectory(plant, grid, states, inputs, count), control


def rollout_jets_batch(plant, values: np.ndarray, step: float, h: float):
    """Integrate a batch of ZOH controls on a clone of the plant.

    ``values`` has shape (B, N, m); the rollout covers N*step from the
    plant's current time.  The clone is advanced after every step, so on a
    plant with memory each member reads its own predicted past.  Returns
    (grid, jets (B, K, r*m), inputs_ok) where inputs_ok flags batch members
    that stayed finite and bounded.
    """
    B, N, m = values.shape
    grid, substeps = _step_grid(plant, (plant.t, plant.t + N * step), h, step)
    n_steps = grid.size - 1
    plant = plant.clone()
    X = np.broadcast_to(plant.state, (B, plant.state_dim)).copy()
    states = np.empty((B, n_steps + 1, plant.state_dim))
    states[:, 0] = X
    rhs = plant.rhs
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            U = values[:, i // substeps, :]
            X, _ = _rk4(lambda t, x: (rhs(t, x, U), U), grid[i], X, h)
            states[:, i + 1] = X
            plant.advance(grid[i + 1], X)
        jets = plant.output_jet(states)
    return grid, jets, _live_members(jets)


def _live_members(jets: np.ndarray) -> np.ndarray:
    """Turn NaN into inf in a (B, K, r*m) jet batch in place; flag bounded members."""
    np.copyto(jets, np.inf, where=np.isnan(jets))
    # inf fails the comparison, so this also flags non-finite members
    return (np.abs(jets) <= BLOWUP_NORM).all(axis=(1, 2))


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


def linear_jet_response(linear, h: float, substeps: int, n_intervals: int):
    """Output jets of RK4 on a linear plant as free plus forced response.

    For x' = A x + B u with flat jet C x, ``substeps`` RK4 steps of length h
    per ZOH interval and ``n_intervals`` intervals, the jets on the
    K = n_intervals * substeps + 1 grid points are, for a start x0 and a
    control stack ``values`` of shape (n_intervals, m),

        jets.reshape(K * r*m) = (free @ x0).ravel() + values.ravel() @ forced

    with ``free`` = C phi^k of shape (K, r*m, n) and ``forced`` of shape
    (n_intervals * m, K * r*m) holding the ZOH step responses.  Column block
    k of the response to interval p sums the impulse responses C phi^j gam
    over the steps of p before k; it is taken as a difference of their
    cumulative sums.
    """
    a, b, c_jet = linear
    rm, n = c_jet.shape
    m = b.shape[1]
    phi, gam = rk4_step_maps(a, b, h)
    n_grid = n_intervals * substeps + 1
    free = np.empty((n_grid, rm, n))
    free[0] = c_jet
    for k in range(1, n_grid):
        free[k] = free[k - 1] @ phi
    # cum[i] = sum_{j < i} C phi^j gam, shape (K, r*m, m)
    cum = np.zeros((n_grid, rm, m))
    np.cumsum(free[:-1] @ gam, axis=0, out=cum[1:])
    k = np.arange(n_grid)[None, :]
    first = substeps * np.arange(n_intervals)[:, None]
    resp = cum[np.maximum(k - first, 0)] - cum[np.maximum(k - first - substeps, 0)]
    forced = resp.transpose(0, 3, 1, 2).reshape(n_intervals * m, n_grid * rm)
    return free, forced
