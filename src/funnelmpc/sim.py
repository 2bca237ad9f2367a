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

from .errchain import chain_matrix, error_derivative_row
from .errors import PreconditionViolation
from .funnel import FunnelChain
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
    def m(self) -> int:
        return self.values.shape[1]

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

    def __len__(self):
        return self.grid.size


class JetHistory:
    """Output-jet history: an initial segment plus appended integration samples.

    Queries at s <= t0 use the supplied initial segment; later queries use
    cubic Lagrange interpolation over the four nearest stored samples.
    Queries beyond the newest sample raise PreconditionViolation.
    """

    def __init__(self, t0: float, jet0: np.ndarray, initial_segment=None):
        jet0 = np.asarray(jet0, dtype=float).ravel()
        self.t0 = float(t0)
        self.segment = initial_segment
        self.ts = [self.t0]
        self.jets = [jet0.copy()]

    def append(self, t: float, jet: np.ndarray):
        if t <= self.ts[-1]:
            raise ValueError("history samples must be appended in increasing time order")
        self.ts.append(float(t))
        self.jets.append(np.asarray(jet, dtype=float).ravel().copy())

    def latest(self) -> float:
        return self.ts[-1]

    def clone(self) -> "JetHistory":
        out = JetHistory.__new__(JetHistory)
        out.t0 = self.t0
        out.segment = self.segment
        out.ts = list(self.ts)
        out.jets = [j.copy() for j in self.jets]
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
        idx = bisect.bisect_left(ts, s)
        if idx < len(ts) and ts[idx] == s:
            return self.jets[idx]
        lo = max(0, min(idx - 2, len(ts) - 4))
        hi = min(len(ts), lo + 4)
        out = np.zeros_like(self.jets[0])
        for j in range(lo, hi):
            w = 1.0
            for l in range(lo, hi):
                if l != j:
                    w *= (s - ts[l]) / (ts[j] - ts[l])
            out += w * self.jets[j]
        return out


class StateSpacePlant:
    """Simulation wrapper for a StateSpaceSystem positioned at (t, x).

    ``rhs`` and ``output_jet`` map states with any leading axes, so one call
    covers a batch of members or a whole trajectory.  A system that declares
    ``linear`` matrices is stepped with them directly.
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
        if self.linear is not None:
            a, b, _ = self.linear
            return x @ a.T + u @ b.T
        return self.system.drift(x) + _times_input(self.system.input_map(x), u)

    # the benchmark's tracer hooks this name; kept until the benchmark drops it
    rhs_batch = rhs

    def output_jet(self, x=None):
        """Flat output jets (..., r*m) of states (..., n); the plant's own by default."""
        x = self.state if x is None else x
        if self.linear is not None:
            return x @ self.linear[2].T
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
    and ``output_jet`` map states with any leading axes, except that an
    operator with memory reads the plant's own history, so ``rhs`` then takes
    one member at a time.
    """

    def __init__(self, system: RelativeDegreeSystem, t0: float, xi0, eta0=None, initial_segment=None):
        self.system = system
        self.m = system.m
        self.r = system.r
        self._rm = system.r * system.m
        op_dim = system.T.state_dim
        self.state_dim = self._rm + op_dim
        self.sigma = system.sigma
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
            self.history.append(t, state[: self._rm])


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


def _is_multiple(a: float, b: float, tol: float = 1e-9) -> bool:
    if b <= 0.0:
        return False
    ratio = a / b
    return abs(ratio - round(ratio)) <= tol * max(1.0, abs(ratio))


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

    A state-space plant that declares ``linear`` matrices takes the exact
    RK4 map x+ = phi x + gam u of ``rk4_step_maps``; any other plant runs
    the four RK4 stages, each with the same held u.
    """
    if isinstance(plant, StateSpacePlant) and plant.linear is not None:
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
    the state norm exceeds 1e8 or turns non-finite.  A state-space plant
    that declares ``linear`` matrices is stepped under a ControlSignal with
    the exact RK4 step maps of ``rk4_step_maps``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not h > 0.0:
        raise ValueError("integration step must be positive")
    if t1 <= t0:
        raise ValueError("empty integration span")
    if abs(plant.t - t0) > 1e-9:
        raise ValueError(f"plant is positioned at t = {plant.t}, span starts at {t0}")
    n_steps = round((t1 - t0) / h)
    if not _is_multiple(t1 - t0, h):
        raise ValueError(f"span length {t1 - t0} is not a multiple of the step {h}")
    if isinstance(control, ControlSignal):
        if not _is_multiple(control.step, h):
            raise ValueError(
                f"step {h} does not divide the ZOH interval {control.step}"
            )
        if not _is_multiple(t0 - control.t_start, h):
            raise ValueError("control breakpoints are not aligned with the grid")
        if control.t_start > t0 + 1e-9 or control.t_end < t1 - 1e-9:
            raise ValueError("control does not cover the integration span")
    if plant.sigma > 0.0 and h > plant.sigma + 1e-12:
        raise ValueError("integration step must not exceed the operator memory length")
    u_of = _control_callable(control, plant.m)

    grid = t0 + h * np.arange(n_steps + 1)
    grid[-1] = t1
    if isinstance(control, ControlSignal):
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
    coefficients assembled once at construction.
    """

    def __init__(self, chain: FunnelChain, gains, yref: ReferenceSignal):
        self.chain = chain
        self.gains = np.asarray(gains, dtype=float)
        self.yref = yref
        r = chain.r
        if self.gains.size != r - 1:
            raise ValueError(f"need {r - 1} gains, got {self.gains.size}")
        self.r = r
        # row i gives e_{i+1} as ascending jet-block coefficients
        self.rows = chain_matrix(self.gains, r, 1)
        correction = np.zeros(r)
        for j in range(1, r):
            correction += self.gains[j - 1] * error_derivative_row(self.gains, j, r - j)
        self.correction_row = correction

    def __call__(self, t, plant, x, check: bool = True):
        jet_mat = plant.output_jet(x).reshape(self.r, plant.m)
        ref = self.yref.jet(t, self.r + 1)
        zeta = jet_mat - ref[: self.r]
        theta = self.chain.theta
        theta_t = float(theta.value(t))
        if check:
            evals = self.rows @ zeta
            for i, member in enumerate(self.chain.members):
                radius = theta_t if i == self.r - 1 else float(member.value(t))
                if not float(np.linalg.norm(evals[i])) < radius:
                    raise PreconditionViolation(
                        f"jet leaves funnel {i + 1} at t = {t}: "
                        f"|e_{i + 1}| = {float(np.linalg.norm(evals[i]))} >= {radius}"
                    )
            top = evals[-1]
        else:
            top = self.rows[-1] @ zeta
        fval, gmat = plant.yr_parts(t, x)
        target = (
            -fval
            + ref[self.r]
            - self.correction_row @ zeta
            + top * (float(theta.derivative(t)) / theta_t)
        )
        gmat = _guard_gain_matrix(gmat)
        if gmat.shape == (1, 1):
            return target / float(gmat[0, 0])
        return np.linalg.solve(gmat, target)


def feasibility_feedback(plant, chain: FunnelChain, gains, yref: ReferenceSignal, t, x=None):
    """Evaluate the funnel feedback at one point (with membership check)."""
    x = plant.state if x is None else np.asarray(x, dtype=float)
    return FeedbackLaw(chain, gains, yref)(t, plant, x, check=True)


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
    use.  Funnel membership is verified at every grid point afterwards.
    On a state-space plant that declares ``linear`` matrices the same law
    is applied as affine RK4 step maps (see ``_affine_feedback``).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    law = FeedbackLaw(chain, gains, yref)
    if abs(plant.t - t0) > 1e-9:
        raise ValueError(f"plant is positioned at t = {plant.t}, span starts at {t0}")
    n_steps = round((t1 - t0) / h)
    if not _is_multiple(t1 - t0, h):
        raise ValueError(f"span length {t1 - t0} is not a multiple of the step {h}")
    step = h if zoh_step is None else float(zoh_step)
    if not _is_multiple(step, h):
        raise ValueError("ZOH sampling step must be a multiple of the integration step")
    if plant.sigma > 0.0 and h > plant.sigma + 1e-12:
        raise ValueError("integration step must not exceed the operator memory length")
    substeps = round(step / h)

    grid = t0 + h * np.arange(n_steps + 1)
    grid[-1] = t1
    linear = plant.linear if isinstance(plant, StateSpacePlant) else None
    if linear is not None:
        states, inputs, count = _affine_feedback(law, linear, plant.state, grid, h)
        plant.advance(grid[count - 1], states[count - 1].copy())
    else:
        rhs = plant.rhs

        def field(t, x):
            u = np.atleast_1d(law(t, plant, x, check=False))
            return rhs(t, x, u), u

        states, inputs, count = _march(plant, lambda i, x: _rk4(field, grid[i], x, h), grid)
        if count == grid.size:
            inputs[-1] = np.atleast_1d(law(t1, plant, states[-1], check=False))

    trajectory = _trajectory(plant, grid, states, inputs, count)
    _verify_membership_on_grid(trajectory, chain, law, yref)
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
    lock = np.kron(law.rows[-1], np.eye(m))
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
    check: bool = False,
):
    """Receding zero-order-hold application of the funnel feedback.

    At each knot the law is evaluated on the running trajectory, optionally
    clamped to the saturation box, and held for one interval.  The loop is
    open between knots, so the conservation property of the continuous law
    does not transfer; this is the implementable sampled controller and the
    solver's recovery start.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    law = FeedbackLaw(chain, gains, yref)
    if abs(plant.t - t0) > 1e-9:
        raise ValueError(f"plant is positioned at t = {plant.t}, span starts at {t0}")
    step = float(zoh_step)
    n_knots = round((t1 - t0) / step)
    if not _is_multiple(t1 - t0, step):
        raise ValueError(f"span length {t1 - t0} is not a multiple of the ZOH step {step}")
    if not _is_multiple(step, h):
        raise ValueError("integration step must divide the ZOH interval")
    if plant.sigma > 0.0 and h > plant.sigma + 1e-12:
        raise ValueError("integration step must not exceed the operator memory length")
    substeps = round(step / h)
    grid = t0 + h * np.arange(n_knots * substeps + 1)
    grid[-1] = t1
    values = np.empty((n_knots, plant.m))
    held = _held_step(plant, h)

    def hold_law(i, x):
        knot, offset = divmod(i, substeps)
        if offset == 0:
            u = np.atleast_1d(law(grid[i], plant, x, check=check))
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


def _verify_membership_on_grid(trajectory: Trajectory, chain: FunnelChain, law: FeedbackLaw, yref):
    r = chain.r
    m = trajectory.output_jet.shape[1] // r
    jets = trajectory.output_jet.reshape(len(trajectory), r, m)
    ref = yref.jet_array(trajectory.grid)
    zeta = (jets - ref).reshape(len(trajectory), r * m)
    evals = zeta @ chain_matrix(law.gains, r, m).T
    for i, member in enumerate(chain.members):
        norms = np.linalg.norm(evals[:, i * m : (i + 1) * m], axis=1)
        radii = np.asarray(member.value(trajectory.grid), dtype=float)
        bad = norms >= radii
        if np.any(bad):
            t_bad = float(trajectory.grid[np.argmax(bad)])
            raise PreconditionViolation(
                f"closed-loop trajectory leaves funnel {i + 1} at t = {t_bad}"
            )


def rollout_jets_batch(plant, values: np.ndarray, step: float, h: float):
    """Integrate a batch of ZOH controls on clones of a memoryless plant.

    ``values`` has shape (B, N, m); the rollout covers N*step from the
    plant's current time.  Returns (grid, jets (B, K, r*m), inputs_ok) where
    inputs_ok flags batch members that stayed finite and bounded.
    """
    if plant.sigma > 0.0:
        raise ValueError("batched rollout needs a plant without memory")
    B, N, m = values.shape
    substeps = round(step / h)
    if not _is_multiple(step, h):
        raise ValueError(f"step {h} does not divide the ZOH interval {step}")
    n_steps = N * substeps
    t0 = plant.t
    grid = t0 + h * np.arange(n_steps + 1)
    X = np.broadcast_to(plant.state, (B, plant.state_dim)).copy()
    states = np.empty((B, n_steps + 1, plant.state_dim))
    states[:, 0] = X
    rhs = plant.rhs
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            U = values[:, i // substeps, :]
            X, _ = _rk4(lambda t, x: (rhs(t, x, U), U), grid[i], X, h)
            states[:, i + 1] = X
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
