"""Plant descriptions: causal operators, normal-form and state-space records.

The normal form is

    y^(r)(t) = f(T(y, y', ..., y^(r-1))(t)) + g(T(...)(t)) u(t)

with a causal operator T that may carry memory (delays) or internal dynamics.
Three operator constructors are provided: a memoryless map, a fixed delay,
and finite-dimensional internal dynamics driven by the output jet.  The
local Lipschitz property of user-supplied maps is assumed, not verified.

A state-space wrapper covers plants given as x' = drift(x) + input_map(x) u
with the output jet as a function of the state.  Either record may declare
``linear`` matrices.  The mass-on-car benchmark is provided in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errchain import chain_matrix
from .errors import PreconditionViolation, SingularGainError

__all__ = [
    "CausalOperator",
    "RelativeDegreeSystem",
    "StateSpaceSystem",
    "MassOnCarParams",
    "ReferenceSignal",
    "static_operator",
    "delay_operator",
    "internal_dynamics_operator",
    "integrator_chain",
    "mass_on_car_state_space",
    "mass_on_car_normal_form",
    "mass_on_car_initial_data",
    "constant_reference",
    "cosine_reference",
    "estimate_dynamics_bounds",
]

_COND_LIMIT = 1e12


class CausalOperator:
    """Causal map from output-jet histories to R^q.

    ``evaluate(t, xi, history, state)`` receives the jet at the evaluation
    time explicitly; ``history`` is only consulted for strictly earlier
    times, which keeps causality structural.  Operators with internal
    dynamics expose ``state_dim`` > 0 and a ``state_derivative``; their state
    is integrated by the plant that owns them.
    """

    q: int
    sigma: float = 0.0
    state_dim: int = 0

    def initial_state(self) -> np.ndarray:
        return np.zeros(0)

    def evaluate(self, t, xi, history=None, state=None) -> np.ndarray:
        raise NotImplementedError

    def state_derivative(self, t, xi, state) -> np.ndarray:
        return np.zeros(0)


class _StaticOperator(CausalOperator):
    def __init__(self, func, q):
        self.func = func
        self.q = int(q)
        self.sigma = 0.0

    def evaluate(self, t, xi, history=None, state=None):
        return self.func(xi)


class _DelayOperator(CausalOperator):
    def __init__(self, tau, func, q):
        self.tau = float(tau)
        self.func = func
        self.q = int(q)
        self.sigma = float(tau)

    def evaluate(self, t, xi, history=None, state=None):
        if history is None:
            raise PreconditionViolation(
                "delay operator evaluation needs a history covering [t - tau, t]"
            )
        return self.func(np.asarray(history(t - self.tau), dtype=float))


class _InternalDynamicsOperator(CausalOperator):
    def __init__(self, eta_dim, eta_drift, readout, eta0, q=None):
        self.eta_dim = int(eta_dim)
        self.eta_drift = eta_drift
        self.readout = readout
        self.eta0 = np.asarray(eta0, dtype=float).reshape(self.eta_dim)
        self.q = q
        self.sigma = 0.0
        self.state_dim = self.eta_dim

    def initial_state(self):
        return self.eta0.copy()

    def evaluate(self, t, xi, history=None, state=None):
        eta = self.eta0 if state is None else state
        out = np.asarray(self.readout(eta, xi), dtype=float)
        if self.q is None:
            self.q = out.shape[-1]
        return out

    def state_derivative(self, t, xi, state):
        return np.asarray(self.eta_drift(state, xi), dtype=float)


def static_operator(func: Callable, q: int) -> CausalOperator:
    """Memoryless operator T(xi)(t) = func(xi(t)) with sigma = 0."""
    return _StaticOperator(func, q)


def delay_operator(tau: float, func: Callable, q: int) -> CausalOperator:
    """Pure delay T(xi)(t) = func(xi(t - tau)) with sigma = tau.

    ``func`` must broadcast over leading axes: a held span passes it the
    delayed (r*m,) jets of a window's stage times, shape (L, 3, r*m), and a
    batched rollout (L, 3, B, r*m), B = 1 while its members share their
    past; ``f`` and ``g`` then see the same leading axes.
    """
    if not tau > 0.0:
        raise ValueError("delay must be positive")
    return _DelayOperator(tau, func, q)


def internal_dynamics_operator(
    eta_dim: int, eta_drift: Callable, readout: Callable, eta0, q: int | None = None
) -> CausalOperator:
    """Operator driven by internal dynamics eta' = eta_drift(eta, xi).

    The readout maps (eta, xi) to R^q; q may be left unset and is then
    recorded at the first evaluation.  eta_drift must be locally Lipschitz
    in eta for bounded xi (assumed, not verified).
    """
    if eta_dim < 1:
        raise ValueError("internal state dimension must be positive")
    return _InternalDynamicsOperator(eta_dim, eta_drift, readout, eta0, q=q)


@dataclass(frozen=True)
class RelativeDegreeSystem:
    """Normal-form plant record (f, g, T) with relative degree r.

    ``f`` maps operator values to R^m and ``g`` to invertible m x m matrices;
    both must broadcast over leading axes, (..., q) to (..., m) and
    (..., m, m), so a batch of states is stepped in one call.  ``linear``
    is as for StateSpaceSystem, in the plant's coordinates x = (xi, eta) of
    flat jet and operator state, so C_jet = [I 0]; memory forbids it.
    ``cache`` is as for StateSpaceSystem.
    """

    m: int
    r: int
    f: Callable
    g: Callable
    T: CausalOperator
    linear: tuple | None = None
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.linear is not None and self.sigma > 0.0:
            raise ValueError("a plant with memory (sigma > 0) cannot declare linear matrices")

    @property
    def sigma(self) -> float:
        return self.T.sigma


@dataclass(frozen=True)
class StateSpaceSystem:
    """Plant record x' = drift(x) + input_map(x) u with output jet access.

    ``drift``, ``input_map`` and ``output_jet`` must broadcast over leading
    axes: states (..., n) map to (..., n), (..., n, m) and (..., r*m), the
    output being the first jet block.  ``yr_parts``, when present, returns
    (f_value, g_matrix) such that y^(r) = f_value + g_matrix @ u at one
    state; the funnel feedback law needs it, or ``linear``, whose matrices
    give it.  ``linear``, when present, declares the plant linear
    time-invariant as matrices (A, B, C_jet): x' = A x + B u and the flat
    output jet is C_jet x (ascending derivative blocks of m rows).  The
    callables must then agree with it; simulation steps such plants with
    the matrices directly.

    ``cache`` holds what simulation derives from the record and reuses, the
    propagators of ``sim.linear_propagator`` and the exact feedback's step
    polynomials (``sim._step_polynomial``): the plants of a run share their
    record, so a run builds each once.  ``dataclasses.replace``
    starts it empty.
    """

    n: int
    m: int
    r: int
    drift: Callable
    input_map: Callable
    output_jet: Callable
    yr_parts: Callable | None = None
    linear: tuple | None = None
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class MassOnCarParams:
    """Car of mass m1 with a spring-damper mounted mass m2 on a ramp."""

    m1: float = 4.0
    m2: float = 1.0
    k: float = 2.0
    d: float = 1.0
    vartheta: float = math.pi / 4.0

    def __post_init__(self):
        if min(self.m1, self.m2, self.k, self.d) <= 0.0:
            raise ValueError("masses, spring and damping constants must be positive")
        if not 0.0 <= self.vartheta < math.pi / 2.0:
            raise ValueError("ramp angle must lie in [0, pi/2)")


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory given by its jets on time arrays.

    ``jet_array(ts, order=r)`` evaluates derivatives 0..order-1 on a time
    array and returns (K, order, m); order r + 1 includes the r-th
    derivative.
    """

    r: int
    m: int
    jet_array: Callable

    def jet(self, t: float, order: int | None = None) -> np.ndarray:
        """The (order, m) jet at one time; order defaults to r."""
        return self.jet_array(np.array([float(t)]), self.r if order is None else order)[0]


def constant_reference(value, r: int) -> ReferenceSignal:
    """Constant reference y_ref(t) = value with all derivatives zero."""
    val = np.atleast_1d(np.asarray(value, dtype=float))

    def jet_array(ts, order=r):
        out = np.zeros((np.size(ts), order, val.size))
        out[:, 0, :] = val
        return out

    return ReferenceSignal(r=r, m=val.size, jet_array=jet_array)


def cosine_reference(amplitude: float, omega: float, r: int, phase: float = 0.0) -> ReferenceSignal:
    """Scalar reference y_ref(t) = amplitude * cos(omega t + phase)."""
    w = float(omega)
    # d^n/dt^n cos(w t + phi) = w^n (c, -s, -c, s)[n % 4] with c, s the cosine
    # and sine of w t + phi: even orders scale c, odd ones s, so each is
    # evaluated once per time however many orders the feedback law asks for
    n = np.arange(r + 1)
    scales = float(amplitude) * w**n * np.array([1.0, -1.0, -1.0, 1.0])[n % 4]

    def jet_array(ts, order=r):
        if order > r + 1:
            raise ValueError(f"cosine reference of order {r} has no jet of order {order}")
        arg = w * np.asarray(ts, dtype=float)[:, None] + phase
        out = np.empty((arg.shape[0], order, 1))
        np.multiply(scales[0:order:2], np.cos(arg), out=out[:, 0::2, 0])
        if order > 1:
            np.multiply(scales[1:order:2], np.sin(arg), out=out[:, 1::2, 0])
        return out

    return ReferenceSignal(r=r, m=1, jet_array=jet_array)


def _constant_map(mat: np.ndarray, x) -> np.ndarray:
    """A read-only matrix at one point x, broadcast over the rows of a batch."""
    return mat if np.ndim(x) <= 1 else np.broadcast_to(mat, np.shape(x)[:-1] + mat.shape)


def integrator_chain(r: int, m: int = 1) -> RelativeDegreeSystem:
    """Chain of r integrators per channel: y^(r) = u, linear in the flat jet."""
    if r < 1 or m < 1:
        raise ValueError("integrator chain needs r >= 1 and m >= 1")
    eye = np.eye(m)
    a_mat = np.kron(np.eye(r, k=1), eye)
    b_mat = np.kron(np.eye(r)[:, -1:], eye)
    c_jet = np.eye(r * m)
    for mat in (eye, a_mat, b_mat, c_jet):
        mat.setflags(write=False)

    def f(w):
        return np.zeros(np.shape(w)[:-1] + (m,))

    def g(w):
        return _constant_map(eye, w)

    T = static_operator(lambda xi: xi, q=r * m)
    return RelativeDegreeSystem(m=m, r=r, f=f, g=g, T=T, linear=(a_mat, b_mat, c_jet))


def _mass_on_car_constants(p: MassOnCarParams):
    c = math.cos(p.vartheta)
    s2 = math.sin(p.vartheta) ** 2
    d0 = p.m1 + p.m2 * s2
    return c, s2, d0


def mass_on_car_state_space(params: MassOnCarParams | None = None) -> StateSpaceSystem:
    """Mass-on-car plant in state-space form, x = (z, s, z', s').

    The two accelerations come from solving the constant mass matrix; the
    output y = z + s cos(vartheta) has relative degree 2.  The plant is
    linear: every callable is derived from the matrices (A, B, C_jet) it
    declares, with y'' = f + g u for f = C_1 A x and g = C_1 B, where C_1
    is the y' row of C_jet.
    """
    p = params or MassOnCarParams()
    c, _, d0 = _mass_on_car_constants(p)
    k, d = p.k, p.d
    accel_z = c / d0
    accel_s = -(p.m1 + p.m2) / (p.m2 * d0)

    a_mat = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, accel_z * k, 0.0, accel_z * d],
        [0.0, accel_s * k, 0.0, accel_s * d],
    ])
    b_mat = np.array([[0.0], [0.0], [1.0 / d0], [-c / d0]])
    c_jet = np.array([[1.0, c, 0.0, 0.0], [0.0, 0.0, 1.0, c]])
    f_row = c_jet[1:] @ a_mat
    g_matrix = c_jet[1:] @ b_mat
    for mat in (a_mat, b_mat, c_jet, f_row, g_matrix):
        mat.setflags(write=False)
    a_t, c_t, f_t = a_mat.T, c_jet.T, f_row.T

    def drift(x):
        return np.asarray(x, dtype=float) @ a_t

    def input_map(x):
        return _constant_map(b_mat, x)

    def output_jet(x):
        return np.asarray(x, dtype=float) @ c_t

    def yr_parts(x):
        return np.asarray(x, dtype=float) @ f_t, g_matrix

    return StateSpaceSystem(
        n=4,
        m=1,
        r=2,
        drift=drift,
        input_map=input_map,
        output_jet=output_jet,
        yr_parts=yr_parts,
        linear=(a_mat, b_mat, c_jet),
    )


def mass_on_car_normal_form(params: MassOnCarParams | None = None) -> RelativeDegreeSystem:
    """Mass-on-car plant as (f, g, T) with internal dynamics carrying (s, s').

    The operator state is eta = (s, s' + z' cos(vartheta)), chosen so that
    its drift does not involve the input; the readout exposes
    (y, y', s, s') and f, g read the last two components.  g is the constant
    sin^2(vartheta) / (m1 + m2 sin^2(vartheta)).  The readout, f and the
    eta drift are rows on x = (y, y', eta) and w; the callables and the
    declared (A, B, C_jet) are built from those rows.
    """
    p = params or MassOnCarParams()
    c, s2, d0 = _mass_on_car_constants(p)
    if s2 == 0.0:
        raise ValueError("the normal form needs vartheta > 0: its input gain vanishes")
    k, d = p.k, p.d
    m2 = p.m2
    f_coeff = -c * p.m1 / (m2 * d0)

    # w = (y, y', s, s') from x = (y, y', eta), with s' = (eta_2 - c y') / sin^2
    readout_rows = np.eye(4)
    readout_rows[3] = [0.0, -c / s2, 0.0, 1.0 / s2]
    # f(w) = f_coeff (k s + d s'); eta' = (s', -(k s + d s') / m2)
    f_row = np.array([[0.0, 0.0, f_coeff * k, f_coeff * d]])
    eta_rows = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -k / m2, -d / m2]])
    g_matrix = np.array([[s2 / d0]])
    a_mat = np.vstack([[0.0, 1.0, 0.0, 0.0], f_row @ readout_rows, eta_rows @ readout_rows])
    b_mat = np.array([[0.0], [g_matrix[0, 0]], [0.0], [0.0]])
    c_jet = np.eye(2, 4)
    for mat in (g_matrix, a_mat, b_mat, c_jet):
        mat.setflags(write=False)
    xi_t, eta_t = readout_rows[:, :2].T, readout_rows[:, 2:].T
    f_t, drift_t = f_row.T, eta_rows.T

    def readout(eta, xi):
        return np.asarray(xi, dtype=float) @ xi_t + np.asarray(eta, dtype=float) @ eta_t

    def eta_drift(eta, xi):
        return readout(eta, xi) @ drift_t

    T = internal_dynamics_operator(2, eta_drift, readout, eta0=np.zeros(2), q=4)

    def f(w):
        return np.asarray(w, dtype=float) @ f_t

    def g(w):
        return _constant_map(g_matrix, w)

    return RelativeDegreeSystem(m=1, r=2, f=f, g=g, T=T, linear=(a_mat, b_mat, c_jet))


def mass_on_car_initial_data(params: MassOnCarParams, x0) -> tuple[np.ndarray, np.ndarray]:
    """Map a state-space initial state to the normal form (jet, eta) pair."""
    p = params or MassOnCarParams()
    c, s2, _ = _mass_on_car_constants(p)
    z, s, zd, sd = (float(v) for v in np.asarray(x0, dtype=float).reshape(4))
    jet = np.array([[z + c * s], [zd + c * sd]])
    eta = np.array([s, sd + c * zd])
    return jet, eta


def _guard_gain_matrix(gmat: np.ndarray):
    gmat = np.atleast_2d(np.asarray(gmat, dtype=float))
    if gmat.shape[0] == 1:
        if abs(float(gmat[0, 0])) < 1.0 / _COND_LIMIT:
            raise SingularGainError(
                f"input gain {float(gmat[0, 0])} is numerically singular", condition_number=math.inf
            )
        return gmat
    cond = float(np.linalg.cond(gmat))
    if not cond < _COND_LIMIT:
        raise SingularGainError(
            f"input gain matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            condition_number=cond,
        )
    return gmat


def estimate_dynamics_bounds(
    sys: RelativeDegreeSystem,
    chain,
    gains,
    yref: ReferenceSignal,
    t_span,
    n_paths: int = 64,
    steps_per_path: int = 200,
):
    """Empirical sup bounds (f_max, g_max) over funnel-compatible jet paths.

    Random smooth error-variable paths v_i(t) with ||v_i(t)|| < psi_i(t) are
    mapped back through the inverse chain matrix to jets, shifted by the
    reference jet, and pushed through the operator (integrating internal
    dynamics along each path).  The reported bounds are empirical maxima of
    ||f|| and ||g^{-1}|| inflated by 10 %; they are a probe, not a
    certificate.  The paths come from a fixed seed, so the bounds are
    reproducible.
    """

    rng = np.random.default_rng(0)
    r, m = chain.r, sys.m
    smat_inv = np.linalg.inv(chain_matrix(np.asarray(gains, dtype=float), r, m))
    t0, t1 = float(t_span[0]), float(t_span[1])
    ts = np.linspace(t0, t1, steps_per_path + 1)
    h = ts[1] - ts[0] if steps_per_path else 0.0
    psi_vals = np.stack([np.asarray(member.value(ts), dtype=float) for member in chain.members])
    yref_jets = yref.jet_array(ts).reshape(ts.size, r * m)

    f_max = 0.0
    g_inv_max = 0.0
    for _ in range(n_paths):
        # smooth magnitude profiles in (0, 1) and slowly rotating directions
        mags = 0.05 + 0.9 * rng.random((r, 1)) * (0.5 + 0.5 * np.cos(
            rng.uniform(0.2, 2.0, (r, 1)) * ts[None, :] + rng.uniform(0, 2 * math.pi, (r, 1))
        ))
        dirs = rng.normal(size=(r, m))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
        v = psi_vals * mags  # (r, K) magnitudes inside each funnel
        jets = np.einsum("rk,rm->krm", v, dirs).reshape(ts.size, r * m)
        jets = (smat_inv @ jets.T).T + yref_jets
        eta = sys.T.initial_state() if sys.T.state_dim else None
        for idx, t in enumerate(ts):
            xi = jets[idx]
            # against a history frozen at xi
            w = sys.T.evaluate(t, xi, lambda s: xi, eta)
            f_max = max(f_max, float(np.linalg.norm(np.asarray(sys.f(w)).reshape(-1))))
            gmat = np.atleast_2d(np.asarray(sys.g(w), dtype=float))
            g_inv_max = max(g_inv_max, float(np.linalg.norm(np.linalg.inv(gmat), 2)))
            if eta is not None and idx < steps_per_path:
                # midpoint step of the internal dynamics along the sampled jet path
                k1 = sys.T.state_derivative(t, xi, eta)
                mid = 0.5 * (xi + jets[idx + 1])
                k2 = sys.T.state_derivative(t + 0.5 * h, mid, eta + 0.5 * h * k1)
                eta = eta + h * k2
    if f_max == 0.0:
        f_max = 1e-9
    return f_max * 1.1, g_inv_max * 1.1
