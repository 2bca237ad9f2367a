"""Funnel boundaries, chained funnels, gain conditions, and the input bound.

A funnel boundary psi is a positive function with a decay certificate
(alpha, beta) meaning psi'(t) >= -alpha*psi(t) + beta.  From a boundary, an
initial jet, and chain gains, a chain of funnels psi_1..psi_r is built whose
last member theta is the barrier radius of the stage cost.  The module also
evaluates the gain lower bounds that make the construction valid, the
margins of the chained errors to their funnels (the one strict membership
test for the feasible jet set), and the saturation level M that bounds the
funnel feedback law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errchain import chain_matrix, chain_step
from .errors import PreconditionViolation

__all__ = [
    "FunnelFunction",
    "FunnelChain",
    "InitialJetData",
    "ClassGReport",
    "GainSelection",
    "funnel_from_callables",
    "exponential_sum_funnel",
    "class_g_check",
    "gamma_margin",
    "default_gamma",
    "gain_lower_bounds",
    "select_gains",
    "build_funnel_chain",
    "chain_margins",
    "saturation_bound",
]


@dataclass(frozen=True)
class FunnelFunction:
    """Funnel boundary with its decay certificate and sup-norm data.

    ``value`` and ``derivative`` must accept scalars and numpy arrays alike.
    ``sup_norm`` and ``sup_norm_derivative`` bound |psi| and |psi'| over the
    working horizon; how tight they are depends on the constructor used.
    """

    value: Callable
    derivative: Callable
    alpha: float
    beta: float
    sup_norm: float
    sup_norm_derivative: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("funnel certificate needs alpha > 0")
        if not self.beta > 0.0:
            raise ValueError("funnel certificate needs beta > 0")
        if not self.sup_norm > 0.0:
            raise ValueError("sup_norm must be positive")
        if self.sup_norm_derivative < 0.0:
            raise ValueError("sup_norm_derivative must be nonnegative")


@dataclass(frozen=True)
class FunnelChain:
    """Funnels psi_1..psi_r for the chained error variables; last one is theta.

    ``cache`` keeps what is derived from the chain and its gains once and
    reused, such as the feedback law's coefficients, so the OCP starts of a
    run, which share one chain, build them once.
    """

    members: tuple
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("chain needs at least one member")

    @property
    def r(self) -> int:
        return len(self.members)

    @property
    def theta(self) -> FunnelFunction:
        return self.members[-1]


@dataclass(frozen=True)
class InitialJetData:
    """Output jet and reference jet at the start time t0.

    Jets are (r, m) arrays holding the value and the first r-1 derivatives.
    """

    t0: float
    y0_jet: np.ndarray
    yref_jet: np.ndarray

    def __post_init__(self):
        y0 = np.atleast_2d(np.asarray(self.y0_jet, dtype=float))
        yr = np.atleast_2d(np.asarray(self.yref_jet, dtype=float))
        if y0.shape != yr.shape:
            raise ValueError("output jet and reference jet must have equal shape")
        object.__setattr__(self, "y0_jet", y0)
        object.__setattr__(self, "yref_jet", yr)

    @property
    def r(self) -> int:
        return self.y0_jet.shape[0]

    @property
    def m(self) -> int:
        return self.y0_jet.shape[1]

    @property
    def error_jet(self) -> np.ndarray:
        return self.y0_jet - self.yref_jet


def funnel_from_callables(
    value: Callable,
    derivative: Callable,
    alpha: float,
    beta: float,
    t0: float = 0.0,
    sup_window: float = 20.0,
) -> FunnelFunction:
    """Wrap user callables into a FunnelFunction with grid-estimated sup norms.

    The sup norms are max absolute values on [t0, t0 + sup_window] sampled
    every 1e-3, inflated by 1 %.
    """
    grid = np.arange(t0, t0 + sup_window + 0.5e-3, 1e-3)
    vals = np.asarray(value(grid), dtype=float)
    ders = np.asarray(derivative(grid), dtype=float)
    if vals.shape != grid.shape or ders.shape != grid.shape:
        raise ValueError("funnel callables must map a time array to values of its shape")
    return FunnelFunction(
        value=value,
        derivative=derivative,
        alpha=float(alpha),
        beta=float(beta),
        sup_norm=float(np.max(np.abs(vals))) * 1.01,
        sup_norm_derivative=float(np.max(np.abs(ders))) * 1.01,
    )


def exponential_sum_funnel(
    offset: float,
    terms,
    alpha: float,
    beta: float,
    t0: float = 0.0,
    sup_window: float = 20.0,
) -> FunnelFunction:
    """Funnel of the form offset + sum_j a_j * exp(-rate_j * (t - t0)).

    ``terms`` is a sequence of (amplitude, rate) pairs with rate > 0.
    """
    terms = [(float(a), float(rho)) for a, rho in terms]
    if any(rho <= 0.0 for _, rho in terms):
        raise ValueError("exponential rates must be positive")
    value, derivative = _exponential_sum(float(offset), terms, t0)
    return funnel_from_callables(value, derivative, alpha, beta, t0=t0, sup_window=sup_window)


def _exponential_sum(offset: float, terms, t0: float):
    """(value, derivative) of offset + sum_j a_j * exp(-rate_j * (t - t0)).

    A scalar t and a time array take the same numpy operations in the same
    order, so value(t) is exactly the element of value(np.array([t])).
    """

    def value(t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, offset)
        for a, rho in terms:
            out = out + a * np.exp(-rho * (t - t0))
        return out

    def derivative(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for a, rho in terms:
            out = out - a * rho * np.exp(-rho * (t - t0))
        return out

    return value, derivative


def _decaying_exponential_funnel(
    amplitude: float, floor: float, psi: FunnelFunction, t0: float
) -> FunnelFunction:
    """amplitude * exp(-alpha(t-t0)) + floor with psi's certificate (alpha, beta).

    Requires amplitude >= 0 and floor > 0, so the value is monotone
    nonincreasing with supremum at t0 and |derivative| supremum alpha*amplitude.
    """
    if amplitude < 0.0 or floor <= 0.0:
        raise ValueError("need amplitude >= 0 and floor > 0")
    value, derivative = _exponential_sum(floor, [(amplitude, psi.alpha)], t0)
    return FunnelFunction(
        value=value,
        derivative=derivative,
        alpha=psi.alpha,
        beta=psi.beta,
        sup_norm=amplitude + floor,
        sup_norm_derivative=psi.alpha * amplitude,
    )


@dataclass(frozen=True)
class ClassGReport:
    """Result of the numeric class-G certificate check."""

    passed: bool
    first_violation_t: float | None
    min_residual: float

    def __bool__(self):
        return self.passed


def class_g_check(psi: FunnelFunction, grid) -> ClassGReport:
    """Check psi > 0 and psi' + alpha*psi - beta >= -1e-9 on the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("class-G check needs a nonempty time grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError("class-G grid must be strictly increasing")
    values = np.asarray(psi.value(grid), dtype=float)
    residual = np.asarray(psi.derivative(grid), dtype=float) + psi.alpha * values - psi.beta
    bad = (values <= 0.0) | (residual < -1e-9)
    first_t = float(grid[np.argmax(bad)]) if bool(np.any(bad)) else None
    return ClassGReport(
        passed=first_t is None,
        first_violation_t=first_t,
        min_residual=float(np.min(residual)),
    )


def gamma_margin(data: InitialJetData, psi: FunnelFunction, r: int | None = None) -> float:
    """Smallest gamma with ||e(t0)|| <= gamma^r * psi(t0).

    Raises PreconditionViolation when the initial error is not strictly
    inside the funnel.
    """
    r = data.r if r is None else int(r)
    psi_t0 = float(psi.value(data.t0))
    if psi_t0 <= 0.0:
        raise ValueError(f"funnel value at t0 must be positive, got {psi_t0}")
    e0 = float(np.linalg.norm(data.error_jet[0]))
    if e0 >= psi_t0:
        raise PreconditionViolation(
            f"initial error norm {e0} is not strictly inside the funnel radius {psi_t0}"
        )
    return (e0 / psi_t0) ** (1.0 / r)


def default_gamma(gamma_min: float) -> float:
    """Default interior choice given the minimal admissible gamma.

    Picks 1/2 whenever admissible, otherwise the midpoint between
    gamma_min and 1.
    """
    if not 0.0 <= gamma_min < 1.0:
        raise ValueError("gamma_min must lie in [0, 1)")
    return 0.5 if gamma_min < 0.5 else 0.5 * (gamma_min + 1.0)


@dataclass(frozen=True)
class GainSelection:
    """Chosen gains next to the lower bounds they are measured against."""

    gains: np.ndarray
    bounds: np.ndarray


def _gain_walk(data: InitialJetData, alpha, beta, gamma, psi_t0, r: int, gains=None):
    """Yield (bound, gain, ||e_i^0||, ||de_i^0/dt||) for i = 1..r-1, in one walk.

    e_i = p_{i-1}(d/dt) e, so e_i^0 and de_i^0/dt are the block row of
    p_{i-1} applied to jet blocks 0..i-1 and 1..i; the bound for k_i needs
    them, and one ``chain_step`` with k_{i-1} gives that row.  The gain is
    the given one, else the bound rounded up, ceil(bound - 1e-12).  The
    inputs are checked before the first index, so also when r = 1.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if psi_t0 <= 0.0:
        raise ValueError("psi(t0) must be positive")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("need alpha > 0 and beta > 0")
    if data.r != r:
        raise ValueError(f"initial data has r = {data.r}, expected {r}")
    if gains is not None and len(gains) != r - 1:
        raise ValueError(f"need {r - 1} gains, got {len(gains)}")
    if gains is not None and any(not float(k) > 0.0 for k in gains):
        raise ValueError("all chain gains must be positive")
    ej = data.error_jet
    for i in range(1, r):
        row = np.eye(data.m) if i == 1 else chain_step(row, k, data.m)
        e_norm = float(np.linalg.norm(row @ ej[:i].ravel()))
        edot_norm = float(np.linalg.norm(row @ ej[1 : i + 1].ravel()))
        if i == 1:
            b = 2.0 * edot_norm / (gamma ** (r - 1) * (1.0 - gamma) * psi_t0)
            b += 2.0 * (alpha + gamma ** (1 - r)) / (1.0 - gamma)
        else:
            denom = (1.0 - gamma) * (e_norm + beta / (alpha * gamma ** (i - 2)))
            b = 2.0 * gamma * edot_norm / denom + 2.0 * (1.0 + alpha) / (1.0 - gamma)
        k = float(math.ceil(b - 1e-12)) if gains is None else float(gains[i - 1])
        yield b, k, e_norm, edot_norm


def gain_lower_bounds(
    data: InitialJetData,
    alpha: float,
    beta: float,
    gamma: float,
    psi_t0: float,
    r: int,
    gains=None,
) -> np.ndarray:
    """Lower bounds for the chain gains k_1..k_{r-1}, read off the chain walk.

    When ``gains`` is given (all positive, else ValueError) they fix the
    prefix each bound depends on (validation mode); otherwise each k_i is
    fixed at its bound rounded up to an integer (selection mode).
    """
    return np.asarray([b for b, *_ in _gain_walk(data, alpha, beta, gamma, psi_t0, r, gains)])


def select_gains(
    data: InitialJetData, psi: FunnelFunction, gamma: float, user_gains=None
) -> GainSelection:
    """Pick gains meeting the lower bounds, keeping user values when given.

    Gains and bounds come from one chain walk; without user values each gain
    is its bound rounded up to an integer, ceil(bound - 1e-12).  A user gain
    that is not positive raises ValueError.
    """
    walk = list(_gain_walk(data, psi.alpha, psi.beta, gamma, float(psi.value(data.t0)),
                           data.r, user_gains))
    return GainSelection(gains=np.asarray([k for _, k, *_ in walk]),
                         bounds=np.asarray([b for b, *_ in walk]))


def build_funnel_chain(
    psi: FunnelFunction,
    data: InitialJetData,
    gains,
    gamma: float,
    r: int,
) -> FunnelChain:
    """Build psi_1..psi_r; members after the first follow the closed form

        psi_{i+1}(t) = (||de_i^0/dt|| + k_i ||e_i^0||) / gamma^(r-i)
                        * exp(-alpha (t - t0)) + beta / (alpha gamma^(r-1)).

    One chain walk checks the inputs, at every r, and yields each gain's
    bound next to e_i^0 and de_i^0/dt; a gain below its bound by more than
    1e-12 raises PreconditionViolation naming its index.
    """
    if r < 1:
        raise ValueError("relative degree must be at least 1")
    gains = np.asarray(gains, dtype=float)
    members = [psi]
    walk = _gain_walk(data, psi.alpha, psi.beta, gamma, float(psi.value(data.t0)), r, gains)
    for i, (bound, k, e_norm, edot_norm) in enumerate(walk, start=1):
        if k < bound - 1e-12:
            raise PreconditionViolation(f"gain k_{i} = {k:g} is below its lower bound {bound:.6g}")
        floor = psi.beta / (psi.alpha * gamma ** (r - 1))
        amplitude = (edot_norm + k * e_norm) / gamma ** (r - i)
        members.append(_decaying_exponential_funnel(amplitude, floor, psi, data.t0))
    return FunnelChain(tuple(members))


def chain_margins(chain: FunnelChain, gains, ts, zeta) -> np.ndarray:
    """Margins psi_i(t_k) - ||e_i(zeta_k)|| of the chained errors, shape (K, r).

    ``zeta`` holds the error jets at the K times ``ts`` as (K, r*m) or
    (K, r, m); the chained errors are e = zeta @ chain_matrix(gains, r, m).T.
    A point whose jet is not finite gets margin -inf in every column, so
    strict membership at point k is all(margins[k] > 0).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    r = chain.r
    zeta = np.asarray(zeta, dtype=float).reshape(ts.size, -1)
    m = zeta.shape[1] // r
    if m < 1 or m * r != zeta.shape[1]:
        raise ValueError(f"jet of length {zeta.shape[1]} does not split into {r} blocks")
    with np.errstate(over="ignore", invalid="ignore"):
        errors = (zeta @ chain_matrix(gains, r, m).T).reshape(ts.size, r, m)
        norms = np.linalg.norm(errors, axis=2)
    radii = np.stack(
        [np.broadcast_to(np.asarray(member.value(ts), dtype=float), ts.shape)
         for member in chain.members],
        axis=1,
    )
    finite = np.isfinite(norms) & np.isfinite(zeta).all(axis=1)[:, None]
    return np.where(finite, radii - norms, -np.inf)


def saturation_bound(
    f_max: float, g_max: float, gains, chain: FunnelChain, yref_r_sup: float
) -> float:
    """Input bound M = g_max (f_max + yref_r_sup + sum_j k_j mu_j^{r-j} + sup|theta'|).

    The mu table is seeded by mu_i^0 = sup|psi_i| and grown by
    mu_i^{j+1} = mu_{i+1}^j + k_i mu_i^j.
    """
    if f_max <= 0.0 or g_max <= 0.0:
        raise ValueError("f_max and g_max must be positive")
    if yref_r_sup < 0.0:
        raise ValueError("reference derivative bound must be nonnegative")
    k = np.asarray(gains, dtype=float)
    r = chain.r
    if k.size != r - 1:
        raise ValueError(f"need {r - 1} gains, got {k.size}")
    level = [member.sup_norm for member in chain.members]
    levels = [list(level)]
    for _ in range(r - 1):
        prev = levels[-1]
        levels.append([prev[i + 1] + k[i] * prev[i] for i in range(len(prev) - 1)])
    gain_sum = sum(k[j - 1] * levels[r - j][j - 1] for j in range(1, r))
    return float(g_max * (f_max + yref_r_sup + gain_sum + chain.theta.sup_norm_derivative))
