"""Funnel boundaries, chained funnels, gain conditions, and the input bound.

A funnel boundary psi is a positive function with a decay certificate
(alpha, beta) meaning psi'(t) >= -alpha*psi(t) + beta.  From a boundary, an
initial jet, and chain gains, a chain of funnels psi_1..psi_r is built whose
last member theta is the barrier radius of the stage cost.  The module also
evaluates the gain lower bounds that make the construction valid, the strict
membership test for the feasible jet set, and the saturation level M that
bounds the funnel feedback law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errchain import jet_matrix, polynomial_coefficients
from .errors import PreconditionViolation

__all__ = [
    "FunnelFunction",
    "FunnelChain",
    "GainVector",
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
    "funnel_membership",
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
class GainVector:
    """Positive chain gains k_1..k_{r-1}."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(not v > 0.0 for v in vals):
            raise ValueError("all chain gains must be positive")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype if dtype is not None else float)


@dataclass(frozen=True)
class FunnelChain:
    """Funnels psi_1..psi_r for the chained error variables; last one is theta."""

    r: int
    members: tuple
    gamma: float

    def __post_init__(self):
        if self.r < 1 or len(self.members) != self.r:
            raise ValueError("chain needs exactly r members")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

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

    def e_jets(self, gains) -> list:
        """Initial chain values (e_i^0, de_i^0/dt) for i = 1..r-1.

        Both are exact linear functions of the initial error jet once the
        gains k_1..k_{i-1} are fixed, so no input convention is involved.
        """
        k = np.asarray(gains, dtype=float)
        out = []
        for i in range(1, self.r):
            out.append(_initial_chain_values(self.error_jet, k, i))
        return out


def _initial_chain_values(error_jet: np.ndarray, gains: np.ndarray, i: int):
    """(e_i^0, de_i^0/dt) from the error jet, using gains k_1..k_{i-1} only.

    e_i(t) = p_{i-1}(d/dt) e(t), so its value and first derivative at t0 are
    dot products of the polynomial coefficients with jet blocks; the
    derivative touches block i, which exists as long as i <= r-1.
    """
    r = error_jet.shape[0]
    if not 1 <= i <= r - 1:
        raise ValueError(f"chain index {i} outside 1..{r - 1}")
    coeffs = np.array([1.0]) if i == 1 else polynomial_coefficients(gains[: i - 1], i - 1)
    e0 = coeffs @ error_jet[:i]
    edot0 = coeffs @ error_jet[1 : i + 1]
    return e0, edot0


def funnel_from_callables(
    value: Callable,
    derivative: Callable,
    alpha: float,
    beta: float,
    t0: float = 0.0,
    sup_window: float = 20.0,
    sup_step: float = 1e-3,
    inflation: float = 1.01,
) -> FunnelFunction:
    """Wrap user callables into a FunnelFunction with grid-estimated sup norms.

    The sup norms are max absolute values on [t0, t0 + sup_window] sampled at
    sup_step, inflated by the given safety factor.
    """
    grid = np.arange(t0, t0 + sup_window + 0.5 * sup_step, sup_step)
    vals = np.asarray(value(grid), dtype=float)
    ders = np.asarray(derivative(grid), dtype=float)
    if vals.shape != grid.shape or ders.shape != grid.shape:
        raise ValueError("funnel callables must map a time array to values of its shape")
    return FunnelFunction(
        value=value,
        derivative=derivative,
        alpha=float(alpha),
        beta=float(beta),
        sup_norm=float(np.max(np.abs(vals))) * inflation,
        sup_norm_derivative=float(np.max(np.abs(ders))) * inflation,
    )


def exponential_sum_funnel(
    offset: float,
    terms,
    alpha: float,
    beta: float,
    t0: float = 0.0,
    sup_window: float = 20.0,
    sup_step: float = 1e-3,
) -> FunnelFunction:
    """Funnel of the form offset + sum_j a_j * exp(-rate_j * (t - t0)).

    ``terms`` is a sequence of (amplitude, rate) pairs with rate > 0.
    """
    terms = [(float(a), float(rho)) for a, rho in terms]
    if any(rho <= 0.0 for _, rho in terms):
        raise ValueError("exponential rates must be positive")
    offset = float(offset)

    def value(t, _terms=terms, _off=offset, _t0=t0):
        if np.ndim(t) == 0:
            dt = float(t) - _t0
            return _off + sum(a * math.exp(-rho * dt) for a, rho in _terms)
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, _off)
        for a, rho in _terms:
            out = out + a * np.exp(-rho * (t - _t0))
        return out

    def derivative(t, _terms=terms, _t0=t0):
        if np.ndim(t) == 0:
            dt = float(t) - _t0
            return -sum(a * rho * math.exp(-rho * dt) for a, rho in _terms)
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for a, rho in _terms:
            out = out - a * rho * np.exp(-rho * (t - _t0))
        return out

    return funnel_from_callables(
        value, derivative, alpha, beta, t0=t0, sup_window=sup_window, sup_step=sup_step
    )


def _decaying_exponential_funnel(
    amplitude: float, rate: float, floor: float, alpha: float, beta: float, t0: float
) -> FunnelFunction:
    """amplitude * exp(-rate(t-t0)) + floor with analytic sup norms.

    Requires amplitude >= 0 and floor > 0, so the value is monotone
    nonincreasing with supremum at t0 and |derivative| supremum rate*amplitude.
    """
    if amplitude < 0.0 or floor <= 0.0:
        raise ValueError("need amplitude >= 0 and floor > 0")

    def value(t, _a=amplitude, _rho=rate, _c=floor, _t0=t0):
        if np.ndim(t) == 0:
            return _c + _a * math.exp(-_rho * (float(t) - _t0))
        t = np.asarray(t, dtype=float)
        return _c + _a * np.exp(-_rho * (t - _t0))

    def derivative(t, _a=amplitude, _rho=rate, _t0=t0):
        if np.ndim(t) == 0:
            return -_a * _rho * math.exp(-_rho * (float(t) - _t0))
        t = np.asarray(t, dtype=float)
        return -_a * _rho * np.exp(-_rho * (t - _t0))

    return FunnelFunction(
        value=value,
        derivative=derivative,
        alpha=alpha,
        beta=beta,
        sup_norm=amplitude + floor,
        sup_norm_derivative=rate * amplitude,
    )


@dataclass(frozen=True)
class ClassGReport:
    """Result of the numeric class-G certificate check."""

    passed: bool
    first_violation_t: float | None
    min_value: float
    min_residual: float

    def __bool__(self):
        return self.passed


def class_g_check(psi: FunnelFunction, grid, tol: float = 1e-9) -> ClassGReport:
    """Check psi > 0 and psi' + alpha*psi - beta >= -tol on the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("class-G check needs a nonempty time grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError("class-G grid must be strictly increasing")
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    values = np.asarray(psi.value(grid), dtype=float)
    residual = np.asarray(psi.derivative(grid), dtype=float) + psi.alpha * values - psi.beta
    bad = (values <= 0.0) | (residual < -tol)
    first_t = float(grid[np.argmax(bad)]) if bool(np.any(bad)) else None
    return ClassGReport(
        passed=first_t is None,
        first_violation_t=first_t,
        min_value=float(np.min(values)),
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


def _ceil_to_grid(x: float, grid: float) -> float:
    return math.ceil(x / grid - 1e-12) * grid


@dataclass(frozen=True)
class GainSelection:
    """Chosen gains next to the lower bounds they are measured against."""

    gains: GainVector
    bounds: np.ndarray

    @property
    def satisfied(self) -> bool:
        if len(self.gains) == 0:
            return True
        return bool(np.all(np.asarray(self.gains) >= self.bounds - 1e-12))


def _sequential_gain_scan(data, alpha, beta, gamma, psi_t0, r, user_gains, grid):
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if psi_t0 <= 0.0:
        raise ValueError("psi(t0) must be positive")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("need alpha > 0 and beta > 0")
    if data.r != r:
        raise ValueError(f"initial data has r = {data.r}, expected {r}")
    if user_gains is not None and len(user_gains) != r - 1:
        raise ValueError(f"need {r - 1} gains, got {len(user_gains)}")
    ej = data.error_jet
    bounds = []
    fixed = []
    for i in range(1, r):
        if i == 1:
            edot_norm = float(np.linalg.norm(ej[1]))
            b = 2.0 * edot_norm / (gamma ** (r - 1) * (1.0 - gamma) * psi_t0)
            b += 2.0 * (alpha + gamma ** (1 - r)) / (1.0 - gamma)
        else:
            e0, edot0 = _initial_chain_values(ej, np.asarray(fixed), i)
            denom = (1.0 - gamma) * (
                float(np.linalg.norm(e0)) + beta / (alpha * gamma ** (i - 2))
            )
            b = 2.0 * gamma * float(np.linalg.norm(edot0)) / denom
            b += 2.0 * (1.0 + alpha) / (1.0 - gamma)
        bounds.append(b)
        if user_gains is not None:
            fixed.append(float(user_gains[i - 1]))
        else:
            fixed.append(_ceil_to_grid(b, grid))
    return np.asarray(bounds), np.asarray(fixed)


def gain_lower_bounds(
    data: InitialJetData,
    alpha: float,
    beta: float,
    gamma: float,
    psi_t0: float,
    r: int,
    gains=None,
    grid: float = 1.0,
) -> np.ndarray:
    """Lower bounds for the chain gains, evaluated sequentially in i.

    The bound for k_i depends on e_i^0 and de_i^0/dt, which in turn depend on
    k_1..k_{i-1}.  When ``gains`` is given those values are used as the fixed
    prefix (validation mode); otherwise each k_i is fixed at the bound,
    rounded up to the grid (selection mode).
    """
    bounds, _ = _sequential_gain_scan(data, alpha, beta, gamma, psi_t0, r, gains, grid)
    return bounds


def select_gains(
    data: InitialJetData,
    psi: FunnelFunction,
    gamma: float,
    user_gains=None,
    grid: float = 1.0,
) -> GainSelection:
    """Pick gains meeting the lower bounds, keeping user values when given."""
    psi_t0 = float(psi.value(data.t0))
    bounds, fixed = _sequential_gain_scan(
        data, psi.alpha, psi.beta, gamma, psi_t0, data.r, user_gains, grid
    )
    gains = GainVector(tuple(fixed))
    return GainSelection(gains=gains, bounds=bounds)


def build_funnel_chain(
    psi: FunnelFunction,
    data: InitialJetData,
    gains,
    gamma: float,
    r: int,
    strict: bool = True,
) -> FunnelChain:
    """Build psi_1..psi_r; members after the first follow the closed form

        psi_{i+1}(t) = (||de_i^0/dt|| + k_i ||e_i^0||) / gamma^(r-i)
                        * exp(-alpha (t - t0)) + beta / (alpha gamma^(r-1)).

    With ``strict`` the gains are validated against their lower bounds and a
    violation raises PreconditionViolation naming the failing index.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if r < 1:
        raise ValueError("relative degree must be at least 1")
    if r == 1:
        return FunnelChain(r=1, members=(psi,), gamma=gamma)
    k = np.asarray(gains, dtype=float)
    if k.size != r - 1:
        raise ValueError(f"need {r - 1} gains, got {k.size}")
    if strict:
        bounds = gain_lower_bounds(
            data, psi.alpha, psi.beta, gamma, float(psi.value(data.t0)), r, gains=k
        )
        for idx in range(r - 1):
            if k[idx] < bounds[idx] - 1e-12:
                raise PreconditionViolation(
                    f"gain k_{idx + 1} = {k[idx]} is below its lower bound {bounds[idx]}"
                )
    floor = psi.beta / (psi.alpha * gamma ** (r - 1))
    members = [psi]
    ej = data.error_jet
    for i in range(1, r):
        e0, edot0 = _initial_chain_values(ej, k, i)
        amplitude = (
            float(np.linalg.norm(edot0)) + k[i - 1] * float(np.linalg.norm(e0))
        ) / gamma ** (r - i)
        members.append(
            _decaying_exponential_funnel(
                amplitude, psi.alpha, floor, psi.alpha, psi.beta, data.t0
            )
        )
    return FunnelChain(r=r, members=tuple(members), gamma=gamma)


def funnel_membership(t: float, xi, chain: FunnelChain, gains) -> bool:
    """Strict membership ||e_i(xi)|| < psi_i(t) for every chain index i."""
    from .errchain import error_variables

    k = np.asarray(gains, dtype=float)
    if k.size != chain.r - 1:
        raise ValueError(f"need {chain.r - 1} gains, got {k.size}")
    jet = jet_matrix(np.asarray(xi, dtype=float), chain.r)
    values = error_variables(jet, k)
    for e_i, member in zip(values, chain.members):
        if not float(np.linalg.norm(e_i)) < float(member.value(t)):
            return False
    return True


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
