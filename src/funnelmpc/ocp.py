"""Finite-horizon optimal control with a funnel barrier stage cost.

The stage cost penalizes the highest chained tracking error through a
barrier that blows up at the funnel boundary, plus a quadratic input term.
The decision variable is the stacked zero-order-hold input over the
horizon, clamped componentwise to the saturation box.  The cost is a
convex barrier of |e_r|^2 composed with e_r(d), so one projected
Gauss-Newton loop (Messerer, Baumgaertner & Diehl, ESAIM Proc. Surveys 71,
2021) solves it on every plant.  Each iteration linearizes e_r around the
current control, takes a projected Newton step (Bertsekas, SIAM J. Control
Optim. 20, 1982) on that model and backtracks from the unit step, halving
it until the Armijo test passes (Nocedal & Wright, Numerical Optimization,
Alg. 3.1).  Every trial point is costed by linearizing there, so the
accepted one brings the next iteration's model and its e_r rows; the
Hessian is formed only once the residual test says the iteration goes on.
The Jacobian F = de_r/dd is

- exact on a plant whose ``linear`` matrices are set (state space or
  normal form): e_r is affine in the stacked controls, the OCP is convex,
  and candidates are costed through the exact e_r response read off the
  state maps of the run's ``sim.LinearPropagator``, which the plant record
  keeps, so a run builds it once rather than once per OCP;
- elsewhere, those with memory included, taken by forward differences
  from one batched RK4 rollout of the control and its probes, which also
  costs the control itself.

``solve_ocp`` builds every start: the given rows completed by sampled
funnel feedback, or the feedback alone, from the one knot loop in ``sim``
(``_sampled_feedback``) run on a clone over the OCP's own grid.  The loop
is the same on every plant: one held span for the given rows, the law's
time terms at all knots at once, then per knot the law and one held span,
which on a linear plant is one product with the same propagator.  A
brute-force grid search over tiny decision spaces serves as an
independent reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errchain import top_error_rows
from .errors import OcpInfeasibleError, PreconditionViolation, SingularGainError
from .funnel import FunnelFunction, chain_margins
from .sim import (
    ControlSignal,
    _is_multiple,
    _sampled_feedback,
    linear_propagator,
    rollout_jets_batch,
)
from .systems import ReferenceSignal

__all__ = [
    "StageCost",
    "OcpSpec",
    "OcpSolution",
    "stage_cost",
    "cost_functional",
    "solve_ocp",
    "brute_force_ocp",
]

logger = logging.getLogger(__name__)

FD_RELATIVE_STEP = 1e-6
ARMIJO_CONSTANT = 1e-4
MAX_HALVINGS = 40
# the line search's step lengths 1, 1/2, ..., 2^-MAX_HALVINGS
STEP_LENGTHS = 0.5 ** np.arange(MAX_HALVINGS + 1)
RESIDUAL_TOL = 1e-6
# widest band next to a bound in which an entry whose gradient points out
# of the box counts as active in the projected Newton step
ACTIVE_BAND = 1e-3


@dataclass(frozen=True)
class StageCost:
    """Barrier tracking cost: |e_r|^2 / (theta^2 - |e_r|^2) + lambda_u |u|^2."""

    theta: FunnelFunction
    lambda_u: float
    gains: np.ndarray

    def __post_init__(self):
        if not self.lambda_u >= 0.0:
            raise ValueError("input weight must be nonnegative")
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", gains)

    @property
    def r(self) -> int:
        return self.gains.size + 1


def stage_cost(t, xi, u, sc: StageCost) -> float:
    """Extended-real stage cost at one point; +inf from the boundary outward."""
    xi = np.asarray(xi, dtype=float).ravel()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    m = xi.size // sc.r
    if m * sc.r != xi.size:
        raise ValueError(f"jet length {xi.size} is not a multiple of the chain length {sc.r}")
    er = top_error_rows(sc.gains, m) @ xi
    nrm2 = float(er @ er)
    theta_t = float(sc.theta.value(t))
    denom = theta_t * theta_t - nrm2
    if denom <= 0.0:
        return math.inf
    return nrm2 / denom + sc.lambda_u * float(u @ u)


@dataclass(frozen=True)
class OcpSpec:
    """Horizon discretization and solver budget for one OCP instance."""

    horizon: float
    control_step: float
    saturation: float
    ode_step: float
    max_iterations: int = 200

    def __post_init__(self):
        if not (self.horizon > 0 and self.control_step > 0 and self.ode_step > 0):
            raise ValueError("horizon, control step and ode step must be positive")
        if self.max_iterations < 1:
            raise ValueError("iteration budget max_iterations must be at least 1")
        if not self.saturation > 0:
            raise ValueError("saturation level must be positive")
        for name, num, den in (
            ("control_step", self.horizon, self.control_step),
            ("ode_step", self.control_step, self.ode_step),
        ):
            if not _is_multiple(num, den):
                raise ValueError(f"{name} must divide evenly (ratio {num / den})")

    @property
    def n_intervals(self) -> int:
        return round(self.horizon / self.control_step)

    @property
    def substeps(self) -> int:
        return round(self.control_step / self.ode_step)


@dataclass
class OcpSolution:
    control: ControlSignal
    cost: float
    status: str
    iterations: int
    residual: float = math.nan
    evaluations: int = 0

    @property
    def t_hat(self) -> float:
        """The OCP's start time: the plant's time when it was solved."""
        return self.control.t_start


class _Workspace:
    """Shared precomputation for repeated cost evaluations at one start time."""

    def __init__(self, plant, sc: StageCost, spec: OcpSpec, yref: ReferenceSignal):
        self.plant = plant
        self.sc = sc
        self.spec = spec
        self.yref = yref
        self.m = plant.m
        self.r = plant.r
        self.N = spec.n_intervals
        self.t0 = plant.t
        n_steps = self.N * spec.substeps
        self.grid = self.t0 + spec.ode_step * np.arange(n_steps + 1)
        self.ref_flat = yref.jet_array(self.grid).reshape(n_steps + 1, self.r * self.m)
        # theta^2 on the grid, fixed for the OCP, enters every barrier cost
        self.theta_sq = np.asarray(sc.theta.value(self.grid), dtype=float) ** 2
        w = np.full(n_steps + 1, spec.ode_step)
        w[0] = w[-1] = 0.5 * spec.ode_step
        self.weights = w
        # mu = 2 lambda_u delta, the input term's curvature
        self.mu = 2.0 * sc.lambda_u * spec.control_step
        self.evaluations = 0
        # on a linear plant e_r of every candidate is the free response of the
        # start state plus its stacked controls v times one matrix:
        # e_r = er_free + (v @ er_forced).reshape(K, m); the run's propagator
        # reads er_block, the free map and er_forced off its state maps, per
        # gains, and only er_free, which holds the start and the reference,
        # depends on the OCP
        self.prop = None
        if plant.linear is not None:
            self.prop = prop = linear_propagator(plant, spec.ode_step, spec.substeps, self.N)
            self.er_block, free, self.er_forced = prop.top_errors(sc.gains, self.N)
            self.er_free = free @ plant.state - self.ref_flat @ self.er_block.T
        else:
            self.er_block = top_error_rows(sc.gains, self.m)

    def top_errors(self, jets: np.ndarray) -> np.ndarray:
        """e_r rows (B, K, m) of a (B, K, r*m) jet batch."""
        return (jets - self.ref_flat[None, :, :]) @ self.er_block.T

    def barrier_costs(self, er: np.ndarray) -> np.ndarray:
        """Trapezoid-integrated barrier for (B, K, m) e_r rows."""
        nrm2 = np.sum(er * er, axis=-1)
        denom = self.theta_sq - nrm2
        with np.errstate(divide="ignore", invalid="ignore"):
            barrier = np.where(denom > 0.0, nrm2 / denom, np.inf)
        # a row sum in a fixed order: the cost of a control does not depend
        # on the batch it is costed in
        return np.sum(barrier * self.weights, axis=-1)

    def input_costs(self, values: np.ndarray) -> np.ndarray:
        return self.sc.lambda_u * self.spec.control_step * np.sum(values * values, axis=(1, 2))

    def _costs(self, values: np.ndarray):
        """Costs of a (B, N, m) control stack and the e_r rows they come from."""
        B = values.shape[0]
        self.evaluations += B
        if self.prop is not None:
            # einsum sums each entry in one order whatever B; a BLAS product
            # rounds a single row differently from a row of a batch
            forced = np.einsum("bi,ij->bj", values.reshape(B, -1), self.er_forced)
            er = self.er_free + forced.reshape(B, -1, self.m)
            alive = True
        else:
            _, jets, alive = rollout_jets_batch(
                self.plant, values, self.spec.control_step, self.spec.ode_step
            )
            er = self.top_errors(jets)
        costs = self.barrier_costs(er) + self.input_costs(values)
        return np.where(alive & np.isfinite(costs), costs, np.inf), er

    def cost_batch(self, values: np.ndarray) -> np.ndarray:
        """Cost of each (N, m) control in a (B, N, m) stack."""
        return self._costs(values)[0]

    def linearize(self, d: np.ndarray) -> float:
        """Make e_r = er_free + (v @ er_forced).reshape(K, m) hold around d.

        Returns the cost at the stacked control d and keeps the model's
        values there for ``gradient``: the e_r rows ``er`` (K, m) and the
        barrier gaps ``gap`` theta^2 - |e_r|^2.  On a plant with ``linear``
        matrices the exact response holds for every v already, and the rows
        are those the cost came from.  Elsewhere one batched rollout of d
        and its forward-difference probes (relative step 1e-6, not clamped
        to the box) gives F = de_r/dd, and the rows are the model's at d; a
        probe that blows up leaves non-finite columns.
        """
        shape = (self.N, self.m)
        if self.prop is not None:
            costs, er = self._costs(d.reshape((1,) + shape))
            self.er = er[0]
        else:
            du = FD_RELATIVE_STEP * np.maximum(1.0, np.abs(d))
            probes = np.vstack([d, d + np.diag(du)])
            costs, er = self._costs(probes.reshape((-1,) + shape))
            er = er.reshape(probes.shape[0], -1)
            with np.errstate(invalid="ignore", over="ignore"):
                self.er_forced = (er[1:] - er[0]) / du[:, None]
                self.er_free = (er[0] - d @ self.er_forced).reshape(-1, self.m)
                self.er = self.er_free + (d @ self.er_forced).reshape(-1, self.m)
        with np.errstate(invalid="ignore", over="ignore"):
            self.gap = self.theta_sq - np.sum(self.er * self.er, axis=1)
        return float(costs[0])

    def gradient(self, d: np.ndarray) -> np.ndarray:
        """Gradient of the cost at d, the point of the last ``linearize``,
        from the e_r rows and gaps kept there.

        With s_k = |e_k|^2 for e_k = e_r at grid point k, the barrier
        b(s) = s / (theta_k^2 - s) has b' = theta_k^2 / (theta_k^2 - s)^2,
        so with F_k the (N*m, m) block of ``er_forced`` at k and trapezoid
        weights w_k

            g = sum_k F_k 2 w_k b'_k e_k + mu d,

        where mu = 2 lambda_u delta.
        """
        K, m = self.weights.size, self.m
        wb1 = self.weights * self.theta_sq / (self.gap * self.gap)
        # row i, column k: F_k^T e_k for control entry i
        fe = np.sum(self.er_forced.reshape(-1, K, m) * self.er, axis=2)
        self._gradient_terms = fe, wb1
        return fe @ (2.0 * wb1) + self.mu * d

    def hessian(self) -> np.ndarray:
        """Gauss-Newton Hessian at the point of the last ``gradient``.

        With b'' = 2 b' / (theta_k^2 - s) and the terms of ``gradient``

            H = sum_k F_k (2 w_k b'_k I + 4 w_k b''_k e_k e_k^T) F_k^T + mu I.

        H drops the curvature of e_r(d), so it is the exact Hessian on a
        plant with ``linear`` matrices.
        """
        fe, wb1 = self._gradient_terms
        wb2 = 2.0 * wb1 / self.gap
        hess = (self.er_forced * np.repeat(2.0 * wb1, self.m)) @ self.er_forced.T
        hess += (fe * (4.0 * wb2)) @ fe.T
        hess.flat[:: hess.shape[0] + 1] += self.mu
        return hess

    def feedback_values(self, chain, head: np.ndarray) -> np.ndarray:
        """N rows: the (k, m) ``head`` held from t0, then funnel feedback
        sampled at the later knots of the OCP grid, from time terms formed
        once for all of them, and clamped to the box: the one knot loop of
        ``sim._sampled_feedback`` on a clone.

        The law's gains are the stage cost's.  Raises PreconditionViolation
        without a chain or when a state blows up, and the ValueError of a
        ControlSignal when the head leaves the saturation box.
        """
        if chain is None:
            raise PreconditionViolation("no funnel chain to complete the start")
        spec = self.spec
        values, _, count = _sampled_feedback(
            self.plant.clone(), chain, self.sc.gains, self.yref, self.grid, spec.ode_step,
            spec.substeps, head, spec.saturation,
        )
        if count < self.grid.size:
            raise PreconditionViolation(f"start blew up after t = {self.grid[count - 1]:g}")
        return values


def _rows_from(control: ControlSignal, t: float, spec: OcpSpec, cover: float, name: str):
    """The rows of ``control`` held from t on, at most a horizon's; raises
    ValueError unless they cover [t, t + cover] on the OCP's ZOH grid."""
    if control.t_start > t + 1e-9 or control.t_end < t + cover - 1e-9:
        raise ValueError(f"{name} does not cover [{t:g}, {t + cover:g}]")
    if abs(control.step - spec.control_step) > 1e-9 * spec.control_step:
        raise ValueError(f"{name} steps by {control.step:g}, the OCP by {spec.control_step:g}")
    if not _is_multiple(t - control.t_start, control.step):
        raise ValueError(f"{name} has no knot at the plant's time {t:g}")
    i0 = control.index_at(t)
    return control.values[i0 : i0 + spec.n_intervals]


def cost_functional(plant, control: ControlSignal, sc: StageCost, yref, spec: OcpSpec) -> float:
    """Cost of one control on the OCP's ZOH grid over the horizon from the plant's time.

    A plant with memory is rolled out on a clone that extends its history.
    """
    rows = _rows_from(control, plant.t, spec, spec.horizon, "control")
    return float(_Workspace(plant, sc, spec, yref).cost_batch(rows[None])[0])


def _newton_direction(grad: np.ndarray, hess: np.ndarray, d: np.ndarray, M: float, band: float):
    """Projected Newton direction (Bertsekas 1982) in the box [-M, M].

    Entries within ``band`` of a bound whose gradient points out of the box
    are active and take the gradient; the free entries take the reduced
    Newton step H_ff^-1 g_f.
    """
    active = ((d <= -M + band) & (grad > 0.0)) | ((d >= M - band) & (grad < 0.0))
    if not active.any():
        return np.linalg.solve(hess, grad)
    free = ~active
    direction = grad.copy()
    if np.any(free):
        direction[free] = np.linalg.solve(hess[np.ix_(free, free)], grad[free])
    return direction


def _sufficient_decrease(costs, J: float, decrease):
    """Strict Armijo test: a move that leaves the cost at J never passes.

    A positive first-order decrease also rules out a zero move.
    """
    return (decrease > 0.0) & (costs < J - ARMIJO_CONSTANT * decrease)


def solve_ocp(
    plant,
    sc: StageCost,
    spec: OcpSpec,
    yref: ReferenceSignal,
    warm_start: ControlSignal | None = None,
    chain=None,
) -> OcpSolution:
    """Projected Gauss-Newton solution of the funnel OCP from the plant's state.

    Each iteration takes the projected Newton step of the cost with e_r
    linearized at the current control, through the exact response on a
    plant with ``linear`` matrices and one forward-difference rollout batch
    elsewhere.  The step lengths 1, 1/2, ..., 2^-40 are tried in turn, each
    costed by linearizing at its clipped trial point, so an iteration whose
    unit step passes the Armijo test costs one evaluation (one batch) and
    the accepted point's linearization is the next iteration's model.

    The warm start's rows from the plant's time, on the OCP's ZOH grid and
    clamped to the box, are the start: as they are when they cover the
    horizon, else completed by sampled funnel feedback with the stage
    cost's gains (``_Workspace.feedback_values``); without rows the feedback
    alone.  Given rows that cannot be completed (a blow-up or a singular
    input gain) or cost inf give way to the feedback alone; if the last
    start fails the problem is declared infeasible.  The returned cost never
    exceeds the starting cost.  The status is ``converged`` (projected gradient residual
    at most 1e-6), ``budget-exhausted`` (iteration budget spent),
    ``no-descent`` (the line search found no decrease, or a
    forward-difference probe blew up) or, whatever the stop,
    ``infeasible-start-recovered`` when the feedback alone replaced the
    given rows.
    """
    ws = _Workspace(plant, sc, spec, yref)
    M = spec.saturation
    N = ws.N

    head = np.empty((0, ws.m))
    if warm_start is not None:
        head = np.clip(_rows_from(warm_start, ws.t0, spec, spec.control_step, "warm start"), -M, M)
    # the given rows completed by feedback, then, if they fail, the feedback alone
    attempts = (head, head[:0]) if head.shape[0] else (head,)
    for attempt, rows in enumerate(attempts):
        cause = None
        try:
            d = (rows if rows.shape[0] == N else ws.feedback_values(chain, rows)).ravel()
            J = ws.linearize(d)
        except (PreconditionViolation, SingularGainError) as exc:
            cause = exc
        if cause is None and math.isfinite(J):
            break
        logger.debug(
            "start of %d given rows at t=%g failed: %s", rows.shape[0], ws.t0,
            "infinite cost" if cause is None else cause,
        )
    else:
        # margins of the measured start to psi_1..psi_r
        margins = None if chain is None else chain_margins(
            chain, sc.gains, ws.t0, plant.output_jet() - ws.ref_flat[0]
        )[0]
        reason = (f"funnel feedback start could not be built: {cause}" if cause is not None
                  else "clamped funnel feedback start has infinite cost")
        raise OcpInfeasibleError(reason, t_start=ws.t0, margin=margins) from cause

    status = "budget-exhausted"
    residual = math.nan
    it = 0
    while it < spec.max_iterations:
        it += 1
        # a forward-difference probe of d blew up: no model to step on
        if ws.prop is None and not np.all(np.isfinite(ws.er_forced)):
            status = "no-descent"
            break
        grad = ws.gradient(d)
        residual = float(np.max(np.abs(d - np.clip(d - grad, -M, M))))
        if residual <= RESIDUAL_TOL:
            status = "converged"
            break
        direction = _newton_direction(grad, ws.hessian(), d, M, min(residual, ACTIVE_BAND))
        for alpha in STEP_LENGTHS:
            trial = np.clip(d - alpha * direction, -M, M)
            J_trial = ws.linearize(trial)
            if _sufficient_decrease(J_trial, J, (d - trial) @ grad):
                break
        else:
            status = "no-descent"
            break
        d, J = trial, J_trial
        logger.debug(
            "ocp t=%.4f iter=%d cost=%.9e residual=%.3e alpha=%.3e evals=%d",
            ws.t0, it, J, residual, alpha, ws.evaluations,
        )

    control = ControlSignal(
        t_start=ws.t0, step=spec.control_step, values=d.reshape(N, ws.m), saturation=M
    )
    if attempt:
        status = "infeasible-start-recovered"
    return OcpSolution(control=control, cost=J, status=status, iterations=it,
                       residual=residual, evaluations=ws.evaluations)


def brute_force_ocp(
    plant, sc: StageCost, spec: OcpSpec, yref: ReferenceSignal, grid_resolution: float
) -> OcpSolution:
    """Exhaustive grid search over the control box; exact argmin on the grid.

    Only usable for total decision dimension N*m <= 3.
    """
    N, m = spec.n_intervals, plant.m
    dim = N * m
    if dim > 3:
        raise ValueError(f"decision dimension {dim} too large for exhaustive search")
    M = spec.saturation
    n_pts = round(2.0 * M / grid_resolution) + 1
    axis = -M + grid_resolution * np.arange(n_pts)
    axis[-1] = min(axis[-1], M)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=-1).reshape(-1, N, m)
    ws = _Workspace(plant, sc, spec, yref)
    best_cost = math.inf
    best = None
    chunk = 4096
    for start in range(0, candidates.shape[0], chunk):
        block = candidates[start : start + chunk]
        costs = ws.cost_batch(block)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best = block[k]
    if best is None or not math.isfinite(best_cost):
        raise OcpInfeasibleError("no grid point has finite cost", t_start=ws.t0)
    control = ControlSignal(t_start=ws.t0, step=spec.control_step, values=best, saturation=M)
    return OcpSolution(
        control=control,
        cost=best_cost,
        status="converged",
        iterations=0,
        evaluations=ws.evaluations,
    )
