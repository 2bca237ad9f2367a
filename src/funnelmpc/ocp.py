"""Finite-horizon optimal control with a funnel barrier stage cost.

The stage cost penalizes the highest chained tracking error through a
barrier that blows up at the funnel boundary, plus a quadratic input term.
The decision variable is the stacked zero-order-hold input over the
horizon, clamped componentwise to the saturation box.  The solver is
projected gradient descent with forward finite differences and halving
backtracking; a brute-force grid search over tiny decision spaces serves
as an independent reference.  Candidates are costed through batched RK4
rollouts, or, on a plant whose ``linear`` matrices are set (state space or
normal form), through the exact response of ``sim.linear_jet_response``,
which gives the same jets up to rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errchain import top_error_rows
from .errors import OcpInfeasibleError, PreconditionViolation
from .funnel import FunnelFunction, chain_margins
from .sim import (
    ControlSignal,
    _is_multiple,
    _live_members,
    linear_jet_response,
    rollout_jets_batch,
    zoh_feedback_rollout,
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
RESIDUAL_TOL = 1e-6


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
        self.er_block = top_error_rows(sc.gains, self.m)
        w = np.full(n_steps + 1, spec.ode_step)
        w[0] = w[-1] = 0.5 * spec.ode_step
        self.weights = w
        self.evaluations = 0
        # on a linear plant the jets of every candidate are the free response
        # of the start state plus its stacked controls times one matrix
        self.response = None
        if plant.linear is not None:
            free, forced = linear_jet_response(plant.linear, spec.ode_step, spec.substeps, self.N)
            self.response = ((free @ plant.state).ravel(), forced)

    def barrier_costs(self, jets: np.ndarray) -> np.ndarray:
        """Trapezoid-integrated barrier for a (B, K, r*m) jet batch."""
        zeta = jets - self.ref_flat[None, :, :]
        er = zeta @ self.er_block.T
        nrm2 = np.sum(er * er, axis=-1)
        denom = self.theta_sq - nrm2
        with np.errstate(divide="ignore", invalid="ignore"):
            barrier = np.where(denom > 0.0, nrm2 / denom, np.inf)
        return barrier @ self.weights

    def input_costs(self, values: np.ndarray) -> np.ndarray:
        return self.sc.lambda_u * self.spec.control_step * np.sum(values * values, axis=(1, 2))

    def cost_batch(self, values: np.ndarray) -> np.ndarray:
        """Cost of each (N, m) control in a (B, N, m) stack."""
        B = values.shape[0]
        self.evaluations += B
        if self.response is not None:
            free_jets, forced = self.response
            jets = (free_jets + values.reshape(B, -1) @ forced).reshape(B, -1, self.r * self.m)
            alive = _live_members(jets)
        else:
            _, jets, alive = rollout_jets_batch(
                self.plant, values, self.spec.control_step, self.spec.ode_step
            )
        costs = self.barrier_costs(jets) + self.input_costs(values)
        return np.where(alive & np.isfinite(costs), costs, np.inf)

    def cost_single(self, values: np.ndarray) -> float:
        return float(self.cost_batch(values[None, :, :])[0])

    def feedback_values(self, chain, gains) -> np.ndarray:
        """Receding sampled funnel feedback over the horizon, in the box."""
        _, control = zoh_feedback_rollout(
            self.plant.clone(),
            chain,
            gains,
            self.yref,
            (self.t0, self.t0 + self.spec.horizon),
            self.spec.control_step,
            self.spec.ode_step,
            saturation=self.spec.saturation,
        )
        if control.values.shape[0] != self.N:
            raise PreconditionViolation("feedback rollout blew up inside the horizon")
        return control.values


def cost_functional(plant, control: ControlSignal, sc: StageCost, yref, spec: OcpSpec) -> float:
    """Cost of one control over the horizon starting at the plant's time.

    A plant with memory is rolled out on a clone that extends its history.
    """
    if control.t_start > plant.t + 1e-9 or control.t_end < plant.t + spec.horizon - 1e-9:
        raise ValueError("control does not cover the optimization horizon")
    ws = _Workspace(plant, sc, spec, yref)
    i0 = control.index_at(plant.t)
    return ws.cost_single(control.values[i0 : i0 + spec.n_intervals])


def _fd_gradient(ws: _Workspace, d: np.ndarray, J: float, shape) -> np.ndarray:
    """Forward-difference gradient with a backward fallback at infinite probes.

    Probe points are not clamped: the cost is well defined outside the box
    and only iterates carry the constraint.
    """
    D = d.size
    du = FD_RELATIVE_STEP * np.maximum(1.0, np.abs(d))
    probes = d[None, :] + np.diag(du)
    costs = ws.cost_batch(probes.reshape((D,) + shape))
    grad = (costs - J) / du
    bad = ~np.isfinite(costs)
    if np.any(bad):
        idx = np.where(bad)[0]
        back = d[None, :].repeat(idx.size, axis=0)
        back[np.arange(idx.size), idx] = d[idx] - du[idx]
        back_costs = ws.cost_batch(back.reshape((idx.size,) + shape))
        grad[idx] = np.where(
            np.isfinite(back_costs), (J - back_costs) / du[idx], 0.0
        )
    return grad


def solve_ocp(
    plant,
    sc: StageCost,
    spec: OcpSpec,
    yref: ReferenceSignal,
    warm_start: ControlSignal | None = None,
    chain=None,
    gains=None,
) -> OcpSolution:
    """Projected-gradient solution of the funnel OCP from the plant's state.

    A missing or infeasible warm start is replaced by the sampled funnel
    feedback (clamped to the saturation box); if that also has infinite
    cost the problem is declared infeasible.  The returned cost never
    exceeds the starting cost.
    """
    ws = _Workspace(plant, sc, spec, yref)
    M = spec.saturation
    N, m = ws.N, ws.m
    shape = (N, m)

    recovered = False
    values = None
    if warm_start is not None:
        i0 = warm_start.index_at(ws.t0)
        given = warm_start.values[i0 : i0 + N]
        if given.shape[0] == N:
            candidate = np.clip(given, -M, M)
            J = ws.cost_single(candidate)
            if math.isfinite(J):
                values = candidate
            else:
                logger.debug("warm start at t=%g has infinite cost, regenerating", ws.t0)
                recovered = True
        else:
            recovered = True
    if values is None:
        if chain is None or gains is None:
            raise OcpInfeasibleError(
                "no finite-cost start available and no funnel chain to rebuild one",
                t_start=ws.t0,
            )
        cause = None
        try:
            values = ws.feedback_values(chain, gains)
            J = ws.cost_single(values)
        except PreconditionViolation as exc:
            cause = exc
        if cause is not None or not math.isfinite(J):
            # margins of the measured start to psi_1..psi_r
            margins = chain_margins(chain, gains, ws.t0, plant.output_jet() - ws.ref_flat[0])[0]
            reason = (
                f"funnel feedback start could not be built: {cause}"
                if cause is not None
                else "clamped funnel feedback start has infinite cost"
            )
            raise OcpInfeasibleError(reason, t_start=ws.t0, margin=margins) from cause

    d = values.ravel().astype(float)
    status = "budget-exhausted"
    residual = math.nan
    alpha_init = 1.0
    it = 0
    prev_d = None
    prev_grad = None
    while it < spec.max_iterations:
        grad = _fd_gradient(ws, d, J, shape)
        it += 1
        residual = float(np.max(np.abs(d - np.clip(d - grad, -M, M))))
        if residual <= RESIDUAL_TOL:
            status = "converged"
            break
        if prev_grad is not None:
            # spectral (Barzilai-Borwein) step seed, safeguarded to the
            # same bracket as the doubling fallback
            s = d - prev_d
            y = grad - prev_grad
            sy = float(s @ y)
            if sy > 0.0:
                alpha_init = max(min(float(s @ s) / sy, 1e6), 1e-12)
        prev_d = d
        prev_grad = grad
        accepted = False
        alpha = alpha_init
        halvings = 0
        while halvings <= MAX_HALVINGS and not accepted:
            batch = min(8, MAX_HALVINGS - halvings + 1)
            alphas = alpha * 0.5 ** np.arange(batch)
            cands = np.clip(d[None, :] - alphas[:, None] * grad[None, :], -M, M)
            moves = cands - d[None, :]
            decrease = -(moves @ grad)
            costs = ws.cost_batch(cands.reshape((batch,) + shape))
            ok = (
                np.isfinite(costs)
                & (costs <= J - ARMIJO_CONSTANT * decrease)
                & (np.max(np.abs(moves), axis=1) > 0.0)
            )
            if np.any(ok):
                pick = int(np.argmax(ok))
                d = cands[pick]
                J = float(costs[pick])
                alpha_init = max(min(alphas[pick] * 2.0, 1e6), 1e-12)
                accepted = True
            else:
                halvings += batch
                alpha = alphas[-1] * 0.5
        logger.debug(
            "ocp t=%.4f iter=%d cost=%.9e residual=%.3e alpha=%.3e evals=%d",
            ws.t0, it, J, residual, alpha_init, ws.evaluations,
        )
        if not accepted:
            break

    control = ControlSignal(
        t_start=ws.t0, step=spec.control_step, values=d.reshape(shape), saturation=M
    )
    if recovered:
        status = "infeasible-start-recovered"
    return OcpSolution(
        control=control,
        cost=J,
        status=status,
        iterations=it,
        residual=residual,
        evaluations=ws.evaluations,
    )


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
