"""Receding-horizon funnel MPC loop and closed-loop guarantee checks.

Each cycle measures the plant state, solves the barrier OCP over the
prediction horizon, applies the first delta of the optimal input as one
held span (``sim._hold``) written straight into the run's one trajectory,
then hands the remaining optimum, shifted by delta, to the next cycle's
solver.  The solver builds every start: it completes those rows with
sampled funnel feedback, or falls back to the feedback alone
(``ocp.solve_ocp``).  An infeasible OCP aborts the run loudly: with exact
arithmetic it cannot happen, so it flags a discretization artifact rather
than a tolerable condition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import OcpInfeasibleError, RecursiveFeasibilityViolation
from .funnel import FunnelChain, FunnelFunction, chain_margins
from .ocp import OcpSpec, StageCost, solve_ocp
from .sim import ControlSignal, Trajectory, _hold, _is_multiple, _step_grid, _trajectory
from .systems import ReferenceSignal

__all__ = [
    "MpcConfig",
    "ClosedLoopLog",
    "GuaranteeReport",
    "run_fmpc",
    "output_guarantees",
    "verify_guarantees",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MpcConfig:
    """Timing, funnel data and solver settings for one closed-loop run."""

    t0: float
    t_end: float
    delta: float
    spec: OcpSpec
    chain: FunnelChain
    gains: np.ndarray
    stage: StageCost

    def __post_init__(self):
        object.__setattr__(self, "gains", np.asarray(self.gains, dtype=float))
        if not self.delta > 0:
            raise ValueError("time shift must be positive")
        if self.spec.horizon < self.delta - 1e-12:
            raise ValueError("prediction horizon must be at least the time shift")
        if not _is_multiple(self.delta, self.spec.control_step):
            raise ValueError("time shift must be a multiple of the ZOH step")
        if self.t_end <= self.t0:
            raise ValueError("empty closed-loop interval")
        if not _is_multiple(self.t_end - self.t0, self.delta):
            raise ValueError("interval length must be a multiple of the time shift")
        # starts and infeasibility margins use gains, the cost stage.gains
        if not np.array_equal(self.gains, self.stage.gains):
            raise ValueError("gains differ from the stage cost's gains")

    @property
    def n_cycles(self) -> int:
        return round((self.t_end - self.t0) / self.delta)


@dataclass
class ClosedLoopLog:
    """A run's trajectory, each cycle's ``OcpSolution`` and the reference."""

    trajectory: Trajectory
    records: list
    yref: ReferenceSignal | None = None

    @property
    def status(self) -> str:
        return self.trajectory.status


def _shifted_warm_start(config: MpcConfig, previous: ControlSignal, t_next: float):
    """The previous optimum from t_next on: its rows after the first delta.

    None when none are left (T = delta).  ``solve_ocp`` completes the rows
    with sampled feedback to the end of its horizon.
    """
    remainder = previous.values[round(config.delta / config.spec.control_step) :]
    if not remainder.shape[0]:
        return None
    return ControlSignal(t_start=t_next, step=config.spec.control_step, values=remainder)


def run_fmpc(plant, yref: ReferenceSignal, config: MpcConfig) -> ClosedLoopLog:
    """Closed-loop funnel MPC over [t0, t_end] on a plant positioned at t0.

    Each cycle's applied span starts from ``plant.state`` and is crossed by
    one ``_hold`` of the optimum's first delta into arrays kept for the
    whole run; a span that blows up ends the run there, with status
    'blow-up'.  The applied inputs are ``log.trajectory.input``, one row per
    grid point, a knot's row holding the input applied from that knot on;
    ``log.records`` holds each cycle's ``OcpSolution``.
    """
    if abs(plant.t - config.t0) > 1e-9:
        raise ValueError(f"plant positioned at t = {plant.t}, run starts at {config.t0}")

    spec, h = config.spec, config.spec.ode_step
    n_head = round(config.delta / spec.control_step)
    n_span = round(config.delta / h)
    size = config.n_cycles * n_span + 1
    grid, states = np.empty(size), np.empty((size, plant.state_dim))
    inputs = np.empty((size, plant.m))
    records = []
    warm = None

    for k in range(config.n_cycles):
        t_hat = config.t0 + k * config.delta
        try:
            sol = solve_ocp(plant, config.stage, spec, yref, warm_start=warm, chain=config.chain)
        except OcpInfeasibleError as exc:
            raise RecursiveFeasibilityViolation(
                f"OCP infeasible at t = {t_hat:g}: {exc}",
                t_hat=t_hat,
                margins=getattr(exc, "margin", None),
            ) from exc
        records.append(sol)
        logger.info(
            "fmpc t=%.4f cost=%.6e iters=%d status=%s", t_hat, sol.cost, sol.iterations, sol.status
        )
        t_next = config.t0 + (k + 1) * config.delta
        span_grid, substeps = _step_grid(plant, (t_hat, t_next), h, spec.control_step)
        lo, hi = k * n_span, (k + 1) * n_span
        head = sol.control.values[:n_head]
        grid[lo : hi + 1], states[lo] = span_grid, plant.state
        inputs[lo:hi] = np.repeat(head, substeps, axis=0)
        count = lo + _hold(plant, span_grid, h, substeps, states[lo : hi + 1], head)
        if count <= hi:
            break
        warm = _shifted_warm_start(config, sol.control, t_next)
    else:
        inputs[-1] = head[-1]

    log = _trajectory(plant, grid, states, inputs, count)
    return ClosedLoopLog(trajectory=log, records=records, yref=yref)


@dataclass
class GuaranteeReport:
    passed: bool
    min_margin: float
    margin_t: float
    max_input: float
    max_input_t: float

    def __bool__(self):
        return self.passed


def output_guarantees(ts, errors, inputs, psi: FunnelFunction, M: float) -> GuaranteeReport:
    """Margins psi(t_k) - ||errors_k|| of the (K, m) output errors, through
    ``chain_margins`` on a chain of one, and the input box max |u_i| <= M
    (up to 1e-12) for the (K, m) inputs.  A non-finite error has margin -inf.
    """
    margins = chain_margins(FunnelChain((psi,)), (), ts, errors)[:, 0]
    i_min = int(np.argmin(margins))
    input_peaks = np.max(np.abs(inputs), axis=1)
    i_max = int(np.argmax(input_peaks))
    return GuaranteeReport(
        passed=bool(margins[i_min] > 0.0 and input_peaks[i_max] <= M + 1e-12),
        min_margin=float(margins[i_min]),
        margin_t=float(ts[i_min]),
        max_input=float(input_peaks[i_max]),
        max_input_t=float(ts[i_max]),
    )


def verify_guarantees(log: ClosedLoopLog, psi: FunnelFunction, M: float) -> GuaranteeReport:
    """Check the closed-loop guarantees on a finished log.

    Passes iff the run completed, the tracking error against ``log.yref``
    (zero when unset) stays strictly inside the funnel (margin > 0
    everywhere) and every applied input component stays in the box [-M, M]
    up to 1e-12.  ``max_input`` is the largest |u_i|.
    """
    traj = log.trajectory
    m = traj.input.shape[1]
    ref = log.yref.jet_array(traj.grid)[:, 0, :] if log.yref is not None else 0.0
    report = output_guarantees(traj.grid, traj.output_jet[:, :m] - ref, traj.input, psi, M)
    return replace(report, passed=report.passed and log.status == "completed")
