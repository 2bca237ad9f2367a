"""Receding-horizon funnel MPC loop and closed-loop guarantee checks.

Each cycle measures the plant state, solves the barrier OCP over the
prediction horizon, applies the first delta of the optimal input, then
hands the remaining optimum, shifted by delta, to the next cycle's solver.
The solver builds every start: it completes those rows with sampled funnel
feedback, or falls back to the feedback alone (``ocp.solve_ocp``).  An
infeasible OCP aborts the run loudly: with exact arithmetic it cannot
happen, so it flags a discretization artifact rather than a tolerable
condition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import OcpInfeasibleError, RecursiveFeasibilityViolation
from .funnel import FunnelChain, FunnelFunction, chain_margins
from .ocp import OcpSpec, StageCost, solve_ocp
from .sim import ControlSignal, Trajectory, _is_multiple, integrate_open_loop
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


def _concat_segments(segments) -> Trajectory:
    """One trajectory from the cycle segments, which share their end knots.

    The row at a knot holds the input applied from that knot on, so it
    comes from the later segment; the last row holds the final interval's.
    """
    grids = [segments[0].grid] + [s.grid[1:] for s in segments[1:]]
    states = [segments[0].state] + [s.state[1:] for s in segments[1:]]
    jets = [segments[0].output_jet] + [s.output_jet[1:] for s in segments[1:]]
    inputs = [s.input[:-1] for s in segments[:-1]] + [segments[-1].input]
    return Trajectory(
        grid=np.concatenate(grids),
        state=np.concatenate(states),
        output_jet=np.concatenate(jets),
        input=np.concatenate(inputs),
        status=segments[-1].status,
    )


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

    The applied inputs are ``log.trajectory.input``, one row per grid point;
    ``log.records`` holds each cycle's ``OcpSolution``.
    """
    if abs(plant.t - config.t0) > 1e-9:
        raise ValueError(f"plant positioned at t = {plant.t}, run starts at {config.t0}")

    spec = config.spec
    n_head = round(config.delta / spec.control_step)
    segments = []
    records = []
    warm = None

    for k in range(config.n_cycles):
        t_hat = config.t0 + k * config.delta
        try:
            sol = solve_ocp(
                plant,
                config.stage,
                spec,
                yref,
                warm_start=warm,
                chain=config.chain,
                gains=config.gains,
            )
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
        head = ControlSignal(
            t_start=t_hat,
            step=spec.control_step,
            values=sol.control.values[:n_head],
            saturation=spec.saturation,
        )
        segment = integrate_open_loop(plant, head, (t_hat, t_next), spec.ode_step)
        segments.append(segment)
        if segment.status != "completed":
            break
        warm = _shifted_warm_start(config, sol.control, t_next)

    return ClosedLoopLog(trajectory=_concat_segments(segments), records=records, yref=yref)


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
