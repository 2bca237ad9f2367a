"""Receding-horizon funnel MPC loop and closed-loop guarantee checks.

Each cycle measures the plant state, solves the barrier OCP over the
prediction horizon, applies the first delta of the optimal input, then
shifts the remaining optimum and extends its tail with sampled funnel
feedback to warm-start the next cycle.  An infeasible OCP aborts the run
loudly: with exact arithmetic it cannot happen, so it flags a
discretization artifact rather than a tolerable condition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    OcpInfeasibleError,
    PreconditionViolation,
    RecursiveFeasibilityViolation,
    SingularGainError,
)
from .funnel import FunnelChain, FunnelFunction, chain_margins
from .ocp import OcpSpec, StageCost, solve_ocp
from .sim import (
    ControlSignal,
    Trajectory,
    _is_multiple,
    integrate_open_loop,
    zoh_feedback_rollout,
)
from .systems import ReferenceSignal

__all__ = [
    "MpcConfig",
    "OcpRecord",
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

    @property
    def n_cycles(self) -> int:
        return round((self.t_end - self.t0) / self.delta)


@dataclass(frozen=True)
class OcpRecord:
    t_hat: float
    cost: float
    iterations: int
    status: str


@dataclass
class ClosedLoopLog:
    trajectory: Trajectory
    records: list
    status: str = "completed"
    yref: ReferenceSignal | None = None


def _concat_segments(segments) -> Trajectory:
    grids = [segments[0].grid] + [s.grid[1:] for s in segments[1:]]
    states = [segments[0].state] + [s.state[1:] for s in segments[1:]]
    jets = [segments[0].output_jet] + [s.output_jet[1:] for s in segments[1:]]
    inputs = [segments[0].input] + [s.input[1:] for s in segments[1:]]
    return Trajectory(
        grid=np.concatenate(grids),
        state=np.concatenate(states),
        output_jet=np.concatenate(jets),
        input=np.concatenate(inputs),
        status=segments[-1].status,
    )


def _shifted_warm_start(plant, config: MpcConfig, yref, previous: ControlSignal, t_next: float):
    """Shift the previous optimum by delta and extend by sampled feedback.

    Returns None when the tail extension fails; the solver then rebuilds a
    feedback start from scratch.
    """
    spec = config.spec
    n_shift = round(config.delta / spec.control_step)
    remainder = previous.values[n_shift:]
    try:
        probe = plant.clone()
        if remainder.shape[0]:
            mid = ControlSignal(t_start=t_next, step=spec.control_step, values=remainder)
            traj = integrate_open_loop(
                probe, mid, (t_next, t_next + spec.horizon - config.delta), spec.ode_step
            )
            if traj.status != "completed":
                return None
        tail_traj, tail = zoh_feedback_rollout(
            probe,
            config.chain,
            config.gains,
            yref,
            (t_next + spec.horizon - config.delta, t_next + spec.horizon),
            spec.control_step,
            spec.ode_step,
            saturation=spec.saturation,
        )
        if tail_traj.status != "completed":
            return None
    except (PreconditionViolation, SingularGainError) as exc:
        logger.debug("warm-start tail extension failed at t=%g: %s", t_next, exc)
        return None
    values = np.concatenate([remainder, tail.values], axis=0)
    return ControlSignal(t_start=t_next, step=spec.control_step, values=values)


def run_fmpc(plant, yref: ReferenceSignal, config: MpcConfig) -> ClosedLoopLog:
    """Closed-loop funnel MPC over [t0, t_end] on a plant positioned at t0.

    The applied inputs are ``log.trajectory.input``, one row per grid point.
    """
    if abs(plant.t - config.t0) > 1e-9:
        raise ValueError(f"plant positioned at t = {plant.t}, run starts at {config.t0}")

    spec = config.spec
    n_head = round(config.delta / spec.control_step)
    segments = []
    records = []
    warm = None
    status = "completed"

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
                f"OCP infeasible at t = {t_hat}: {exc}",
                t_hat=t_hat,
                margins=getattr(exc, "margin", None),
            ) from exc
        records.append(
            OcpRecord(t_hat=t_hat, cost=sol.cost, iterations=sol.iterations, status=sol.status)
        )
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
            status = segment.status
            break
        if k + 1 < config.n_cycles:
            warm = _shifted_warm_start(plant, config, yref, sol.control, t_next)

    return ClosedLoopLog(
        trajectory=_concat_segments(segments), records=records, status=status, yref=yref
    )


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
