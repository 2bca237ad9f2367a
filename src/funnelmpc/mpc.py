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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    OcpInfeasibleError,
    PreconditionViolation,
    RecursiveFeasibilityViolation,
    SingularGainError,
)
from .funnel import FunnelChain, FunnelFunction
from .ocp import OcpSpec, StageCost, solve_ocp
from .sim import (
    ControlSignal,
    NormalFormPlant,
    StateSpacePlant,
    Trajectory,
    integrate_open_loop,
    make_plant,
    zoh_feedback_rollout,
)
from .systems import ReferenceSignal

__all__ = [
    "MpcConfig",
    "OcpRecord",
    "ClosedLoopLog",
    "GuaranteeReport",
    "run_fmpc",
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
        ratio = self.delta / self.spec.control_step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("time shift must be a multiple of the ZOH step")
        if self.t_end <= self.t0:
            raise ValueError("empty closed-loop interval")
        n = (self.t_end - self.t0) / self.delta
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError("interval length must be a multiple of the time shift")

    @property
    def horizon(self) -> float:
        return self.spec.horizon

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
    applied: ControlSignal
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
            check=False,
        )
        if tail_traj.status != "completed":
            return None
    except (PreconditionViolation, SingularGainError) as exc:
        logger.debug("warm-start tail extension failed at t=%g: %s", t_next, exc)
        return None
    values = np.concatenate([remainder, tail.values], axis=0)
    return ControlSignal(t_start=t_next, step=spec.control_step, values=values)


def run_fmpc(plant, yref: ReferenceSignal, config: MpcConfig, y0=None) -> ClosedLoopLog:
    """Closed-loop funnel MPC over [t0, t_end].

    ``plant`` is either a positioned plant instance or a system record; in
    the latter case ``y0`` supplies the initial state (state vector for
    state-space systems, flat output jet for normal forms).
    """
    if not isinstance(plant, (StateSpacePlant, NormalFormPlant)):
        plant = make_plant(plant, config.t0, y0)
    if abs(plant.t - config.t0) > 1e-9:
        raise ValueError(f"plant positioned at t = {plant.t}, run starts at {config.t0}")

    spec = config.spec
    n_head = round(config.delta / spec.control_step)
    segments = []
    records = []
    applied_values = []
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
        applied_values.append(head.values)
        if segment.status != "completed":
            status = segment.status
            break
        if k + 1 < config.n_cycles:
            warm = _shifted_warm_start(plant, config, yref, sol.control, t_next)

    trajectory = _concat_segments(segments)
    applied = ControlSignal(
        t_start=config.t0,
        step=spec.control_step,
        values=np.concatenate(applied_values, axis=0),
        saturation=spec.saturation,
    )
    return ClosedLoopLog(
        trajectory=trajectory, records=records, applied=applied, status=status, yref=yref
    )


@dataclass
class GuaranteeReport:
    passed: bool
    min_margin: float
    margin_t: float
    max_input: float
    max_input_t: float
    cost_trace: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def verify_guarantees(log: ClosedLoopLog, psi: FunnelFunction, M: float, yref=None) -> GuaranteeReport:
    """Check the closed-loop guarantees on a finished log.

    Passes iff the tracking error stays strictly inside the funnel
    (margin > 0 everywhere) and the applied input never exceeds M
    beyond 1e-12.
    """
    traj = log.trajectory
    m = traj.input.shape[1]
    y = traj.output_jet[:, :m]
    reference = yref if yref is not None else log.yref
    if reference is not None:
        ref = reference.jet_array(traj.grid)[:, 0, :]
    else:
        ref = np.zeros_like(y)
    err = np.linalg.norm(y - ref, axis=1)
    radii = np.asarray(psi.value(traj.grid), dtype=float)
    margins = radii - err
    i_min = int(np.argmin(margins))
    input_norms = np.linalg.norm(traj.input, axis=1)
    i_max = int(np.argmax(input_norms))
    passed = (
        log.status == "completed"
        and margins[i_min] > 0.0
        and input_norms[i_max] <= M + 1e-12
    )
    return GuaranteeReport(
        passed=bool(passed),
        min_margin=float(margins[i_min]),
        margin_t=float(traj.grid[i_min]),
        max_input=float(input_norms[i_max]),
        max_input_t=float(traj.grid[i_max]),
        cost_trace=[(rec.t_hat, rec.cost) for rec in log.records],
    )
