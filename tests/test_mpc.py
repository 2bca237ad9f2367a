"""Receding-horizon loop and the closed-loop guarantee checks.

The scalar integrator with a gently decaying funnel gives a closed loop
that must keep the error strictly inside the boundary with modest inputs;
a steeply collapsing funnel against a tiny input box is provably
infeasible (the error cannot shrink fast enough), so the loop must abort
with the dedicated exception rather than return a log.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from funnelmpc import (
    ClosedLoopLog,
    ControlSignal,
    FeedbackLaw,
    InitialJetData,
    MpcConfig,
    OcpSpec,
    PreconditionViolation,
    RecursiveFeasibilityViolation,
    StageCost,
    Trajectory,
    build_funnel_chain,
    constant_reference,
    cosine_reference,
    delay_operator,
    exponential_sum_funnel,
    integrate_open_loop,
    make_plant,
    run_fmpc,
    verify_guarantees,
)
from funnelmpc import mpc as mpc_module
from funnelmpc.systems import RelativeDegreeSystem
from funnelmpc.cli import ResolvedRun
from funnelmpc.ocp import _Workspace
from funnelmpc.sim import BLOWUP_NORM

from conftest import config_path, make_integrator_plant


def scalar_mpc_config(psi, t_end=1.0, saturation=5.0, horizon=0.2, delta=0.1):
    data = InitialJetData(0.0, np.array([[0.5]]), np.array([[0.0]]))
    chain = build_funnel_chain(psi, data, [], 0.5, r=1)
    spec = OcpSpec(
        horizon=horizon, control_step=delta, saturation=saturation, ode_step=0.01
    )
    stage = StageCost(theta=chain.theta, lambda_u=0.01, gains=np.array([]))
    return MpcConfig(
        t0=0.0, t_end=t_end, delta=delta, spec=spec,
        chain=chain, gains=np.array([]), stage=stage,
    )


@pytest.fixture(scope="module")
def decay_psi():
    return exponential_sum_funnel(0.5, [(0.5, 1.0)], alpha=1.0, beta=0.5)


# ── Configuration invariants ─────────────────────────────────────────────────


def test_config_timing_properties(decay_psi):
    config = scalar_mpc_config(decay_psi)
    assert config.n_cycles == 10


def test_config_validates_timing(decay_psi):
    with pytest.raises(ValueError):
        scalar_mpc_config(decay_psi, horizon=0.05)
    with pytest.raises(ValueError):
        scalar_mpc_config(decay_psi, t_end=0.55)
    with pytest.raises(ValueError):
        scalar_mpc_config(decay_psi, delta=-0.1)
    config = scalar_mpc_config(decay_psi)
    with pytest.raises(ValueError):
        MpcConfig(
            t0=0.0, t_end=1.0, delta=0.15, spec=config.spec,
            chain=config.chain, gains=np.array([]), stage=config.stage,
        )


def test_config_rejects_gains_other_than_the_stage_gains(decay_psi):
    # the solver builds starts and infeasibility margins from config.gains
    # and costs them with stage.gains, so the two must be one vector
    config = scalar_mpc_config(decay_psi)
    with pytest.raises(ValueError, match="gains"):
        dataclasses.replace(config, gains=np.array([1.0]))


# ── Closed loop on the scalar integrator ─────────────────────────────────────


def test_closed_loop_keeps_error_inside_funnel(decay_psi):
    config = scalar_mpc_config(decay_psi)
    log = run_fmpc(make_integrator_plant(0.5), constant_reference(0.0, r=1), config)
    assert log.status == "completed"
    assert log.trajectory.grid.size == 101
    assert log.trajectory.grid[-1] == pytest.approx(1.0)
    assert len(log.records) == 10
    assert log.trajectory.input.shape == (101, 1)
    assert all(math.isfinite(rec.cost) for rec in log.records)

    report = verify_guarantees(log, decay_psi, 5.0)
    assert report.passed
    assert report.min_margin > 0.0
    assert report.max_input <= 5.0 + 1e-12
    assert [rec.t_hat for rec in log.records] == pytest.approx(np.arange(10) * 0.1)


def test_logged_input_at_a_knot_is_the_one_applied_from_it(decay_psi):
    # delta = 0.1 spans ten RK4 steps: the row at each zero-order-hold knot
    # holds the input of the interval that starts there, as does the first
    # row; the last row holds the final interval's input
    config = scalar_mpc_config(decay_psi)
    log = run_fmpc(make_integrator_plant(0.5), constant_reference(0.0, r=1), config)
    u = log.trajectory.input
    steps = round(config.delta / config.spec.ode_step)
    assert steps >= 2
    knots = np.arange(0, u.shape[0] - 1, steps)
    assert knots.size == len(log.records) == 10
    np.testing.assert_array_equal(u[knots], u[knots + 1])
    np.testing.assert_array_equal(u[-1], u[-2])
    # the input changes between intervals, so the check can tell the knots apart
    assert np.all(u[knots[1:]] != u[knots[1:] - 1])


def test_applied_span_that_blows_up_ends_the_run(monkeypatch, decay_psi):
    # a solve checks its whole horizon, so no finite-cost solve leads into a
    # blow-up; here the plant is pushed to 3.5 steps short of BLOWUP_NORM
    # along the input of cycle k after its solve, so the fourth step of
    # the applied span crosses it
    config = scalar_mpc_config(decay_psi)
    k, steps, h = 3, round(config.delta / config.spec.ode_step), config.spec.ode_step
    solve = mpc_module.solve_ocp
    pushed = []

    def solve_then_push(plant, *args, **kwargs):
        sol = solve(plant, *args, **kwargs)
        if len(pushed) == k:
            u = float(sol.control.values[0, 0])
            assert abs(u) > 1e-3
            plant.state = np.array([math.copysign(BLOWUP_NORM - 3.5 * abs(u) * h, u)])
        pushed.append(plant.state.copy())
        return sol

    monkeypatch.setattr(mpc_module, "solve_ocp", solve_then_push)
    plant = make_integrator_plant(0.5)
    log = run_fmpc(plant, constant_reference(0.0, r=1), config)
    traj = log.trajectory
    assert log.status == "blow-up"
    assert len(log.records) == len(pushed) == k + 1
    # the rows end at the last good point, three steps into cycle k
    assert traj.grid.size == traj.state.shape[0] == traj.input.shape[0] == k * steps + 4
    # the span of cycle k runs from the pushed state
    u = log.records[k].control.values[0, 0]
    np.testing.assert_allclose(traj.state[k * steps + 1 :, 0],
                               pushed[k][0] + u * h * np.arange(1, 4), rtol=1e-15)
    assert np.all(np.abs(traj.state) <= BLOWUP_NORM)
    assert traj.grid[-1] == pytest.approx(k * config.delta + 3 * h)
    # each knot row, and every row after it, holds the input applied from that knot on
    for j, rec in enumerate(log.records):
        rows = traj.input[j * steps : (j + 1) * steps]
        assert rows.shape[0] == (steps if j < k else 4)
        assert np.all(rows == rec.control.values[0])
    # the plant is left at the last good point
    assert plant.t == traj.grid[-1]
    np.testing.assert_array_equal(plant.state, traj.state[-1])


def test_closed_loop_statuses_settle_after_first_cycle(decay_psi):
    config = scalar_mpc_config(decay_psi)
    log = run_fmpc(make_integrator_plant(0.5), constant_reference(0.0, r=1), config)
    assert all(
        rec.status in ("converged", "budget-exhausted", "no-descent", "infeasible-start-recovered")
        for rec in log.records
    )
    assert sum(rec.status == "converged" for rec in log.records) >= 5


def test_shifted_start_that_cannot_be_completed_is_recorded(monkeypatch, decay_psi):
    # N = 2: from the second cycle on the shifted start holds one row and
    # sampled feedback completes it from t_hat + 0.1.  That completion fails
    # once, at t_hat = 0.1; the solver then starts from the feedback alone,
    # and the record says so
    feedback_values = _Workspace.feedback_values
    failed = []

    def fail_first_completion(ws, chain, head):
        if len(head) and not failed:
            failed.append(ws.t0)
            raise PreconditionViolation("completion blew up")
        return feedback_values(ws, chain, head)

    monkeypatch.setattr(_Workspace, "feedback_values", fail_first_completion)
    config = scalar_mpc_config(decay_psi, t_end=0.5)
    log = run_fmpc(make_integrator_plant(0.5), constant_reference(0.0, r=1), config)
    assert failed == [pytest.approx(0.1)]
    statuses = [rec.status for rec in log.records]
    assert statuses[1] == "infeasible-start-recovered"
    assert "infeasible-start-recovered" not in statuses[:1] + statuses[2:]
    assert verify_guarantees(log, decay_psi, 5.0).passed


def test_horizon_of_one_shift_builds_each_feedback_start_once(monkeypatch):
    # T = delta leaves no shifted rows, so every OCP starts from sampled
    # feedback; each such start builds one law.  The shipped showcase with
    # T = 0.04 and M = 20 loses feasibility at t = 1.40 without building the
    # failing start a second time
    with open(config_path("mass_on_car.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = cfg["delta"]
    cfg["t_span"] = [0.0, 1.6]
    res = ResolvedRun(cfg)
    counts = {"laws": 0, "solves": 0}
    law_init = FeedbackLaw.__init__
    solve = mpc_module.solve_ocp

    def counting_law(self, *args, **kwargs):
        counts["laws"] += 1
        law_init(self, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(FeedbackLaw, "__init__", counting_law)
    monkeypatch.setattr(mpc_module, "solve_ocp", counting_solve)
    with pytest.raises(RecursiveFeasibilityViolation, match="infinite cost") as info:
        run_fmpc(res.factory(res.t0), res.yref, res.mpc)
    assert info.value.t_hat == pytest.approx(1.40)
    assert counts["solves"] == 36
    assert counts["laws"] == counts["solves"]


def test_closed_loop_representations_agree():
    # the shipped showcase over its first ten cycles: both records take the
    # exact linear response, each from matrices built from its own formulas
    # in its own coordinates, so agreement checks the two models
    with open(config_path("mass_on_car.json")) as fh:
        cfg = json.load(fh)
    cfg["t_span"] = [0.0, 0.4]
    logs = []
    for representation in ("state_space", "normal_form"):
        cfg["plant"]["representation"] = representation
        res = ResolvedRun(cfg)
        log = run_fmpc(res.factory(res.t0), res.yref, res.mpc)
        assert verify_guarantees(log, res.psi, res.saturation).passed
        logs.append(log)
    ss, nf = logs
    assert len(ss.records) == len(nf.records) == 10
    np.testing.assert_array_equal(ss.trajectory.grid, nf.trajectory.grid)
    np.testing.assert_allclose(ss.trajectory.output_jet, nf.trajectory.output_jet,
                               rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(ss.trajectory.input, nf.trajectory.input, rtol=0.0, atol=1e-4)
    np.testing.assert_allclose([rec.cost for rec in ss.records],
                               [rec.cost for rec in nf.records], rtol=1e-6, atol=0.0)


R3_CHAIN = {"kind": "integrator_chain", "params": {"r": 3, "m": 1}, "x0": [0.3, 0.0, 0.0]}
M2_CHAIN = {"kind": "integrator_chain", "params": {"r": 2, "m": 2}, "x0": [0.3, -0.2, 0.0, 0.1]}
R3_REFERENCE = {"kind": "cosine", "amplitude": 0.5}
M2_REFERENCE = {"kind": "constant", "value": [0.1, -0.1]}


@pytest.mark.parametrize("plant_cfg,reference,saturation", [
    pytest.param(R3_CHAIN, R3_REFERENCE, None, id="r3"),
    pytest.param(M2_CHAIN, M2_REFERENCE, None, id="m2"),
    # the derived bounds (M = 32,426 and 474) never bind; a box of 8 clips
    # inputs that reach about 14 and 11
    pytest.param(R3_CHAIN, R3_REFERENCE, 8.0, id="r3-clipped"),
    pytest.param(M2_CHAIN, M2_REFERENCE, 8.0, id="m2-clipped"),
])
def test_integrator_chain_closed_loop_matches_generic_path(plant_cfg, reference, saturation):
    # r = 3 and m = 2 through the CLI setup: the declared matrices (exact
    # maps, Gauss-Newton on the exact Jacobian) against the same record
    # without them (batched RK4, forward-difference Jacobian, stage-wise
    # law).  Two solves that stop at residual <= 1e-6 may differ by about
    # 1e-2 in u, so the loops are compared where they share a state, and
    # the exact held-step maps against RK4 on the same inputs
    res = ResolvedRun({
        "plant": plant_cfg, "reference": reference,
        "funnel": {"offset": 0.2, "terms": [[1.8, 1.0]], "alpha": 1.0, "beta": 0.2},
        "lambda_u": 1e-3, "delta": 0.04, "horizon": 0.4, "ode_step": 0.01,
        "t_span": [0.0, 0.4], "saturation": saturation,
    })
    generic_system = dataclasses.replace(res.system, linear=None)
    logs = []
    for system in (res.system, generic_system):
        log = run_fmpc(make_plant(system, 0.0, plant_cfg["x0"]), res.yref, res.mpc)
        assert verify_guarantees(log, res.psi, res.saturation).passed
        if saturation is not None:
            assert np.max(np.abs(log.trajectory.input)) == saturation
        logs.append(log)
    exact, generic = logs
    assert len(exact.records) == len(generic.records) == 10
    assert all(rec.status == "converged" for rec in exact.records)
    # the first OCP starts both loops from the same state
    assert exact.records[0].cost <= generic.records[0].cost * (1.0 + 1e-12)
    # row 1 + i*substeps lies inside ZOH interval i
    traj = exact.trajectory
    spec = res.mpc.spec
    applied = ControlSignal(t_start=0.0, step=spec.control_step,
                            values=traj.input[1 :: spec.substeps])
    replay = integrate_open_loop(make_plant(generic_system, 0.0, plant_cfg["x0"]), applied,
                                 (0.0, 0.4), spec.ode_step)
    assert replay.status == "completed"
    # the loop builds its grid per cycle, the replay in one piece
    np.testing.assert_allclose(replay.grid, traj.grid, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(replay.output_jet, traj.output_jet, rtol=0.0, atol=1e-6)


def _delay_closed_loop(t_end, max_iterations):
    """y'(t) = -y(t - 0.1)/2 + u with y = 1/2 on (-inf, 0], the benchmark's delay plant."""
    system = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -0.5 * np.asarray(w, dtype=float), g=lambda w: np.eye(1),
        T=delay_operator(0.1, lambda xi: xi, q=1),
    )
    plant = make_plant(system, 0.0, np.array([0.5]), initial_segment=lambda s: np.array([0.5]))
    yref = cosine_reference(1.0, 1.0, r=1)
    psi = exponential_sum_funnel(0.2, [(1.5, 1.0)], alpha=1.0, beta=0.2)
    data = InitialJetData(0.0, np.array([[0.5]]), yref.jet(0.0))
    chain = build_funnel_chain(psi, data, [], 0.5, r=1)
    spec = OcpSpec(horizon=0.5, control_step=0.1, saturation=5.0, ode_step=0.01,
                   max_iterations=max_iterations)
    config = MpcConfig(
        t0=0.0, t_end=t_end, delta=0.1, spec=spec, chain=chain, gains=np.array([]),
        stage=StageCost(theta=chain.theta, lambda_u=0.01, gains=np.array([])),
    )
    return plant, psi, run_fmpc(plant, yref, config)


def test_delay_plant_closed_loop():
    # the OCP rolls a candidate batch out on a clone whose jet history holds
    # a row per member
    plant, psi, log = _delay_closed_loop(0.2, 3)
    assert verify_guarantees(log, psi, 5.0).passed
    assert len(log.records) == 2
    assert all(math.isfinite(rec.cost) for rec in log.records)
    assert plant.history.latest() == 0.2


def test_delay_plant_ocps_converge():
    # on a plant with memory the Jacobian of e_r comes from one batch of
    # forward-difference rollouts; its Gauss-Newton steps converge well
    # inside the budget of 10 in every OCP
    _, psi, log = _delay_closed_loop(0.4, 10)
    assert verify_guarantees(log, psi, 5.0).passed
    assert [rec.status for rec in log.records] == ["converged"] * 4
    assert max(rec.iterations for rec in log.records) <= 5


def test_collapsing_funnel_with_tiny_input_box_aborts():
    # psi(0) = 0.98 shrinks to ~0.41 within the first horizon while the
    # error can move by at most 0.1 * 0.2 = 0.02: no admissible input has
    # finite cost, so the first cycle must abort loudly
    psi = exponential_sum_funnel(0.08, [(0.9, 5.0)], alpha=5.0, beta=0.4)
    data = InitialJetData(0.0, np.array([[0.9]]), np.array([[0.0]]))
    chain = build_funnel_chain(psi, data, [], 0.5, r=1)
    spec = OcpSpec(horizon=0.2, control_step=0.1, saturation=0.1, ode_step=0.01)
    stage = StageCost(theta=chain.theta, lambda_u=0.01, gains=np.array([]))
    config = MpcConfig(
        t0=0.0, t_end=0.4, delta=0.1, spec=spec,
        chain=chain, gains=np.array([]), stage=stage,
    )
    with pytest.raises(RecursiveFeasibilityViolation):
        run_fmpc(make_integrator_plant(0.9), constant_reference(0.0, r=1), config)


# ── Guarantee verification on synthetic logs ─────────────────────────────────


def _synthetic_log(y, u, status="completed"):
    grid = np.linspace(0.0, 1.0, y.size)
    traj = Trajectory(
        grid=grid,
        state=y[:, None],
        output_jet=y[:, None],
        input=u[:, None],
        status=status,
    )
    return ClosedLoopLog(trajectory=traj, records=[])


def test_verify_flags_funnel_contact(decay_psi):
    y = np.full(11, 0.2)
    y[5] = float(decay_psi.value(0.5))
    report = verify_guarantees(_synthetic_log(y, np.zeros(11)), decay_psi, 5.0)
    assert not report.passed
    assert not bool(report)
    assert report.min_margin <= 0.0
    assert report.margin_t == pytest.approx(0.5)


def test_verify_flags_non_finite_output(decay_psi):
    y = np.full(11, 0.2)
    y[4] = np.nan
    report = verify_guarantees(_synthetic_log(y, np.zeros(11)), decay_psi, 5.0)
    assert not report.passed
    assert report.min_margin == -math.inf
    assert report.margin_t == pytest.approx(0.4)


def test_verify_flags_input_bound_violation(decay_psi):
    u = np.zeros(11)
    u[3] = 9.0
    report = verify_guarantees(_synthetic_log(np.full(11, 0.2), u), decay_psi, 5.0)
    assert not report.passed
    assert report.max_input == pytest.approx(9.0)
    assert report.max_input_t == pytest.approx(0.3)


def test_verify_flags_incomplete_runs(decay_psi):
    log = _synthetic_log(np.full(11, 0.2), np.zeros(11), status="blow-up")
    report = verify_guarantees(log, decay_psi, 5.0)
    assert not report.passed
    assert report.min_margin > 0.0


def test_verify_uses_reference_when_given(decay_psi):
    # tracking y = 0.9 exactly: error is zero against the matching
    # reference but violates the funnel against the zero default
    y = np.full(11, 0.9)
    log = _synthetic_log(y, np.zeros(11))
    assert not verify_guarantees(log, decay_psi, 5.0).passed
    log.yref = constant_reference(0.9, r=1)
    report = verify_guarantees(log, decay_psi, 5.0)
    assert report.passed
