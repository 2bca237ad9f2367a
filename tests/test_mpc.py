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
    InitialJetData,
    MpcConfig,
    OcpSpec,
    RecursiveFeasibilityViolation,
    StageCost,
    Trajectory,
    build_funnel_chain,
    constant_reference,
    cosine_reference,
    delay_operator,
    exponential_sum_funnel,
    make_plant,
    run_fmpc,
    verify_guarantees,
)
from funnelmpc.systems import RelativeDegreeSystem
from funnelmpc.cli import ResolvedRun

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


def test_closed_loop_statuses_settle_after_first_cycle(decay_psi):
    config = scalar_mpc_config(decay_psi)
    log = run_fmpc(make_integrator_plant(0.5), constant_reference(0.0, r=1), config)
    assert all(
        rec.status in ("converged", "budget-exhausted", "infeasible-start-recovered")
        for rec in log.records
    )
    assert sum(rec.status == "converged" for rec in log.records) >= 5


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
    # maps, response-matrix costs) against the same record without them
    # (batched RK4, stage-wise law), with the tolerances of the
    # representation test above
    res = ResolvedRun({
        "plant": plant_cfg, "reference": reference,
        "funnel": {"offset": 0.2, "terms": [[1.8, 1.0]], "alpha": 1.0, "beta": 0.2},
        "lambda_u": 1e-3, "delta": 0.04, "horizon": 0.4, "ode_step": 0.01,
        "t_span": [0.0, 0.4], "saturation": saturation,
    })
    logs = []
    for system in (res.system, dataclasses.replace(res.system, linear=None)):
        log = run_fmpc(make_plant(system, 0.0, plant_cfg["x0"]), res.yref, res.mpc)
        assert verify_guarantees(log, res.psi, res.saturation).passed
        if saturation is not None:
            assert np.max(np.abs(log.trajectory.input)) == saturation
        logs.append(log)
    exact, generic = logs
    assert len(exact.records) == len(generic.records) == 10
    np.testing.assert_array_equal(exact.trajectory.grid, generic.trajectory.grid)
    np.testing.assert_allclose(exact.trajectory.output_jet, generic.trajectory.output_jet,
                               rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(exact.trajectory.input, generic.trajectory.input,
                               rtol=0.0, atol=1e-4)
    np.testing.assert_allclose([rec.cost for rec in exact.records],
                               [rec.cost for rec in generic.records], rtol=1e-6, atol=0.0)


def test_delay_plant_closed_loop():
    # y'(t) = -y(t - 0.1)/2 + u with y = 1/2 on (-inf, 0]: the OCP rolls a
    # candidate batch out on a clone whose jet history holds a row per member
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
                   max_iterations=3)
    config = MpcConfig(
        t0=0.0, t_end=0.2, delta=0.1, spec=spec, chain=chain, gains=np.array([]),
        stage=StageCost(theta=chain.theta, lambda_u=0.01, gains=np.array([])),
    )
    log = run_fmpc(plant, yref, config)
    assert verify_guarantees(log, psi, 5.0).passed
    assert len(log.records) == 2
    assert all(math.isfinite(rec.cost) for rec in log.records)
    assert plant.history.latest() == 0.2


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
    return ClosedLoopLog(trajectory=traj, records=[], status=status)


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
