"""Barrier stage cost, cost functional, and the horizon OCP solvers.

The scalar integrator admits closed forms: with theta = 1, y0 = 1/2,
y_ref = 0 and u = -5 held for 0.1 the tracking error is e(t) = 1/2 - 5t
and

    int_0^0.1 e^2/(1 - e^2) dt = (atanh(1/2) - 1/2) / 5,

so the total cost with lambda_u = 0.01 is that value plus 0.025.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from funnelmpc import (
    ControlSignal,
    FunnelChain,
    FunnelFunction,
    OcpInfeasibleError,
    OcpSpec,
    StageCost,
    brute_force_ocp,
    cost_functional,
    make_plant,
    mass_on_car_state_space,
    solve_ocp,
    stage_cost,
)
from funnelmpc.ocp import _Workspace

from conftest import SHOWCASE, make_integrator_plant


@pytest.fixture(scope="module")
def theta_one(request):
    # constant boundary theta = 1 with a valid decay certificate
    from funnelmpc import exponential_sum_funnel

    return exponential_sum_funnel(1.0, [(0.0, 1.0)], alpha=1.0, beta=0.5)


@pytest.fixture(scope="module")
def scalar_chain(theta_one):
    return FunnelChain(r=1, members=(theta_one,), gamma=0.5)


@pytest.fixture(scope="module")
def scalar_stage(theta_one):
    return StageCost(theta=theta_one, lambda_u=0.01, gains=np.array([]))


@pytest.fixture(scope="module")
def zero_ref():
    from funnelmpc import constant_reference

    return constant_reference(0.0, r=1)


def spec_for(horizon=0.1, control_step=0.1, saturation=20.0, ode_step=2.5e-4, **kw):
    return OcpSpec(
        horizon=horizon, control_step=control_step,
        saturation=saturation, ode_step=ode_step, **kw,
    )


# ── Pointwise stage cost ─────────────────────────────────────────────────────


def test_stage_cost_tracking_free_point(scalar_stage):
    assert stage_cost(0.0, np.array([0.0]), np.array([3.0]), scalar_stage) == \
        pytest.approx(0.09, abs=1e-15)


def test_stage_cost_barrier_value():
    theta2 = FunnelFunction(
        value=lambda t: 2.0, derivative=lambda t: 0.0,
        alpha=1.0, beta=0.5, sup_norm=2.0, sup_norm_derivative=0.0,
    )
    sc = StageCost(theta=theta2, lambda_u=0.01, gains=np.array([]))
    value = stage_cost(0.0, np.array([1.0]), np.array([3.0]), sc)
    assert value == pytest.approx(1.0 / 3.0 + 0.09, rel=1e-14)


def test_stage_cost_is_infinite_from_boundary_outward(scalar_stage):
    assert stage_cost(0.0, np.array([1.0]), np.array([0.0]), scalar_stage) == math.inf
    assert stage_cost(0.0, np.array([1.5]), np.array([0.0]), scalar_stage) == math.inf


def test_stage_cost_uses_chained_top_error(theta_one):
    sc = StageCost(theta=theta_one, lambda_u=0.0, gains=np.array([2.0]))
    # e_2 = e' + 2 e = 0.7; barrier term 0.49 / (1 - 0.49)
    value = stage_cost(0.0, np.array([0.3, 0.1]), np.array([0.0]), sc)
    assert value == pytest.approx(0.49 / 0.51, rel=1e-12)


def test_stage_cost_validates_shapes(theta_one, scalar_stage):
    with pytest.raises(ValueError):
        StageCost(theta=theta_one, lambda_u=-1.0, gains=np.array([]))
    with pytest.raises(ValueError):
        stage_cost(0.0, np.zeros(3), np.zeros(1), StageCost(theta_one, 0.0, np.array([2.0])))


# ── Cost functional along rollouts ───────────────────────────────────────────


def test_cost_functional_matches_antiderivative(scalar_stage, zero_ref):
    plant = make_integrator_plant(0.5)
    control = ControlSignal(t_start=0.0, step=0.1, values=[[-5.0]])
    cost = cost_functional(plant, control, scalar_stage, zero_ref, spec_for())
    expected = (math.atanh(0.5) - 0.5) / 5.0 + 0.025
    assert cost == pytest.approx(expected, abs=1e-6)


def test_cost_functional_infinite_outside_funnel(scalar_stage, zero_ref):
    plant = make_integrator_plant(0.5)
    control = ControlSignal(t_start=0.0, step=0.1, values=[[6.0]])
    cost = cost_functional(plant, control, scalar_stage, zero_ref, spec_for())
    assert cost == math.inf


def test_cost_functional_zero_on_exact_tracking(scalar_stage, zero_ref):
    plant = make_integrator_plant(0.0)
    control = ControlSignal(t_start=0.0, step=0.1, values=[[0.0]])
    cost = cost_functional(plant, control, scalar_stage, zero_ref, spec_for())
    assert cost == 0.0


# ── Horizon spec ─────────────────────────────────────────────────────────────


def test_spec_discretization_counts():
    spec = spec_for(horizon=0.6, control_step=0.04, ode_step=0.02)
    assert spec.n_intervals == 15
    assert spec.substeps == 2


def test_spec_validates_divisibility():
    with pytest.raises(ValueError):
        spec_for(horizon=0.5, control_step=0.3)
    with pytest.raises(ValueError):
        spec_for(control_step=0.1, ode_step=0.03)
    with pytest.raises(ValueError):
        spec_for(saturation=0.0)


# ── Projected-gradient solver against exhaustive search ─────────────────────


def test_solver_matches_brute_force_single_interval(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=2.0, ode_step=5e-3)
    brute = brute_force_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        grid_resolution=0.01,
    )
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        chain=scalar_chain, gains=np.array([]),
    )
    assert sol.status == "converged"
    assert sol.cost <= brute.cost + 1e-9
    assert abs(sol.cost - brute.cost) < 1e-4
    assert abs(sol.control.values[0, 0] - brute.control.values[0, 0]) <= 0.01 + 1e-9


def test_solver_matches_brute_force_two_intervals(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(horizon=0.2, saturation=1.0, ode_step=5e-3)
    brute = brute_force_ocp(
        make_integrator_plant(0.4), scalar_stage, spec, zero_ref,
        grid_resolution=0.05,
    )
    sol = solve_ocp(
        make_integrator_plant(0.4), scalar_stage, spec, zero_ref,
        chain=scalar_chain, gains=np.array([]),
    )
    assert sol.cost <= brute.cost + 1e-9
    assert abs(sol.cost - brute.cost) < 5e-3


def test_solver_never_worsens_a_feasible_warm_start(scalar_stage, zero_ref):
    spec = spec_for(horizon=0.2, saturation=5.0, ode_step=5e-3)
    warm = ControlSignal(t_start=0.0, step=0.1, values=np.zeros((2, 1)))
    warm_cost = cost_functional(
        make_integrator_plant(0.5), warm, scalar_stage, zero_ref, spec
    )
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref, warm_start=warm
    )
    assert math.isfinite(sol.cost)
    assert sol.cost <= warm_cost
    assert np.max(np.abs(sol.control.values)) <= 5.0


def test_solver_reports_budget_exhaustion(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=2.0, ode_step=5e-3, max_iterations=1)
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        chain=scalar_chain, gains=np.array([]),
    )
    assert sol.status == "budget-exhausted"
    assert math.isfinite(sol.cost)


def test_solver_recovers_from_infinite_warm_start(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=20.0, ode_step=5e-3)
    bad = ControlSignal(t_start=0.0, step=0.1, values=[[20.0]])
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        warm_start=bad, chain=scalar_chain, gains=np.array([]),
    )
    assert sol.status == "infeasible-start-recovered"
    assert math.isfinite(sol.cost)


def test_solver_raises_without_any_feasible_start(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=20.0, ode_step=5e-3)
    bad = ControlSignal(t_start=0.0, step=0.1, values=[[20.0]])
    with pytest.raises(OcpInfeasibleError):
        solve_ocp(
            make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
            warm_start=bad,
        )
    # a start outside the funnel cannot be recovered by the feedback either
    with pytest.raises(OcpInfeasibleError):
        solve_ocp(
            make_integrator_plant(1.5), scalar_stage, spec, zero_ref,
            chain=scalar_chain, gains=np.array([]),
        )


def test_solver_residual_small_at_convergence(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=2.0, ode_step=5e-3)
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        chain=scalar_chain, gains=np.array([]),
    )
    assert sol.status == "converged"
    assert sol.residual <= 1e-6
    assert sol.iterations >= 1
    assert sol.evaluations > 0


def test_brute_force_rejects_large_decision_spaces(scalar_stage, zero_ref):
    spec = spec_for(horizon=0.4, saturation=1.0, ode_step=5e-3)
    with pytest.raises(ValueError):
        brute_force_ocp(
            make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
            grid_resolution=0.5,
        )


# ── Cost paths on a linear plant ─────────────────────────────────────────────


def _showcase_ocp(showcase_chain):
    stage = StageCost(theta=showcase_chain.theta, lambda_u=SHOWCASE["lambda_u"],
                      gains=SHOWCASE["gains"])
    spec = spec_for(horizon=SHOWCASE["horizon"], control_step=SHOWCASE["control_step"],
                    saturation=SHOWCASE["saturation"], ode_step=0.02, max_iterations=40)
    system = mass_on_car_state_space()
    assert system.linear is not None
    return stage, spec, system, dataclasses.replace(system, linear=None)


def test_linear_response_costs_match_rollouts(showcase_chain, showcase_yref):
    # the linear record costs candidates through one response matrix; the
    # same plant without it runs batched RK4, and _cost_rollout integrates
    # each member on its own
    stage, spec, linear, generic = _showcase_ocp(showcase_chain)
    x0 = np.array([0.0, 0.0, 2.0, 0.0])
    fast = _Workspace(make_plant(linear, 0.0, x0), stage, spec, showcase_yref)
    slow = _Workspace(make_plant(generic, 0.0, x0), stage, spec, showcase_yref)
    assert fast.response is not None and slow.response is None
    values = np.random.default_rng(5).uniform(-20.0, 20.0, size=(12, spec.n_intervals, 1))
    values[0] = 20.0  # drives the error out of the funnel
    values[1] = 1e12  # blows up
    paths = [
        fast.cost_batch(values),
        slow.cost_batch(values),
        np.array([slow._cost_rollout(v) for v in values]),
    ]
    finite = np.isfinite(paths[0])
    assert not finite[0] and not finite[1]
    assert finite.sum() >= 8
    for costs in paths[1:]:
        np.testing.assert_array_equal(np.isfinite(costs), finite)
        np.testing.assert_allclose(costs[finite], paths[0][finite], rtol=1e-12, atol=0.0)
    # the single-control entry point takes the same path
    control = ControlSignal(t_start=0.0, step=spec.control_step, values=values[2])
    cost = cost_functional(make_plant(linear, 0.0, x0), control, stage, showcase_yref, spec)
    assert cost == pytest.approx(paths[0][2], rel=1e-12, abs=0.0)


def test_linear_response_solve_matches_rk4_solve(showcase_chain, showcase_yref):
    stage, spec, linear, generic = _showcase_ocp(showcase_chain)
    x0 = np.array([0.0, 0.0, 2.0, 0.0])
    fast, slow = (
        solve_ocp(make_plant(record, 0.0, x0), stage, spec, showcase_yref,
                  chain=showcase_chain, gains=SHOWCASE["gains"])
        for record in (linear, generic)
    )
    assert fast.status == slow.status
    assert math.isfinite(slow.cost)
    assert fast.cost == pytest.approx(slow.cost, rel=1e-12, abs=0.0)
