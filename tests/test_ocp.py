"""Barrier stage cost, cost functional, and the horizon OCP solvers.

The scalar integrator admits closed forms: with theta = 1, y0 = 1/2,
y_ref = 0 and u = -5 held for 0.1 the tracking error is e(t) = 1/2 - 5t
and

    int_0^0.1 e^2/(1 - e^2) dt = (atanh(1/2) - 1/2) / 5,

so the total cost with lambda_u = 0.01 is that value plus 0.025.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from funnelmpc import (
    ControlSignal,
    FeedbackLaw,
    FunnelChain,
    FunnelFunction,
    OcpInfeasibleError,
    OcpSpec,
    PreconditionViolation,
    RelativeDegreeSystem,
    StageCost,
    brute_force_ocp,
    constant_reference,
    cost_functional,
    exponential_sum_funnel,
    integrate_open_loop,
    integrator_chain,
    make_plant,
    mass_on_car_state_space,
    solve_ocp,
    stage_cost,
    static_operator,
    zoh_feedback_rollout,
)
from funnelmpc import errchain as errchain_module
from funnelmpc import ocp as ocp_module
from funnelmpc import sim as sim_module
from funnelmpc.cli import ResolvedRun
from funnelmpc.mpc import run_fmpc
from funnelmpc.ocp import _Workspace

from conftest import SHOWCASE, config_path, make_integrator_plant, workspace_derivatives


@pytest.fixture(scope="module")
def theta_one(request):
    # constant boundary theta = 1 with a valid decay certificate
    from funnelmpc import exponential_sum_funnel

    return exponential_sum_funnel(1.0, [(0.0, 1.0)], alpha=1.0, beta=0.5)


@pytest.fixture(scope="module")
def scalar_chain(theta_one):
    return FunnelChain((theta_one,))


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


def test_cost_functional_rejects_a_control_off_the_ocp_grid(scalar_stage, zero_ref):
    # a control on a finer ZOH grid, or one whose knots miss the plant's
    # time, would be costed on rows the OCP never holds
    plant = make_integrator_plant(0.5)
    spec = spec_for(horizon=0.2)
    finer = ControlSignal(t_start=0.0, step=0.05, values=[[-1.0]] * 4)
    offset = ControlSignal(t_start=-0.05, step=0.1, values=[[-1.0]] * 3)
    for control, match in ((finer, "the OCP by"), (offset, "no knot")):
        with pytest.raises(ValueError, match=match):
            cost_functional(plant, control, scalar_stage, zero_ref, spec)


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


def test_spec_needs_an_iteration_budget():
    # with no iteration every OCP would return its start unsolved
    with pytest.raises(ValueError, match="max_iterations"):
        spec_for(max_iterations=0)
    assert spec_for(max_iterations=1).max_iterations == 1


# ── Projected solver against exhaustive search ──────────────────────────────


def test_a_member_that_turns_nan_costs_inf(scalar_stage, zero_ref):
    # y' = -y^3 + u under u = 1e150: the first RK4 step's stages overflow
    # to -inf and +inf, and their sum is NaN.  The member's jets keep the
    # NaN; the batched rollout flags it and cost_batch charges it inf,
    # while the other member's cost stays finite
    system = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -w**3, g=lambda w: np.ones(np.shape(w)[:-1] + (1, 1)),
        T=static_operator(lambda xi: xi, q=1),
    )
    plant = make_plant(system, 0.0, np.array([0.5]))
    values = np.array([[[-1.0]], [[1e150]]])
    _, jets, alive = sim_module.rollout_jets_batch(plant, values, 0.1, 0.01)
    assert alive.tolist() == [True, False] and np.isnan(jets[1, 1:]).all()
    ws = _Workspace(plant, scalar_stage, spec_for(ode_step=0.01), zero_ref)
    costs = ws.cost_batch(values)
    assert math.isfinite(costs[0]) and costs[1] == math.inf


def test_solver_matches_brute_force_single_interval(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=2.0, ode_step=5e-3)
    brute = brute_force_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        grid_resolution=0.01,
    )
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        chain=scalar_chain,
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
        chain=scalar_chain,
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
        chain=scalar_chain,
    )
    assert sol.status == "budget-exhausted"
    assert math.isfinite(sol.cost)


def test_solver_reports_a_failed_line_search(monkeypatch, scalar_stage, zero_ref, scalar_chain):
    # along an ascent direction no step passes the strict Armijo test: the
    # solve stops at once and says why
    newton_direction = ocp_module._newton_direction
    monkeypatch.setattr(ocp_module, "_newton_direction",
                        lambda *args: -newton_direction(*args))
    system = dataclasses.replace(integrator_chain(1), linear=None)
    spec = spec_for(saturation=2.0, ode_step=5e-3)
    plant = make_plant(system, 0.0, np.array([0.5]))
    sol = solve_ocp(plant, scalar_stage, spec, zero_ref, chain=scalar_chain)
    assert sol.status == "no-descent"
    assert sol.iterations <= 2
    assert sol.residual > 1e-6
    assert sol.cost == cost_functional(plant, sol.control, scalar_stage, zero_ref, spec)


def test_solver_stops_when_a_probe_blows_up(monkeypatch, scalar_stage, zero_ref, scalar_chain):
    # a forward-difference probe that blows up leaves its Jacobian column
    # undefined; the solve stops with no-descent instead of guessing one
    rollout = ocp_module.rollout_jets_batch

    def last_member_blows_up(plant, values, step, h):
        grid, jets, alive = rollout(plant, values, step, h)
        if values.shape[0] > 1:
            jets[-1] = np.inf
            alive[-1] = False
        return grid, jets, alive

    monkeypatch.setattr(ocp_module, "rollout_jets_batch", last_member_blows_up)
    system = dataclasses.replace(integrator_chain(1), linear=None)
    spec = spec_for(horizon=0.2, saturation=2.0, ode_step=5e-3)
    plant = make_plant(system, 0.0, np.array([0.5]))
    sol = solve_ocp(plant, scalar_stage, spec, zero_ref, chain=scalar_chain)
    assert sol.status == "no-descent"
    assert sol.iterations == 1
    assert math.isfinite(sol.cost)


def test_armijo_test_rejects_a_move_that_keeps_the_cost():
    # a positive first-order decrease below half an ulp of J leaves
    # J - c * decrease == J, so a candidate at cost J must still fail
    J = 1.0 / 3.0
    assert J - ocp_module.ARMIJO_CONSTANT * 1e-20 == J
    assert not ocp_module._sufficient_decrease(J, J, 1e-20)
    assert not ocp_module._sufficient_decrease(J - 1e-12, J, 0.0)
    costs = np.array([J, np.inf, J - 1e-3, J - 1e-5])
    np.testing.assert_array_equal(
        ocp_module._sufficient_decrease(costs, J, np.array([1e-20, 1.0, 1.0, 1.0])),
        [False, False, True, False],
    )


@pytest.mark.parametrize("matrices", [False, True], ids=["rk4", "exact"])
def test_line_search_halves_a_doubled_newton_step(monkeypatch, caplog, matrices):
    # twice the Newton step overshoots, so each iteration backtracks once, to
    # alpha = 1/2, which is the Newton step itself: every trial point is
    # costed alone, and the solve retraces the unpatched one.  The warm
    # start is the optimum from a nearby state, close enough to this
    # optimum that the cost is nearly quadratic in between: the doubled
    # step lands near the reflection of the iterate and fails the Armijo
    # test
    theta = exponential_sum_funnel(3.0, [(2.0, 1.0)], alpha=1.0, beta=0.5)
    stage = StageCost(theta=theta, lambda_u=0.03, gains=np.array([2.0]))
    spec = spec_for(horizon=0.3, saturation=20.0, ode_step=5e-3)
    yref = constant_reference(np.zeros(2), 2)
    x0 = np.array([0.8, 0.4, 0.0, -0.4])
    system = integrator_chain(2, 2)
    if not matrices:
        system = dataclasses.replace(system, linear=None)

    def solve(warm_start, start=x0):
        return solve_ocp(make_plant(system, 0.0, start), stage, spec, yref,
                         warm_start=warm_start)

    zero = ControlSignal(t_start=0.0, step=0.1, values=np.zeros((3, 2)))
    warm = solve(zero, 1.25 * x0).control
    plain = solve(warm)

    newton_direction = ocp_module._newton_direction
    monkeypatch.setattr(ocp_module, "_newton_direction",
                        lambda *args: 2.0 * newton_direction(*args))
    widths = []
    cost_batch = _Workspace.cost_batch

    def counted_cost_batch(self, values):
        widths.append(values.shape[0])
        return cost_batch(self, values)

    monkeypatch.setattr(_Workspace, "cost_batch", counted_cost_batch)
    caplog.set_level(logging.DEBUG, logger=ocp_module.__name__)
    sol = solve(warm)
    alphas = [rec.args[4] for rec in caplog.records if rec.msg.startswith("ocp t=")]
    assert sol.status == plain.status == "converged"
    assert len(alphas) == sol.iterations - 1 >= 2
    assert all(alpha == 0.5 for alpha in alphas)
    assert max(widths, default=1) == 1
    np.testing.assert_allclose(sol.control.values, plain.control.values, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("matrices", [False, True], ids=["rk4", "exact"])
def test_solver_direction_follows_the_plant_record(matrices):
    # the direction comes from e_r linearized around the iterate: through
    # the record's matrices where they are declared (one evaluation), from
    # one batch of forward-difference probes elsewhere; on a linear plant
    # both give the exact response up to the rounding of the quotients: a
    # 60-step rollout rounds e_r by some 1e-14, and 1e-14 / 1e-6 = 1e-8;
    # measured up to 6e-9 of the largest entry
    theta = FunnelFunction(
        value=lambda t: 3.0 + 0.0 * np.asarray(t), derivative=lambda t: 0.0 * np.asarray(t),
        alpha=1.0, beta=3.0, sup_norm=3.0, sup_norm_derivative=0.0,
    )
    stage = StageCost(theta=theta, lambda_u=0.01, gains=np.array([2.0]))
    spec = spec_for(horizon=0.3, saturation=2.0, ode_step=5e-3)
    for m in (1, 2):
        yref = constant_reference(np.zeros(m), 2)
        x0 = np.linspace(0.5, -0.3, 2 * m)
        d = np.random.default_rng(3).uniform(-1.0, 1.0, 3 * m)
        system = integrator_chain(2, m)
        exact = _Workspace(make_plant(system, 0.0, x0), stage, spec, yref)
        if not matrices:
            system = dataclasses.replace(system, linear=None)
        ws = _Workspace(make_plant(system, 0.0, x0), stage, spec, yref)
        cost = ws.linearize(d)
        assert cost == pytest.approx(exact.cost_batch(d.reshape(1, 3, m))[0], rel=1e-12)
        assert ws.evaluations == (1 if matrices else d.size + 1)
        for name in ("er_forced", "er_free"):
            want = getattr(exact, name)
            np.testing.assert_allclose(getattr(ws, name), want, rtol=0.0,
                                       atol=5e-8 * np.max(np.abs(want)))


def test_solver_recovers_from_infinite_warm_start(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=20.0, ode_step=5e-3)
    bad = ControlSignal(t_start=0.0, step=0.1, values=[[20.0]])
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        warm_start=bad, chain=scalar_chain,
    )
    assert sol.status == "infeasible-start-recovered"
    assert math.isfinite(sol.cost)


def test_failed_start_names_infinite_cost(caplog, scalar_stage, zero_ref, scalar_chain):
    # the held 20 drives y out of the funnel: the start fails on its cost,
    # not on an exception, and the log says so
    spec = spec_for(saturation=20.0, ode_step=5e-3)
    bad = ControlSignal(t_start=0.0, step=0.1, values=[[20.0]])
    caplog.set_level(logging.DEBUG, logger=ocp_module.__name__)
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        warm_start=bad, chain=scalar_chain,
    )
    assert sol.status == "infeasible-start-recovered"
    failed = [rec.getMessage() for rec in caplog.records if rec.msg.startswith("start of")]
    assert failed == ["start of 1 given rows at t=0 failed: infinite cost"]


def test_short_warm_start_is_completed_by_sampled_feedback(monkeypatch, scalar_stage, zero_ref):
    # N = 3 intervals and 2 given rows: the solver's start holds them and
    # takes its last row from the sampled feedback run from the held state;
    # a decaying funnel makes that feedback nonzero
    psi = exponential_sum_funnel(0.5, [(0.5, 1.0)], alpha=1.0, beta=0.5)
    chain = FunnelChain((psi,))
    stage = dataclasses.replace(scalar_stage, theta=psi)
    spec = spec_for(horizon=0.3, saturation=5.0, ode_step=5e-3)
    given = np.array([[-1.0], [-0.5]])
    starts = []
    linearize = _Workspace.linearize

    def first_linearization(ws, d):
        if not starts:
            starts.append(d.reshape(3, 1).copy())
        return linearize(ws, d)

    monkeypatch.setattr(_Workspace, "linearize", first_linearization)
    sol = solve_ocp(
        make_integrator_plant(0.5), stage, spec, zero_ref,
        warm_start=ControlSignal(t_start=0.0, step=0.1, values=given),
        chain=chain,
    )
    assert sol.status != "infeasible-start-recovered"
    assert math.isfinite(sol.cost)
    np.testing.assert_array_equal(starts[0][:2], given)
    probe = make_integrator_plant(0.5)
    held = ControlSignal(t_start=0.0, step=0.1, values=given)
    assert integrate_open_loop(probe, held, (0.0, 0.2), spec.ode_step).status == "completed"
    # the tail starts where the held rows left the probe, whatever rounding
    # its time took; the two roads to that state may differ in the last bits
    _, tail = zoh_feedback_rollout(
        probe, chain, np.array([]), zero_ref, (probe.t, probe.t + 0.1), 0.1, spec.ode_step,
        saturation=5.0,
    )
    assert tail.values[0, 0] != 0.0
    np.testing.assert_allclose(starts[0][2:], tail.values, rtol=1e-12, atol=0.0)


def _shipped_showcase(t_end=None):
    with open(config_path("mass_on_car.json")) as fh:
        cfg = json.load(fh)
    if t_end is not None:
        cfg["t_span"] = [0.0, t_end]
    res = ResolvedRun(cfg)
    return res.factory(res.t0), res.mpc, res.yref


def test_start_samples_the_feedback_on_the_ocp_grid(monkeypatch):
    # the shipped showcase at t0 = 0 with 14 of its N = 15 rows given: the
    # feedback completes the last interval from the cost grid's knot
    # 28 h = 0.56, not from 0.6 - 0.04 = 0.5599999999999999
    plant, config, yref = _shipped_showcase()
    solve = dict(chain=config.chain)
    cold = solve_ocp(plant, config.stage, config.spec, yref, **solve)
    warm = ControlSignal(t_start=0.0, step=0.04, values=cold.control.values[:14])
    times, grids = [], []
    law_terms = FeedbackLaw.time_terms
    ws_init = _Workspace.__init__

    def recording_terms(self, ts):
        times.extend(ts)
        return law_terms(self, ts)

    def recording_init(ws, *args, **kwargs):
        ws_init(ws, *args, **kwargs)
        grids.append(ws.grid)

    monkeypatch.setattr(FeedbackLaw, "time_terms", recording_terms)
    monkeypatch.setattr(_Workspace, "__init__", recording_init)
    sol = solve_ocp(plant, config.stage, config.spec, yref, warm_start=warm, **solve)
    assert sol.status == "converged"
    assert len(grids) == 1
    assert times == [grids[0][28]]
    assert np.isin(times, grids[0]).all()


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_linear_starts_are_read_off_the_propagator(monkeypatch):
    # every start the closed loop builds on the linear showcase, shifted
    # rows or the feedback alone, runs the one knot loop: no step loop,
    # one held span for the given rows and one per sampled knot, each one
    # product with the run's propagator, and the law's time terms formed
    # once for all knots
    plant, config, yref = _shipped_showcase(t_end=0.4)
    counts = {"marches": 0, "terms": 0}
    spans = []
    per_start = []
    feedback_values = _Workspace.feedback_values
    hold = sim_module._hold

    def counting_start(ws, chain, head):
        before = counts["marches"], counts["terms"], len(spans)
        out = feedback_values(ws, chain, head)
        per_start.append((head.shape[0], counts["marches"] - before[0],
                          counts["terms"] - before[1], spans[before[2]:]))
        return out

    def recording_hold(plant, grid, *args):
        spans.append(grid.size)
        return hold(plant, grid, *args)

    monkeypatch.setattr(sim_module, "_march", _counting(counts, "marches", sim_module._march))
    monkeypatch.setattr(sim_module, "_hold", recording_hold)
    monkeypatch.setattr(FeedbackLaw, "time_terms",
                        _counting(counts, "terms", FeedbackLaw.time_terms))
    monkeypatch.setattr(_Workspace, "feedback_values", counting_start)
    run_fmpc(plant, yref, config)
    assert [start[0] for start in per_start] == [0] + [14] * 9
    s, N = config.spec.substeps, config.spec.n_intervals
    for given, marches, terms, held in per_start:
        assert marches == 0 and terms == 1
        assert held == [given * s + 1] + [s + 1] * (N - given)


def test_start_without_linear_record_is_one_rollout(monkeypatch):
    # the one knot loop builds every start, one held span per knot: on the
    # shipped record each span is one product with the propagator, on its
    # linear=None copy an RK4 step loop, and the two agree up to the
    # rounding of the steps, amplified by the feedback gains, after no, one
    # and N - 1 given rows; at t = 0 the feedback runs into the box, so the
    # clamp is active at a sampled knot in each case
    plant, config, yref = _shipped_showcase()
    generic = make_plant(dataclasses.replace(plant.system, linear=None), 0.0, plant.state)
    counts = {"loops": 0}
    monkeypatch.setattr(ocp_module, "_sampled_feedback",
                        _counting(counts, "loops", ocp_module._sampled_feedback))
    for given in (0, 1, 14):
        head = np.full((given, 1), 3.0)
        rows = [
            _Workspace(p, config.stage, config.spec, yref).feedback_values(config.chain, head)
            for p in (generic, plant)
        ]
        np.testing.assert_array_equal(rows[1][:given], head)
        assert np.any(np.abs(rows[1][given:]) == config.spec.saturation)
        np.testing.assert_allclose(rows[0], rows[1], rtol=0.0, atol=1e-11)
    assert counts["loops"] == 6


@pytest.mark.parametrize("rows", [0, 14])
def test_start_that_blows_up_is_a_precondition_violation(rows):
    # a car position just below BLOWUP_NORM moving at 1e6 crosses it near
    # t = 0.1; both branches of the start loop raise and name the same
    # last good time
    plant, config, yref = _shipped_showcase()
    x0 = np.array([sim_module.BLOWUP_NORM - 1e5, 0.0, 1e6, 0.0])
    messages = []
    for record in (plant.system, dataclasses.replace(plant.system, linear=None)):
        ws = _Workspace(make_plant(record, 0.0, x0), config.stage, config.spec, yref)
        with pytest.raises(PreconditionViolation, match="start blew up after t = ") as exc:
            ws.feedback_values(config.chain, np.full((rows, 1), 3.0))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_start_rejects_a_head_outside_the_box():
    # both branches of the start loop give one answer for a head beyond
    # the saturation level: the ValueError of a ControlSignal holding it
    plant, config, yref = _shipped_showcase()
    for record in (plant.system, dataclasses.replace(plant.system, linear=None)):
        ws = _Workspace(make_plant(record, 0.0, plant.state), config.stage, config.spec, yref)
        with pytest.raises(ValueError, match="control values exceed the saturation level"):
            ws.feedback_values(config.chain, np.full((14, 1), 1e9))


def test_iterations_reuse_the_accepted_model(monkeypatch):
    # each iteration's gradient and Hessian come from the e_r rows kept
    # when its point was costed: those rows are the affine response at the
    # iterate, and the derivatives match those of a fresh linearization
    # there; the converged last iteration forms no Hessian
    plant, config, yref = _shipped_showcase()
    gradient, hessian = _Workspace.gradient, _Workspace.hessian
    seen = []

    def recording_gradient(ws, d):
        grad = gradient(ws, d)
        er = ws.er_free + (d @ ws.er_forced).reshape(-1, ws.m)
        np.testing.assert_allclose(ws.er, er, rtol=0.0, atol=1e-12 * np.max(np.abs(er)))
        np.testing.assert_allclose(ws.gap, ws.theta_sq - np.sum(er * er, axis=1), rtol=1e-12)
        seen.append([d.copy(), grad, None])
        return grad

    def recording_hessian(ws):
        seen[-1][2] = hessian(ws)
        return seen[-1][2]

    monkeypatch.setattr(_Workspace, "gradient", recording_gradient)
    monkeypatch.setattr(_Workspace, "hessian", recording_hessian)
    sol = solve_ocp(plant, config.stage, config.spec, yref, chain=config.chain)
    monkeypatch.undo()
    assert sol.status == "converged"
    assert sol.iterations > 2
    assert len(seen) == sol.iterations
    assert [hess is not None for _, _, hess in seen] == [True] * (sol.iterations - 1) + [False]
    for d, grad, hess in seen:
        fresh = _Workspace(plant, config.stage, config.spec, yref)
        want_grad, want_hess = workspace_derivatives(fresh, d)
        np.testing.assert_allclose(grad, want_grad, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want_grad)))
        if hess is not None:
            np.testing.assert_allclose(hess, want_hess, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(want_hess)))


def test_run_builds_its_constants_once_per_record(monkeypatch):
    # the propagator, the chained-error rows and the law's coefficients are
    # built once in a 10-cycle run, not once per OCP; another record, as
    # another run makes, builds its own
    builds, chain_matrices = [], []
    init, chain_matrix = sim_module.LinearPropagator.__init__, errchain_module.chain_matrix

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    def counting_chain_matrix(*args, **kwargs):
        chain_matrices.append(args)
        return chain_matrix(*args, **kwargs)

    plant, config, yref = _shipped_showcase(t_end=0.4)
    monkeypatch.setattr(sim_module.LinearPropagator, "__init__", counting_init)
    monkeypatch.setattr(errchain_module, "chain_matrix", counting_chain_matrix)
    log = run_fmpc(plant, yref, config)
    assert len(log.records) == 10
    assert len(builds) == 1
    assert len(chain_matrices) == 2
    key = ("propagator", config.spec.ode_step, config.spec.substeps)
    assert plant.system.cache[key] is builds[0]
    assert dataclasses.replace(plant.system).cache == {}

    other, other_config, _ = _shipped_showcase(t_end=0.4)
    assert other.system is not plant.system
    solve_ocp(other, other_config.stage, other_config.spec, yref,
              chain=other_config.chain)
    assert len(builds) == 2
    assert other.system.cache[key] is builds[1] is not builds[0]


@pytest.mark.parametrize("t_start,t0", [(0.0, 1.0), (0.3, 0.2)], ids=["stale", "later"])
def test_solver_rejects_a_warm_start_that_misses_the_plant_time(
    scalar_stage, zero_ref, scalar_chain, t_start, t0
):
    # a warm start on [0, 0.2) given at t = 1.0 would clamp to its last row
    # and start from it; one that starts after t0 would clamp to its first
    spec = spec_for(saturation=20.0, ode_step=5e-3)
    plant = make_plant(integrator_chain(1), t0, np.array([0.5]))
    warm = ControlSignal(t_start=t_start, step=0.1, values=[[-1.0], [-1.0]])
    with pytest.raises(ValueError, match="warm start does not cover"):
        solve_ocp(plant, scalar_stage, spec, zero_ref, warm_start=warm,
                  chain=scalar_chain)


def test_solver_rejects_a_warm_start_off_the_ocp_grid(scalar_stage, zero_ref, scalar_chain):
    # a half-step warm start, or one whose knots fall half a step off the
    # plant's time, would seed the solve with rows the OCP never holds
    spec = spec_for(saturation=20.0, ode_step=5e-3)
    finer = ControlSignal(t_start=0.0, step=0.05, values=[[-1.0], [-1.0]])
    offset = ControlSignal(t_start=-0.05, step=0.1, values=[[-1.0], [-1.0]])
    for warm, match in ((finer, "the OCP by"), (offset, "no knot")):
        with pytest.raises(ValueError, match=match):
            solve_ocp(make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
                      warm_start=warm, chain=scalar_chain)


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
            chain=scalar_chain,
        )


def test_solver_residual_small_at_convergence(scalar_stage, zero_ref, scalar_chain):
    spec = spec_for(saturation=2.0, ode_step=5e-3)
    sol = solve_ocp(
        make_integrator_plant(0.5), scalar_stage, spec, zero_ref,
        chain=scalar_chain,
    )
    assert sol.status == "converged"
    assert sol.residual <= 1e-6
    assert sol.iterations >= 1
    assert sol.evaluations > 0


@pytest.mark.parametrize("matrices", [False, True], ids=["rk4", "exact"])
@pytest.mark.parametrize("y0", [0.5, -0.3, 0.8])
def test_reported_cost_is_the_cost_of_the_returned_control(
    matrices, y0, scalar_stage, zero_ref, scalar_chain
):
    # the solver reports the cost of the candidate its line search accepted
    # from a batch; costing the returned control alone gives the same float
    system = integrator_chain(1)
    if not matrices:
        system = dataclasses.replace(system, linear=None)
    spec = spec_for(horizon=0.3, saturation=2.0, ode_step=5e-3)
    sol = solve_ocp(
        make_plant(system, 0.0, np.array([y0])), scalar_stage, spec, zero_ref,
        chain=scalar_chain,
    )
    assert sol.iterations > 1
    assert sol.cost == cost_functional(
        make_plant(system, 0.0, np.array([y0])), sol.control, scalar_stage, zero_ref, spec
    )


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


def _member_cost(ws, values):
    """Cost of one control from its own open-loop integration."""
    control = ControlSignal(t_start=ws.t0, step=ws.spec.control_step, values=values)
    traj = integrate_open_loop(
        ws.plant.clone(), control, (ws.t0, ws.t0 + ws.spec.horizon), ws.spec.ode_step
    )
    if traj.status != "completed":
        return math.inf
    er = ws.top_errors(traj.output_jet[None])
    cost = float(ws.barrier_costs(er)[0] + ws.input_costs(values[None])[0])
    return cost if math.isfinite(cost) else math.inf


def test_linear_response_costs_match_rollouts(monkeypatch, showcase_chain, showcase_yref):
    # the linear record costs candidates through one e_r response matrix;
    # the same plant without it runs batched RK4, and the reference
    # integrates each member on its own
    stage, spec, linear, generic = _showcase_ocp(showcase_chain)
    x0 = np.array([0.0, 0.0, 2.0, 0.0])
    fast = _Workspace(make_plant(linear, 0.0, x0), stage, spec, showcase_yref)
    slow = _Workspace(make_plant(generic, 0.0, x0), stage, spec, showcase_yref)
    values = np.random.default_rng(5).uniform(-20.0, 20.0, size=(12, spec.n_intervals, 1))
    values[0] = 20.0  # drives the error out of the funnel
    values[1] = 1e12  # blows up

    class RolloutCalled(Exception):
        pass

    def rollout_called(*args):
        raise RolloutCalled

    with monkeypatch.context() as patched:
        patched.setattr(ocp_module, "rollout_jets_batch", rollout_called)
        fast.cost_batch(values)
        with pytest.raises(RolloutCalled):
            slow.cost_batch(values)
    paths = [
        fast.cost_batch(values),
        slow.cost_batch(values),
        np.array([_member_cost(slow, v) for v in values]),
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


def _optimum_lower_bound(ws, sol):
    """A lower bound on the optimal cost, certified at the solve's control.

    The exact Hessian is at least mu I with mu = 2 lambda_u delta, so
    J(y) >= J(d) + g.(y - d) + mu/2 |y - d|^2 for every y; the right-hand
    side is separable and its minimum over the box is taken at
    y = clip(d - g / mu).
    """
    d = sol.control.values.ravel()
    grad, _ = workspace_derivatives(ws, d)
    mu = 2.0 * ws.sc.lambda_u * ws.spec.control_step
    M = ws.spec.saturation
    step = np.clip(d - grad / mu, -M, M) - d
    return sol.cost + float(np.sum(grad * step + 0.5 * mu * step * step))


def test_linear_response_solve_matches_rk4_solve(showcase_chain, showcase_yref):
    # the same Gauss-Newton loop with the exact Jacobian and with the one of
    # forward differences on RK4: both stop at residual <= 1e-6, which with
    # mu = 8e-4 leaves either one up to a few 1e-9 above the optimum, so
    # neither cost bounds the other; each must lie above the optimum bound
    # certified at the other solve's control
    stage, spec, linear, generic = _showcase_ocp(showcase_chain)
    x0 = np.array([0.0, 0.0, 2.0, 0.0])
    fast, slow = (
        solve_ocp(make_plant(record, 0.0, x0), stage, spec, showcase_yref,
                  chain=showcase_chain)
        for record in (linear, generic)
    )
    for sol in (fast, slow):
        assert sol.status == "converged"
        assert sol.residual <= 1e-6
        assert math.isfinite(sol.cost)
    # the forward-difference Jacobian costs no Newton steps: 3 on each path
    assert slow.iterations == fast.iterations
    ws = _Workspace(make_plant(linear, 0.0, x0), stage, spec, showcase_yref)
    assert _optimum_lower_bound(ws, fast) <= slow.cost
    assert _optimum_lower_bound(ws, slow) <= fast.cost
