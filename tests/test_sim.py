"""Fixed-step simulation, jet histories, and the funnel feedback law.

Numerical oracles: RK4 reproduces quadratic-in-time trajectories exactly
when every constant in sight is a dyadic rational (the quadrature weights
h/6 and h/2 are then exact), a pure time integral makes RK4 collapse to
Simpson's rule with a measurable h^4 order, and a scalar delay equation is
solved by hand with the method of steps.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from funnelmpc import (
    ControlSignal,
    FeedbackLaw,
    FunnelChain,
    JetHistory,
    PreconditionViolation,
    SingularGainError,
    StateSpacePlant,
    NormalFormPlant,
    StateSpaceSystem,
    build_funnel_chain,
    constant_reference,
    delay_operator,
    error_variables,
    exponential_sum_funnel,
    feasibility_feedback,
    feedback_rollout,
    integrate_open_loop,
    integrator_chain,
    make_plant,
    mass_on_car_state_space,
    zoh_feedback_rollout,
)
from funnelmpc.funnel import InitialJetData
from funnelmpc.sim import rollout_jets_batch
from funnelmpc.systems import RelativeDegreeSystem

from conftest import SHOWCASE, make_integrator_plant


# ── Zero-order-hold control signals ──────────────────────────────────────────


def test_control_signal_is_right_continuous_at_knots():
    sig = ControlSignal(t_start=0.0, step=0.5, values=[[1.0], [2.0], [3.0]])
    assert sig.values.shape == (3, 1)
    assert sig.t_end == 1.5
    assert sig.value_at(0.0)[0] == 1.0
    assert sig.value_at(0.49)[0] == 1.0
    assert sig.value_at(0.5)[0] == 2.0
    assert sig.value_at(1.0)[0] == 3.0
    # queries at the right endpoint hold the last value
    assert sig.value_at(1.5)[0] == 3.0


def test_control_signal_coverage_and_saturation():
    sig = ControlSignal(t_start=1.0, step=0.5, values=[[1.0]])
    with pytest.raises(ValueError):
        sig.value_at(0.5)
    with pytest.raises(ValueError):
        sig.value_at(2.0)
    with pytest.raises(ValueError):
        ControlSignal(t_start=0.0, step=0.5, values=[[3.0]], saturation=2.0)
    with pytest.raises(ValueError):
        ControlSignal(t_start=0.0, step=-0.5, values=[[1.0]])


# ── RK4 integrator ───────────────────────────────────────────────────────────


def test_rk4_reproduces_dyadic_quadratic_exactly():
    # double integrator under constant input: y(t) = y0 + y1 t + u t^2 / 2.
    # With h = 3/32 the weights h/2 and h/6 are dyadic, so every RK4
    # operation is exact in binary floating point.
    h = 0.09375
    u = 0.75
    plant = make_plant(integrator_chain(2), 0.0, np.array([0.125, 0.25]))
    control = ControlSignal(t_start=0.0, step=0.75, values=[[u]])
    traj = integrate_open_loop(plant, control, (0.0, 0.75), h)
    assert traj.status == "completed"
    t = traj.grid
    np.testing.assert_array_equal(traj.output_jet[:, 0], 0.125 + 0.25 * t + 0.375 * t * t)
    np.testing.assert_array_equal(traj.output_jet[:, 1], 0.25 + u * t)
    assert traj.output_jet[-1, 0] == 0.5234375
    assert traj.output_jet[-1, 1] == 0.8125


def test_rk4_shows_fourth_order_on_time_integral():
    # y' = sin t collapses RK4 to Simpson's rule; halving the step divides
    # the global error by about 16
    target = 1.0 - math.cos(5.0)

    def final_error(h):
        plant = make_integrator_plant(0.0)
        traj = integrate_open_loop(
            plant, lambda t: np.array([math.sin(t)]), (0.0, 5.0), h
        )
        return abs(traj.output_jet[-1, 0] - target)

    ratio = final_error(0.05) / final_error(0.025)
    assert 14.0 <= ratio <= 18.0


def test_integration_stops_on_blow_up():
    plant = make_integrator_plant(0.0)
    control = ControlSignal(t_start=0.0, step=1.0, values=[[1e9]])
    traj = integrate_open_loop(plant, control, (0.0, 1.0), 0.01)
    assert traj.status == "blow-up"
    assert traj.grid.size < 101
    assert traj.grid.size == traj.state.shape[0] == traj.input.shape[0]
    assert np.all(np.abs(traj.state[:-1]) <= 1e8)


def test_integration_validates_alignment():
    plant = make_integrator_plant(0.0)
    control = ControlSignal(t_start=0.0, step=0.1, values=np.ones((10, 1)))
    with pytest.raises(ValueError):
        integrate_open_loop(plant, control, (0.0, 0.55), 0.1)
    with pytest.raises(ValueError):
        integrate_open_loop(plant, control, (0.0, 2.0), 0.01)
    with pytest.raises(ValueError):
        integrate_open_loop(plant, control, (0.0, 1.0), 0.07)
    with pytest.raises(ValueError):
        integrate_open_loop(plant, control, (0.5, 1.0), 0.01)
    with pytest.raises(ValueError):
        integrate_open_loop(plant, control, (0.0, 1.0), -0.01)


# ── Jet histories ────────────────────────────────────────────────────────────


def test_history_interpolation_is_exact_on_cubics():
    poly = lambda t: 2.0 * t**3 - t**2 + 3.0 * t - 1.0
    hist = JetHistory(0.0, np.array([poly(0.0)]))
    for t in np.arange(0.1, 1.05, 0.1):
        hist.append(float(t), np.array([poly(float(t))]))
    for s in (0.234, 0.5, 0.777, 0.95):
        assert hist(s)[0] == pytest.approx(poly(s), abs=1e-12)
    assert hist.latest() == pytest.approx(1.0)


def test_history_consults_initial_segment_and_guards_future():
    hist = JetHistory(0.0, np.array([0.0]), initial_segment=lambda s: np.array([s - 5.0]))
    hist.append(0.1, np.array([1.0]))
    assert hist(-2.0)[0] == -7.0
    assert hist(0.0)[0] == -5.0
    with pytest.raises(PreconditionViolation):
        hist(0.2)
    with pytest.raises(ValueError):
        hist.append(0.05, np.array([2.0]))


def test_history_clone_is_independent():
    hist = JetHistory(0.0, np.array([1.0]))
    copy = hist.clone()
    hist.append(0.1, np.array([2.0]))
    assert copy.latest() == 0.0
    assert hist.latest() == pytest.approx(0.1)


# ── Plants ───────────────────────────────────────────────────────────────────


def test_make_plant_dispatches_on_record_type():
    ss = make_plant(mass_on_car_state_space(), 0.0, np.zeros(4))
    nf = make_plant(integrator_chain(1), 0.0, np.array([0.0]))
    assert isinstance(ss, StateSpacePlant)
    assert isinstance(nf, NormalFormPlant)


def test_plant_clone_does_not_share_state():
    plant = make_integrator_plant(0.5)
    copy = plant.clone()
    control = ControlSignal(t_start=0.0, step=0.5, values=[[1.0]])
    integrate_open_loop(plant, control, (0.0, 0.5), 0.1)
    assert plant.t == pytest.approx(0.5)
    assert copy.t == 0.0
    assert copy.state[0] == 0.5


def test_delay_plant_matches_method_of_steps():
    # y'(t) = -y(t - 1/10) + u with y = 1 on (-inf, 0] and u = 0:
    # on [0, 0.1]   y(t) = 1 - t
    # on [0.1, 0.2] y(t) = 0.9 - (t - 0.1) + (t - 0.1)^2 / 2, so y(0.2) = 0.805
    T = delay_operator(0.1, lambda xi: xi, q=1)
    sys = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -np.asarray(w, dtype=float), g=lambda w: np.eye(1), T=T
    )
    plant = make_plant(
        sys, 0.0, np.array([1.0]), initial_segment=lambda s: np.array([1.0])
    )
    control = ControlSignal(t_start=0.0, step=0.2, values=[[0.0]])
    traj = integrate_open_loop(plant, control, (0.0, 0.2), 0.01)
    assert traj.status == "completed"
    assert traj.output_jet[10, 0] == pytest.approx(0.9, abs=1e-9)
    assert traj.output_jet[-1, 0] == pytest.approx(0.805, abs=1e-5)


def test_delay_plant_rejects_steps_longer_than_memory():
    T = delay_operator(0.05, lambda xi: xi, q=1)
    sys = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -np.asarray(w, dtype=float), g=lambda w: np.eye(1), T=T
    )
    plant = make_plant(
        sys, 0.0, np.array([1.0]), initial_segment=lambda s: np.array([1.0])
    )
    control = ControlSignal(t_start=0.0, step=0.2, values=[[0.0]])
    with pytest.raises(ValueError):
        integrate_open_loop(plant, control, (0.0, 0.2), 0.1)


# ── Funnel feedback law ──────────────────────────────────────────────────────


def test_feedback_law_closed_form_at_start(showcase_chain, showcase_yref):
    # with zero drift at x0 = 0: u(0) = g^{-1} (y_ref''(0) + e_2 theta'/theta)
    #                                 = 9 (-1 + 14 * 42 / 28.2)
    plant = make_plant(mass_on_car_state_space(), 0.0, np.zeros(4))
    law = FeedbackLaw(showcase_chain, SHOWCASE["gains"], showcase_yref)
    u0 = float(np.ravel(law(0.0, plant, plant.state))[0])
    assert u0 == pytest.approx(9.0 * (-1.0 + 14.0 * 42.0 / 28.2), abs=1e-9)
    via_helper = feasibility_feedback(
        plant, showcase_chain, SHOWCASE["gains"], showcase_yref, 0.0
    )
    assert float(np.ravel(via_helper)[0]) == u0


def test_feedback_law_checks_membership(showcase_chain, showcase_yref):
    # the check lives in feasibility_feedback; the law itself evaluates anywhere
    plant = make_plant(mass_on_car_state_space(), 0.0, np.array([6.0, 0.0, 0.0, 0.0]))
    with pytest.raises(PreconditionViolation):
        feasibility_feedback(plant, showcase_chain, SHOWCASE["gains"], showcase_yref, 0.0)
    law = FeedbackLaw(showcase_chain, SHOWCASE["gains"], showcase_yref)
    assert math.isfinite(float(np.ravel(law(0.0, plant, plant.state))[0]))


def test_inner_funnel_violation_alone_is_caught(showcase_chain, showcase_yref):
    # x = (1, 0, 29, 0) has error jet (0, 29): e_1 = 0 < psi(0) = 4.1 but
    # e_2 = 29 + 14 * 0 > theta(0) = 28.2, so only the inner funnel is left
    plant = make_plant(mass_on_car_state_space(), 0.0, np.array([1.0, 0.0, 29.0, 0.0]))
    with pytest.raises(PreconditionViolation, match="leaves funnel 2 at t = 0.0"):
        feasibility_feedback(plant, showcase_chain, SHOWCASE["gains"], showcase_yref, 0.0)
    with pytest.raises(PreconditionViolation, match="leaves funnel 2 at t = 0.0"):
        feedback_rollout(plant, showcase_chain, SHOWCASE["gains"], showcase_yref,
                         (0.0, 0.01), 1e-3)


def test_feedback_law_validates_gain_count(showcase_chain, showcase_yref):
    with pytest.raises(ValueError):
        FeedbackLaw(showcase_chain, [], showcase_yref)


@pytest.mark.parametrize("r", range(1, 6))
def test_feedback_law_correction_row_on_eigenfunction_jets(r, showcase_psi):
    # along e(t) = v e^{lambda t}: e_r' = lambda e_r and e^(r) = lambda^r v, so
    # the correction sum_j k_j e_j^(r-j) = e_r' - e^(r) is lambda e_r - lambda^r v
    gains = np.array([2.0, 3.0, 5.0, 0.5])[: r - 1]
    lam = -0.7
    v = np.array([1.5, -0.25])
    zeta = np.stack([lam**l * v for l in range(r)])
    law = FeedbackLaw(FunnelChain((showcase_psi,) * r), gains, constant_reference(0.0, r=r))
    e_r = error_variables(zeta, gains)[-1]
    np.testing.assert_allclose(
        law.correction_row @ zeta, lam * e_r - lam**r * v, rtol=1e-12, atol=1e-12
    )


def _scalar_decay_setup(y0):
    psi = exponential_sum_funnel(0.5, [(0.5, 1.0)], alpha=1.0, beta=0.5)
    data = InitialJetData(0.0, np.array([[y0]]), np.array([[0.0]]))
    chain = build_funnel_chain(psi, data, [], 0.5, r=1)
    yref = constant_reference(0.0, r=1)
    return psi, chain, yref


def test_exact_feedback_conserves_error_ratio():
    # for y' = u the law keeps e/psi constant; RK4 drift stays near rounding
    psi, chain, yref = _scalar_decay_setup(0.5)
    plant = make_integrator_plant(0.5)
    traj, sampled = feedback_rollout(plant, chain, [], yref, (0.0, 2.0), 1e-3)
    ratio = traj.output_jet[:, 0] / np.asarray(psi.value(traj.grid), dtype=float)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10
    assert ratio[0] == pytest.approx(0.5, abs=1e-15)
    assert sampled.values.shape == (2000, 1)


def test_feedback_paths_raise_singular_gain():
    # y' = f + g u with g = 0 cannot be solved for u: the stage-wise law on a
    # record without matrices, and the affine maps on a record with C_{r-1} B = 0
    psi, chain, yref = _scalar_decay_setup(0.5)
    chain_record = integrator_chain(1)
    no_input = dataclasses.replace(
        chain_record, g=lambda w: np.zeros(np.shape(w)[:-1] + (1, 1)), linear=None
    )
    plant = make_plant(no_input, 0.0, np.array([0.5]))
    with pytest.raises(SingularGainError):
        feasibility_feedback(plant, chain, [], yref, 0.0)
    a, b, c_jet = chain_record.linear
    no_input = dataclasses.replace(chain_record, linear=(a, 0.0 * b, c_jet))
    plant = make_plant(no_input, 0.0, np.array([0.5]))
    with pytest.raises(SingularGainError):
        feedback_rollout(plant, chain, [], yref, (0.0, 0.1), 0.01)


def test_exact_feedback_flags_escaped_trajectories():
    psi, chain, yref = _scalar_decay_setup(2.0)
    plant = make_integrator_plant(2.0)
    with pytest.raises(PreconditionViolation):
        feedback_rollout(plant, chain, [], yref, (0.0, 1.0), 1e-3)


def test_affine_feedback_matches_stagewise_law(showcase_chain, showcase_yref):
    # the linear record lets feedback_rollout step affine RK4 maps; without
    # it the law is evaluated stage by stage, and both apply the same law
    system = mass_on_car_state_space()
    assert system.linear is not None
    runs = []
    for record in (system, dataclasses.replace(system, linear=None)):
        plant = make_plant(record, 0.0, np.zeros(4))
        traj, sampled = feedback_rollout(
            plant, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 0.5), 1e-4,
            zoh_step=0.01,
        )
        assert traj.status == "completed"
        assert plant.t == 0.5
        np.testing.assert_array_equal(plant.state, traj.state[-1])
        runs.append((traj, sampled))
    (affine, affine_zoh), (stagewise, stagewise_zoh) = runs
    u_max = float(np.max(np.abs(stagewise.input)))
    np.testing.assert_array_equal(affine.grid, stagewise.grid)
    np.testing.assert_allclose(affine.state, stagewise.state, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(affine.input, stagewise.input, rtol=0.0, atol=1e-12 * u_max)
    assert affine_zoh.values.shape == stagewise_zoh.values.shape == (50, 1)
    np.testing.assert_allclose(
        affine_zoh.values, stagewise_zoh.values, rtol=0.0, atol=1e-12 * u_max
    )
    for record in (system, dataclasses.replace(system, linear=None)):
        plant = make_plant(record, 0.0, np.array([6.0, 0.0, 0.0, 0.0]))
        with pytest.raises(PreconditionViolation):
            feedback_rollout(
                plant, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 0.5), 1e-4
            )


def test_affine_feedback_matches_stagewise_law_with_two_inputs():
    # coupled two-channel plant with y = (x1, x2): the law's error terms act
    # blockwise on the flat jet, which only m > 1 exercises
    a = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.3, -0.2, 0.0], [0.1, -0.5, 0.0, -0.3]])
    b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [-0.1, 0.8]])
    system = StateSpaceSystem(
        n=4, m=2, r=2,
        drift=lambda x: x @ a.T,
        input_map=lambda x: np.broadcast_to(b, np.shape(x)[:-1] + (4, 2)),
        output_jet=lambda x: np.asarray(x, dtype=float),
        yr_parts=lambda x: (x @ a[2:].T, b[2:]),
        linear=(a, b, np.eye(4)),
    )
    yref = constant_reference([0.3, -0.2], r=2)
    psi = exponential_sum_funnel(0.5, [(3.0, 1.0)], alpha=1.0, beta=0.5)
    x0 = np.array([0.1, 0.0, 0.2, -0.1])
    chain = build_funnel_chain(
        psi, InitialJetData(0.0, x0.reshape(2, 2), yref.jet(0.0)), [20.0], 0.5, r=2
    )
    runs = [
        feedback_rollout(make_plant(record, 0.0, x0), chain, [20.0], yref, (0.0, 1.0), 1e-3)
        for record in (system, dataclasses.replace(system, linear=None))
    ]
    (affine, _), (stagewise, _) = runs
    assert affine.status == stagewise.status == "completed"
    np.testing.assert_allclose(affine.state, stagewise.state, rtol=0.0, atol=1e-12)
    u_max = float(np.max(np.abs(stagewise.input)))
    np.testing.assert_allclose(affine.input, stagewise.input, rtol=0.0, atol=1e-12 * u_max)


def test_sampled_feedback_matches_manual_receding_loop():
    psi, chain, yref = _scalar_decay_setup(0.8)
    plant = make_integrator_plant(0.8)
    traj, control = zoh_feedback_rollout(
        plant, chain, [], yref, (0.0, 1.0), 0.1, 0.01, saturation=0.2
    )
    assert traj.status == "completed"
    assert control.saturation == 0.2
    assert np.max(np.abs(control.values)) <= 0.2

    mirror = make_integrator_plant(0.8)
    values = []
    for i in range(10):
        t = 0.1 * i
        u = np.clip(feasibility_feedback(mirror, chain, [], yref, t), -0.2, 0.2)
        values.append(np.atleast_1d(u))
        hold = ControlSignal(t_start=t, step=0.1, values=u.reshape(1, 1), saturation=0.2)
        integrate_open_loop(mirror, hold, (t, t + 0.1), 0.01)
    np.testing.assert_array_equal(control.values, np.stack(values))
    np.testing.assert_array_equal(traj.state[-1], mirror.state)


def test_linear_open_loop_matches_rk4_stages():
    # under a held input the linear record steps x+ = phi x + gam u; without
    # it the same plant runs the four RK4 stages
    system = mass_on_car_state_space()
    values = np.random.default_rng(3).uniform(-20.0, 20.0, size=(15, 1))
    runs = []
    for record in (system, dataclasses.replace(system, linear=None)):
        plant = make_plant(record, 0.0, np.array([0.1, -0.2, 0.3, 0.0]))
        control = ControlSignal(t_start=0.0, step=0.04, values=values)
        traj = integrate_open_loop(plant, control, (0.0, 0.6), 0.02)
        assert traj.status == "completed"
        np.testing.assert_array_equal(plant.state, traj.state[-1])
        runs.append(traj)
    exact, stages = runs
    scale = float(np.max(np.abs(stages.state)))
    np.testing.assert_allclose(exact.state, stages.state, rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_allclose(exact.output_jet, stages.output_jet, rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_array_equal(exact.input, stages.input)
    # both stop at the same step and leave the plant at the last good point
    stops = []
    for record in (system, dataclasses.replace(system, linear=None)):
        plant = make_plant(record, 0.0, np.zeros(4))
        control = ControlSignal(t_start=0.0, step=0.04, values=np.full((15, 1), 2e9))
        traj = integrate_open_loop(plant, control, (0.0, 0.6), 0.02)
        assert traj.status == "blow-up"
        assert plant.t == traj.grid[-1]
        stops.append(traj.grid.size)
    assert 2 < stops[0] == stops[1] < 31


def test_linear_record_supplies_the_highest_derivative_parts(showcase_chain, showcase_yref):
    # without yr_parts the feedback law reads f = C_1 A x and g = C_1 B
    # from the declared matrices
    system = mass_on_car_state_space()
    runs = [
        zoh_feedback_rollout(
            make_plant(record, 0.0, np.zeros(4)), showcase_chain, SHOWCASE["gains"],
            showcase_yref, (0.0, 0.6), SHOWCASE["control_step"], 0.02,
            saturation=SHOWCASE["saturation"],
        )
        for record in (system, dataclasses.replace(system, yr_parts=None))
    ]
    (given, given_zoh), (derived, derived_zoh) = runs
    assert given.status == derived.status == "completed"
    np.testing.assert_allclose(derived.state, given.state, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(derived_zoh.values, given_zoh.values, rtol=0.0, atol=1e-12)
    bare = dataclasses.replace(system, yr_parts=None, linear=None)
    with pytest.raises(PreconditionViolation):
        make_plant(bare, 0.0, np.zeros(4)).yr_parts(0.0, np.zeros(4))


def test_sampled_feedback_validates_span():
    psi, chain, yref = _scalar_decay_setup(0.5)
    plant = make_integrator_plant(0.5)
    with pytest.raises(ValueError):
        zoh_feedback_rollout(plant, chain, [], yref, (0.0, 0.55), 0.1, 0.01)
    with pytest.raises(ValueError):
        zoh_feedback_rollout(plant, chain, [], yref, (0.0, 1.0), 0.1, 0.03)


# each entry point on the scalar integrator at t = 0 over (0, t1) with RK4
# step h and ZOH step `step`; rollout_jets_batch covers round(t1 / 0.1)
# intervals of length `step`
ROLLOUTS = {
    "integrate_open_loop": lambda plant, chain, yref, t1, h, step: integrate_open_loop(
        plant, ControlSignal(t_start=0.0, step=0.1, values=np.zeros((4, 1))), (0.0, t1), h
    ),
    "feedback_rollout": lambda plant, chain, yref, t1, h, step: feedback_rollout(
        plant, chain, [], yref, (0.0, t1), h, zoh_step=step
    ),
    "zoh_feedback_rollout": lambda plant, chain, yref, t1, h, step: zoh_feedback_rollout(
        plant, chain, [], yref, (0.0, t1), step, h
    ),
    "rollout_jets_batch": lambda plant, chain, yref, t1, h, step: rollout_jets_batch(
        plant, np.zeros((1, round(t1 / 0.1), 1)), step, h
    ),
}
BAD_SPANS = {
    "h=0": (0.4, 0.0, 0.1),
    "t1<t0": (-0.1, 0.01, 0.1),
    "t1=t0": (0.0, 0.01, 0.1),
    "step=0": (0.4, 0.01, 0.0),
}


@pytest.mark.parametrize("name,bad", [
    (name, bad) for name in ROLLOUTS for bad in BAD_SPANS
    # a ControlSignal refuses a zero step itself, and no batch has fewer than
    # zero intervals
    if (name, bad) not in {("integrate_open_loop", "step=0"), ("rollout_jets_batch", "t1<t0")}
])
def test_rollouts_reject_degenerate_spans(name, bad):
    _, chain, yref = _scalar_decay_setup(0.5)
    rollout = ROLLOUTS[name]
    rollout(make_integrator_plant(0.5), chain, yref, 0.4, 0.01, 0.1)
    with pytest.raises(ValueError):
        rollout(make_integrator_plant(0.5), chain, yref, *BAD_SPANS[bad])


# ── Batched rollouts ─────────────────────────────────────────────────────────


def test_batched_rollout_matches_sequential_integration():
    rng = np.random.default_rng(17)
    values = rng.uniform(-1.0, 1.0, size=(5, 3, 1))
    base = make_integrator_plant(0.3)
    grid, jets, alive = rollout_jets_batch(base, values, 0.1, 0.02)
    assert grid.shape == (16,)
    assert alive.all()
    for b in range(5):
        plant = make_integrator_plant(0.3)
        control = ControlSignal(t_start=0.0, step=0.1, values=values[b])
        traj = integrate_open_loop(plant, control, (0.0, 0.3), 0.02)
        np.testing.assert_array_equal(jets[b], traj.output_jet)


def test_batched_rollout_flags_divergent_members():
    values = np.array([[[0.5]], [[1e12]]])
    base = make_integrator_plant(0.0)
    _, _, alive = rollout_jets_batch(base, values, 1.0, 0.01)
    assert alive[0]
    assert not alive[1]


def test_batched_rollout_on_delay_plant_matches_members():
    # y'(t) = -y(t - 0.1)/2 + u with y = 1/2 on (-inf, 0], positioned at
    # t = 0.2: over a 0.5 horizon every member reads the shared stored past
    # first and its own predicted past afterwards
    system = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -0.5 * np.asarray(w, dtype=float), g=lambda w: np.eye(1),
        T=delay_operator(0.1, lambda xi: xi, q=1),
    )
    plant = make_plant(system, 0.0, np.array([0.5]), initial_segment=lambda s: np.array([0.5]))
    ramp = ControlSignal(t_start=0.0, step=0.1, values=[[1.0], [-2.0]])
    integrate_open_loop(plant, ramp, (0.0, 0.2), 0.01)
    t_hat, state, latest = plant.t, plant.state.copy(), plant.history.latest()

    values = np.random.default_rng(3).uniform(-5.0, 5.0, size=(6, 5, 1))
    values[4] = 1e12  # blows up
    grid, jets, alive = rollout_jets_batch(plant, values, 0.1, 0.01)
    assert grid.shape == (51,)
    assert plant.t == t_hat and plant.history.latest() == latest
    np.testing.assert_array_equal(plant.state, state)
    assert alive.tolist() == [True, True, True, True, False, True]

    for b in np.flatnonzero(alive):
        control = ControlSignal(t_start=t_hat, step=0.1, values=values[b])
        traj = integrate_open_loop(plant.clone(), control, (t_hat, t_hat + 0.5), 0.01)
        assert traj.status == "completed"
        scale = float(np.max(np.abs(traj.output_jet)))
        assert float(np.max(np.abs(jets[b] - traj.output_jet))) <= 1e-13 * scale
    # the blown member leaves the others untouched
    _, kept, kept_alive = rollout_jets_batch(plant, values[alive], 0.1, 0.01)
    assert kept_alive.all()
    np.testing.assert_array_equal(kept, jets[alive])

    with pytest.raises(ValueError, match="memory"):
        rollout_jets_batch(plant, values, 0.2, 0.2)
