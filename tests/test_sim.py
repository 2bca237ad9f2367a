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
    OcpSpec,
    StageCost,
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
    mass_on_car_normal_form,
    mass_on_car_state_space,
    zoh_feedback_rollout,
)
from funnelmpc import sim
from funnelmpc.funnel import InitialJetData
from funnelmpc.ocp import _Workspace
from funnelmpc.sim import AFFINE_BLOCK, FEEDBACK_BLOCK, rollout_jets_batch
from funnelmpc.systems import ReferenceSignal, RelativeDegreeSystem

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
    # an array of times, before the start, on knots, inside intervals and
    # past the end, reads the rows one scalar query at a time reads
    times = np.array([-0.7, -1e-12, 0.0, 0.3, 0.5, 0.5 - 1e-12, 0.99, 1.0, 1.5, 4.2])
    rows = sig.index_at(times)
    assert rows.shape == times.shape
    assert rows.tolist() == [sig.index_at(t) for t in times] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]


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


def test_control_signal_rejects_zero_intervals():
    # with no rows value_at would index row -1 of an empty array
    for values in (np.empty((0, 1)), []):
        with pytest.raises(ValueError, match="nonempty"):
            ControlSignal(t_start=0.0, step=0.5, values=values)


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


@pytest.mark.parametrize("segment", ["initial", None])
@pytest.mark.parametrize("stored", [1, 2, 3, 11])
def test_history_interpolation_is_exact_on_cubics(stored, segment):
    # the stencil of all stored samples while fewer than four are stored is
    # exact on polynomials of degree stored - 1, the full one on cubics;
    # reads at s <= t0 come from the segment, else from the first sample
    degree = min(stored, 4) - 1
    coeffs = np.array([[2.0, -1.0, 3.0, -1.0], [-0.5, 1.5, 0.25, 4.0]])[:, 3 - degree :]
    poly = lambda t: np.array([np.polyval(c, t) for c in coeffs])
    hist = JetHistory(0.0, poly(0.0), initial_segment=poly if segment else None)
    for t in 0.1 * np.arange(1, stored):
        hist.append(float(t), poly(float(t)))
    newest = hist.latest()
    probes = np.array([[0.234, 0.5], [0.777, 0.95]]) * newest
    reads = hist.query(probes)
    assert reads.shape == probes.shape + (2,)
    for s, row in zip(probes.ravel(), reads.reshape(-1, 2)):
        np.testing.assert_allclose(row, poly(s), rtol=0.0, atol=1e-12)
    ahead = hist(newest + 5e-10)
    assert ahead.shape == (2,)
    np.testing.assert_allclose(ahead, poly(newest + 5e-10), rtol=0.0, atol=1e-12)
    with pytest.raises(PreconditionViolation):
        hist(newest + 2e-9)
    before = hist.query(np.array([-0.3, 0.0]))
    np.testing.assert_array_equal(before, [poly(-0.3) if segment else poly(0.0), poly(0.0)])
    assert newest == pytest.approx(0.1 * (stored - 1))


def test_history_consults_initial_segment_and_guards_future():
    hist = JetHistory(0.0, np.array([0.0]), initial_segment=lambda s: np.array([s - 5.0]))
    hist.append(0.1, np.array([1.0]))
    assert hist(-2.0)[0] == -7.0
    assert hist(0.0)[0] == -5.0
    with pytest.raises(PreconditionViolation):
        hist(0.2)
    with pytest.raises(ValueError):
        hist.append(0.05, np.array([2.0]))


def test_history_reads_at_stored_times_come_from_the_stencil():
    # a read at a stored time is the Lagrange stencil at one of its nodes:
    # the node's weight is 1 and the others' 0, so it returns the sample
    # bit for bit, with two corners: a -0.0 sample reads as +0.0, and a
    # non-finite neighbour in the stencil makes the read NaN (0 * inf)
    hist = JetHistory(0.0, np.array([1.0, 2.0]))
    samples = np.array([[-0.0, 3.0], [0.5, np.inf], [-1.5, 4.0], [2.25, 5.0]])
    for t, row in zip((0.25, 0.5, 0.75, 1.0), samples):
        hist.append(t, row)
    with np.errstate(invalid="ignore"):
        reads = hist.query(hist.ts)
    np.testing.assert_array_equal(reads[:, 0], hist.jets[:, 0])
    assert reads[1, 0] == 0.0 and not np.signbit(reads[1, 0])
    # every stencil of five samples holds the inf at 0.5; t = 0 is the segment
    np.testing.assert_array_equal(reads[:, 1], [2.0, np.nan, np.inf, np.nan, np.nan])


def test_delay_member_that_blows_up_leaves_the_others_bit_for_bit():
    # at a dyadic step and delay every stage read at t and t + h lands on a
    # stored time; a member driven to inf turns its stencils NaN, stays
    # flagged, and the other members' rows are those of a batch without it
    h = 2.0**-6
    plant = _delay_plant(2.0 * h)
    values = np.random.default_rng(4).uniform(-2.0, 2.0, size=(3, 6, 2))
    values[1] = 1e308
    _, jets, alive = rollout_jets_batch(plant, values, 4.0 * h, h)
    _, alone, alone_alive = rollout_jets_batch(plant, values[[0, 2]], 4.0 * h, h)
    assert alive.tolist() == [True, False, True] and alone_alive.all()
    assert np.isnan(jets[1]).any()
    np.testing.assert_array_equal(jets[[0, 2]], alone)


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
    # the state-space mass-on-car: the copy keeps its state and its class
    car = make_plant(mass_on_car_state_space(), 0.0, np.array([0.1, -0.2, 0.3, 0.0]))
    car_copy = car.clone()
    integrate_open_loop(car, ControlSignal(t_start=0.0, step=0.04, values=[[5.0]]),
                        (0.0, 0.04), 0.02)
    assert isinstance(car_copy, StateSpacePlant)
    assert car_copy.t == 0.0 and car_copy.history is None
    np.testing.assert_array_equal(car_copy.state, [0.1, -0.2, 0.3, 0.0])
    assert not np.array_equal(car.state, car_copy.state)
    # a plant with memory: each copy appends to its own history
    T = delay_operator(0.1, lambda xi: xi, q=1)
    sys = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -np.asarray(w, dtype=float), g=lambda w: np.eye(1), T=T
    )
    delayed = make_plant(sys, 0.0, np.array([1.0]), initial_segment=lambda s: np.array([1.0]))
    integrate_open_loop(delayed, ControlSignal(t_start=0.0, step=0.1, values=[[0.0]]),
                        (0.0, 0.1), 0.01)
    twin = delayed.clone()
    integrate_open_loop(delayed, ControlSignal(t_start=0.1, step=0.1, values=[[2.0]]),
                        (0.1, 0.2), 0.01)
    integrate_open_loop(twin, ControlSignal(t_start=0.1, step=0.1, values=[[-2.0]]),
                        (0.1, 0.2), 0.01)
    assert delayed.history.latest() == twin.history.latest() == pytest.approx(0.2)
    np.testing.assert_array_equal(delayed.history(0.2), delayed.state)
    np.testing.assert_array_equal(twin.history(0.2), twin.state)
    assert twin.state[0] < delayed.state[0]
    np.testing.assert_array_equal(delayed.history(0.1), twin.history(0.1))


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
    # the correction sum_j k_j e_j^(r-j) = e_r' - e^(r) is lambda e_r - lambda^r v;
    # with two channels the (m, r*m) maps act on the flat jet
    gains = np.array([2.0, 3.0, 5.0, 0.5])[: r - 1]
    lam = -0.7
    v = np.array([1.5, -0.25])
    zeta = np.stack([lam**l * v for l in range(r)])
    law = FeedbackLaw(FunnelChain((showcase_psi,) * r), gains,
                      constant_reference(np.zeros(2), r=r))
    assert law.correction.shape == law.lock.shape == (2, 2 * r)
    e_r = error_variables(zeta, gains)[-1]
    np.testing.assert_allclose(law.lock @ zeta.ravel(), e_r, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        law.correction @ zeta.ravel(), lam * e_r - lam**r * v, rtol=1e-12, atol=1e-12
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


def _two_channel_setup():
    """A coupled two-channel plant with y = (x1, x2), its chain with gain
    20, a constant reference and a start inside the funnels."""
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
    return system, chain, yref, x0


def test_affine_feedback_matches_stagewise_law_with_two_inputs():
    # coupled two-channel plant with y = (x1, x2): the law's error terms act
    # blockwise on the flat jet, which only m > 1 exercises
    system, chain, yref, x0 = _two_channel_setup()
    runs = [
        feedback_rollout(make_plant(record, 0.0, x0), chain, [20.0], yref, (0.0, 1.0), 1e-3)
        for record in (system, dataclasses.replace(system, linear=None))
    ]
    (affine, _), (stagewise, _) = runs
    assert affine.status == stagewise.status == "completed"
    np.testing.assert_allclose(affine.state, stagewise.state, rtol=0.0, atol=1e-12)
    u_max = float(np.max(np.abs(stagewise.input)))
    np.testing.assert_allclose(affine.input, stagewise.input, rtol=0.0, atol=1e-12 * u_max)


@pytest.mark.parametrize("steps", [1, 129, 577], ids=["one-step", "short-span", "partial-block"])
def test_affine_feedback_matches_stagewise_law_on_short_spans(
    steps, showcase_chain, showcase_yref
):
    # one step (the scan has one map and nothing to compose); 129 steps,
    # 12 chunks of 11 maps whose last chunk holds 8 maps and 3 identities;
    # 577 steps, 25 chunks of 24 whose last chunk holds a single map
    system = mass_on_car_state_space()
    h = 1e-4
    runs = []
    for record in (system, dataclasses.replace(system, linear=None)):
        plant = make_plant(record, 0.0, np.zeros(4))
        traj, _ = feedback_rollout(
            plant, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, steps * h), h
        )
        assert traj.status == "completed"
        assert traj.grid.size == steps + 1
        runs.append(traj)
    affine, stagewise = runs
    np.testing.assert_allclose(affine.state, stagewise.state, rtol=0.0, atol=1e-12)
    u_max = float(np.max(np.abs(stagewise.input)))
    np.testing.assert_allclose(affine.input, stagewise.input, rtol=0.0, atol=1e-12 * u_max)


def test_affine_feedback_stops_at_blow_up_inside_a_later_block():
    # y = x1 with x1' = x2 + u and x2' = 4 x2: the law cancels x2 in y's
    # derivative, so y tracks while the hidden mode grows like e^{4t} and
    # crosses BLOWUP_NORM near t = 4.61, step 4606, in the second block of
    # FEEDBACK_BLOCK steps
    a = np.array([[0.0, 1.0], [0.0, 4.0]])
    b = np.array([[1.0], [0.0]])
    c_jet = np.array([[1.0, 0.0]])
    system = StateSpaceSystem(
        n=2, m=1, r=1,
        drift=lambda x: x @ a.T,
        input_map=lambda x: np.broadcast_to(b, np.shape(x)[:-1] + (2, 1)),
        output_jet=lambda x: np.asarray(x, dtype=float)[..., :1],
        yr_parts=lambda x: (x @ a[:1].T, b[:1]),
        linear=(a, b, c_jet),
    )
    _, chain, yref = _scalar_decay_setup(0.5)
    runs = []
    for record in (system, dataclasses.replace(system, linear=None)):
        plant = make_plant(record, 0.0, np.array([0.5, 1.0]))
        traj, _ = feedback_rollout(plant, chain, [], yref, (0.0, 5.0), 1e-3)
        assert traj.status == "blow-up"
        runs.append(traj)
    affine, stagewise = runs
    assert affine.grid.size == stagewise.grid.size
    assert affine.grid[-1] == pytest.approx(4.61, abs=0.01)
    assert (affine.grid.size - 1) // FEEDBACK_BLOCK == 1
    scale = np.max(np.abs(stagewise.state), axis=1)
    assert np.all(np.max(np.abs(affine.state - stagewise.state), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("m", [1, 2])
def test_step_polynomial_matches_the_stage_products(m, showcase_chain, showcase_yref):
    # the polynomial's maps against the RK4 recursion on the augmented
    # stage matrices [[P0 + w P1, B c], [0, 0]], at a step where h |P| is
    # about 1/2, so that every order of the polynomial counts
    if m == 1:
        system, chain, gains, yref = (
            mass_on_car_state_space(), showcase_chain, SHOWCASE["gains"], showcase_yref
        )
    else:
        system, chain, yref, _ = _two_channel_setup()
        gains = [20.0]
    law = FeedbackLaw(chain, gains, yref)
    a, b, _ = system.linear
    n = a.shape[0]
    probe = sim._StepPolynomial(law, system.linear, 1.0)
    p0, p1 = a + b @ probe.k0, b @ probe.k1
    h = 0.5 / np.linalg.norm(p0 + 3.0 * p1, 2)
    poly = sim._StepPolynomial(law, system.linear, h)
    assert poly.coef.shape[0] == 12 + 11 * m

    rng = np.random.default_rng(m)
    w, c = rng.uniform(-3.0, 3.0, (3, 200)), rng.uniform(-2.0, 2.0, (3, 200, m))
    s_a, s_b, s_c = np.zeros((3, 200, n + 1, n + 1))
    for s, stage in enumerate((s_a, s_b, s_c)):
        stage[:, :n, :n] = p0 + w[s][:, None, None] * p1
        stage[:, :n, n] = c[s] @ b.T
    m2 = s_b + (0.5 * h) * (s_b @ s_a)
    m3 = s_b + (0.5 * h) * (s_b @ m2)
    m4 = s_c + h * (s_c @ m3)
    expected = np.eye(n + 1) + (h / 6.0) * (s_a + 2.0 * m2 + 2.0 * m3 + m4)
    maps = poly.maps(w, c)
    np.testing.assert_allclose(maps, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())
    assert (maps[:, n] == np.eye(n + 1)[n]).all()


def _two_channel_sines(r: int) -> ReferenceSignal:
    """y_ref = sin(omega t + phi) per channel, for two channels."""
    omega, phase = np.array([1.3, 0.7]), np.array([0.2, -1.1])

    def jet_array(ts, order=r):
        # d^n/dt^n sin(omega t + phi) = omega^n sin(omega t + phi + n pi / 2)
        n = np.arange(order)[:, None]
        return omega**n * np.sin(omega * np.asarray(ts)[:, None, None] + phase + n * np.pi / 2)

    return ReferenceSignal(r=r, m=2, jet_array=jet_array)


@pytest.mark.parametrize("case", ["state space", "normal form", "two integrators"])
def test_feedback_law_readers_agree(case, request, showcase_chain, showcase_yref, showcase_psi):
    # the law's readers at random (t, x): a call at one time, the
    # evaluation from time terms formed on an array of times, the step
    # polynomial's affine form (k0 + w k1) x + shift g^{-T}, and the law
    # written on the jet error zeta = jet - ref, as the formula states it
    if case == "two integrators":
        plant = make_plant(integrator_chain(2, m=2), 0.0, np.zeros(4))
        chain, gains, yref = FunnelChain((showcase_psi,) * 2), [20.0], _two_channel_sines(2)
    else:
        plant = request.getfixturevalue(
            "showcase_plant" if case == "state space" else "showcase_plant_nf"
        )
        chain, gains, yref = showcase_chain, SHOWCASE["gains"], showcase_yref
    law = FeedbackLaw(chain, gains, yref)
    poly = sim._step_polynomial(law, plant, 1e-3)
    rng = np.random.default_rng(len(case))
    ts = rng.uniform(0.0, 3.0, 25)
    xs = rng.uniform(-2.0, 2.0, (25, plant.state_dim))
    w, shift = law.time_terms(ts)
    affine = xs @ poly.k0.T + w[:, None] * (xs @ poly.k1.T) + shift @ poly.gain_inverse.T
    called = np.array([law(t, plant, x) for t, x in zip(ts, xs)])
    evaluated = np.array([law.evaluate(t, plant, x, w[i], shift[i])
                          for i, (t, x) in enumerate(zip(ts, xs))])
    direct = []
    for t, x in zip(ts, xs):
        ext = yref.jet(t, law.r + 1).ravel()
        zeta = plant.output_jet(x) - ext[: -plant.m]
        fval, gmat = plant.yr_parts(t, x)
        ratio = chain.theta.derivative(t) / chain.theta.value(t)
        direct.append(np.linalg.solve(
            gmat, -fval + ext[-plant.m :] - law.correction @ zeta + ratio * (law.lock @ zeta)
        ))
    tol = 1e-12 * np.abs(called).max()
    for other in (evaluated, affine, np.array(direct)):
        np.testing.assert_allclose(other, called, rtol=0.0, atol=tol)


@pytest.mark.parametrize("n_maps", [1, 49, 50], ids=["one-map", "square", "one-past-a-chunk"])
def test_scan_composes_as_the_maps_in_sequence(n_maps):
    # 49 maps fill 7 chunks of 7; 50 maps take 8 chunks of 7, the last one
    # holding one map and six identities
    rng = np.random.default_rng(n_maps)
    maps = np.eye(5) + 0.2 * rng.standard_normal((n_maps, 5, 5))
    start = rng.standard_normal((5, 2))
    expected, x = [], start
    for step in maps:
        x = step @ x
        expected.append(x)
    out = sim._scan(maps.copy(), start)
    assert out.shape == (n_maps, 5, 2)
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())


def test_affine_feedback_composes_its_maps_across_outer_blocks(showcase_chain, showcase_yref):
    # one step past an outer block: the second block starts from the
    # first one's last state, and every state is the step maps applied
    # one after another
    h, steps = 1e-4, FEEDBACK_BLOCK + 1
    law = FeedbackLaw(showcase_chain, SHOWCASE["gains"], showcase_yref)
    plant = make_plant(mass_on_car_state_space(), 0.0, np.zeros(4))
    traj, _ = feedback_rollout(
        plant, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, steps * h), h
    )
    assert traj.status == "completed" and traj.grid.size == steps + 1
    poly = sim._step_polynomial(law, plant, h)
    grid = traj.grid
    w, shift = law.time_terms(np.append(grid[:-1] + np.array([[0.0], [0.5 * h], [h]]), grid[-1]))
    c = shift @ poly.gain_inverse.T
    x, expected = np.append(traj.state[0], 1.0), [traj.state[0]]
    for step in poly.maps(w[:-1].reshape(3, steps), c[:-1].reshape(3, steps, 1)):
        x = step @ x
        expected.append(x[:4])
    np.testing.assert_allclose(
        traj.state, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
    )


def test_exact_feedback_keeps_one_step_polynomial_per_gains_and_step(
    showcase_chain, showcase_yref
):
    system = mass_on_car_state_space()

    def run(record, h):
        plant = make_plant(record, 0.0, np.zeros(4))
        feedback_rollout(
            plant, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 0.01), h
        )

    run(system, 1e-4)
    cached = dict(system.cache)
    run(system, 1e-4)
    assert len(cached) == 1 and system.cache == cached
    run(system, 5e-4)
    assert len(system.cache) == 2
    assert dataclasses.replace(system).cache == {}


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
    # the two loops compute the same spans, but may sum them in another order
    scale = float(np.max(np.abs(traj.state)))
    np.testing.assert_allclose(traj.state[-1], mirror.state, rtol=0.0, atol=1e-13 * scale)


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


def test_sampled_feedback_holds_a_given_head():
    # two rows held over [0, 0.2), then the law sampled at 0.2, 0.3, ... on
    # the span's own grid; an empty head is the feedback alone
    psi, chain, yref = _scalar_decay_setup(0.8)
    given = np.array([[-0.5], [0.25]])
    traj, control = zoh_feedback_rollout(
        make_integrator_plant(0.8), chain, [], yref, (0.0, 1.0), 0.1, 0.01, head=given
    )
    assert traj.status == "completed"
    np.testing.assert_array_equal(control.values[:2], given)
    held = integrate_open_loop(
        make_integrator_plant(0.8), ControlSignal(t_start=0.0, step=0.1, values=given),
        (0.0, 0.2), 0.01,
    )
    np.testing.assert_array_equal(traj.state[:21], held.state)
    mirror = make_integrator_plant(0.8)
    mirror.advance(0.2, held.state[-1])
    tail_traj, tail = zoh_feedback_rollout(mirror, chain, [], yref, (0.2, 1.0), 0.1, 0.01)
    np.testing.assert_allclose(control.values[2:], tail.values, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(traj.state[20:], tail_traj.state, rtol=1e-12, atol=0.0)
    alone = [
        zoh_feedback_rollout(make_integrator_plant(0.8), chain, [], yref, (0.0, 1.0), 0.1, 0.01,
                             head=head)[1].values
        for head in (None, np.empty((0, 1)))
    ]
    np.testing.assert_array_equal(alone[0], alone[1])


def test_sampled_feedback_on_a_plant_with_memory_matches_manual_loop():
    # y'(t) = -y(t - 0.1) + u with y = 0.8 on (-inf, 0]: three given rows,
    # then the law sampled at 0.3, 0.4 and 0.5 and clipped to the box, each
    # step reading the rollout's own past; the mirror holds the head in one
    # open loop and each sample in one more.  The OCP start on the same
    # plant runs the same loop on a clone, so its rows are the rollout's
    psi, chain, yref = _scalar_decay_setup(0.8)
    system = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -np.asarray(w, dtype=float), g=lambda w: np.eye(1),
        T=delay_operator(0.1, lambda xi: xi, q=1),
    )

    def delayed():
        return make_plant(system, 0.0, np.array([0.8]), initial_segment=lambda s: np.array([0.8]))

    head = np.array([[0.3], [-0.1], [0.2]])
    plant = delayed()
    traj, control = zoh_feedback_rollout(
        plant, chain, [], yref, (0.0, 0.6), 0.1, 0.01, saturation=0.5, head=head
    )
    assert traj.status == "completed"
    assert plant.t == 0.6

    mirror = delayed()
    integrate_open_loop(mirror, ControlSignal(t_start=0.0, step=0.1, values=head), (0.0, 0.3), 0.01)
    law = FeedbackLaw(chain, [], yref)
    values = [*head]
    for t in (0.3, 0.4, 0.5):
        u = np.clip(np.atleast_1d(law(t, mirror, mirror.state)), -0.5, 0.5)
        values.append(u)
        hold = ControlSignal(t_start=t, step=0.1, values=u.reshape(1, 1), saturation=0.5)
        integrate_open_loop(mirror, hold, (t, t + 0.1), 0.01)
    start = delayed()
    spec = OcpSpec(horizon=0.6, control_step=0.1, saturation=0.5, ode_step=0.01)
    ws = _Workspace(start, StageCost(chain.theta, 0.0, []), spec, yref)
    entries = {"rollout": control.values, "start": ws.feedback_values(chain, head)}
    assert start.t == 0.0 and start.history.size == 1
    np.testing.assert_array_equal(entries["start"], entries["rollout"])
    # the knots t0 + h j and 0.1 k differ in the last bit, so the loop and
    # the mirror agree to rounding, not bit for bit
    for rows in entries.values():
        np.testing.assert_array_equal(rows[:3], head)
        np.testing.assert_allclose(rows, np.stack(values), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(plant.state, mirror.state, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(plant.history.ts, mirror.history.ts, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        np.stack(plant.history.jets), np.stack(mirror.history.jets), rtol=0.0, atol=1e-13
    )


def test_sampled_feedback_rejects_a_head_outside_the_box_before_stepping():
    # the knot loop checks the head once, before its first step, with the
    # ValueError a ControlSignal raises for it: on a linear record, on its
    # linear=None copy and on a plant with memory, none of which moves
    psi, chain, yref = _scalar_decay_setup(0.8)
    delay = RelativeDegreeSystem(
        m=1, r=1, f=lambda w: -np.asarray(w, dtype=float), g=lambda w: np.eye(1),
        T=delay_operator(0.1, lambda xi: xi, q=1),
    )
    plants = [
        make_integrator_plant(0.8),
        make_plant(dataclasses.replace(integrator_chain(1), linear=None), 0.0, np.array([0.8])),
        make_plant(delay, 0.0, np.array([0.8]), initial_segment=lambda s: np.array([0.8])),
    ]
    for plant in plants:
        with pytest.raises(ValueError, match="control values exceed the saturation level"):
            zoh_feedback_rollout(plant, chain, [], yref, (0.0, 0.6), 0.1, 0.01,
                                 saturation=0.5, head=np.array([[0.3], [-0.9]]))
        assert plant.t == 0.0 and plant.state.tolist() == [0.8]
    assert plants[2].history.size == 1


def test_sampled_feedback_validates_span():
    psi, chain, yref = _scalar_decay_setup(0.5)
    plant = make_integrator_plant(0.5)
    with pytest.raises(ValueError):
        zoh_feedback_rollout(plant, chain, [], yref, (0.0, 0.55), 0.1, 0.01)
    with pytest.raises(ValueError):
        zoh_feedback_rollout(plant, chain, [], yref, (0.0, 1.0), 0.1, 0.03)
    # a head of another width, or longer than the span's ten intervals
    for head in (np.zeros((2, 2)), np.zeros(2), np.zeros((11, 1))):
        with pytest.raises(ValueError, match="does not fit"):
            zoh_feedback_rollout(plant, chain, [], yref, (0.0, 1.0), 0.1, 0.01, head=head)


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


def _batch_records():
    """The integrator and the normal-form mass-on-car, whose operator state
    rides along, each crossed by propagator products and, without
    ``linear`` matrices, stepped by ``_march``."""
    records = integrator_chain(1), mass_on_car_normal_form()
    return records + tuple(dataclasses.replace(record, linear=None) for record in records)


def _batch_plant(record, y0: float):
    return make_plant(record, 0.0, np.eye(1, record.r * record.m)[0] * y0)


def test_batched_rollout_matches_sequential_integration():
    rng = np.random.default_rng(17)
    values = rng.uniform(-1.0, 1.0, size=(5, 3, 1))
    for record in _batch_records():
        grid, jets, alive = rollout_jets_batch(_batch_plant(record, 0.3), values, 0.1, 0.02)
        assert grid.shape == (16,)
        assert alive.all()
        for b in range(5):
            control = ControlSignal(t_start=0.0, step=0.1, values=values[b])
            traj = integrate_open_loop(_batch_plant(record, 0.3), control, (0.0, 0.3), 0.02)
            # a batch and a single span: the same arithmetic up to the order
            # of the sums in their products
            scale = float(np.max(np.abs(traj.output_jet)))
            np.testing.assert_allclose(jets[b], traj.output_jet, rtol=0.0, atol=1e-13 * scale)


def test_batched_rollout_flags_divergent_members():
    # three intervals of 100 steps: more than one propagator block of the
    # linear record, so a blow-up in the first block has a block after it
    values = np.random.default_rng(23).uniform(-1.0, 1.0, size=(4, 3, 1))
    values[1] = 1e12
    for record in _batch_records():
        base = _batch_plant(record, 0.1)
        _, jets, alive = rollout_jets_batch(base, values, 1.0, 0.01)
        assert alive.tolist() == [True, False, True, True]
        # the blown member leaves the others untouched
        _, kept, kept_alive = rollout_jets_batch(base, values[alive], 1.0, 0.01)
        assert kept_alive.all()
        np.testing.assert_array_equal(kept, jets[alive])
        # propagator products give a member the same rows in a batch of one;
        # the mass-on-car's own maps are BLAS products, which round a single
        # row differently from a row of a batch
        for b in np.flatnonzero(alive) if record.linear is not None else ():
            np.testing.assert_array_equal(
                rollout_jets_batch(base, values[b : b + 1], 1.0, 0.01)[1][0], jets[b])


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


# ── Linear propagator ────────────────────────────────────────────────────────


def _coupled_two_input_system():
    # two channels y = (x1, x2) coupled through the drift and the input gain
    a = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.3, -0.2, 0.0], [0.1, -0.5, 0.0, -0.3]])
    b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [-0.1, 0.8]])
    return StateSpaceSystem(
        n=4, m=2, r=2,
        drift=lambda x: x @ a.T,
        input_map=lambda x: np.broadcast_to(b, np.shape(x)[:-1] + (4, 2)),
        output_jet=lambda x: np.asarray(x, dtype=float),
        yr_parts=lambda x: (x @ a[2:].T, b[2:]),
        linear=(a, b, np.eye(4)),
    )


@pytest.fixture(params=["mass-on-car", "coupled-two-input"])
def linear_case(request, showcase_chain, showcase_yref):
    """(record, x0, chain, gains, yref, saturation): a linear plant, a law to
    sample on it, and a box that the law leaves at some knots."""
    if request.param == "mass-on-car":
        x0 = np.array([0.1, -0.2, 0.3, 0.0])
        return (mass_on_car_state_space(), x0, showcase_chain, SHOWCASE["gains"], showcase_yref,
                SHOWCASE["saturation"])
    yref = constant_reference([0.3, -0.2], r=2)
    psi = exponential_sum_funnel(0.5, [(3.0, 1.0)], alpha=1.0, beta=0.5)
    x0 = np.array([0.1, 0.0, 0.2, -0.1])
    chain = build_funnel_chain(
        psi, InitialJetData(0.0, x0.reshape(2, 2), yref.jet(0.0)), [20.0], 0.5, r=2
    )
    return _coupled_two_input_system(), x0, chain, np.array([20.0]), yref, 1.0


def _exact_and_stages(record, t0, x0, run):
    """run(plant) on the record, whose propagator holds its spans, and on
    the same record without ``linear``, which steps the RK4 stages; each
    with the plant's time afterwards."""
    out = []
    for system in (record, dataclasses.replace(record, linear=None)):
        plant = make_plant(system, t0, x0)
        result = run(plant)
        traj = result[0] if isinstance(result, tuple) else result
        np.testing.assert_array_equal(plant.state, traj.state[-1])
        out.append((result, plant.t))
    return out


def test_propagator_holds_spans_as_the_rk4_stages_do(linear_case):
    # a delta segment from a knot, a span of 15 intervals, and spans that
    # start 1 and 2 of the 4 steps into an interval (pieces of 1 and 2 steps)
    record, x0, *_ = linear_case
    values = np.random.default_rng(5).uniform(-3.0, 3.0, size=(15, record.m))
    control = ControlSignal(t_start=0.0, step=0.04, values=values)
    for span in ((0.0, 0.04), (0.0, 0.6), (0.01, 0.37), (0.02, 0.5)):
        (exact, t_exact), (stages, t_stages) = _exact_and_stages(
            record, span[0], x0, lambda plant: integrate_open_loop(plant, control, span, 0.01)
        )
        assert exact.status == stages.status == "completed"
        assert t_exact == t_stages == exact.grid[-1] == span[1]
        np.testing.assert_array_equal(exact.grid, stages.grid)
        np.testing.assert_array_equal(exact.input, stages.input)
        scale = float(np.max(np.abs(stages.state)))
        np.testing.assert_allclose(exact.state, stages.state, rtol=0.0, atol=1e-13 * scale)


def test_propagator_samples_the_feedback_as_the_rk4_stages_do(linear_case):
    # four given rows, then the law sampled at the 11 later knots and clipped
    # to the box
    record, x0, chain, gains, yref, saturation = linear_case
    head = np.random.default_rng(6).uniform(-1.0, 1.0, size=(4, record.m))
    runs = _exact_and_stages(record, 0.0, x0, lambda plant: zoh_feedback_rollout(
        plant, chain, gains, yref, (0.0, 0.6), 0.04, 0.01, saturation=saturation, head=head
    ))
    ((exact, exact_u), t_exact), ((stages, stages_u), t_stages) = runs
    assert exact.status == stages.status == "completed"
    assert t_exact == t_stages == 0.6
    np.testing.assert_array_equal(exact_u.values[:4], head)
    tail = np.abs(stages_u.values[4:])
    assert np.any(tail == saturation) and np.any(tail < saturation)
    scale = float(np.max(np.abs(stages.state)))
    np.testing.assert_allclose(exact.state, stages.state, rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_allclose(exact_u.values, stages_u.values, rtol=0.0, atol=1e-12 * saturation)
    np.testing.assert_allclose(exact.input, stages.input, rtol=0.0, atol=1e-12 * saturation)


def test_propagator_stops_where_the_rk4_stages_blow_up(linear_case):
    # inputs of 2e9 push a velocity past BLOWUP_NORM inside the held span,
    # of an open loop and of a start's head; both paths stop at the same
    # row and leave the plant there
    record, x0, chain, gains, yref, _ = linear_case
    big = np.full((15, record.m), 2e9)
    for run in (
        lambda plant: integrate_open_loop(plant, ControlSignal(0.0, 0.04, big), (0.0, 0.6), 0.01),
        lambda plant: zoh_feedback_rollout(
            plant, chain, gains, yref, (0.0, 0.6), 0.04, 0.01, head=big[:10]
        ),
    ):
        runs = _exact_and_stages(record, 0.0, x0, run)
        (exact, t_exact), (stages, t_stages) = [
            (result[0] if isinstance(result, tuple) else result, t) for result, t in runs
        ]
        assert exact.status == stages.status == "blow-up"
        assert 2 < exact.grid.size == stages.grid.size < 41
        assert t_exact == t_stages == exact.grid[-1]
        scale = np.max(np.abs(stages.state), axis=1)
        assert np.all(np.max(np.abs(exact.state - stages.state), axis=1) <= 1e-13 * scale)


def test_propagator_blocks_stop_at_a_blow_up_in_a_later_block():
    # x2' = 5 x2 grows like e^{5t} under any input and crosses BLOWUP_NORM
    # near t = 3.68, after the first AFFINE_BLOCK steps of the held span
    a = np.array([[0.0, 1.0], [0.0, 5.0]])
    b = np.array([[1.0], [0.0]])
    system = StateSpaceSystem(
        n=2, m=1, r=1,
        drift=lambda x: x @ a.T,
        input_map=lambda x: np.broadcast_to(b, np.shape(x)[:-1] + (2, 1)),
        output_jet=lambda x: np.asarray(x, dtype=float)[..., :1],
        linear=(a, b, np.array([[1.0, 0.0]])),
    )
    control = ControlSignal(t_start=0.0, step=0.04, values=np.full((100, 1), 0.5))
    (exact, t_exact), (stages, t_stages) = _exact_and_stages(
        system, 0.0, np.array([0.5, 1.0]),
        lambda plant: integrate_open_loop(plant, control, (0.0, 4.0), 0.01),
    )
    assert exact.status == stages.status == "blow-up"
    assert exact.grid.size == stages.grid.size
    assert (exact.grid.size - 1) // AFFINE_BLOCK == 1
    assert t_exact == t_stages == pytest.approx(3.68, abs=0.01)
    scale = np.max(np.abs(stages.state), axis=1)
    assert np.all(np.max(np.abs(exact.state - stages.state), axis=1) <= 1e-13 * scale)


# ── Delay plants by the method of steps ──────────────────────────────────────


def _coupled_delay_system(tau):
    # r = 2, m = 2: w = T(jet)(t) reads the delayed jet (y1, y2, y1', y2');
    # f and g depend on it nonlinearly, and g couples the two inputs
    def f(w):
        return np.stack([-0.5 * w[..., 0] + 0.2 * w[..., 3] ** 2, -0.3 * w[..., 1] * w[..., 2]],
                        axis=-1)

    def g(w):
        out = np.empty(np.shape(w)[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + 0.1 * w[..., 0] ** 2
        out[..., 0, 1] = 0.2
        out[..., 1, 0] = -0.1 * w[..., 1]
        out[..., 1, 1] = 1.0 + 0.05 * w[..., 3] ** 2
        return out

    T = delay_operator(tau, lambda xi: xi * (1.0 + 0.1 * xi), q=4)
    return RelativeDegreeSystem(m=2, r=2, f=f, g=g, T=T)


def _delay_segment(s):
    return 0.5 * np.array([np.cos(3.0 * s), np.sin(3.0 * s), -3.0 * np.sin(3.0 * s),
                           3.0 * np.cos(3.0 * s)])


def _delay_plant(tau):
    return make_plant(_coupled_delay_system(tau), 0.0, _delay_segment(0.0),
                      initial_segment=_delay_segment)


def _stagewise(plant, grid, rows, substeps):
    """The RK4 stages of ``_march`` under rows held over ZOH intervals."""
    states = np.empty((grid.size, plant.state_dim))
    states[0] = plant.state
    _, count = sim._march(plant, grid, 0.01, lambda i, t, x: rows[i // substeps], states)
    return states[:count]


def _assert_same_plant(plant, mirror):
    assert plant.t == mirror.t
    np.testing.assert_array_equal(plant.state, mirror.state)
    np.testing.assert_array_equal(plant.history.ts, mirror.history.ts)
    np.testing.assert_array_equal(plant.history.jets, mirror.history.jets)


@pytest.mark.parametrize("tau", [0.1, 0.03, 0.02, 0.015, 0.01])
def test_delay_windows_step_as_the_rk4_stages_do(tau):
    # from t = 0 the first windows read the initial segment; a held open
    # loop, then a 4-member batch that reads the held past and its own.
    # Windows are short at tau = 3 h and mostly hold one step below it
    rows = np.random.default_rng(8).uniform(-2.0, 2.0, size=(6, 2))
    plant, mirror = _delay_plant(tau), _delay_plant(tau)
    traj = integrate_open_loop(plant, ControlSignal(0.0, 0.05, rows), (0.0, 0.3), 0.01)
    states = _stagewise(mirror, traj.grid, rows, 5)
    assert traj.status == "completed"
    np.testing.assert_array_equal(traj.state, states)
    np.testing.assert_array_equal(traj.output_jet, mirror.output_jet(states))
    _assert_same_plant(plant, mirror)

    values = np.random.default_rng(9).uniform(-2.0, 2.0, size=(4, 5, 2))
    grid, jets, alive = rollout_jets_batch(plant, values, 0.05, 0.01)
    assert alive.all() and plant.t == 0.3
    for b in range(4):
        member = mirror.clone()
        np.testing.assert_array_equal(jets[b], member.output_jet(
            _stagewise(member, grid, values[b], 5)))


@pytest.mark.parametrize("tau", [0.1, 0.03, 0.015, 0.01])
def test_delay_windows_stop_where_the_rk4_stages_blow_up(tau):
    # a 1e12 input from t = 0.15 pushes y' past BLOWUP_NORM at the first
    # step it is held, the 16th of the span
    rows = np.array([[0.5, -0.5], [1.0, 0.0], [0.0, 1.0], [1e12, 0.0], [0.0, 0.0]])
    plant, mirror = _delay_plant(tau), _delay_plant(tau)
    traj = integrate_open_loop(plant, ControlSignal(0.0, 0.05, rows), (0.0, 0.25), 0.01)
    states = _stagewise(mirror, traj.grid, rows, 5)
    assert traj.status == "blow-up" and traj.grid.size == states.shape[0] == 16
    np.testing.assert_array_equal(traj.state, states)
    _assert_same_plant(plant, mirror)


def test_delay_windows_take_every_step_the_stored_past_settles(monkeypatch):
    # tau = 10 h: after its first step a window takes the steps whose stage
    # reads the stored past settles (full stencils), at most 8 more, so a
    # 50-step rollout is 6 windows, one call of the record's f each.  The
    # span is planned up front: no history query, no call of the plant's
    # rhs, and one reservation of history room for the whole span
    windows = []

    def f(w):
        windows.append(np.shape(w)[0])
        return -0.5 * np.asarray(w, dtype=float)

    system = RelativeDegreeSystem(
        m=1, r=1, f=f, g=lambda w: np.eye(1), T=delay_operator(0.1, lambda xi: xi, q=1),
    )
    plant = make_plant(system, 0.0, np.array([0.5]), initial_segment=lambda s: np.array([0.5]))
    integrate_open_loop(plant, ControlSignal(0.0, 0.1, [[1.0], [-2.0]]), (0.0, 0.2), 0.01)
    windows.clear()
    reserved = []
    monkeypatch.setattr(JetHistory, "reserve", lambda self, ts, row, r=JetHistory.reserve: (
        reserved.append(ts.size), r(self, ts, row))[1])
    monkeypatch.setattr(JetHistory, "query", None)
    monkeypatch.setattr(NormalFormPlant, "rhs", None)
    rollout_jets_batch(plant, np.zeros((6, 5, 1)), 0.1, 0.01)
    assert len(windows) == 6 and sum(windows) == 50 and max(windows) <= 9
    assert reserved == [50]


def test_an_empty_held_span_takes_no_step(monkeypatch):
    # an empty head is crossed before any kernel is chosen
    marches = []
    monkeypatch.setattr(sim, "_march", lambda *args: marches.append(args) or (None, 1))
    plant = make_plant(_coupled_delay_system(0.1), 0.0, np.zeros(4),
                       initial_segment=lambda s: np.zeros(4))
    grid = np.array([0.0])
    assert sim._hold(plant, grid, 0.01, 5, np.zeros((1, 4)), np.empty((0, 2))) == 1
    record = dataclasses.replace(mass_on_car_state_space(), linear=None)
    plant = make_plant(record, 0.0, np.zeros(4))
    assert sim._hold(plant, grid, 0.01, 5, np.zeros((1, 4)), np.empty((0, 1))) == 1
    assert marches == [] and plant.t == 0.0
