"""Funnel boundaries, gain bounds, and the derived funnel chain.

The showcase configuration has closed-form constants used as oracles:
psi(0) = 4.1, minimal gamma (1/4.1)^(1/2), gain bound k_1 = 14 from
2 (alpha + gamma^(1-r)) / (1 - gamma), theta(t) = 28 e^(-3t/2) + 1/5.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from funnelmpc import (
    FunnelChain,
    FunnelFunction,
    InitialJetData,
    PreconditionViolation,
    build_funnel_chain,
    chain_margins,
    class_g_check,
    default_gamma,
    exponential_sum_funnel,
    funnel_from_callables,
    gain_lower_bounds,
    gamma_margin,
    saturation_bound,
    select_gains,
)

from conftest import SHOWCASE


# ── Funnel constructors ──────────────────────────────────────────────────────


def test_exponential_sum_value_and_derivative(showcase_psi):
    assert abs(showcase_psi.value(0.0) - 4.1) < 1e-12
    for t in (0.0, 0.5, 1.0, 3.0):
        expected = 0.1 + 11.0 * math.exp(-1.35 * t) - 7.0 * math.exp(-1.5 * t)
        assert abs(showcase_psi.value(t) - expected) < 1e-13
        expected_d = -11.0 * 1.35 * math.exp(-1.35 * t) + 7.0 * 1.5 * math.exp(-1.5 * t)
        assert abs(showcase_psi.derivative(t) - expected_d) < 1e-13


def test_exponential_sum_accepts_arrays(showcase_psi):
    ts = np.linspace(0.0, 5.0, 11)
    vals = showcase_psi.value(ts)
    ders = showcase_psi.derivative(ts)
    for i, t in enumerate(ts):
        assert vals[i] == pytest.approx(showcase_psi.value(float(t)), abs=1e-14)
        assert ders[i] == pytest.approx(showcase_psi.derivative(float(t)), abs=1e-14)


def test_exponential_sum_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        exponential_sum_funnel(0.1, [(1.0, -2.0)], 1.0, 0.1)


def test_funnel_function_validates_certificate():
    with pytest.raises(ValueError):
        FunnelFunction(lambda t: 1.0, lambda t: 0.0, alpha=0.0, beta=1.0,
                       sup_norm=1.0, sup_norm_derivative=0.0)
    with pytest.raises(ValueError):
        FunnelFunction(lambda t: 1.0, lambda t: 0.0, alpha=1.0, beta=-1.0,
                       sup_norm=1.0, sup_norm_derivative=0.0)


def test_funnel_from_callables_inflates_grid_sup():
    fun = funnel_from_callables(
        lambda t: 2.0 + np.sin(np.asarray(t, dtype=float)),
        lambda t: np.cos(np.asarray(t, dtype=float)),
        alpha=1.0,
        beta=0.5,
    )
    assert 3.0 <= fun.sup_norm <= 3.04
    assert 1.0 <= fun.sup_norm_derivative <= 1.02


# ── Class-G certificate ──────────────────────────────────────────────────────


def test_class_g_certificate_passes_on_showcase(showcase_psi):
    grid = np.arange(0.0, 10.0 + 1e-9, 1e-2)
    report = class_g_check(showcase_psi, grid)
    assert report.passed
    assert bool(report)
    assert report.first_violation_t is None
    # residual psi' + alpha psi - beta collapses to 1.65 e^{-1.35 t}
    expected_min = 1.65 * math.exp(-1.35 * 10.0)
    assert report.min_residual == pytest.approx(expected_min, rel=1e-9)


def test_class_g_certificate_fails_when_floor_is_too_high():
    fun = exponential_sum_funnel(1.0, [(0.0, 1.0)], alpha=1.0, beta=3.0)
    report = class_g_check(fun, np.linspace(0.0, 2.0, 21))
    assert not report.passed
    assert report.first_violation_t == 0.0
    assert report.min_residual == pytest.approx(-2.0, abs=1e-12)


def test_class_g_check_validates_grid(showcase_psi):
    with pytest.raises(ValueError):
        class_g_check(showcase_psi, np.array([]))
    with pytest.raises(ValueError):
        class_g_check(showcase_psi, np.array([0.0, 1.0, 0.5]))


# ── Initial data and gamma ───────────────────────────────────────────────────


def test_initial_data_error_jet(showcase_data):
    assert showcase_data.r == 2
    assert showcase_data.m == 1
    err = showcase_data.error_jet
    assert err[0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert abs(err[1, 0]) < 1e-15


def test_gamma_margin_matches_closed_form(showcase_data, showcase_psi):
    # ||e(0)|| = 1 and psi(0) = 4.1 give gamma_min = (1/4.1)^(1/2)
    margin = gamma_margin(showcase_data, showcase_psi)
    assert abs(margin - math.sqrt(1.0 / 4.1)) < 1e-12


def test_gamma_margin_requires_strict_interior(showcase_psi, showcase_yref):
    outside = InitialJetData(
        0.0, np.array([[6.0], [0.0]]), showcase_yref.jet(0.0)
    )
    with pytest.raises(PreconditionViolation):
        gamma_margin(outside, showcase_psi)


def test_default_gamma_policy():
    assert default_gamma(0.3) == 0.5
    assert default_gamma(0.8) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        default_gamma(-0.1)
    with pytest.raises(ValueError):
        default_gamma(1.0)


# ── Gain bounds and selection ────────────────────────────────────────────────


def test_gain_lower_bound_is_exactly_fourteen(showcase_data, showcase_psi):
    # 2 (alpha + gamma^(1-r)) / (1 - gamma) = 2 (3/2 + 2) / (1/2) = 14; the
    # derivative contribution is ~1e-16 and is absorbed by the rounding
    bounds = gain_lower_bounds(
        showcase_data, 1.5, 0.15, 0.5, float(showcase_psi.value(0.0)), r=2
    )
    assert bounds.shape == (1,)
    assert abs(bounds[0] - 14.0) < 1e-12


def test_select_gains_keeps_user_values(showcase_data, showcase_psi):
    sel = select_gains(showcase_data, showcase_psi, 0.5, user_gains=[14.0])
    assert tuple(sel.gains) == (14.0,)
    assert sel.gains[0] >= sel.bounds[0] - 1e-12
    # a user gain below its bound is kept; build_funnel_chain rejects it
    low = select_gains(showcase_data, showcase_psi, 0.5, user_gains=[10.0])
    assert tuple(low.gains) == (10.0,)
    assert low.gains[0] < low.bounds[0] - 1e-12


def test_select_gains_derives_grid_rounded_bound(showcase_data, showcase_psi):
    # the bound is 14 up to ~1e-16, which the 1e-12 slack of the rounding absorbs
    sel = select_gains(showcase_data, showcase_psi, 0.5)
    assert sel.gains[0] == 14.0
    assert sel.gains[0] >= sel.bounds[0] - 1e-12


def test_gain_vector_validates_and_converts(showcase_data, showcase_psi):
    # select_gains returns the gains as a float array and rejects a user
    # gain that is not positive
    sel = select_gains(showcase_data, showcase_psi, 0.5, user_gains=[15])
    assert isinstance(sel.gains, np.ndarray) and sel.gains.dtype == float
    assert np.array_equal(sel.gains, [15.0])
    for bad in ([0.0], [-14.0]):
        with pytest.raises(ValueError, match="positive"):
            select_gains(showcase_data, showcase_psi, 0.5, user_gains=bad)


# ── Funnel chain construction ────────────────────────────────────────────────


def test_chain_top_funnel_closed_form(showcase_chain):
    theta = showcase_chain.theta
    assert abs(theta.value(0.0) - 28.2) < 1e-12
    for t in np.arange(0.0, 10.0, 0.37):
        expected = 28.0 * math.exp(-1.5 * t) + 0.2
        assert abs(theta.value(t) - expected) < 1e-12
    assert theta.sup_norm == pytest.approx(28.2, abs=1e-12)
    assert theta.sup_norm_derivative == pytest.approx(42.0, abs=1e-12)


def test_chain_members_and_gamma(showcase_chain, showcase_psi):
    assert showcase_chain.r == 2
    assert showcase_chain.members[0] is showcase_psi
    # gamma = 0.5 lives on in theta's floor beta / (alpha gamma^(r-1))
    assert showcase_chain.theta.value(1e3) == pytest.approx(0.15 / (1.5 * 0.5), rel=1e-12)


def test_build_chain_rejects_gain_below_bound(showcase_psi, showcase_data):
    with pytest.raises(PreconditionViolation):
        build_funnel_chain(showcase_psi, showcase_data, [10.0], 0.5, r=2)


def test_build_chain_single_link_returns_psi(showcase_psi, showcase_data):
    data = InitialJetData(0.0, np.array([[0.0]]), np.array([[1.0]]))
    chain = build_funnel_chain(showcase_psi, data, [], 0.5, r=1)
    assert chain.members == (showcase_psi,)
    assert chain.theta is showcase_psi


def test_chain_validates_shape_and_gamma(showcase_psi, showcase_data):
    with pytest.raises(ValueError):
        FunnelChain(())
    with pytest.raises(ValueError):
        build_funnel_chain(showcase_psi, showcase_data, [14.0], 1.0, r=2)


# ── Membership and the input bound ───────────────────────────────────────────


def test_funnel_membership_on_showcase(showcase_chain, showcase_data):
    def inside(jet):
        margins = chain_margins(showcase_chain, SHOWCASE["gains"], 0.0, np.ravel(jet))
        return bool(np.all(margins > 0.0))

    assert inside(showcase_data.error_jet)
    assert not inside(np.array([[4.2], [0.0]]))
    # second chain variable can violate alone: e_2 = e' + 14 e
    assert not inside(np.array([[0.0], [29.0]]))


def test_saturation_bound_closed_form():
    def stub(sup, sup_d):
        return FunnelFunction(
            value=lambda t: sup,
            derivative=lambda t: 0.0,
            alpha=1.5,
            beta=0.15,
            sup_norm=sup,
            sup_norm_derivative=sup_d,
        )

    chain = FunnelChain((stub(4.1, 4.35), stub(28.2, 42.0)))
    bound = saturation_bound(2.0, 9.0, [14.0], chain, yref_r_sup=1.0)
    # g (f + yref + k1 (sup psi_2 + k1 sup psi_1) + sup theta')
    expected = 9.0 * (2.0 + 1.0 + 14.0 * (28.2 + 14.0 * 4.1) + 42.0)
    assert bound == pytest.approx(expected, rel=1e-12)


def test_saturation_bound_validates_inputs():
    member = FunnelFunction(
        value=lambda t: 1.0, derivative=lambda t: 0.0,
        alpha=1.0, beta=0.5, sup_norm=1.0, sup_norm_derivative=0.0,
    )
    chain = FunnelChain((member,))
    with pytest.raises(ValueError):
        saturation_bound(0.0, 1.0, [], chain, 0.0)
    with pytest.raises(ValueError):
        saturation_bound(1.0, 1.0, [], chain, -1.0)
    with pytest.raises(ValueError):
        saturation_bound(1.0, 1.0, [2.0], chain, 0.0)
