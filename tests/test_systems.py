"""Plant records, causal operators, references, and the bound probe.

The mass-on-car model is linear, so several identities hold exactly: the
output jet is a fixed linear map of the state, y'' decomposes as
f(x) + g u with f = -cos(vartheta) m1 (k s + d s') / (m2 (m1 + m2 sin^2))
and g = sin^2 / (m1 + m2 sin^2), and the normal-form representation is a
linear change of coordinates, so RK4 runs of both agree to rounding.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from funnelmpc import (
    MassOnCarParams,
    PreconditionViolation,
    RelativeDegreeSystem,
    constant_reference,
    cosine_reference,
    delay_operator,
    estimate_dynamics_bounds,
    integrate_open_loop,
    integrator_chain,
    internal_dynamics_operator,
    make_plant,
    mass_on_car_initial_data,
    mass_on_car_normal_form,
    mass_on_car_state_space,
    static_operator,
)

from conftest import SHOWCASE

C = math.cos(math.pi / 4.0)
S2 = math.sin(math.pi / 4.0) ** 2
D0 = 4.0 + 1.0 * S2


# ── Parameter record ─────────────────────────────────────────────────────────


def test_params_defaults_and_validation():
    p = MassOnCarParams()
    assert (p.m1, p.m2, p.k, p.d) == (4.0, 1.0, 2.0, 1.0)
    assert p.vartheta == pytest.approx(math.pi / 4.0)
    with pytest.raises(ValueError):
        MassOnCarParams(m1=0.0)
    with pytest.raises(ValueError):
        MassOnCarParams(vartheta=math.pi / 2.0)


# ── State-space form ─────────────────────────────────────────────────────────


def test_state_space_decomposition_closed_form():
    sys = mass_on_car_state_space()
    x = np.array([0.0, 1.0, 0.0, 0.0])
    fval, gmat = sys.yr_parts(x)
    assert fval[0] == pytest.approx(-4.0 * math.sqrt(2.0) / 4.5, rel=1e-13)
    assert gmat[0, 0] == pytest.approx(S2 / D0, rel=1e-14)
    assert gmat[0, 0] == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_state_space_drift_and_output_jet():
    sys = mass_on_car_state_space()
    x = np.array([0.3, -0.7, 1.1, 0.4])
    spring = 2.0 * x[1] + 1.0 * x[3]
    expected = np.array([x[2], x[3], C / D0 * spring, -5.0 / (1.0 * D0) * spring])
    np.testing.assert_allclose(sys.drift(x), expected, rtol=1e-13)
    jet = sys.output_jet(x)
    np.testing.assert_allclose(jet, [x[0] + C * x[1], x[2] + C * x[3]], rtol=1e-14)


@pytest.mark.parametrize("m2", [1.0, 2.0])
def test_state_space_second_derivative_identity(m2):
    # the output jet map is linear, so applying it to the state derivative
    # must reproduce (y', f + g u) exactly; m2 != 1 separates the input
    # column's c / (m1 + m2 sin^2) from c / (m2 (m1 + m2 sin^2))
    sys = mass_on_car_state_space(MassOnCarParams(m2=m2))
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=4)
        u = rng.normal(size=1)
        xdot = sys.drift(x) + (sys.input_map(x) @ u)
        jet_dot = sys.output_jet(xdot)
        fval, gmat = sys.yr_parts(x)
        assert jet_dot[0] == pytest.approx(sys.output_jet(x)[1], abs=1e-13)
        assert jet_dot[1] == pytest.approx(float(fval[0] + gmat[0, 0] * u[0]), abs=1e-12)


def test_state_space_batched_callables_match_rowwise():
    sys = mass_on_car_state_space()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 4))
    drift_batch = sys.drift(X)
    jet_batch = sys.output_jet(X)
    # matrix products may sum in a different order for 1-D and 2-D inputs,
    # so rows agree to a few ulps rather than bit for bit
    for i in range(7):
        np.testing.assert_allclose(drift_batch[i], sys.drift(X[i]), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(jet_batch[i], sys.output_jet(X[i]), rtol=1e-15, atol=1e-15)
    gmaps = sys.input_map(X)
    assert gmaps.shape == (7, 4, 1)
    np.testing.assert_array_equal(gmaps[3], sys.input_map(X[3]))


# ── Normal form and the coordinate map ───────────────────────────────────────


def test_initial_data_coordinate_map():
    params = MassOnCarParams()
    jet, eta = mass_on_car_initial_data(params, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(jet, [[1.0 + 2.0 * C], [3.0 + 4.0 * C]], rtol=1e-14)
    np.testing.assert_allclose(eta, [2.0, 4.0 + 3.0 * C], rtol=1e-14)


def test_normal_form_matches_state_space_decomposition():
    params = MassOnCarParams()
    nf = mass_on_car_normal_form(params)
    ss = mass_on_car_state_space(params)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=4)
        jet, eta = mass_on_car_initial_data(params, x)
        w = nf.T.evaluate(0.0, jet.ravel(), state=eta)
        fval_ss, gmat_ss = ss.yr_parts(x)
        assert float(nf.f(w)[0]) == pytest.approx(float(fval_ss[0]), abs=1e-12)
        assert float(nf.g(w)[0, 0]) == pytest.approx(float(gmat_ss[0, 0]), abs=1e-15)


@pytest.mark.parametrize("m2", [1.0, 2.0])
def test_representations_agree_under_open_loop_input(m2):
    params = MassOnCarParams(m2=m2)
    x0 = np.zeros(4)
    jet0, eta0 = mass_on_car_initial_data(params, x0)
    plant_ss = make_plant(mass_on_car_state_space(params), 0.0, x0)
    plant_nf = make_plant(mass_on_car_normal_form(params), 0.0, jet0, eta0=eta0)
    u = lambda t: np.array([math.sin(t)])
    traj_ss = integrate_open_loop(plant_ss, u, (0.0, 2.0), 1e-3)
    traj_nf = integrate_open_loop(plant_nf, u, (0.0, 2.0), 1e-3)
    diff = np.max(np.abs(traj_ss.output_jet - traj_nf.output_jet))
    assert diff < 1e-9


# ── Reference signals ────────────────────────────────────────────────────────


def test_cosine_reference_derivatives():
    ref = cosine_reference(2.0, 3.0, r=2)
    for t in (0.0, 0.4, 1.7):
        jet = ref.jet(t)
        assert jet.shape == (2, 1)
        assert jet[0, 0] == pytest.approx(2.0 * math.cos(3.0 * t), abs=1e-12)
        assert jet[1, 0] == pytest.approx(-6.0 * math.sin(3.0 * t), abs=1e-12)
        ext = ref.jet(t, 3)
        assert ext.shape == (3, 1)
        np.testing.assert_array_equal(ext[:2], jet)
        assert ext[2, 0] == pytest.approx(-18.0 * math.cos(3.0 * t), abs=1e-12)


def test_cosine_reference_array_evaluation_matches_pointwise():
    ref = cosine_reference(1.0, 1.0, r=2)
    ts = np.linspace(0.0, 6.0, 13)
    jets = ref.jet_array(ts)
    assert jets.shape == (13, 2, 1)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(jets[i], ref.jet(float(t)), atol=1e-14)


def test_constant_reference_jets_are_flat():
    ref = constant_reference(0.7, r=3)
    jet = ref.jet(2.5)
    np.testing.assert_array_equal(jet, [[0.7], [0.0], [0.0]])
    np.testing.assert_array_equal(ref.jet(1.0, 4)[3], [0.0])
    jets = ref.jet_array(np.array([0.0, 1.0]))
    assert jets.shape == (2, 3, 1)
    np.testing.assert_array_equal(jets[0], jet)


# ── Integrator chain record ──────────────────────────────────────────────────


def test_integrator_chain_structure():
    sys = integrator_chain(2, m=2)
    assert (sys.r, sys.m) == (2, 2)
    xi = np.arange(4.0)
    w = sys.T.evaluate(0.0, xi)
    np.testing.assert_array_equal(w, xi)
    np.testing.assert_array_equal(np.asarray(sys.f(w)).reshape(2), np.zeros(2))
    np.testing.assert_array_equal(np.atleast_2d(sys.g(w)), np.eye(2))
    assert sys.sigma == 0.0


def test_integrator_chain_validates_arguments():
    with pytest.raises(ValueError):
        integrator_chain(0)
    with pytest.raises(ValueError):
        integrator_chain(2, m=0)


# ── Declared linear matrices of normal-form records ──────────────────────────


@pytest.mark.parametrize("system", [
    pytest.param(integrator_chain(r, m), id=f"chain-r{r}-m{m}") for r in (1, 2, 3) for m in (1, 2)
] + [
    pytest.param(mass_on_car_normal_form(MassOnCarParams(m2=m2)), id=f"car-m2-{m2:g}")
    for m2 in (1.0, 2.0)
])
def test_normal_form_linear_matrices_match_callables(system):
    # (A, B, C_jet) act on the plant's own integration state x = (xi, eta)
    a, b, c_jet = system.linear
    plant = make_plant(system, 0.0, np.zeros(system.r * system.m))
    assert plant.linear is system.linear and plant.clone().linear is system.linear
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, plant.state_dim))
    u = rng.normal(size=(7, system.m))
    expected = x @ a.T + u @ b.T
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(plant.rhs(0.0, x, u) - expected))) <= 1e-12 * scale
    np.testing.assert_array_equal(plant.output_jet(x), x @ c_jet.T)


def test_linear_matrices_need_a_memoryless_operator():
    linear = (np.zeros((1, 1)), np.ones((1, 1)), np.eye(1))
    f, g = (lambda w: 0.0 * w), (lambda w: np.ones(np.shape(w)[:-1] + (1, 1)))
    RelativeDegreeSystem(m=1, r=1, f=f, g=g, T=static_operator(lambda xi: xi, q=1), linear=linear)
    with pytest.raises(ValueError, match="memory"):
        RelativeDegreeSystem(
            m=1, r=1, f=f, g=g, T=delay_operator(0.1, lambda xi: xi, q=1), linear=linear
        )
    # at vartheta = 0 the input does not reach y'': no normal form of degree 2
    with pytest.raises(ValueError):
        mass_on_car_normal_form(MassOnCarParams(vartheta=0.0))


# ── Causal operators ─────────────────────────────────────────────────────────


def test_static_operator_is_memoryless():
    op = static_operator(lambda xi: 2.0 * xi, q=2)
    assert op.sigma == 0.0
    np.testing.assert_array_equal(op.evaluate(1.0, np.array([1.0, 2.0])), [2.0, 4.0])


def test_delay_operator_reads_shifted_history():
    op = delay_operator(0.25, lambda xi: xi + 1.0, q=1)
    assert op.sigma == 0.25
    value = op.evaluate(1.0, np.array([99.0]), history=lambda s: np.array([s]))
    assert value[0] == pytest.approx(1.75)
    with pytest.raises(PreconditionViolation):
        op.evaluate(1.0, np.array([99.0]))
    with pytest.raises(ValueError):
        delay_operator(0.0, lambda xi: xi, q=1)


def test_internal_dynamics_operator_state_handling():
    op = internal_dynamics_operator(
        1,
        eta_drift=lambda eta, xi: -eta,
        readout=lambda eta, xi: np.concatenate([eta, xi]),
        eta0=[2.0],
    )
    state = op.initial_state()
    state[0] = -5.0
    assert op.initial_state()[0] == 2.0
    out = op.evaluate(0.0, np.array([1.0]), state=np.array([3.0]))
    np.testing.assert_array_equal(out, [3.0, 1.0])
    assert op.q == 2
    np.testing.assert_array_equal(
        op.state_derivative(0.0, np.array([1.0]), np.array([3.0])), [-3.0]
    )
    with pytest.raises(ValueError):
        internal_dynamics_operator(0, lambda e, x: e, lambda e, x: e, [])


# ── Highest-derivative access ────────────────────────────────────────────────


def test_rhs_highest_derivative_on_integrator():
    # the y^(r) block of NormalFormPlant.rhs is f + g u
    plant = make_plant(integrator_chain(1), 0.0, np.array([0.4]))
    value = plant.rhs(0.0, plant.state, np.array([3.0]))
    assert value[0] == pytest.approx(3.0)


def test_rhs_highest_derivative_on_mass_on_car():
    y, yd = 0.2, 0.4
    plant = make_plant(mass_on_car_normal_form(), 0.0, np.array([y, yd]))
    # default operator state eta = 0 gives s = 0 and s' = -c y' / sin^2
    sd = -C * yd / S2
    f_expected = -C * 4.0 / (1.0 * D0) * (2.0 * 0.0 + 1.0 * sd)
    value = plant.rhs(0.0, plant.state, np.array([2.0]))
    assert value[1] == pytest.approx(f_expected + S2 / D0 * 2.0, rel=1e-12)


# ── Empirical dynamics bounds ────────────────────────────────────────────────


def test_dynamics_bounds_recover_constant_gain(showcase_chain, showcase_yref):
    sys = mass_on_car_normal_form()
    f_max, g_max = estimate_dynamics_bounds(
        sys, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 10.0),
        n_paths=8, steps_per_path=50,
    )
    # g is the constant 1/9, so the inflated inverse bound is exactly 9.9
    assert g_max == pytest.approx(9.9, rel=1e-9)
    assert f_max > 0.0


def test_dynamics_bounds_are_deterministic(showcase_chain, showcase_yref):
    sys = mass_on_car_normal_form()
    kwargs = dict(n_paths=4, steps_per_path=25)
    first = estimate_dynamics_bounds(
        sys, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 5.0), **kwargs
    )
    second = estimate_dynamics_bounds(
        sys, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 5.0), **kwargs
    )
    assert first == second
