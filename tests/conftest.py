"""Shared fixtures: the showcase mass-on-car setup and a scalar integrator."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from funnelmpc import (
    InitialJetData,
    build_funnel_chain,
    cosine_reference,
    constant_reference,
    exponential_sum_funnel,
    make_plant,
    integrator_chain,
    mass_on_car_initial_data,
    mass_on_car_normal_form,
    mass_on_car_state_space,
    MassOnCarParams,
)

CONFIG_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "funnelmpc",
    "configs",
)


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


# ── Showcase setup: mass on car tracking cos(t) inside a decaying funnel ─────
#
# psi(t) = 1/10 + 11 e^{-27t/20} - 7 e^{-3t/2}, alpha = 3/2, beta = 3/20,
# gamma = 1/2, k_1 = 14, x0 = 0.  Several derived constants have closed
# forms (psi(0) = 4.1, theta(0) = 28.2) used as oracles in the tests.

SHOWCASE = {
    "offset": 0.1,
    "terms": ((11.0, 1.35), (-7.0, 1.5)),
    "alpha": 1.5,
    "beta": 0.15,
    "gamma": 0.5,
    "gains": np.array([14.0]),
    "lambda_u": 0.01,
    "saturation": 20.0,
    "horizon": 0.6,
    "delta": 0.04,
    "control_step": 0.04,
}


@pytest.fixture(scope="session")
def showcase_psi():
    return exponential_sum_funnel(
        SHOWCASE["offset"], SHOWCASE["terms"], SHOWCASE["alpha"], SHOWCASE["beta"]
    )


@pytest.fixture(scope="session")
def showcase_yref():
    return cosine_reference(1.0, 1.0, r=2)


@pytest.fixture(scope="session")
def showcase_data(showcase_yref):
    params = MassOnCarParams()
    jet0, _ = mass_on_car_initial_data(params, np.zeros(4))
    return InitialJetData(0.0, jet0, showcase_yref.jet(0.0))


@pytest.fixture(scope="session")
def showcase_chain(showcase_psi, showcase_data):
    return build_funnel_chain(
        showcase_psi, showcase_data, SHOWCASE["gains"], SHOWCASE["gamma"], r=2
    )


@pytest.fixture()
def showcase_plant():
    return make_plant(mass_on_car_state_space(), 0.0, np.zeros(4))


@pytest.fixture()
def showcase_plant_nf():
    params = MassOnCarParams()
    jet0, eta0 = mass_on_car_initial_data(params, np.zeros(4))
    return make_plant(mass_on_car_normal_form(params), 0.0, jet0, eta0=eta0)


# ── Scalar integrator: y' = u with a constant funnel, fully analytic ────────


@pytest.fixture(scope="session")
def unit_funnel():
    # value identically 1: zero-amplitude exponential term, valid certificate
    return exponential_sum_funnel(1.0, [(0.0, 1.0)], alpha=1.0, beta=0.5)


@pytest.fixture(scope="session")
def integrator_system():
    return integrator_chain(1)


@pytest.fixture(scope="session")
def zero_reference():
    return constant_reference(0.0, r=1)


def workspace_derivatives(ws, d):
    """Gradient and Gauss-Newton Hessian of an OCP workspace's cost at the
    stacked control d: the solver's linearize, gradient and hessian."""
    ws.linearize(d)
    return ws.gradient(d), ws.hessian()


def make_integrator_plant(y0: float = 0.5):
    return make_plant(integrator_chain(1), 0.0, np.array([y0]))
