"""Property tests over randomly drawn small linear plants and control grids.

The exact linear response (free response of the start plus a forced
response matrix applied to the stacked controls) must reproduce batched RK4
rollouts of the same plant for any matrices, steps, horizons and inputs,
whether the plant is a state-space record or a normal form with a static
operator or internal dynamics.
A zero-order-hold control must pick the interval of every integration grid
point the way the batched rollout does.  The funnel margins of the chained
errors, taken through the chain matrix, must match the shift recursion, and
a jet with a NaN entry must lie outside every funnel.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from funnelmpc import (  # noqa: E402
    ControlSignal,
    FunnelChain,
    FunnelFunction,
    RelativeDegreeSystem,
    StateSpaceSystem,
    chain_margins,
    error_variables,
    internal_dynamics_operator,
    make_plant,
    static_operator,
)
from funnelmpc.sim import linear_jet_response, rollout_jets_batch  # noqa: E402



def entries(bound: float):
    # multiples of bound/1000: products stay far from the subnormal range,
    # where no relative tolerance can hold
    return st.integers(-1000, 1000).map(lambda k: bound * k / 1000.0)



def _normal_form_record(data, kind, p, m, r):
    """A linear normal-form record y^(r) = F x + G u with random F and G.

    With internal dynamics of dimension p > 0, eta' = E x for a random E.
    The operator value w is the integration state x = (xi, eta) itself.
    """
    rm = r * m
    n = rm + p
    f_rows = data.draw(arrays(float, (m, n), elements=entries(1.0)))
    gain = data.draw(arrays(float, (m, m), elements=entries(1.0)))
    eta_rows = data.draw(arrays(float, (p, n), elements=entries(1.0)))
    if kind == "static":
        T = static_operator(lambda xi: xi, q=rm)
    else:
        def readout(eta, xi):
            return np.concatenate([xi, eta], axis=-1)

        T = internal_dynamics_operator(
            p, lambda eta, xi: readout(eta, xi) @ eta_rows.T, readout, np.zeros(p), q=n
        )
    a = np.zeros((n, n))
    a[: rm - m, m:rm] = np.eye(rm - m)
    a[rm - m : rm] = f_rows
    a[rm:] = eta_rows
    b = np.zeros((n, m))
    b[rm - m : rm] = gain
    return RelativeDegreeSystem(
        m=m, r=r,
        f=lambda w: w @ f_rows.T,
        g=lambda w: np.broadcast_to(gain, np.shape(w)[:-1] + (m, m)),
        T=T,
        linear=(a, b, np.eye(rm, n)),
    )


@settings(max_examples=90, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["state_space", "static", "internal"]),
    n=st.integers(1, 4),
    m=st.integers(1, 2),
    r=st.integers(1, 2),
    h=st.floats(1e-3, 0.1),
    substeps=st.integers(1, 3),
    n_intervals=st.integers(1, 5),
    batch=st.integers(1, 3),
)
def test_linear_response_matches_batched_rk4(
    data, kind, n, m, r, h, substeps, n_intervals, batch
):
    # n is the state dimension in state space and the internal dimension
    # of a normal form with internal dynamics
    if kind == "state_space":
        a = data.draw(arrays(float, (n, n), elements=entries(1.0)))
        b = data.draw(arrays(float, (n, m), elements=entries(1.0)))
        c_jet = data.draw(arrays(float, (r * m, n), elements=entries(1.0)))
        system = StateSpaceSystem(
            n=n, m=m, r=r,
            drift=lambda x: x @ a.T,
            input_map=lambda x: np.broadcast_to(b, np.shape(x)[:-1] + (n, m)),
            output_jet=lambda x: x @ c_jet.T,
            linear=(a, b, c_jet),
        )
    else:
        system = _normal_form_record(data, kind, n if kind == "internal" else 0, m, r)
    dim = system.linear[0].shape[0]
    x0 = data.draw(arrays(float, dim, elements=entries(2.0)))
    values = data.draw(arrays(float, (batch, n_intervals, m), elements=entries(5.0)))
    if kind == "state_space":
        plant = make_plant(system, 0.0, x0)
    else:
        plant = make_plant(system, 0.0, x0[: r * m], eta0=x0[r * m :])
    step = substeps * h
    _, rollout, alive = rollout_jets_batch(plant, values, step, h)
    assert alive.all()

    free, forced = linear_jet_response(system.linear, h, substeps, n_intervals)
    n_grid = n_intervals * substeps + 1
    assert free.shape == (n_grid, r * m, dim)
    assert forced.shape == (n_intervals * m, n_grid * r * m)
    jets = ((free @ x0).ravel() + values.reshape(batch, -1) @ forced).reshape(rollout.shape)
    scale = float(np.max(np.abs(rollout)))
    assert float(np.max(np.abs(jets - rollout))) <= 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(
    t0=st.floats(-10.0, 10.0),
    h=st.floats(1e-4, 0.1),
    substeps=st.integers(1, 20),
    n_intervals=st.integers(1, 50),
    data=st.data(),
)
def test_control_index_at_grid_points(t0, h, substeps, n_intervals, data):
    # grid point i lies in interval i // substeps, knots included; the end
    # of the grid holds the last interval
    i = data.draw(st.integers(0, n_intervals * substeps))
    control = ControlSignal(t_start=t0, step=substeps * h, values=np.zeros((n_intervals, 1)))
    assert control.index_at(t0 + h * i) == min(i // substeps, n_intervals - 1)


def _constant_funnel(radius: float) -> FunnelFunction:
    return FunnelFunction(
        value=lambda t: np.full(np.shape(t), radius),
        derivative=lambda t: np.zeros(np.shape(t)),
        alpha=1.0, beta=0.1, sup_norm=radius, sup_norm_derivative=0.0,
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    r=st.integers(1, 4),
    m=st.integers(1, 3),
    n_points=st.integers(1, 4),
)
def test_chain_margins_match_the_recursion(data, r, m, n_points):
    gains = data.draw(arrays(float, r - 1, elements=st.floats(0.1, 5.0)))
    radii = data.draw(arrays(float, r, elements=st.floats(0.5, 50.0)))
    chain = FunnelChain(tuple(_constant_funnel(c) for c in radii))
    ts = np.arange(n_points, dtype=float)
    zeta = data.draw(arrays(float, (n_points, r * m), elements=entries(1.0)))
    margins = chain_margins(chain, gains, ts, zeta)
    assert margins.shape == (n_points, r)
    for k in range(n_points):
        for i, e_i in enumerate(error_variables(zeta[k], gains)):
            norm = float(np.linalg.norm(e_i))
            assert abs(margins[k, i] - (radii[i] - norm)) <= 1e-12 * (radii[i] + norm)
    k = data.draw(st.integers(0, n_points - 1))
    zeta[k, data.draw(st.integers(0, r * m - 1))] = np.nan
    assert not np.any(chain_margins(chain, gains, ts, zeta)[k] > 0.0)
