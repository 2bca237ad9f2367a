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
On integrator chains, with and without their matrices, the cost functional
must be finite exactly when ||e_r|| < theta at every RK4 grid point, and the
solver must never return a cost above that of its clipped warm start.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from funnelmpc import (  # noqa: E402
    ControlSignal,
    FunnelChain,
    FunnelFunction,
    OcpSpec,
    RelativeDegreeSystem,
    StageCost,
    StateSpaceSystem,
    chain_margins,
    constant_reference,
    cost_functional,
    error_variables,
    exponential_sum_funnel,
    integrate_open_loop,
    integrator_chain,
    internal_dynamics_operator,
    make_plant,
    solve_ocp,
    static_operator,
    top_error_rows,
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


def _chain_ocp(data, r, m, exact, n_intervals, substeps, saturation):
    """A random OCP on an r-fold integrator chain with m channels.

    ``exact`` keeps the record's matrices (exact linear response); without
    them candidates are costed by batched RK4.  theta is a decaying
    exponential above a positive floor.  Input weights above 10 make the
    solver's first unit step overshoot, which only its line search rejects.
    """
    system = integrator_chain(r, m)
    if not exact:
        system = dataclasses.replace(system, linear=None)
    plant = make_plant(system, 0.0, data.draw(arrays(float, r * m, elements=entries(1.0))))
    gains = data.draw(arrays(float, r - 1, elements=st.floats(0.5, 5.0)))
    theta = exponential_sum_funnel(
        data.draw(st.floats(0.2, 2.0)),
        [(data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.5, 3.0)))],
        alpha=1.0, beta=0.1,
    )
    yref = constant_reference(data.draw(arrays(float, m, elements=entries(0.5))), r)
    spec = OcpSpec(horizon=0.1 * n_intervals, control_step=0.1, saturation=saturation,
                   ode_step=0.1 / substeps, max_iterations=data.draw(st.integers(1, 5)))
    stage = StageCost(theta=theta, lambda_u=data.draw(st.floats(0.0, 50.0)), gains=gains)
    return plant, stage, spec, yref


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    r=st.integers(1, 3),
    m=st.integers(1, 2),
    exact=st.booleans(),
    n_intervals=st.integers(1, 4),
    substeps=st.sampled_from([1, 2, 5]),
)
def test_cost_is_finite_exactly_inside_the_funnel(data, r, m, exact, n_intervals, substeps):
    plant, sc, spec, yref = _chain_ocp(data, r, m, exact, n_intervals, substeps, 5.0)
    values = data.draw(arrays(float, (n_intervals, m), elements=entries(3.0)))
    control = ControlSignal(t_start=0.0, step=0.1, values=values)
    cost = cost_functional(plant, control, sc, yref, spec)
    traj = integrate_open_loop(plant.clone(), control, (0.0, spec.horizon), spec.ode_step)
    assert traj.status == "completed"
    zeta = traj.output_jet - yref.jet_array(traj.grid).reshape(traj.grid.size, -1)
    e_r = zeta @ top_error_rows(sc.gains, m).T
    nrm2 = np.sum(e_r * e_r, axis=1)
    theta_sq = np.asarray(sc.theta.value(traj.grid), dtype=float) ** 2
    # the cost computes the same jets in another order; keep away from ties
    assume(np.all(np.abs(theta_sq - nrm2) > 1e-9 * theta_sq))
    assert math.isfinite(cost) == bool(np.all(nrm2 < theta_sq))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    r=st.integers(1, 2),
    m=st.integers(1, 2),
    exact=st.booleans(),
    n_intervals=st.integers(1, 4),
    substeps=st.sampled_from([1, 2, 5]),
    saturation=st.floats(0.5, 5.0),
)
def test_solver_never_ends_above_its_warm_start(
    data, r, m, exact, n_intervals, substeps, saturation
):
    plant, sc, spec, yref = _chain_ocp(data, r, m, exact, n_intervals, substeps, saturation)
    values = data.draw(arrays(float, (n_intervals, m), elements=entries(3.0)))
    clipped = ControlSignal(
        t_start=0.0, step=0.1, values=np.clip(values, -saturation, saturation)
    )
    start_cost = cost_functional(plant, clipped, sc, yref, spec)
    assume(math.isfinite(start_cost))
    warm = ControlSignal(t_start=0.0, step=0.1, values=values)
    sol = solve_ocp(plant, sc, spec, yref, warm_start=warm)
    assert sol.status != "infeasible-start-recovered"
    assert sol.cost <= start_cost
    assert np.max(np.abs(sol.control.values)) <= saturation
