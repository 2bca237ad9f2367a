"""Property tests over randomly drawn small linear plants and control grids.

The state maps of the linear propagator (powers of the RK4 step map applied
to the start plus a forced response matrix applied to the stacked controls),
and the e_r maps it reads off them for drawn positive gains, must reproduce
batched RK4 rollouts of the same plant for any matrices, steps, horizons and
inputs, whether the plant is a state-space record or a normal form with a
static operator or internal dynamics.
A funnel evaluated at a scalar time must return, bit for bit, the element
of the same call on a one-element time array, for exponential sums and for
the members of a built funnel chain.
On a pure-delay plant the planned windows must give the stage-wise RK4's
states, plant and history bit for bit, for any delay of one to twelve
steps, any stored past, one plant or a batch, and past a blow-up.
A zero-order-hold control must pick the interval of every integration grid
point the way the batched rollout does.  The funnel margins of the chained
errors, taken through the chain matrix, must match the shift recursion, and
a jet with a NaN entry must lie outside every funnel.
On integrator chains, with and without their matrices, the cost functional
must be finite exactly when ||e_r|| < theta at every RK4 grid point, and the
solver must never return a cost above that of its clipped warm start, nor
one other than the cost of the control it returns.
On integrator chains and mass-on-car records with matrices, the exact
gradient and Hessian of the cost must match central differences, and the
Hessian less its input-weight part must be positive semidefinite.
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
    InitialJetData,
    MassOnCarParams,
    OcpSpec,
    RelativeDegreeSystem,
    StageCost,
    StateSpaceSystem,
    build_funnel_chain,
    chain_margins,
    constant_reference,
    cosine_reference,
    cost_functional,
    default_gamma,
    delay_operator,
    error_variables,
    exponential_sum_funnel,
    gamma_margin,
    integrate_open_loop,
    integrator_chain,
    internal_dynamics_operator,
    make_plant,
    mass_on_car_initial_data,
    mass_on_car_normal_form,
    mass_on_car_state_space,
    select_gains,
    solve_ocp,
    static_operator,
    top_error_rows,
)
from funnelmpc.ocp import _Workspace  # noqa: E402
from funnelmpc import sim  # noqa: E402
from funnelmpc.sim import LinearPropagator, rollout_jets_batch  # noqa: E402

from conftest import workspace_derivatives  # noqa: E402



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
    # the rollout runs the RK4 stages on the record's own f, g and T, not the
    # propagator the record's matrices build
    stepped = dataclasses.replace(system, linear=None)
    if kind == "state_space":
        plant = make_plant(stepped, 0.0, x0)
    else:
        plant = make_plant(stepped, 0.0, x0[: r * m], eta0=x0[r * m :])
    step = substeps * h
    _, rollout, alive = rollout_jets_batch(plant, values, step, h)
    assert alive.all()

    prop = LinearPropagator(system.linear, h, substeps, n_intervals)
    n_grid = n_intervals * substeps + 1
    assert prop.powers.shape == (n_grid, dim, dim)
    assert prop.forced.shape == (n_intervals * m, n_grid * dim)
    v = values.reshape(batch, -1)
    states = prop.powers @ x0 + (v @ prop.forced).reshape(batch, n_grid, dim)
    jets = states @ system.linear[2].T
    scale = float(np.max(np.abs(rollout)))
    assert float(np.max(np.abs(jets - rollout))) <= 1e-10 * scale

    # e_r read off the state maps against e_r of the rollout's jets; r - 1
    # gains, none at r = 1, where e_r is the output itself
    gains = data.draw(arrays(float, r - 1, elements=st.floats(0.5, 5.0)))
    er_block, er_free, er_forced = prop.top_errors(gains, n_intervals)
    assert er_free.shape == (n_grid, m, dim)
    assert er_forced.shape == (n_intervals * m, n_grid * m)
    er = er_free @ x0 + (v @ er_forced).reshape(batch, n_grid, m)
    # the jets' bound carried through the rows of er_block
    row_sum = float(np.max(np.sum(np.abs(er_block), axis=1)))
    assert float(np.max(np.abs(er - rollout @ er_block.T))) <= 1e-10 * scale * row_sum


def _delay_plant(tau: float, r: int):
    """y^(r) = -0.5 w_1 + 0.2 w_r^2 + (1 + 0.1 w_1^2) u with w = xi (1 + 0.1 xi)
    of the jet xi delayed by tau, positioned at t = 0 on a cosine past."""
    def f(w):
        return -0.5 * w[..., :1] + 0.2 * w[..., -1:] ** 2

    def g(w):
        return (1.0 + 0.1 * w[..., :1] ** 2)[..., None]

    def segment(s):
        return 0.5 * np.array([np.cos(3.0 * s), -3.0 * np.sin(3.0 * s)])[:r]

    system = RelativeDegreeSystem(
        m=1, r=r, f=f, g=g, T=delay_operator(tau, lambda xi: xi * (1.0 + 0.1 * xi), q=r)
    )
    return make_plant(system, 0.0, segment(0.0), initial_segment=segment)


def _march_kernel(plant, grid, h, states, inputs):
    return sim._march(plant, grid, h, lambda i, t, x: inputs[i], states)[1]


@settings(max_examples=80, deadline=2000)
@given(
    data=st.data(),
    delay_steps=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 12.0)),
    r=st.integers(1, 2),
    batch=st.integers(0, 4),
    stored=st.integers(0, 15),
    n_steps=st.integers(1, 30),
    blow=st.booleans(),
    h=st.sampled_from([0.01, 2.0**-6]),
)
def test_delay_windows_match_the_rk4_stages(data, delay_steps, r, batch, stored, n_steps, blow, h):
    # the planned windows give the states, the plant and the history the
    # stage-wise RK4 gives, bit for bit, from a fresh or a stored past, at
    # delays of one to twelve steps, for one plant or a batch of members,
    # and past a row that blows up: a span stops there, a batch runs on.
    # With a dyadic step and delay the reads at t and t + h hit stored
    # times exactly, so the hit reads are taken too
    plant = _delay_plant(delay_steps * h, r)
    states = np.empty((stored + 1, r))
    states[0] = plant.state
    _march_kernel(plant, h * np.arange(stored + 1), h, states, np.sin(np.arange(stored))[:, None])
    grid = plant.t + h * np.arange(n_steps + 1)
    inputs = data.draw(arrays(float, (n_steps,) + (batch,) * (batch > 0) + (1,),
                              elements=st.floats(-2.0, 2.0)))
    if blow:
        inputs[data.draw(st.integers(0, n_steps - 1))].flat[-1] = 1e12
    runs = []
    for kernel in (sim._delay_windows, _march_kernel):
        member = plant.clone()
        states = np.empty((grid.size,) + inputs.shape[1:-1] + (r,))
        states[0] = member.state
        count = kernel(member, grid, h, states, inputs)
        runs.append((count, states[:count], member))
    (count, states, member), (count_ref, states_ref, member_ref) = runs
    assert count == count_ref
    np.testing.assert_array_equal(states, states_ref)
    assert member.t == member_ref.t
    np.testing.assert_array_equal(member.state, member_ref.state)
    np.testing.assert_array_equal(member.history.ts, member_ref.history.ts)
    np.testing.assert_array_equal(member.history.jets, member_ref.history.jets)


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


def _assert_scalar_time_matches_array(psi: FunnelFunction, t: float):
    for evaluate in (psi.value, psi.derivative):
        scalar = evaluate(t)
        assert np.shape(scalar) == ()
        assert np.asarray(scalar, dtype=float).tobytes() == evaluate(np.array([t]))[0].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    offset=st.floats(0.01, 10.0),
    terms=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 5.0)), max_size=4),
    t0=st.floats(-5.0, 5.0),
    t=st.floats(-5.0, 25.0),
)
def test_exponential_sum_scalar_time_matches_array(offset, terms, t0, t):
    psi = exponential_sum_funnel(offset, terms, alpha=1.0, beta=0.1, t0=t0)
    _assert_scalar_time_matches_array(psi, t)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    r=st.integers(2, 4),
    m=st.integers(1, 2),
    t0=st.floats(-2.0, 2.0),
)
def test_chain_member_scalar_time_matches_array(data, r, m, t0):
    psi = exponential_sum_funnel(
        data.draw(st.floats(0.05, 1.0)),
        [(data.draw(st.floats(0.5, 5.0)), data.draw(st.floats(0.2, 3.0)))],
        alpha=data.draw(st.floats(0.2, 3.0)), beta=0.05, t0=t0,
    )
    # an output error strictly inside the funnel at t0, any higher jet blocks
    y0 = data.draw(arrays(float, (r, m), elements=entries(1.0)))
    y0[0] *= 0.9 * float(psi.value(t0)) / max(float(np.linalg.norm(y0[0])), 1.0)
    jet = InitialJetData(t0, y0, np.zeros((r, m)))
    gamma = default_gamma(gamma_margin(jet, psi))
    gains = select_gains(jet, psi, gamma).gains
    chain = build_funnel_chain(psi, jet, gains, gamma, r)
    for member in chain.members:
        _assert_scalar_time_matches_array(member, t0 + data.draw(st.floats(0.0, 20.0)))


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
    assert sol.cost == cost_functional(plant, sol.control, sc, yref, spec)
    assert np.max(np.abs(sol.control.values)) <= saturation


def _linear_plant(data, kind):
    """A positioned linear plant, its gains and a reference for it."""
    if kind == "chain":
        r, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        plant = make_plant(integrator_chain(r, m), 0.0,
                           data.draw(arrays(float, r * m, elements=entries(0.5))))
        gains = data.draw(arrays(float, r - 1, elements=st.floats(0.5, 3.0)))
        return plant, gains, constant_reference(
            data.draw(arrays(float, m, elements=entries(0.5))), r)
    params = MassOnCarParams(
        m1=data.draw(st.floats(1.0, 5.0)), m2=data.draw(st.floats(0.5, 2.0)),
        k=data.draw(st.floats(0.5, 3.0)), d=data.draw(st.floats(0.2, 2.0)),
        vartheta=data.draw(st.floats(0.2, 1.2)),
    )
    x0 = data.draw(arrays(float, 4, elements=entries(0.5)))
    if kind == "car_state_space":
        plant = make_plant(mass_on_car_state_space(params), 0.0, x0)
    else:
        jet0, eta0 = mass_on_car_initial_data(params, x0)
        plant = make_plant(mass_on_car_normal_form(params), 0.0, jet0, eta0=eta0)
    gains = np.array([data.draw(st.floats(0.5, 5.0))])
    return plant, gains, cosine_reference(data.draw(st.floats(0.0, 1.0)), 1.0, r=2)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["chain", "car_state_space", "car_normal_form"]),
    n_intervals=st.integers(1, 4),
    substeps=st.sampled_from([1, 2, 5]),
)
def test_cost_derivatives_match_central_differences(data, kind, n_intervals, substeps):
    plant, gains, yref = _linear_plant(data, kind)
    theta = exponential_sum_funnel(
        data.draw(st.floats(2.0, 5.0)), [(data.draw(st.floats(0.0, 2.0)), 1.0)],
        alpha=1.0, beta=0.1,
    )
    stage = StageCost(theta=theta, lambda_u=data.draw(st.floats(0.0, 1.0)), gains=gains)
    spec = OcpSpec(horizon=0.1 * n_intervals, control_step=0.1, saturation=5.0,
                   ode_step=0.1 / substeps)
    ws = _Workspace(plant, stage, spec, yref)
    d = data.draw(arrays(float, n_intervals * plant.m, elements=entries(2.0)))
    # interior: every grid point keeps ||e_r||^2 below 0.81 theta^2, where
    # the barrier and its derivatives stay moderate
    e = ws.er_free + (d @ ws.er_forced).reshape(ws.theta_sq.size, plant.m)
    assume(np.all(np.sum(e * e, axis=1) < 0.81 * ws.theta_sq))

    grad, hess = workspace_derivatives(ws, d)
    step = 1e-5
    probes = d + step * np.concatenate([np.eye(d.size), -np.eye(d.size)])
    costs = ws.cost_batch(probes.reshape((-1,) + (n_intervals, plant.m)))
    fd_grad = (costs[: d.size] - costs[d.size :]) / (2.0 * step)
    # the quotient itself rounds to about 1e-16 J / step
    cost = ws.cost_batch(d.reshape(1, n_intervals, plant.m))[0]
    assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * np.max(np.abs(grad)) + 1e-9 * cost
    fd_hess = np.array([
        (workspace_derivatives(ws, d + step * unit)[0]
         - workspace_derivatives(ws, d - step * unit)[0])
        / (2.0 * step)
        for unit in np.eye(d.size)
    ])
    assert np.max(np.abs(fd_hess - hess)) <= 1e-6 * np.max(np.abs(hess))

    mu = 2.0 * stage.lambda_u * spec.control_step
    barrier_part = hess - mu * np.eye(d.size)
    np.testing.assert_allclose(barrier_part, barrier_part.T, rtol=1e-12, atol=0.0)
    assert np.min(np.linalg.eigvalsh(barrier_part)) >= -1e-12 * np.max(np.abs(barrier_part))
