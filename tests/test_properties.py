"""Property tests over randomly drawn small linear plants.

The exact linear response (free response of the start plus a forced
response matrix applied to the stacked controls) must reproduce batched RK4
rollouts of the same plant for any matrices, steps, horizons and inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from funnelmpc import StateSpaceSystem, make_plant  # noqa: E402
from funnelmpc.sim import linear_jet_response, rollout_jets_batch  # noqa: E402



def entries(bound: float):
    # multiples of bound/1000: products stay far from the subnormal range,
    # where no relative tolerance can hold
    return st.integers(-1000, 1000).map(lambda k: bound * k / 1000.0)



@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    m=st.integers(1, 2),
    r=st.integers(1, 2),
    h=st.floats(1e-3, 0.1),
    substeps=st.integers(1, 3),
    n_intervals=st.integers(1, 5),
    batch=st.integers(1, 3),
)
def test_linear_response_matches_batched_rk4(data, n, m, r, h, substeps, n_intervals, batch):
    a = data.draw(arrays(float, (n, n), elements=entries(1.0)))
    b = data.draw(arrays(float, (n, m), elements=entries(1.0)))
    c_jet = data.draw(arrays(float, (r * m, n), elements=entries(1.0)))
    x0 = data.draw(arrays(float, n, elements=entries(2.0)))
    values = data.draw(arrays(float, (batch, n_intervals, m), elements=entries(5.0)))
    system = StateSpaceSystem(
        n=n, m=m, r=r,
        drift=lambda x: x @ a.T,
        input_map=lambda x: np.broadcast_to(b, np.shape(x)[:-1] + (n, m)),
        output=lambda x: x @ c_jet[:m].T,
        output_jet=lambda x: x @ c_jet.T,
        linear=(a, b, c_jet),
    )
    step = substeps * h
    _, rollout, alive = rollout_jets_batch(make_plant(system, 0.0, x0), values, step, h)
    assert alive.all()

    free, forced = linear_jet_response(system.linear, h, substeps, n_intervals)
    n_grid = n_intervals * substeps + 1
    assert free.shape == (n_grid, r * m, n)
    assert forced.shape == (n_intervals * m, n_grid * r * m)
    jets = ((free @ x0).ravel() + values.reshape(batch, -1) @ forced).reshape(rollout.shape)
    scale = float(np.max(np.abs(rollout)))
    assert float(np.max(np.abs(jets - rollout))) <= 1e-10 * scale
