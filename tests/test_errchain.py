"""Chained error variables: recursion, matrix form, derivative rows.

Oracles: hand-expanded polynomial coefficients, exponential eigenfunctions
of the chain (e = v e^{lambda t} gives e_i = prod_{j<i}(lambda + k_j) v
e^{lambda t}), and polynomial signals for which central differences are
exact.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from funnelmpc import (
    chain_matrix,
    error_variables,
    highest_error_identity_check,
    polynomial_coefficients,
)
from funnelmpc.errchain import error_derivative_row, jet_matrix, shift_jet


# ── Jet layout helpers ───────────────────────────────────────────────────────


def test_jet_matrix_accepts_flat_and_2d():
    flat = np.arange(6.0)
    mat = jet_matrix(flat, 3)
    assert mat.shape == (3, 2)
    assert np.array_equal(mat, flat.reshape(3, 2))
    assert np.array_equal(jet_matrix(mat, 3), mat)


def test_jet_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        jet_matrix(np.arange(5.0), 3)
    with pytest.raises(ValueError):
        jet_matrix(np.zeros((2, 2)), 3)


def test_shift_jet_moves_blocks_up_and_pads_zero():
    jet = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = shift_jet(jet)
    assert np.array_equal(out, np.array([[3.0, 4.0], [5.0, 6.0], [0.0, 0.0]]))
    flat = shift_jet(jet.ravel(), r=3)
    assert flat.shape == (6,)
    assert np.array_equal(flat, out.ravel())


# ── Polynomial coefficients ──────────────────────────────────────────────────


def test_polynomial_coefficients_hand_expanded():
    # (s + 2) and (s + 2)(s + 3) = s^2 + 5s + 6, ascending order
    gains = (2.0, 3.0)
    assert np.array_equal(polynomial_coefficients(gains, 1), [2.0, 1.0])
    assert np.array_equal(polynomial_coefficients(gains, 2), [6.0, 5.0, 1.0])


def test_polynomial_leading_coefficient_is_exactly_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        gains = rng.uniform(0.1, 30.0, size=4)
        for i in range(1, 5):
            coeffs = polynomial_coefficients(gains, i)
            assert coeffs.size == i + 1
            assert coeffs[-1] == 1.0


def test_polynomial_index_range_is_enforced():
    with pytest.raises(ValueError):
        polynomial_coefficients([2.0], 0)
    with pytest.raises(ValueError):
        polynomial_coefficients([2.0], 2)


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        error_variables(np.zeros(2), [-1.0])


# ── Chain recursion against closed forms ─────────────────────────────────────


def test_error_variables_on_exponential_eigenfunction():
    # e(t) = v e^{lambda t} has the jet (v, lambda v, lambda^2 v, ...); the
    # chain maps it to e_i = prod_{j<i}(lambda + k_j) v (all at t = 0).
    gains = np.array([2.0, 3.0, 5.0])
    lam = -0.7
    v = np.array([1.5, -0.25])
    jet = np.stack([lam**l * v for l in range(4)])
    values = error_variables(jet, gains)
    factor = 1.0
    for i, e_i in enumerate(values):
        np.testing.assert_allclose(e_i, factor * v, rtol=1e-13)
        if i < gains.size:
            factor *= lam + gains[i]


def test_error_variables_match_chain_matrix_product():
    rng = np.random.default_rng(42)
    for _ in range(200):
        r = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        gains = rng.uniform(0.2, 20.0, size=r - 1)
        jet = rng.normal(size=(r, m))
        values = error_variables(jet, gains)
        stacked = np.concatenate(values)
        product = chain_matrix(gains, r, m) @ jet.ravel()
        np.testing.assert_allclose(stacked, product, rtol=1e-12, atol=1e-12)


def test_error_variables_accepts_flat_jets():
    gains = np.array([4.0])
    jet = np.array([[1.0], [2.0]])
    from_flat = error_variables(jet.ravel(), gains)
    from_mat = error_variables(jet, gains)
    for a, b in zip(from_flat, from_mat):
        assert np.array_equal(a, b)


def test_single_link_chain_is_the_identity():
    jet = np.array([[3.0, -1.0]])
    values = error_variables(jet, np.array([]))
    assert len(values) == 1
    assert np.array_equal(values[0], jet[0])
    assert np.array_equal(chain_matrix([], 1, 2), np.eye(2))


# ── Matrix structure ─────────────────────────────────────────────────────────


def test_chain_matrix_is_unit_lower_triangular():
    rng = np.random.default_rng(3)
    # r = 1 has no gains: the matrix is the identity the callers rely on
    shapes = [(1, 1), (1, 3)]
    shapes += [(int(rng.integers(2, 6)), int(rng.integers(1, 4))) for _ in range(25)]
    for r, m in shapes:
        gains = rng.uniform(0.2, 25.0, size=r - 1)
        mat = chain_matrix(gains, r, m)
        assert mat.shape == (r * m, r * m)
        assert np.array_equal(np.diag(mat), np.ones(r * m))
        assert np.array_equal(np.triu(mat, k=1), np.zeros_like(mat))
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12


def test_chain_matrix_first_block_row_is_identity():
    mat = chain_matrix([2.0, 3.0], 3, 2)
    assert np.array_equal(mat[:2, :2], np.eye(2))
    # second block row carries p_1 = (s + 2): coefficients (2, 1)
    assert np.array_equal(mat[2:4, :2], 2.0 * np.eye(2))
    assert np.array_equal(mat[2:4, 2:4], np.eye(2))


def test_chain_matrix_validates_gain_count():
    with pytest.raises(ValueError):
        chain_matrix([2.0], 3)


# ── Derivative rows ──────────────────────────────────────────────────────────


def test_error_derivative_row_closed_forms():
    gains = [14.0]
    # d/dt e_1 touches only the second jet entry
    assert np.array_equal(error_derivative_row(gains, 1, 1), [0.0, 1.0])
    # e_2 itself is p_1(d/dt) e = 14 e + e'
    assert np.array_equal(error_derivative_row(gains, 2, 0), [14.0, 1.0])


def test_error_derivative_row_rejects_out_of_jet_orders():
    with pytest.raises(ValueError):
        error_derivative_row([14.0], 2, 1)
    with pytest.raises(ValueError):
        error_derivative_row([14.0], 1, 2)
    with pytest.raises(ValueError):
        error_derivative_row([14.0], 3, 0)


def test_error_derivative_row_is_consistent_with_error_variables():
    gains = np.array([2.0, 3.0])
    jet = np.array([[0.5], [-1.5], [2.5]])
    values = error_variables(jet, gains)
    for j in range(1, 4):
        row = error_derivative_row(gains, j, 0)
        assert abs(float(row @ jet.ravel()) - float(values[j - 1][0])) < 1e-13


# ── Trajectory identity for the highest error variable ───────────────────────


def test_identity_residual_is_exact_on_quadratic_signals():
    # central differences are exact on quadratics, so the residual is pure
    # floating point noise
    gains = np.array([2.0, 3.0])
    ts = np.linspace(0.0, 1.0, 101)
    jets = np.stack([ts**2, 2.0 * ts, np.full_like(ts, 2.0)], axis=1)[:, :, None]
    residual = highest_error_identity_check(gains, ts, jets)
    assert residual < 1e-12


def test_identity_residual_small_on_smooth_signal():
    gains = np.array([2.0, 3.0])
    h = 1e-3
    ts = np.arange(0.0, 0.2 + h / 2, h)
    jets = np.stack([np.sin(ts), np.cos(ts), -np.sin(ts)], axis=1)[:, :, None]
    residual = highest_error_identity_check(gains, ts, jets)
    assert residual < 1e-6


def test_identity_check_flags_inconsistent_jets():
    # corrupt the derivative entry so the jet no longer belongs to a
    # differentiable signal
    gains = np.array([2.0, 3.0])
    h = 1e-3
    ts = np.arange(0.0, 0.2 + h / 2, h)
    jets = np.stack([np.sin(ts), 2.0 + np.cos(ts), -np.sin(ts)], axis=1)[:, :, None]
    residual = highest_error_identity_check(gains, ts, jets)
    assert residual > 1.0


def test_identity_check_validates_grid_and_shape():
    gains = np.array([2.0])
    ts = np.array([0.0, 0.1, 0.3])
    jets = np.zeros((3, 2, 1))
    with pytest.raises(ValueError):
        highest_error_identity_check(gains, ts, jets)
    with pytest.raises(ValueError):
        highest_error_identity_check(gains, np.linspace(0, 1, 4), jets)
    with pytest.raises(ValueError):
        highest_error_identity_check(np.array([2.0, 3.0, 5.0, 7.0, 11.0]), ts, jets)
