"""Chained error variables built from stacked output-error derivatives.

For a tracking error e = y - y_ref whose derivatives are collected in a jet
xi = (xi_1, ..., xi_r) = (e, e', ..., e^(r-1)), the chain is defined by the
recursion

    e_1(xi)     = xi_1
    e_{i+1}(xi) = e_i(S(xi)) + k_i * e_i(xi)

with the shift S(xi_1, ..., xi_r) = (xi_2, ..., xi_r, 0) and positive gains
k_1, ..., k_{r-1}.  Every e_i is a linear map of the jet whose coefficients
are those of the monic polynomial p_{i-1}(s) = (s + k_1) * ... * (s + k_{i-1}),
so along a trajectory e_i(t) = p_{i-1}(d/dt) e(t).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jet_matrix",
    "error_variables",
    "polynomial_coefficients",
    "chain_matrix",
    "top_error_rows",
    "highest_error_identity_check",
]


def jet_matrix(xi, r: int) -> np.ndarray:
    """Return the jet as an (r, m) array, accepting flat input of size r*m."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 1:
        if r <= 0 or arr.size % r != 0:
            raise ValueError(f"flat jet of size {arr.size} is not divisible into {r} blocks")
        return arr.reshape(r, -1)
    if arr.ndim == 2:
        if arr.shape[0] != r:
            raise ValueError(f"jet has {arr.shape[0]} blocks, expected {r}")
        return arr
    raise ValueError("jet must be a 1-d or 2-d array")


def _validated_gains(gains) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(gains, dtype=float))
    if arr.ndim != 1:
        raise ValueError("gains must be a flat sequence")
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("all chain gains must be positive")
    return arr


def error_variables(xi, gains) -> list[np.ndarray]:
    """Evaluate the chained error variables e_1(xi), ..., e_r(xi).

    The number of gains fixes r = len(gains) + 1.  Returns a list of r
    vectors of shape (m,).  The evaluation follows the shift recursion
    directly; e_i(S^l xi) is tabulated for i + l <= r.
    """
    k = _validated_gains(gains)
    r = k.size + 1
    jet = jet_matrix(xi, r)
    # level i = 1: e_1(S^l xi) is block l of the jet
    level = [jet[l].copy() for l in range(r)]
    values = [level[0].copy()]
    for i in range(1, r):
        level = [level[l + 1] + k[i - 1] * level[l] for l in range(r - i)]
        values.append(level[0].copy())
    return values


def polynomial_coefficients(gains, i: int) -> np.ndarray:
    """Ascending coefficients of p_i(s) = (s + k_1) * ... * (s + k_i).

    Requires 1 <= i <= len(gains).  The result has length i + 1 and its
    leading (last) entry is exactly 1.
    """
    k = _validated_gains(gains)
    if not 1 <= i <= k.size:
        raise ValueError(f"polynomial index {i} outside 1..{k.size}")
    coeffs = np.array([1.0])
    for j in range(i):
        coeffs = np.convolve(coeffs, np.array([k[j], 1.0]))
    return coeffs


def chain_matrix(gains, r: int, m: int = 1) -> np.ndarray:
    """Block matrix mapping the stacked jet to the stacked error variables.

    Block row i holds the ascending coefficients of p_{i-1} times the m x m
    identity, so the matrix is unit lower triangular with determinant one.
    """
    k = _validated_gains(gains)
    if k.size != r - 1:
        raise ValueError(f"need {r - 1} gains for a chain of length {r}, got {k.size}")
    if m < 1:
        raise ValueError("block size m must be at least 1")
    eye = np.eye(m)
    mat = np.zeros((r * m, r * m))
    mat[0:m, 0:m] = eye
    for i in range(2, r + 1):
        coeffs = polynomial_coefficients(k, i - 1)
        for l, c in enumerate(coeffs):
            mat[(i - 1) * m : i * m, l * m : (l + 1) * m] = c * eye
    return mat


def top_error_rows(gains, m: int = 1) -> np.ndarray:
    """Last block row of ``chain_matrix``: the (m, r*m) map from the flat jet to e_r."""
    r = np.size(gains) + 1
    return chain_matrix(gains, r, m)[(r - 1) * m :]


def highest_error_identity_check(gains, ts, jets) -> float:
    """Max residual of the identity tying e_r to derivatives of the lower chain.

    Along any trajectory the chain satisfies

        e_r(t) = e^(r-1)(t) + sum_{j=1}^{r-1} k_j * d^(r-j-1)/dt^(r-j-1) e_j(t).

    ``jets`` holds jet samples of shape (K, r, m) (or (K, r*m)) on the
    uniformly spaced grid ``ts``.  The derivative series are produced by
    iterated central differences, so the residual is evaluated on the
    interior of the grid only.  Returns the maximum absolute residual.
    """
    k = _validated_gains(gains)
    r = k.size + 1
    ts = np.asarray(ts, dtype=float)
    jets = np.asarray(jets, dtype=float)
    if jets.ndim == 2:
        jets = jets.reshape(jets.shape[0], r, -1)
    if jets.ndim != 3 or jets.shape[1] != r:
        raise ValueError("jet samples must have shape (K, r, m)")
    n_samples = jets.shape[0]
    if ts.shape != (n_samples,):
        raise ValueError("time grid and jet samples disagree in length")
    trim = max(r - 2, 0)
    if n_samples < 2 * trim + 3:
        raise ValueError("too few samples for the required finite differences")
    steps = np.diff(ts)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=0.0, atol=1e-12 * max(1.0, abs(h))):
        raise ValueError("time grid must be uniformly spaced")

    m = jets.shape[2]
    series = (jets.reshape(n_samples, r * m) @ chain_matrix(k, r, m).T).reshape(jets.shape)
    e_r = series[:, -1]
    total = jets[:, r - 1, :].copy()
    for j in range(1, r):
        order = r - j - 1
        term = series[:, j - 1]
        for _ in range(order):
            term = (term[2:] - term[:-2]) / (2.0 * h)
        offset = trim - order
        total_rows = n_samples - 2 * trim
        total[trim : n_samples - trim] += k[j - 1] * term[offset : offset + total_rows]
    residual = e_r[trim : n_samples - trim] - total[trim : n_samples - trim]
    return float(np.max(np.abs(residual))) if residual.size else 0.0
