"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
-r A or on failure) and asserts the same condition, so the -v listing
doubles as the pass/fail summary.  The showcase closed-loop run is shared
between the criteria that need it; the determinism criterion performs its
own second run.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import time

import numpy as np
import pytest

from funnelmpc import (
    ControlSignal,
    FunnelChain,
    StageCost,
    OcpSpec,
    brute_force_ocp,
    build_funnel_chain,
    chain_matrix,
    class_g_check,
    cost_functional,
    error_variables,
    exponential_sum_funnel,
    feedback_rollout,
    gain_lower_bounds,
    gamma_margin,
    highest_error_identity_check,
    integrate_open_loop,
    make_plant,
    mass_on_car_normal_form,
    mass_on_car_state_space,
    mass_on_car_initial_data,
    MassOnCarParams,
    solve_ocp,
    constant_reference,
)
from funnelmpc.cli import EXIT_OK, main
from funnelmpc.logio import read_trajectory_csv

from conftest import SHOWCASE, config_path, make_integrator_plant


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def run_cli_captured(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def showcase_run(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("showcase_run"))
    start = time.perf_counter()
    code, stdout, stderr = run_cli_captured(
        ["simulate", "--config", config_path("mass_on_car.json"),
         "--out", out_dir, "--json"]
    )
    elapsed = time.perf_counter() - start
    summary = json.loads(stdout) if code in (0, 1) and stdout.strip() else {}
    return {
        "code": code,
        "summary": summary,
        "stderr": stderr,
        "elapsed": elapsed,
        "out_dir": out_dir,
        "csv": os.path.join(out_dir, "trajectory.csv"),
    }


# ── 1. Showcase reproduction: funnel invariant and input bound ───────────────


def test_criterion_01_showcase_funnel_invariant(showcase_run):
    ok_exit = showcase_run["code"] == EXIT_OK
    assert ok_exit, f"simulate failed: {showcase_run['stderr']}"
    cols, _ = read_trajectory_csv(showcase_run["csv"])
    margin = cols["psi"] - np.abs(cols["e"])
    min_margin = float(np.min(margin))
    max_input = float(np.max(np.abs(cols["u"])))
    elapsed = showcase_run["elapsed"]
    ok = min_margin > 0.0 and max_input <= 20.0 and elapsed <= 60.0
    report(1, ok, (
        f"min funnel margin {min_margin:.6g}, max input {max_input:.6g} "
        f"(bound 20), runtime {elapsed:.1f} s (budget 60 s)"
    ))
    assert min_margin > 0.0
    assert max_input <= 20.0
    assert elapsed <= 60.0


# ── 2. Derived constants ─────────────────────────────────────────────────────


def test_criterion_02_derived_constants(showcase_psi, showcase_data, showcase_chain):
    bounds = gain_lower_bounds(showcase_data, 1.5, 0.15, 0.5, 4.1, r=2)
    gap_bound = abs(bounds[0] - 14.0)

    theta = showcase_chain.theta
    gap_theta0 = abs(theta.value(0.0) - 28.2)
    grid = np.arange(0.0, 10.0 + 1e-9, 1e-2)
    closed_form = 28.0 * np.exp(-1.5 * grid) + 0.2
    gap_curve = float(np.max(np.abs(np.asarray(theta.value(grid)) - closed_form)))

    margin = gamma_margin(showcase_data, showcase_psi)
    gap_gamma = abs(margin - (1.0 / 4.1) ** 0.5)

    ok = max(gap_bound, gap_theta0, gap_curve, gap_gamma) <= 1e-12
    report(2, ok, (
        f"gain bound off by {gap_bound:.2e}, theta(0) off by {gap_theta0:.2e}, "
        f"theta curve off by {gap_curve:.2e}, gamma_min off by {gap_gamma:.2e} "
        f"(all vs 1e-12)"
    ))
    assert gap_bound <= 1e-12
    assert gap_theta0 <= 1e-12
    assert gap_curve <= 1e-12
    assert gap_gamma <= 1e-12


# ── 3. Conservation property of the exact feedback ───────────────────────────


def test_criterion_03_feedback_conserves_top_ratio(showcase_chain, showcase_yref):
    plant = make_plant(mass_on_car_state_space(), 0.0, np.zeros(4))
    start = time.perf_counter()
    traj, _ = feedback_rollout(
        plant, showcase_chain, SHOWCASE["gains"], showcase_yref, (0.0, 10.0), 1e-4
    )
    elapsed = time.perf_counter() - start
    zeta = traj.output_jet - showcase_yref.jet_array(traj.grid).reshape(-1, 2)
    e2 = zeta[:, 1] + 14.0 * zeta[:, 0]
    theta_vals = np.asarray(showcase_chain.theta.value(traj.grid), dtype=float)
    ratio = np.abs(e2) / theta_vals
    drift = float(np.max(np.abs(ratio - ratio[0])))
    ok = drift <= 1e-6 and elapsed <= 10.0
    report(3, ok, (
        f"|e_2|/theta = {ratio[0]:.6f} with max drift {drift:.2e} over [0,10] "
        f"at h=1e-4 (tol 1e-6), runtime {elapsed:.1f} s (budget 10 s)"
    ))
    assert ratio[0] == pytest.approx(14.0 / 28.2, abs=1e-9)
    assert drift <= 1e-6
    assert elapsed <= 10.0


# ── 4. Finite cost iff funnel membership on the quadrature grid ──────────────


def test_criterion_04_finite_cost_iff_membership():
    theta = exponential_sum_funnel(1.0, [(0.0, 1.0)], alpha=1.0, beta=0.5)
    sc = StageCost(theta=theta, lambda_u=0.01, gains=np.array([]))
    spec = OcpSpec(horizon=0.5, control_step=0.1, saturation=5.0, ode_step=0.01)
    yref = constant_reference(0.0, r=1)
    rng = np.random.default_rng(2024)
    mismatches = 0
    n_finite = 0
    for _ in range(200):
        values = rng.uniform(-3.0, 3.0, size=(5, 1))
        control = ControlSignal(t_start=0.0, step=0.1, values=values)
        cost = cost_functional(
            make_integrator_plant(0.5), control, sc, yref, spec
        )
        traj = integrate_open_loop(make_integrator_plant(0.5), control, (0.0, 0.5), 0.01)
        theta_vals = np.asarray(theta.value(traj.grid), dtype=float)
        member = traj.status == "completed" and bool(
            np.all(np.abs(traj.output_jet[:, 0]) < theta_vals)
        )
        if math.isfinite(cost) != member:
            mismatches += 1
        if math.isfinite(cost):
            n_finite += 1
    ok = mismatches == 0
    report(4, ok, (
        f"200 randomized ZOH controls: {n_finite} finite / {200 - n_finite} infinite, "
        f"{mismatches} cost-membership mismatches (require 0)"
    ))
    assert 20 < n_finite < 180
    assert mismatches == 0


# ── 5. Solver agreement with exhaustive search ───────────────────────────────


def test_criterion_05_solver_matches_brute_force():
    theta = exponential_sum_funnel(1.0, [(0.0, 1.0)], alpha=1.0, beta=0.5)
    sc = StageCost(theta=theta, lambda_u=0.01, gains=np.array([]))
    chain = FunnelChain(r=1, members=(theta,), gamma=0.5)
    yref = constant_reference(0.0, r=1)
    rng = np.random.default_rng(7)
    res = 0.02
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        y0 = float(rng.uniform(-0.7, 0.7))
        sat = float(rng.uniform(0.8, 1.6))
        spec = OcpSpec(
            horizon=0.1 * n, control_step=0.1, saturation=sat, ode_step=0.01
        )
        brute = brute_force_ocp(
            make_integrator_plant(y0), sc, spec, yref, grid_resolution=res
        )
        sol = solve_ocp(
            make_integrator_plant(y0), sc, spec, yref,
            chain=chain, gains=np.array([]),
        )
        # cost increase across one grid cell around the exhaustive argmin
        gap = 0.0
        base = brute.control.values
        for i in range(n):
            for sign in (-1.0, 1.0):
                shifted = base.copy()
                shifted[i, 0] = float(np.clip(shifted[i, 0] + sign * res, -sat, sat))
                cost = cost_functional(
                    make_integrator_plant(y0),
                    ControlSignal(t_start=0.0, step=0.1, values=shifted),
                    sc, yref, spec,
                )
                gap = max(gap, abs(cost - brute.cost))
        diff = abs(sol.cost - brute.cost)
        tol = max(1e-4, gap)
        worst = max(worst, diff / tol)
        assert diff <= tol, f"instance y0={y0}: |{sol.cost} - {brute.cost}| > {tol}"
        assert sol.cost <= brute.cost + 1e-9
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed <= 30.0
    report(5, ok, (
        f"20 randomized instances (dim <= 2): worst cost deviation at "
        f"{100.0 * worst:.1f}% of max(1e-4, grid gap), runtime {elapsed:.1f} s "
        f"(budget 30 s)"
    ))
    assert elapsed <= 30.0


# ── 6. Structural identities of the error chain ──────────────────────────────


def test_criterion_06_error_chain_identities():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        gains = rng.uniform(0.2, 20.0, size=r - 1)
        jet = rng.normal(size=(r, m)) * rng.uniform(0.5, 5.0)
        stacked = np.concatenate(error_variables(jet, gains))
        product = chain_matrix(gains, r, m) @ jet.ravel()
        scale = max(1.0, float(np.max(np.abs(product))))
        worst = max(worst, float(np.max(np.abs(stacked - product))) / scale)

    gains = np.array([2.0, 3.0])
    h = 1e-3
    ts = np.arange(0.0, 0.2 + h / 2, h)
    sin_jets = np.stack([np.sin(ts), np.cos(ts), -np.sin(ts)], axis=1)[:, :, None]
    residual_sin = highest_error_identity_check(gains, ts, sin_jets)
    exp_jets = np.stack(
        [np.exp(-0.5 * ts), -0.5 * np.exp(-0.5 * ts), 0.25 * np.exp(-0.5 * ts)],
        axis=1,
    )[:, :, None]
    residual_exp = highest_error_identity_check(gains, ts, exp_jets)

    det_ok = True
    for r, m in ((2, 1), (3, 2), (5, 1), (4, 3)):
        mat = chain_matrix(rng.uniform(0.5, 10.0, size=r - 1), r, m)
        det_ok &= bool(np.array_equal(np.diag(mat), np.ones(r * m)))
        det_ok &= bool(np.array_equal(np.triu(mat, k=1), np.zeros_like(mat)))
        det_ok &= abs(float(np.linalg.det(mat)) - 1.0) < 1e-12

    ok = worst <= 1e-12 and residual_sin <= 1e-6 and residual_exp <= 1e-6 and det_ok
    report(6, ok, (
        f"1000 random jets (r <= 5): recursion vs matrix product within "
        f"{worst:.2e} relative; identity residuals {residual_sin:.2e} (sin), "
        f"{residual_exp:.2e} (exp) vs 1e-6; unit-triangular determinant 1: {det_ok}"
    ))
    assert worst <= 1e-12
    assert residual_sin <= 1e-6
    assert residual_exp <= 1e-6
    assert det_ok


# ── 7. Integrator order ──────────────────────────────────────────────────────


def test_criterion_07_rk4_order_ratio():
    target = 1.0 - math.cos(5.0)

    def final_error(h):
        plant = make_integrator_plant(0.0)
        traj = integrate_open_loop(
            plant, lambda t: np.array([math.sin(t)]), (0.0, 5.0), h
        )
        return abs(traj.output_jet[-1, 0] - target)

    ratio = final_error(0.05) / final_error(0.025)
    ok = 14.0 <= ratio <= 18.0
    report(7, ok, f"global-error ratio h/(h/2) on y' = sin t: {ratio:.3f} (require [14, 18])")
    assert 14.0 <= ratio <= 18.0


# ── 8. Representation equivalence ────────────────────────────────────────────


def test_criterion_08_representations_agree():
    params = MassOnCarParams()
    x0 = np.zeros(4)
    jet0, eta0 = mass_on_car_initial_data(params, x0)
    plant_ss = make_plant(mass_on_car_state_space(params), 0.0, x0)
    plant_nf = make_plant(mass_on_car_normal_form(params), 0.0, jet0, eta0=eta0)
    u = lambda t: np.array([math.sin(t)])
    traj_ss = integrate_open_loop(plant_ss, u, (0.0, 5.0), 1e-3)
    traj_nf = integrate_open_loop(plant_nf, u, (0.0, 5.0), 1e-3)
    diff = float(np.max(np.abs(traj_ss.output_jet[:, 0] - traj_nf.output_jet[:, 0])))
    ok = diff <= 1e-6
    report(8, ok, (
        f"normal form vs state space under u = sin t over [0,5]: "
        f"max output gap {diff:.2e} (tol 1e-6)"
    ))
    assert diff <= 1e-6


# ── 9. Class-G certification of the showcase funnel ──────────────────────────


def test_criterion_09_class_g_residual(showcase_psi):
    grid = np.arange(0.0, 10.0 + 1e-9, 1e-2)
    rep = class_g_check(showcase_psi, grid)
    residual = (
        np.asarray(showcase_psi.derivative(grid), dtype=float)
        + 1.5 * np.asarray(showcase_psi.value(grid), dtype=float)
        - 0.15
    )
    gap = float(np.max(np.abs(residual - 1.65 * np.exp(-1.35 * grid))))
    ok = rep.passed and gap <= 1e-9
    report(9, ok, (
        f"certificate (alpha, beta) = (1.5, 0.15) passed: {rep.passed}; residual "
        f"matches 1.65 e^(-1.35 t) within {gap:.2e} (tol 1e-9)"
    ))
    assert rep.passed
    assert gap <= 1e-9


# ── 10. Determinism of the front end ─────────────────────────────────────────


def test_criterion_10_runs_are_byte_identical(showcase_run, tmp_path):
    assert showcase_run["code"] == EXIT_OK
    second_dir = str(tmp_path / "second")
    code, _, stderr = run_cli_captured(
        ["simulate", "--config", config_path("mass_on_car.json"),
         "--out", second_dir, "--json"]
    )
    assert code == EXIT_OK, f"second run failed: {stderr}"
    same_traj = filecmp.cmp(
        showcase_run["csv"], os.path.join(second_dir, "trajectory.csv"), shallow=False
    )
    same_records = filecmp.cmp(
        os.path.join(showcase_run["out_dir"], "ocp_records.csv"),
        os.path.join(second_dir, "ocp_records.csv"),
        shallow=False,
    )
    ok = same_traj and same_records
    report(10, ok, (
        f"two consecutive runs: trajectory CSV byte-identical: {same_traj}, "
        f"OCP record CSV byte-identical: {same_records}"
    ))
    assert same_traj
    assert same_records
