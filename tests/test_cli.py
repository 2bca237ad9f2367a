"""Command line front end: exit codes, artifacts, and derived quantities.

Runs the entry point in-process against the bundled configs.  The scalar
integrator config keeps the closed-loop runs cheap; the mass-on-car config
is only used for the derived-quantities command here (the full run has its
own acceptance test).
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import re

import numpy as np
import pytest

from funnelmpc.cli import EXIT_CONFIG, EXIT_GUARANTEE, EXIT_OK, EXIT_RUNTIME, ResolvedRun, main
from funnelmpc.logio import read_trajectory_csv
from funnelmpc.mpc import run_fmpc

from conftest import config_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, cfg):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def load_integrator_config():
    with open(config_path("integrator.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ── Derived quantities (gains command) ───────────────────────────────────────


def test_gains_reports_showcase_constants(capsys):
    code, out, _ = run_cli(
        capsys, "gains", "--config", config_path("mass_on_car.json"), "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["gamma_min"] - math.sqrt(1.0 / 4.1)) < 1e-12
    assert payload["gamma"] == 0.5
    assert abs(payload["gain_bounds"][0] - 14.0) < 1e-12
    assert payload["gains"] == [14.0]
    assert payload["bounds_satisfied"] is True
    assert abs(payload["theta_t0"] - 28.2) < 1e-12
    assert payload["class_g"]["passed"] is True
    assert payload["saturation"] == 20.0
    assert payload["saturation_source"] == "explicit"
    assert payload["chain"][1]["form"].startswith("28*exp(-1.5*")


def test_gains_plain_output_mentions_bounds(capsys):
    code, out, _ = run_cli(capsys, "gains", "--config", config_path("integrator.json"))
    assert code == EXIT_OK
    assert "gamma_min" in out
    assert "class-G certificate: pass" in out


# ── Receding-horizon run on the scalar integrator ────────────────────────────


def test_simulate_produces_passing_artifacts(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "run1")
    code, out, _ = run_cli(
        capsys, "simulate", "--config", config_path("integrator.json"),
        "--out", out_dir, "--json",
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["passed"] is True
    assert summary["status"] == "completed"
    assert summary["min_margin"] > 0.0
    assert summary["max_input"] <= 5.0 + 1e-12
    csv_path = os.path.join(out_dir, "trajectory.csv")
    assert os.path.exists(csv_path)
    assert os.path.exists(os.path.join(out_dir, "plot.svg"))
    assert os.path.exists(os.path.join(out_dir, "ocp_records.csv"))

    cols, echo_lines = read_trajectory_csv(csv_path)
    assert cols["t"].size == summary["rows"]
    echoed = json.loads("".join(line[2:] + "\n" for line in echo_lines))
    assert echoed["command"] == "simulate"
    assert echoed["t_span"] == [0.0, 5.0]
    assert echoed["saturation"] == 5.0

    # the stored funnel column dominates the stored error column everywhere
    assert np.all(cols["psi"] - np.abs(cols["e"]) > 0.0)


def test_simulate_is_deterministic_across_runs(tmp_path, capsys):
    dirs = [os.path.join(tmp_path, d) for d in ("a", "b")]
    for d in dirs:
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config_path("integrator.json"), "--out", d
        )
        assert code == EXIT_OK
    assert filecmp.cmp(
        os.path.join(dirs[0], "trajectory.csv"),
        os.path.join(dirs[1], "trajectory.csv"),
        shallow=False,
    )


def test_verify_accepts_fresh_simulate_log(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "run")
    run_cli(capsys, "simulate", "--config", config_path("integrator.json"), "--out", out_dir)
    code, out, _ = run_cli(
        capsys, "verify", os.path.join(out_dir, "trajectory.csv"),
        "--config", config_path("integrator.json"), "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


def test_verify_rejects_tampered_log(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "run")
    run_cli(capsys, "simulate", "--config", config_path("integrator.json"), "--out", out_dir)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        fresh = fh.readlines()
    # push one output sample far outside the funnel (column order:
    # t, y, y_ref, e, psi, e_r, theta, u); editing y_ref along with y must
    # not hide it, since the reference is recomputed from the config
    for columns in ([1], [1, 2]):
        lines = list(fresh)
        row = len(lines) // 2
        fields = lines[row].split(",")
        for col in columns:
            fields[col] = "5"
        lines[row] = ",".join(fields)
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        code, out, _ = run_cli(
            capsys, "verify", csv_path, "--config", config_path("integrator.json"), "--json"
        )
        assert code == EXIT_GUARANTEE
        assert json.loads(out)["passed"] is False


def test_verify_rejects_a_log_that_misses_the_config_span(tmp_path, capsys):
    # a log cut short passes every pointwise check; so does one whose rows
    # repeat a time; neither covers the config's run
    out_dir = os.path.join(tmp_path, "run")
    run_cli(capsys, "simulate", "--config", config_path("integrator.json"), "--out", out_dir)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        fresh = fh.readlines()
    header = next(i for i, line in enumerate(fresh) if not line.startswith("#"))
    cut = header + 1 + 245  # rows on [0, 2.44]
    for lines, span in ((fresh[:cut], "t = 0 to 2.44"),
                        (fresh[:cut] + fresh[cut - 1 :], "t = 0 to 5")):
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        code, out, _ = run_cli(
            capsys, "verify", csv_path, "--config", config_path("integrator.json")
        )
        assert code == EXIT_GUARANTEE
        assert f"log spans {span}; the config runs on [0, 5]" in out
        assert out.rstrip().endswith("FAIL")


def _short_showcase_log(tmp_path, capsys):
    """The shipped showcase over [0, 0.4]: its config path and its log."""
    with open(config_path("mass_on_car.json"), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["t_span"] = [0.0, 0.4]
    path = write_config(tmp_path, "showcase.json", cfg)
    out_dir = os.path.join(tmp_path, "run")
    code, _, _ = run_cli(capsys, "simulate", "--config", path, "--out", out_dir)
    assert code == EXIT_OK
    return cfg, path, os.path.join(out_dir, "trajectory.csv")


def test_records_hold_each_solution_with_its_counters(tmp_path, capsys):
    # ocp_records.csv holds every OcpSolution of the run: start time, cost,
    # iterations and status, then its cost evaluations and residual
    cfg, _, csv_path = _short_showcase_log(tmp_path, capsys)
    res = ResolvedRun(cfg)
    log = run_fmpc(res.factory(res.t0), res.yref, res.mpc)
    with open(os.path.join(os.path.dirname(csv_path), "ocp_records.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["t_hat", "cost", "iters", "status", "evaluations", "residual"]
    assert len(rows) == len(log.records) + 1 == 11
    for row, rec in zip(rows[1:], log.records):
        t_hat, cost, iters, status, evaluations, residual = row
        assert (float(t_hat), float(cost), int(iters), status, int(evaluations), float(residual)) \
            == (rec.t_hat, rec.cost, rec.iterations, rec.status, rec.evaluations, rec.residual)


def test_verify_rejects_top_error_outside_theta(tmp_path, capsys):
    # e_r is checked against theta rebuilt from the config; the logged theta
    # column is left intact, so only the recomputed one can catch this
    _, path, csv_path = _short_showcase_log(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "verify", csv_path, "--config", path, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["min_theta_margin"] > 0.0
    cols, _ = read_trajectory_csv(csv_path)
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    e_r_col = lines[header].strip().split(",").index("e_r")
    row = header + 1 + cols["t"].size // 2
    fields = lines[row].rstrip("\n").split(",")
    fields[e_r_col] = "1000"
    lines[row] = ",".join(fields) + "\n"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    code, out, _ = run_cli(capsys, "verify", csv_path, "--config", path, "--json")
    assert code == EXIT_GUARANTEE
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["min_margin"] > 0.0
    assert payload["min_theta_margin"] < 0.0
    assert payload["theta_margin_t"] == cols["t"][cols["t"].size // 2]


def test_verify_rejects_log_of_other_settings(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "run")
    run_cli(capsys, "simulate", "--config", config_path("integrator.json"), "--out", out_dir)
    cfg = load_integrator_config()
    cfg["lambda_u"] = 0.02
    path = write_config(tmp_path, "other_weight.json", cfg)
    code, out, _ = run_cli(
        capsys, "verify", os.path.join(out_dir, "trajectory.csv"), "--config", path, "--json"
    )
    assert code == EXIT_GUARANTEE
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["settings_mismatch"] == ["lambda_u"]


def test_verify_rejects_config_with_gains_below_bounds(tmp_path, capsys):
    cfg, _, csv_path = _short_showcase_log(tmp_path, capsys)
    cfg["gains"] = [10.0]
    path = write_config(tmp_path, "low_gain.json", cfg)
    code, _, err = run_cli(capsys, "verify", csv_path, "--config", path)
    assert code == EXIT_CONFIG
    assert "k_1 = 10 is below its lower bound 14" in err


def test_gamma_below_its_minimum_is_rejected(tmp_path, capsys):
    # gamma_min = sqrt(1/4.1) = 0.4939 on the showcase
    with open(config_path("mass_on_car.json"), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["gamma"] = 0.3
    path = write_config(tmp_path, "low_gamma.json", cfg)
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG
    assert "gamma = 0.3 outside the admissible range [0.493865, 1)" in err


# ── Baseline feedback run ────────────────────────────────────────────────────


def test_baseline_conserves_error_ratio(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "base")
    code, out, _ = run_cli(
        capsys, "baseline", "--config", config_path("integrator.json"),
        "--out", out_dir, "--json",
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["passed"] is True
    assert summary["ratio_max_drift"] < 1e-6
    assert os.path.exists(os.path.join(out_dir, "trajectory.csv"))


def test_verify_skips_input_bound_for_baseline_logs(tmp_path, capsys):
    # the exact law is not box-limited; with a deliberately tiny saturation
    # the baseline log must still verify because only membership applies
    cfg = load_integrator_config()
    cfg["saturation"] = 0.05
    cfg["t_span"] = [0.0, 2.0]
    path = write_config(tmp_path, "tiny_box.json", cfg)
    out_dir = os.path.join(tmp_path, "base")
    code, out, _ = run_cli(capsys, "baseline", "--config", path, "--out", out_dir, "--json")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["max_input"] > 0.05

    code, out, _ = run_cli(
        capsys, "verify", os.path.join(out_dir, "trajectory.csv"),
        "--config", path, "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


# ── Report path: verdicts, warnings and exit codes ───────────────────────────


def test_text_output_ends_with_the_verdict_except_for_gains(tmp_path, capsys):
    cfg = config_path("integrator.json")
    out_dir = os.path.join(tmp_path, "run")
    for argv in (
        ["simulate", "--config", cfg, "--out", out_dir],
        ["baseline", "--config", cfg, "--out", os.path.join(tmp_path, "base")],
        ["verify", os.path.join(out_dir, "trajectory.csv"), "--config", cfg],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "PASS"
    code, out, _ = run_cli(capsys, "gains", "--config", cfg)
    assert code == EXIT_OK
    assert not {"PASS", "FAIL"} & set(out.splitlines())


def test_verify_text_names_the_settings_that_differ(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "run")
    run_cli(capsys, "simulate", "--config", config_path("integrator.json"), "--out", out_dir)
    cfg = load_integrator_config()
    cfg["lambda_u"] = 0.02
    path = write_config(tmp_path, "other_weight.json", cfg)
    code, out, _ = run_cli(capsys, "verify", os.path.join(out_dir, "trajectory.csv"),
                           "--config", path)
    assert code == EXIT_GUARANTEE
    assert out.splitlines()[-2:] == ["settings differ from the config: lambda_u", "FAIL"]


def test_every_command_prints_the_config_warnings_once(tmp_path, capsys):
    # psi = 0.2 + exp(-2t) with alpha = 1, beta = 0.2 fails the class-G
    # certificate: psi' + alpha psi - beta = -exp(-2t) < 0
    cfg = load_integrator_config()
    cfg["funnel"]["terms"] = [[1.0, 2.0]]
    cfg["t_span"] = [0.0, 1.0]
    path = write_config(tmp_path, "class_g_warning.json", cfg)
    out_dir = os.path.join(tmp_path, "run")
    for argv in (
        ["simulate", "--config", path, "--out", out_dir],
        ["baseline", "--config", path, "--out", os.path.join(tmp_path, "base")],
        ["gains", "--config", path],
        ["verify", os.path.join(out_dir, "trajectory.csv"), "--config", path],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert err.splitlines() == [
            "warning: funnel fails the class-G certificate at t = 0.0 "
            "(min residual -1.000e+00)"
        ]


def test_infeasible_ocp_is_a_runtime_failure(tmp_path, capsys):
    # with T = delta the showcase has no room to steer and loses
    # feasibility at t = 1.4
    with open(config_path("mass_on_car.json"), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 0.04
    cfg["t_span"] = [0.0, 1.6]
    path = write_config(tmp_path, "short_horizon.json", cfg)
    code, out, err = run_cli(capsys, "simulate", "--config", path, "--out", str(tmp_path))
    assert code == EXIT_RUNTIME
    assert out == ""
    assert err.startswith("runtime failure: OCP infeasible at t = 1.4: ")


def test_baseline_leaving_the_funnel_fails_the_guarantee(tmp_path, capsys):
    # theta'/theta is about -40 while the exponential dominates, so one RK4
    # step of h = 0.1 multiplies e by about 5 while psi shrinks by e^-4
    cfg = load_integrator_config()
    cfg["funnel"] = {"offset": 0.001, "terms": [[1.0, 40.0]], "alpha": 40.0, "beta": 0.04}
    cfg["ode_step"] = 0.1
    cfg["t_span"] = [0.0, 1.0]
    path = write_config(tmp_path, "coarse_step.json", cfg)
    code, out, err = run_cli(capsys, "baseline", "--config", path, "--out", str(tmp_path))
    assert code == EXIT_GUARANTEE
    assert out == ""
    assert err.startswith("funnel membership violated: ")


@pytest.mark.parametrize("body", [
    pytest.param("t,y\n0.0,0.5\n0.1,abc\n", id="non-numeric-field"),
    pytest.param("t,y\n0.0,0.5\n,0.4\n", id="empty-field"),
    pytest.param("t,y\n0.0,0.5\n0.1\n", id="short-row"),
    pytest.param("t,y\n", id="header-without-rows"),
])
def test_malformed_log_is_a_config_error(tmp_path, capsys, body):
    path = os.path.join(tmp_path, "malformed.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# {}\n" + body)
    with pytest.raises(ValueError):
        read_trajectory_csv(path)
    code, _, err = run_cli(capsys, "verify", path, "--config", config_path("integrator.json"))
    assert code == EXIT_CONFIG
    assert "cannot read log CSV" in err


def test_short_log_row_names_the_row_and_the_header_width(tmp_path, capsys):
    # numpy's own message for a ragged row advises `usecols`, which does
    # not apply to a log
    path = os.path.join(tmp_path, "short_row.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# {}\nt,y\n0.0,0.5\n0.1\n")
    with pytest.raises(ValueError, match="^data row 2 has 1 fields; the header has 2$"):
        read_trajectory_csv(path)
    code, _, err = run_cli(capsys, "verify", path, "--config", config_path("integrator.json"))
    assert code == EXIT_CONFIG
    assert "data row 2 has 1 fields; the header has 2" in err
    assert "usecols" not in err


@pytest.mark.parametrize("row,message", [
    pytest.param("0.1,abc", "data row 2, column y: 'abc' is not a number",
                 id="non-numeric-field"),
    pytest.param(",0.4", "data row 2, column t: '' is not a number", id="empty-field"),
])
def test_bad_log_field_names_the_row_and_the_column(tmp_path, capsys, row, message):
    # data rows count from 1, as in the width message
    path = os.path.join(tmp_path, "bad_field.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {{}}\nt,y\n0.0,0.5\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_trajectory_csv(path)
    code, _, err = run_cli(capsys, "verify", path, "--config", config_path("integrator.json"))
    assert code == EXIT_CONFIG
    assert message in err


# ── Config error handling ────────────────────────────────────────────────────


def test_missing_config_file_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "/nonexistent.json", "--out", ".")
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize(
    "field", ["line_search", "stall_iterations", "stall_tol", "max_evaluations"]
)
def test_unknown_solver_field_is_rejected(tmp_path, capsys, field):
    cfg = load_integrator_config()
    cfg["solver"][field] = 1
    path = write_config(tmp_path, "bad_solver.json", cfg)
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG
    assert field in err


def _with_bounds(cfg):
    del cfg["saturation"]
    cfg["bounds"] = {"f_max": 1.0, "g_max": 1.0, "g_min": 1.0}


def _with_cosine_reference(cfg):
    cfg["reference"] = {"kind": "cosine", "amplitude": 0.1, "omega": 1.0, "phse": 0.1}


@pytest.mark.parametrize("edit,field", [
    pytest.param(lambda cfg: cfg.update(lamda_u=0.02), "lamda_u", id="top-level"),
    pytest.param(lambda cfg: cfg["plant"].update(x_0=[0.5]), "x_0", id="plant"),
    pytest.param(lambda cfg: cfg["plant"]["params"].update(n=2), "'n'", id="integrator-params"),
    pytest.param(lambda cfg: cfg["reference"].update(amplitude=1.0), "amplitude",
                 id="constant-reference"),
    pytest.param(_with_cosine_reference, "phse", id="cosine-reference"),
    pytest.param(lambda cfg: cfg["funnel"].update(gamma=0.5), "gamma", id="funnel"),
    pytest.param(_with_bounds, "g_min", id="bounds"),
])
def test_unknown_field_in_any_section_is_rejected(tmp_path, capsys, edit, field):
    cfg = load_integrator_config()
    edit(cfg)
    path = write_config(tmp_path, "unknown_field.json", cfg)
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG
    assert "unknown" in err and field in err


@pytest.mark.parametrize("name,x0", [("integrator.json", [0.5, 0.1]),
                                     ("mass_on_car.json", [0.0, 0.0, 0.0])])
def test_initial_state_of_wrong_length_is_a_config_error(tmp_path, capsys, name, x0):
    with open(config_path(name), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["plant"]["x0"] = x0
    path = write_config(tmp_path, "short_x0.json", cfg)
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG
    assert f"x0 has length {len(x0)}" in err


def test_empty_iteration_budget_is_a_config_error(tmp_path, capsys):
    # a budget of 0 would return every start unsolved as budget-exhausted
    cfg = load_integrator_config()
    cfg["solver"]["max_iterations"] = 0
    path = write_config(tmp_path, "no_budget.json", cfg)
    code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "max_iterations" in err


def test_unknown_plant_kind_is_rejected(tmp_path, capsys):
    cfg = load_integrator_config()
    cfg["plant"]["kind"] = "pendulum"
    path = write_config(tmp_path, "bad_plant.json", cfg)
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG


def test_initial_error_outside_funnel_is_rejected(tmp_path, capsys):
    cfg = load_integrator_config()
    cfg["funnel"]["offset"] = 0.1
    cfg["funnel"]["terms"] = [[0.1, 1.0]]
    path = write_config(tmp_path, "shallow_funnel.json", cfg)
    code, _, err = run_cli(capsys, "gains", "--config", path)
    assert code == EXIT_CONFIG


def test_misaligned_timing_is_rejected(tmp_path, capsys):
    cfg = load_integrator_config()
    cfg["delta"] = 0.07
    path = write_config(tmp_path, "bad_delta.json", cfg)
    code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", ".")
    assert code == EXIT_CONFIG


def test_verify_missing_log_is_a_config_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "/nonexistent.csv",
        "--config", config_path("integrator.json"),
    )
    assert code == EXIT_CONFIG
