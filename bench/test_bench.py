"""Tests of the benchmark harness itself: python -m pytest bench"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from funnelmpc import cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ── percentile rule ──────────────────────────────────────────────────────────


def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert run.tail_percentile(samples, 90) == 90
    assert math.isnan(run.tail_percentile(samples[:99], 90))
    assert run.tail_percentile(list(range(1000, 0, -1)), 99) == 990
    assert math.isnan(run.tail_percentile([], 90))


def test_scaled_seconds_cancel_a_slow_spell():
    region = workloads.Region()
    region.before = 0.004
    # the second piece ran while the machine was half as fast: kernel 8 ms
    region.pieces = [(1.0, 0.004), (2.0, 0.008), (1.0, 0.004)]
    expected = 1.0 + 2.0 * 0.004 / 0.006 + 1.0 * 0.004 / 0.006
    assert run.scaled_seconds(region) == pytest.approx(expected * run.REFERENCE_S / 0.004)


# ── self-time arithmetic ─────────────────────────────────────────────────────


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.5, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(ticks))
    t = tracing.Tracer()
    root = t.open("root")
    child = t.open("child")
    leaf = t.open("leaf", record=False)
    t.close(leaf)  # 2 -> 3
    t.close(child)  # 1 -> 5
    other = t.open("child")
    t.close(other)  # 6 -> 7.5
    t.close(root)  # 0 -> 10
    assert t.self_time["leaf"] == 1.0
    assert t.self_time["child"] == pytest.approx(3.0 + 1.5)
    assert t.self_time["root"] == pytest.approx(10.0 - 4.0 - 1.5)
    assert t.self_sum() == pytest.approx(10.0)
    assert [s[0] for s in t.spans] == ["root", "child", "child"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert t.by_parent[("leaf", "child")] == 1.0


def test_hooks_resolve_and_restore():
    from funnelmpc import mpc, sim

    before = (sim.StateSpacePlant.rhs_batch, mpc.solve_ocp, sim.FeedbackLaw.__call__)
    t = tracing.Tracer()
    t.install(tracing.HOOKS)
    try:
        assert t.missing == []
        assert mpc.solve_ocp is not before[1]
    finally:
        t.uninstall()
    assert (sim.StateSpacePlant.rhs_batch, mpc.solve_ocp, sim.FeedbackLaw.__call__) == before


# ── seeded workload generator ────────────────────────────────────────────────


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_zero_is_the_shipped_workload(name):
    cfg = workloads.generate(name, 0)
    if name == "delay_mpc":
        shipped = dict(workloads.DELAY_MPC)
    else:
        with open(os.path.join(ROOT, "src", "funnelmpc", "configs", "mass_on_car.json")) as fh:
            shipped = json.load(fh)
    assert cfg.pop("t_span") == [0.0, workloads.T_END[name]]
    shipped.pop("t_span")
    assert cfg == shipped


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seeds_perturb_and_rederive(name):
    cfg = workloads.generate(name, 7)
    assert cfg == workloads.generate(name, 7)
    assert "gamma" not in cfg and "gains" not in cfg
    base = workloads.generate(name, 0)
    assert 0.0 < abs(cfg["reference"]["phase"]) <= 0.2
    if name == "delay_mpc":
        assert 0.0 < abs(cfg["plant"]["history"] - base["plant"]["history"]) <= 0.1
    else:
        offsets = np.subtract(cfg["plant"]["x0"], base["plant"]["x0"])
        assert np.all(offsets[:2] >= 0.0) and np.all(np.abs(offsets) <= 0.1)


@pytest.mark.parametrize("seed", range(6))
def test_gain_oracle_matches_the_program(seed):
    cfg = workloads.generate("showcase", seed)
    res = cli.ResolvedRun(cfg)
    gamma, gains = checks.derived_gamma_and_gains(cfg)
    assert gamma == res.gamma
    assert gains == list(res.gains)
    grid = np.linspace(0.0, 2.0, 41)
    theta = checks.chained_funnel(cfg, gamma, gains, grid)
    assert np.max(np.abs(theta - res.chain.theta.value(grid))) <= 1e-12 * np.max(theta)


# ── correctness gate ─────────────────────────────────────────────────────────


def _delay_columns(cfg, e, u):
    t = np.linspace(0.0, 0.5, 6)
    ref, _ = checks.reference(cfg, t)
    return {"t": t, "y": ref + e, "y_ref": ref, "e": e, "e_r": e,
            "theta": checks.outer_funnel(cfg, t), "u": u}


def test_gate_flags_funnel_and_input_violations():
    cfg = workloads.generate("delay_mpc", 0)
    psi = checks.outer_funnel(cfg, np.linspace(0.0, 0.5, 6))
    inside = _delay_columns(cfg, 0.5 * psi, np.full(6, 4.0))
    problems, margin = checks.check_trajectory(cfg, inside, 0.5, [], 5.0)
    assert problems == [] and margin == pytest.approx(0.5 * psi[-1])
    outside = _delay_columns(cfg, 1.01 * psi, np.full(6, 4.0))
    problems, _ = checks.check_trajectory(cfg, outside, 0.5, [], 5.0)
    assert any("leaves the funnel" in p for p in problems)
    too_big = _delay_columns(cfg, 0.5 * psi, np.full(6, 5.5))
    problems, _ = checks.check_trajectory(cfg, too_big, 0.5, [], 5.0)
    assert problems == ["input exceeds the bound 5"]
    assert checks.check_trajectory(cfg, too_big, 0.5, [], None)[0] == []


# ── metric definitions and the result line ───────────────────────────────────


def test_benchmark_definition_is_valid():
    d = definition()
    metrics = d["end_to_end"] + d["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in d["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(set(m) == {"name", "unit", "better"} for m in d["per_layer"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in d["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in d["end_to_end"])
    setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in d["end_to_end"])
    assert [w["name"] for w in d["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_the_defined_metrics(monkeypatch, trace):
    monkeypatch.setitem(workloads.T_END, "delay_mpc", 0.1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run_workload("delay_mpc", 3, 0.1, bool(trace))
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else run.MIN_ITERATIONS)
    d = definition()
    wanted = d["per_layer"] if trace else d["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        if not trace:
            assert value > 0.0
