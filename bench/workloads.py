"""The benchmark's workloads: seeded inputs, set-up, and one timed iteration.

Each workload builds its program inputs from a seed (seed 0 is the workload
as shipped), runs through the package's public API only, and hands back the
artifacts of every iteration to the correctness gate in ``checks``.

- ``showcase``: the bundled mass-on-car config through ``cli.main simulate``.
  Batched rollouts in ``sim``, vectorized plant callables, the ``ocp``
  solver, and the artifact writers in ``logio``.
- ``exact_feedback``: ``feedback_rollout`` on the showcase chain at h = 1e-4,
  in consecutive calls.  The scalar ``rhs`` and ``FeedbackLaw`` path with no
  OCP at all.
- ``delay_mpc``: ``run_fmpc`` on a plant with memory.  The OCP evaluates
  costs per member through ``integrate_open_loop`` and ``JetHistory``.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import io
import json
import math
import os
import shutil
import time

import numpy as np

import funnelmpc
from funnelmpc import cli, funnel, logio, mpc, ocp, sim, systems

import checks

WORKLOADS = ("showcase", "exact_feedback", "delay_mpc")

# End of the simulated interval.  The shipped showcase covers [0, 10] and
# takes about 80 s, longer than one benchmark run may last; [0, 2.2] keeps the
# transient with its rebuilt starts and enters the budget-bound steady phase.
T_END = {"showcase": 2.2, "exact_feedback": 5.0, "delay_mpc": 0.8}
# integration step of acceptance criterion 03
EXACT_STEP = 1e-4
# The exact rollout runs as consecutive feedback_rollout calls of this length
# (2500 steps each), so its time splits into pieces of identical work.
EXACT_PIECE = 0.25

DELAY_MPC = {
    "plant": {"kind": "delay", "params": {"a": -0.5, "tau": 0.1}, "history": 0.5},
    "reference": {"kind": "cosine", "amplitude": 1.0, "omega": 1.0},
    "funnel": {"offset": 0.2, "terms": [[1.5, 1.0]], "alpha": 1.0, "beta": 0.2},
    "gamma": 0.5,
    "lambda_u": 0.01,
    "saturation": 5.0,
    "horizon": 0.5,
    "delta": 0.1,
    "control_step": 0.1,
    "ode_step": 0.01,
    "t_span": [0.0, 2.0],
    # A budget of 40 iterations lets the solver converge after 10 to 40
    # iterations depending on the start, so the work of a few OCPs moved by
    # 18 % between seeds; at 10 every OCP ends on the budget and the workload
    # measures the cost of the per-member evaluation path.
    "solver": {"max_iterations": 10},
}


def shipped_config(workload: str) -> dict:
    if workload == "delay_mpc":
        return copy.deepcopy(DELAY_MPC)
    path = os.path.join(os.path.dirname(funnelmpc.__file__), "configs", "mass_on_car.json")
    with open(path) as fh:
        return json.load(fh)


def generate(workload: str, seed: int) -> dict:
    """The workload's config for a seed; seed 0 is the shipped config.

    Other seeds move the initial condition and the reference phase and drop
    gamma and the gains so the program derives them again: a shipped gain
    that sits on its bound would be uncertified for a moved start.  Position
    offsets of the mass-on-car are nonnegative so the initial error stays
    below 1/4 of psi(0) and the derived gamma stays 1/2, as shipped; a
    negative offset switches the derivation to gamma near 3/4, which doubles
    the OCP work and would make seeds incomparable.
    """
    cfg = shipped_config(workload)
    cfg["t_span"] = [cfg["t_span"][0], T_END[workload]]
    if seed == 0:
        return cfg
    rng = np.random.default_rng(seed)
    plant = cfg["plant"]
    if plant["kind"] == "mass_on_car":
        offsets = np.concatenate([rng.uniform(0.0, 0.1, 2), rng.uniform(-0.1, 0.1, 2)])
        plant["x0"] = [float(v) for v in np.asarray(plant["x0"]) + offsets]
    else:
        plant["history"] = float(plant["history"] + rng.uniform(-0.1, 0.1))
    cfg["reference"]["phase"] = float(cfg["reference"].get("phase", 0.0) + rng.uniform(-0.2, 0.2))
    cfg.pop("gamma", None)
    cfg.pop("gains", None)
    return cfg


class Region:
    """The timed section of an iteration, split into pieces of identical work.

    ``mark()`` ends a piece at a point that every iteration of the workload
    reaches after the same work.  In an untraced iteration it then times
    ``reference_kernel()`` once, outside the pieces, as the machine's speed at
    that moment.  ``seconds`` is the section without those kernel runs.
    Under a tracer the hooks are in place only inside the section, whose root
    span then covers exactly the timed seconds, and no kernel runs.
    """

    def __init__(self, tracer=None, hooks=()):
        self.tracer = tracer
        self.hooks = hooks
        self.seconds = math.nan
        self.pieces = []  # (seconds, reference kernel seconds right after)

    def mark(self):
        now = time.perf_counter()
        speed = math.nan if self.tracer is not None else reference_kernel()
        self.pieces.append((now - self.last, speed))
        self.last = time.perf_counter()
        self.kernel_seconds += self.last - now

    def __enter__(self):
        self.frame = None
        self.before = math.nan if self.tracer is not None else reference_kernel()
        if self.tracer is not None:
            self.tracer.install(self.hooks)
            self.frame = self.tracer.open("bench.timed")
        self.kernel_seconds = 0.0
        self.start = self.last = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.seconds = end - self.start - self.kernel_seconds
        if self.frame is not None:
            self.tracer.close(self.frame)
            self.tracer.uninstall()
        speed = math.nan if self.tracer is not None else reference_kernel()
        self.pieces.append((end - self.last, speed))
        return False


class Outcome:
    """What one iteration produced: its artifacts and the resolved gains."""

    def __init__(self, trajectory: str, records: str | None = None,
                 resolved: dict | None = None, problems=()):
        self.trajectory = trajectory
        self.records = records
        self.resolved = resolved or {}
        self.problems = list(problems)


def _echo_config(cfg: dict, gamma: float, gains) -> dict:
    echo = copy.deepcopy(cfg)
    echo["gamma"] = float(gamma)
    echo["gains"] = [float(k) for k in gains]
    return echo


def _write_tables(out_dir: str, log_trajectory, records, chain, gains, yref, echo: dict):
    os.makedirs(out_dir, exist_ok=True)
    table = logio.closed_loop_table(log_trajectory, chain, gains, yref)
    traj_path = os.path.join(out_dir, "trajectory.csv")
    logio.write_trajectory_csv(traj_path, table, echo)
    rec_path = None
    if records is not None:
        rec_path = os.path.join(out_dir, "ocp_records.csv")
        logio.write_records_csv(rec_path, records, echo)
    return traj_path, rec_path


class Showcase:
    name = "showcase"
    saturation_checked = True

    def __init__(self, cfg: dict, work_dir: str):
        self.cfg = cfg
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "showcase.json")
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh, indent=2)

    def setup(self):
        res = cli.ResolvedRun(copy.deepcopy(self.cfg))
        return res, res.factory(res.t0)

    def iterate(self, out_dir: str, region) -> Outcome:
        argv = ["simulate", "--config", self.config_path, "--out", out_dir, "--json"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), region:
            code = cli.main(argv)
        problems = []
        if code != cli.EXIT_OK:
            problems.append(f"simulate exited {code}: {stderr.getvalue().strip()}")
            return Outcome("", problems=problems)
        summary = json.loads(stdout.getvalue())
        traj = summary["artifacts"]["trajectory"]
        with open(traj) as fh:
            echo_text = "".join(line[2:] for line in fh if line.startswith("#"))
        echo = json.loads(echo_text)
        return Outcome(traj, summary["artifacts"]["records"],
                       resolved={"gamma": echo["gamma"], "gains": echo["gains"],
                                 "saturation": echo["saturation"]})


class ExactFeedback:
    name = "exact_feedback"
    saturation_checked = False

    def __init__(self, cfg: dict, work_dir: str):
        self.cfg = cfg
        self.res = None

    def setup(self):
        res = cli.ResolvedRun(copy.deepcopy(self.cfg))
        law = sim.FeedbackLaw(res.chain, res.gains, res.yref)
        self.res = res
        return res, law

    def iterate(self, out_dir: str, region) -> Outcome:
        res = self.res
        plant = res.factory(res.t0)
        n_pieces = round((res.t_end - res.t0) / EXACT_PIECE)
        pieces = []
        with region:
            for k in range(n_pieces):
                span = (res.t0 + k * EXACT_PIECE, res.t0 + (k + 1) * EXACT_PIECE)
                piece, _ = sim.feedback_rollout(
                    plant, res.chain, res.gains, res.yref, span, EXACT_STEP
                )
                pieces.append(piece)
                region.mark()
        trajectory = sim.Trajectory(
            *(np.concatenate([getattr(pieces[0], f)] + [getattr(p, f)[1:] for p in pieces[1:]])
              for f in ("grid", "state", "output_jet", "input"))
        )
        echo = _echo_config(self.cfg, res.gamma, res.gains)
        traj, _ = _write_tables(out_dir, trajectory, None, res.chain, res.gains, res.yref, echo)
        return Outcome(traj, resolved={"gamma": res.gamma, "gains": list(res.gains),
                                                "saturation": None})


def delay_plant_system(params: dict):
    a = float(params["a"])
    op = systems.delay_operator(float(params["tau"]), lambda xi: xi, q=1)

    def f(w):
        return a * np.asarray(w, dtype=float)

    def g(w):
        return np.eye(1)

    return systems.RelativeDegreeSystem(m=1, r=1, f=f, g=g, T=op)


class DelayMpc:
    name = "delay_mpc"
    saturation_checked = True

    def __init__(self, cfg: dict, work_dir: str):
        self.cfg = cfg
        self.built = None

    def setup(self):
        """Config document to a positioned plant and an MpcConfig."""
        cfg = self.cfg
        t0, t_end = (float(v) for v in cfg["t_span"])
        system = delay_plant_system(cfg["plant"]["params"])
        history = float(cfg["plant"]["history"])
        plant = sim.make_plant(system, t0, np.array([history]),
                               initial_segment=lambda s: np.array([history]))
        ref = cfg["reference"]
        yref = systems.cosine_reference(ref["amplitude"], ref["omega"], r=1,
                                        phase=ref.get("phase", 0.0))
        fun = cfg["funnel"]
        psi = funnel.exponential_sum_funnel(fun["offset"], fun["terms"], fun["alpha"],
                                            fun["beta"], t0=t0, sup_window=t_end - t0)
        if not funnel.class_g_check(psi, np.arange(t0, t_end + 1e-9, 1e-2)).passed:
            raise ValueError("delay_mpc funnel fails its class-G certificate")
        data = funnel.InitialJetData(t0, plant.output_jet().reshape(1, 1), yref.jet(t0))
        gamma = cfg.get("gamma")
        if gamma is None:
            gamma = funnel.default_gamma(funnel.gamma_margin(data, psi, 1))
        gains = np.asarray(funnel.select_gains(data, psi, gamma).gains, dtype=float)
        chain = funnel.build_funnel_chain(psi, data, gains, gamma, 1)
        solver = cfg["solver"]
        spec = ocp.OcpSpec(horizon=cfg["horizon"], control_step=cfg["control_step"],
                           saturation=cfg["saturation"], ode_step=cfg["ode_step"],
                           max_iterations=solver["max_iterations"])
        stage = ocp.StageCost(chain.theta, cfg["lambda_u"], gains)
        config = mpc.MpcConfig(t0=t0, t_end=t_end, delta=cfg["delta"], spec=spec,
                               chain=chain, gains=gains, stage=stage)
        self.built = (system, history, yref, psi, gamma, gains, chain, config)
        return plant, config

    def iterate(self, out_dir: str, region) -> Outcome:
        system, history, yref, psi, gamma, gains, chain, config = self.built
        plant = sim.make_plant(system, config.t0, np.array([history]),
                               initial_segment=lambda s: np.array([history]))
        with region:
            log = mpc.run_fmpc(plant, yref, config)
        problems = []
        if not mpc.verify_guarantees(log, psi, config.spec.saturation).passed:
            problems.append("verify_guarantees rejects the closed loop")
        echo = _echo_config(self.cfg, gamma, gains)
        traj, rec = _write_tables(out_dir, log.trajectory, log.records, chain, gains, yref, echo)
        return Outcome(traj, rec, problems=problems,
                       resolved={"gamma": gamma, "gains": list(gains),
                                 "saturation": config.spec.saturation})


CLASSES = {cls.name: cls for cls in (Showcase, ExactFeedback, DelayMpc)}


def make(workload: str, seed: int, work_dir: str):
    return CLASSES[workload](generate(workload, seed), work_dir)


def gate(workload, outcome: Outcome, first_digest: str | None):
    """Run every correctness check on one iteration.

    Returns (problems, min_margin, cost values, digest of the CSVs).
    """
    problems = list(outcome.problems)
    if problems:
        return problems, math.nan, [], None
    cfg = workload.cfg
    gamma, gains = checks.derived_gamma_and_gains(cfg)
    resolved = outcome.resolved
    if abs(resolved["gamma"] - gamma) > 1e-12 or list(resolved["gains"]) != gains:
        problems.append(f"program derived gamma {resolved['gamma']} and gains {resolved['gains']}, "
                        f"expected {gamma} and {gains}")
    cols = checks.read_csv(outcome.trajectory)
    saturation = resolved["saturation"] if workload.saturation_checked else None
    found, min_margin = checks.check_trajectory(cfg, cols, gamma, gains, saturation)
    problems += found
    if workload.name == "exact_feedback":
        drift = checks.ratio_drift(cfg, cols, gamma, gains)
        if not drift <= checks.RATIO_DRIFT_TOL:
            problems.append(f"|e_r|/theta drifts by {drift:.3g}")
    paths = [outcome.trajectory]
    costs = []
    if outcome.records:
        paths.append(outcome.records)
        costs = list(checks.read_csv(outcome.records)["cost"])
    digest = checks.file_digest(paths)
    if first_digest is not None and digest != first_digest:
        problems.append("artifacts differ from the first run of this seed")
    return problems, min_margin, costs, digest


def clear(path: str):
    shutil.rmtree(path, ignore_errors=True)


def _median_seconds(fn, reps: int, inner: int = 1) -> float:
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return float(np.median(samples))


def microbenchmarks() -> tuple[dict, list]:
    """Warm single-layer timings at the shipped showcase start state.

    Returns the metrics and the names of those the package no longer offers
    (reported as 0).
    """
    res = cli.ResolvedRun(generate("showcase", 0))
    plant = res.factory(res.t0)
    spec = res.ocp_spec
    controls = np.linspace(-1.0, 1.0, spec.n_intervals)[:, None]
    out, missing = {}, []
    for width in (1, 16, 128):
        name = f"sim.rollout_batch_ms.B{width}"
        values = np.broadcast_to(controls, (width,) + controls.shape).copy()
        try:
            out[name] = 1e3 * _median_seconds(
                lambda: sim.rollout_jets_batch(plant.clone(), values, spec.control_step,
                                               spec.ode_step), reps=15)
        except (AttributeError, TypeError):
            out[name] = 0.0
            missing.append(name)
    x, u = plant.state.copy(), np.array([1.0])
    try:
        out["systems.rhs_us.single"] = 1e6 * _median_seconds(
            lambda: plant.rhs(res.t0, x, u), reps=15, inner=500)
    except (AttributeError, TypeError):
        out["systems.rhs_us.single"] = 0.0
        missing.append("systems.rhs_us.single")
    return out, missing


def reference_kernel() -> float:
    """Seconds of a fixed piece of work that does not use the package.

    Half of it is numpy calls on tiny arrays (an RK4 loop on a 4-state linear
    system), half plain Python arithmetic and list lookups (cubic Lagrange
    weights), the two kinds of work the package spends its time on.  Its
    fastest time in a run stands for the machine's speed while the run lasted.
    """
    a = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                  [-0.3, -0.2, -0.1, 0.0], [0.1, -0.5, 0.0, -0.2]])
    b = np.array([0.0, 0.0, 0.25, -0.1])
    x = np.zeros(4)
    h = 1e-3
    knots = [0.01 * i for i in range(64)]
    acc = 0.0
    start = time.perf_counter()
    for i in range(200):
        u = math.cos(i * h)
        k1 = a @ x + b * u
        k2 = a @ (x + 0.5 * h * k1) + b * u
        k3 = a @ (x + 0.5 * h * k2) + b * u
        k4 = a @ (x + h * k3) + b * u
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = 0.3 + (i % 50) * 0.005
        lo = max(0, min(bisect.bisect_left(knots, s) - 2, 60))
        for j in range(lo, lo + 4):
            w = 1.0
            for m in range(lo, lo + 4):
                if m != j:
                    w *= (s - knots[m]) / (knots[j] - knots[m])
            acc += w
    if not math.isfinite(acc + float(np.sum(x))):
        raise ArithmeticError("reference kernel diverged")
    return time.perf_counter() - start
