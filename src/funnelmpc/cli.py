"""Configuration-driven command line front end.

Subcommands:
  simulate   closed-loop receding-horizon run, CSV/SVG artifacts
  gains      print the derived funnel-chain quantities without simulating
  baseline   exact funnel feedback closed loop over the full interval
  verify     re-check a persisted trajectory CSV against the guarantees

Configs are single JSON documents; every derivable quantity (gamma, gains,
saturation level) may be omitted and is then computed from the funnel data.
An explicit gamma outside [gamma_min, 1) or gain below its lower bound is a
config error; a funnel failing its class-G certificate is a warning.  Exit
codes: 0 pass, 1 guarantee failure, 2 config error, 3 runtime failure.

Every command returns its JSON payload, its text lines and its verdict
(None for ``gains``); only ``main`` prints them and maps the verdict to the
exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from .errors import FunnelMpcError, PreconditionViolation
from .funnel import (
    FunnelChain,
    InitialJetData,
    build_funnel_chain,
    chain_margins,
    class_g_check,
    default_gamma,
    exponential_sum_funnel,
    gamma_margin,
    saturation_bound,
    select_gains,
)
from .logio import (
    _vector_headers,
    closed_loop_table,
    read_trajectory_csv,
    write_closed_loop_svg,
    write_records_csv,
    write_trajectory_csv,
)
from .mpc import ClosedLoopLog, MpcConfig, output_guarantees, run_fmpc, verify_guarantees
from .ocp import OcpSpec, StageCost
from .sim import feedback_rollout, make_plant
from .systems import (
    MassOnCarParams,
    constant_reference,
    cosine_reference,
    estimate_dynamics_bounds,
    integrator_chain,
    mass_on_car_initial_data,
    mass_on_car_normal_form,
    mass_on_car_state_space,
)

EXIT_OK = 0
EXIT_GUARANTEE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


def _need(cfg: dict, key: str, context: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing required {context} field '{key}'")
    return cfg[key]


def _known(cfg: dict, keys, context: str) -> dict:
    """The config section itself, after checking it holds only the given keys."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {context} fields: {unknown}")
    return cfg


def _vector(value, size: int, name: str) -> np.ndarray:
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.size != size:
        raise ConfigError(f"{name} has length {vec.size}, the plant needs {size}")
    return vec


TOP_LEVEL_KEYS = (
    "plant", "reference", "funnel", "gamma", "gains", "lambda_u", "saturation", "bounds",
    "horizon", "delta", "control_step", "ode_step", "t_span", "solver",
)
PLANT_KEYS = {
    "mass_on_car": ("kind", "params", "representation", "x0"),
    "integrator_chain": ("kind", "params", "x0"),
}
REFERENCE_KEYS = {
    "cosine": ("kind", "amplitude", "omega", "phase"),
    "constant": ("kind", "value"),
}


def _build_plant_setup(plant_cfg: dict):
    """Returns (factory(t0) -> plant, system record, echo dict)."""
    kind = _need(plant_cfg, "kind", "plant")
    if kind not in PLANT_KEYS:
        raise ConfigError(f"unknown plant kind '{kind}'")
    _known(plant_cfg, PLANT_KEYS[kind], f"{kind} plant")
    params_cfg = plant_cfg.get("params", {})
    eta0 = None
    if kind == "mass_on_car":
        try:
            params = MassOnCarParams(**params_cfg)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad mass_on_car params: {exc}") from exc
        x0 = _vector(plant_cfg.get("x0", [0.0, 0.0, 0.0, 0.0]), 4, "x0")
        representation = plant_cfg.get("representation", "state_space")
        if representation == "state_space":
            system = mass_on_car_state_space(params)
            initial = x0
        elif representation == "normal_form":
            system = mass_on_car_normal_form(params)
            xi0, eta0 = mass_on_car_initial_data(params, x0)
            initial = xi0.ravel()
        else:
            raise ConfigError(f"unknown mass_on_car representation '{representation}'")
        echo = {
            "kind": kind,
            "params": dict(vars(params)),
            "representation": representation,
            "x0": [float(v) for v in x0],
        }
    else:
        _known(params_cfg, ("r", "m"), "integrator_chain params")
        r = int(params_cfg.get("r", 1))
        m = int(params_cfg.get("m", 1))
        if r < 1 or m < 1:
            raise ConfigError("integrator chain needs r >= 1 and m >= 1")
        system = integrator_chain(r, m)
        initial = _vector(_need(plant_cfg, "x0", "plant"), r * m, "x0")
        echo = {"kind": kind, "params": {"r": r, "m": m}, "x0": [float(v) for v in initial]}
    factory = lambda t0: make_plant(system, t0, initial, eta0=eta0)
    return factory, system, echo


def _build_reference(ref_cfg: dict, r: int, m: int):
    kind = _need(ref_cfg, "kind", "reference")
    if kind not in REFERENCE_KEYS:
        raise ConfigError(f"unknown reference kind '{kind}'")
    _known(ref_cfg, REFERENCE_KEYS[kind], f"{kind} reference")
    if kind == "cosine":
        if m != 1:
            raise ConfigError("cosine reference is scalar; plant has m > 1")
        echo = {
            "kind": kind,
            "amplitude": float(ref_cfg.get("amplitude", 1.0)),
            "omega": float(ref_cfg.get("omega", 1.0)),
            "phase": float(ref_cfg.get("phase", 0.0)),
        }
        ref = cosine_reference(echo["amplitude"], echo["omega"], r=r, phase=echo["phase"])
        return ref, echo
    value = np.asarray(_need(ref_cfg, "value", "reference"), dtype=float).reshape(-1)
    if value.size == 1 and m > 1:
        value = np.full(m, float(value[0]))
    if value.size != m:
        raise ConfigError(f"reference value has length {value.size}, plant has m = {m}")
    return constant_reference(value, r), {"kind": kind, "value": [float(v) for v in value]}


class ResolvedRun:
    """Everything a command needs, derived from one config document."""

    def __init__(self, cfg: dict):
        self.warnings = []
        _known(cfg, TOP_LEVEL_KEYS, "top-level")
        # bounds are read only when M is derived; a typo there is still caught
        _known(cfg.get("bounds") or {}, ("f_max", "g_max"), "bounds")
        t_span = _need(cfg, "t_span")
        if len(t_span) != 2 or not float(t_span[1]) > float(t_span[0]):
            raise ConfigError("t_span must be an increasing [t0, t_end] pair")
        self.t0, self.t_end = float(t_span[0]), float(t_span[1])

        self.factory, self.system, plant_echo = _build_plant_setup(_need(cfg, "plant"))
        self.r, self.m = self.system.r, self.system.m
        self.yref, ref_echo = _build_reference(_need(cfg, "reference"), self.r, self.m)

        fun_cfg = _known(_need(cfg, "funnel"), ("offset", "terms", "alpha", "beta"), "funnel")
        offset = float(_need(fun_cfg, "offset", "funnel"))
        terms = [(float(a), float(rho)) for a, rho in _need(fun_cfg, "terms", "funnel")]
        alpha = float(_need(fun_cfg, "alpha", "funnel"))
        beta = float(_need(fun_cfg, "beta", "funnel"))
        try:
            self.psi = exponential_sum_funnel(
                offset, terms, alpha, beta, t0=self.t0, sup_window=self.t_end - self.t0
            )
        except ValueError as exc:
            raise ConfigError(f"bad funnel definition: {exc}") from exc
        grid = np.arange(self.t0, self.t_end + 1e-9, 1e-2)
        self.class_g = class_g_check(self.psi, grid)
        if not self.class_g.passed:
            self.warnings.append(
                f"funnel fails the class-G certificate at t = {self.class_g.first_violation_t} "
                f"(min residual {self.class_g.min_residual:.3e})"
            )

        probe = self.factory(self.t0)
        self.data = InitialJetData(
            self.t0, probe.output_jet().reshape(self.r, self.m), self.yref.jet(self.t0)
        )
        try:
            self.gamma_min = gamma_margin(self.data, self.psi, self.r)
        except PreconditionViolation as exc:
            raise ConfigError(str(exc)) from exc

        if "gamma" in cfg and cfg["gamma"] is not None:
            self.gamma = float(cfg["gamma"])
            self.gamma_source = "explicit"
            if not self.gamma_min <= self.gamma < 1.0:
                raise ConfigError(
                    f"gamma = {self.gamma} outside the admissible range "
                    f"[{self.gamma_min:.6g}, 1)"
                )
        else:
            self.gamma = default_gamma(self.gamma_min)
            self.gamma_source = "derived"

        user_gains = cfg.get("gains")
        try:
            selection = select_gains(self.data, self.psi, self.gamma, user_gains=user_gains)
        except ValueError as exc:
            raise ConfigError(f"gain selection failed: {exc}") from exc
        self.gains, self.gain_bounds = selection.gains, selection.bounds
        self.gains_source = "explicit" if user_gains is not None else "derived"
        try:
            self.chain = build_funnel_chain(self.psi, self.data, self.gains, self.gamma, self.r)
        except PreconditionViolation as exc:
            raise ConfigError(str(exc)) from exc

        self.lambda_u = float(cfg.get("lambda_u", 0.01))
        self.bound_probe = None
        if "saturation" in cfg and cfg["saturation"] is not None:
            self.saturation = float(cfg["saturation"])
            self.saturation_source = "explicit"
        else:
            self.saturation = self._derive_saturation(cfg)
            self.saturation_source = "derived"

        self.delta = float(_need(cfg, "delta"))
        self.horizon = float(_need(cfg, "horizon"))
        self.control_step = float(cfg.get("control_step", self.delta))
        self.ode_step = float(cfg.get("ode_step", self.control_step / 10.0))
        solver = _known(cfg.get("solver", {}), ("max_iterations",), "solver")
        self.solver = {"max_iterations": int(solver.get("max_iterations", 200))}
        try:
            self.ocp_spec = OcpSpec(
                horizon=self.horizon,
                control_step=self.control_step,
                saturation=self.saturation,
                ode_step=self.ode_step,
                **self.solver,
            )
            self.stage = StageCost(self.chain.theta, self.lambda_u, self.gains)
            self.mpc = MpcConfig(
                t0=self.t0,
                t_end=self.t_end,
                delta=self.delta,
                spec=self.ocp_spec,
                chain=self.chain,
                gains=self.gains,
                stage=self.stage,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        self.echo = {
            "plant": plant_echo,
            "reference": ref_echo,
            "funnel": {"offset": offset, "terms": [list(t) for t in terms],
                       "alpha": alpha, "beta": beta},
            "gamma": self.gamma,
            "gamma_min": self.gamma_min,
            "gamma_source": self.gamma_source,
            "gains": [float(k) for k in self.gains],
            "gain_bounds": [float(b) for b in self.gain_bounds],
            "gains_source": self.gains_source,
            "lambda_u": self.lambda_u,
            "saturation": self.saturation,
            "saturation_source": self.saturation_source,
            "horizon": self.horizon,
            "delta": self.delta,
            "control_step": self.control_step,
            "ode_step": self.ode_step,
            "t_span": [self.t0, self.t_end],
            "solver": self.solver,
        }

    def _derive_saturation(self, cfg: dict) -> float:
        bounds_cfg = cfg.get("bounds")
        if bounds_cfg is not None:
            f_max = float(_need(bounds_cfg, "f_max", "bounds"))
            g_max = float(_need(bounds_cfg, "g_max", "bounds"))
        else:
            if not hasattr(self.system, "T"):
                raise ConfigError(
                    "state-space plants need either 'saturation' or explicit "
                    "'bounds' {f_max, g_max} in the config"
                )
            f_max, g_max = estimate_dynamics_bounds(
                self.system, self.chain, self.gains, self.yref, (self.t0, self.t_end)
            )
        self.bound_probe = (f_max, g_max)
        grid = np.linspace(self.t0, self.t_end, 2001)
        highest = self.yref.jet_array(grid, self.r + 1)[:, self.r]
        yref_r_sup = float(np.max(np.linalg.norm(highest, axis=1)))
        return saturation_bound(f_max, g_max, self.gains, self.chain, yref_r_sup)

    def chain_description(self) -> list:
        """Closed forms of the chain members for reporting."""
        out = []
        floor = self.psi.beta / (self.psi.alpha * self.gamma ** (self.r - 1))
        for i, member in enumerate(self.chain.members, start=1):
            entry = {
                "index": i,
                "value_t0": float(member.value(self.t0)),
                "sup": member.sup_norm,
                "sup_derivative": member.sup_norm_derivative,
            }
            if i == 1:
                entry["form"] = "given funnel"
            else:
                # members after the first decay at rate alpha from amplitude A,
                # so their derivative peaks at alpha * A
                amp = member.sup_norm_derivative / self.psi.alpha
                entry["form"] = (
                    f"{amp:g}*exp(-{self.psi.alpha:g}*(t-{self.t0:g})) + {floor:g}"
                )
            out.append(entry)
        return out


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


class GuaranteeViolation(Exception):
    """A guarantee failed before the command had a result to report."""


def _write_artifacts(args, res: ResolvedRun, trajectory, records=None):
    """Writes the run's CSVs and plot to ``args.out``; returns (table, paths)."""
    table = closed_loop_table(trajectory, res.chain, res.gains, res.yref)
    echo = dict(res.echo, command=args.command)
    os.makedirs(args.out, exist_ok=True)
    paths = {
        "trajectory": os.path.join(args.out, "trajectory.csv"),
        "plot": os.path.join(args.out, "plot.svg"),
    }
    write_trajectory_csv(paths["trajectory"], table, echo)
    write_closed_loop_svg(paths["plot"], table, saturation=res.saturation)
    if records is not None:
        paths["records"] = os.path.join(args.out, "ocp_records.csv")
        write_records_csv(paths["records"], records, echo)
    return table, paths


def cmd_simulate(args, res: ResolvedRun):
    plant = res.factory(res.t0)
    t_wall = time.perf_counter()
    log = run_fmpc(plant, res.yref, res.mpc)
    elapsed = time.perf_counter() - t_wall
    report = verify_guarantees(log, res.psi, res.saturation)
    _, paths = _write_artifacts(args, res, log.trajectory, log.records)
    statuses = dict(Counter(rec.status for rec in log.records))
    summary = {
        "passed": report.passed,
        "status": log.status,
        "rows": int(log.trajectory.grid.size),
        "min_margin": report.min_margin,
        "margin_t": report.margin_t,
        "max_input": report.max_input,
        "max_input_t": report.max_input_t,
        "ocp_count": len(log.records),
        "ocp_statuses": statuses,
        "runtime_s": elapsed,
        "artifacts": paths,
    }
    lines = [
        f"closed loop {log.status}: {summary['rows']} rows in {elapsed:.2f} s",
        f"min funnel margin {report.min_margin:.6g} at t = {report.margin_t:g}; "
        f"max input {report.max_input:.6g} at t = {report.max_input_t:g}",
        f"OCP statuses: {statuses}",
        f"artifacts in {args.out}",
    ]
    return summary, lines, report.passed


def cmd_baseline(args, res: ResolvedRun):
    """Exact funnel feedback closed loop; the law is not box-limited.

    The input bound of the receding-horizon run does not apply here, so
    verification covers funnel membership only and the peak input is
    reported for comparison.
    """
    plant = res.factory(res.t0)
    t_wall = time.perf_counter()
    try:
        trajectory, _ = feedback_rollout(
            plant,
            res.chain,
            res.gains,
            res.yref,
            (res.t0, res.t_end),
            res.ode_step,
            zoh_step=res.control_step,
        )
    except PreconditionViolation as exc:
        raise GuaranteeViolation(f"funnel membership violated: {exc}") from exc
    elapsed = time.perf_counter() - t_wall
    report = verify_guarantees(ClosedLoopLog(trajectory, [], res.yref), res.psi, math.inf)
    table, paths = _write_artifacts(args, res, trajectory)
    ratio = np.abs(table.e_r) / table.theta if table.m == 1 else table.e_r / table.theta
    drift = float(np.max(np.abs(ratio - ratio[0])))
    summary = {
        "passed": report.passed,
        "status": trajectory.status,
        "rows": int(trajectory.grid.size),
        "min_margin": report.min_margin,
        "margin_t": report.margin_t,
        "max_input": report.max_input,
        "ratio_t0": float(ratio[0]),
        "ratio_max_drift": drift,
        "runtime_s": elapsed,
        "artifacts": paths,
    }
    lines = [
        f"baseline {trajectory.status}: {summary['rows']} rows in {elapsed:.2f} s",
        f"min funnel margin {report.min_margin:.6g} at t = {report.margin_t:g}; "
        f"max input {report.max_input:.6g}",
        f"top error ratio |e_r|/theta: {ratio[0]:.6g} at start, max drift {drift:.3g}",
    ]
    return summary, lines, report.passed


def cmd_gains(args, res: ResolvedRun):
    chain_rows = res.chain_description()
    payload = {
        "gamma_min": res.gamma_min,
        "gamma": res.gamma,
        "gamma_source": res.gamma_source,
        "gain_bounds": [float(b) for b in res.gain_bounds],
        "gains": [float(k) for k in res.gains],
        "gains_source": res.gains_source,
        # ResolvedRun rejects gains below their bounds
        "bounds_satisfied": True,
        "chain": chain_rows,
        "theta_t0": float(res.chain.theta.value(res.t0)),
        "class_g": {"passed": res.class_g.passed, "min_residual": res.class_g.min_residual},
        "saturation": res.saturation,
        "saturation_source": res.saturation_source,
    }
    if res.bound_probe is not None:
        payload["bound_probe"] = {"f_max": res.bound_probe[0], "g_max": res.bound_probe[1]}
    lines = [
        f"gamma_min = {res.gamma_min:.12g}",
        f"gamma     = {res.gamma:.12g} ({res.gamma_source})",
    ]
    for i, (b, k) in enumerate(zip(res.gain_bounds, res.gains), start=1):
        lines.append(f"k_{i}: bound = {b:.12g}, chosen = {k:.12g}")
    for row in chain_rows:
        lines.append(
            f"psi_{row['index']}: {row['form']}; value(t0) = {row['value_t0']:.12g}, "
            f"sup = {row['sup']:.6g}"
        )
    lines += [
        f"theta(t0) = {payload['theta_t0']:.12g}",
        f"class-G certificate: {'pass' if res.class_g.passed else 'FAIL'} "
        f"(min residual {res.class_g.min_residual:.3e})",
        f"M = {res.saturation:.12g} ({res.saturation_source})",
    ]
    return payload, lines, None


def cmd_verify(args, res: ResolvedRun):
    """Check a log against the config: its echoed settings and t_span, y - y_ref(t)
    against psi, e_r against theta, and the input box.  y_ref, psi and theta
    are recomputed from the config; the log's own columns for them are unused."""
    try:
        cols, echo_lines = read_trajectory_csv(args.log)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read log CSV: {exc}") from exc
    try:
        echoed = json.loads("".join(line[2:] + "\n" for line in echo_lines))
    except json.JSONDecodeError:
        echoed = {}
    echoed = echoed if isinstance(echoed, dict) else {}
    # baseline logs carry the unconstrained law, so only membership applies
    bound = math.inf if echoed.pop("command", None) == "baseline" else res.saturation
    # the echo as it reads back from a log header
    expected = json.loads(json.dumps(res.echo))
    mismatch = sorted(
        k for k in expected.keys() | echoed.keys() if echoed.get(k) != expected.get(k)
    )
    m = res.m
    y_names, ref_names, u_names = (_vector_headers(base, m) for base in ("y", "y_ref", "u"))
    required = ["t", "e", "psi", "e_r", "theta"] + y_names + ref_names + u_names
    missing = [name for name in required if name not in cols]
    if missing:
        raise ConfigError(f"log CSV is missing columns: {missing}")
    t = cols["t"]
    spans = bool(np.abs(t[[0, -1]] - [res.t0, res.t_end]).max() <= 1e-9 and (np.diff(t) > 0).all())
    y = np.stack([cols[n] for n in y_names], axis=1)
    u = np.stack([cols[n] for n in u_names], axis=1)
    ref = res.yref.jet_array(t)[:, 0, :]
    report = output_guarantees(t, y - ref, u, res.psi, bound)
    theta_margins = chain_margins(FunnelChain((res.chain.theta,)), (), t, cols["e_r"])[:, 0]
    i_theta = int(np.argmin(theta_margins))
    passed = report.passed and bool(theta_margins[i_theta] > 0.0) and not mismatch and spans
    payload = {
        "passed": passed,
        "rows": int(t.size),
        "log_span": [float(t[0]), float(t[-1])],
        "min_margin": report.min_margin,
        "margin_t": report.margin_t,
        "min_theta_margin": float(theta_margins[i_theta]),
        "theta_margin_t": float(t[i_theta]),
        "max_input": report.max_input,
        "max_input_t": report.max_input_t,
        "settings_mismatch": mismatch,
    }
    lines = [
        f"{t.size} rows: min margin {report.min_margin:.6g} at t = {report.margin_t:g}, "
        f"min e_r margin to theta {payload['min_theta_margin']:.6g} at "
        f"t = {payload['theta_margin_t']:g}, "
        f"max input {report.max_input:.6g} at t = {report.max_input_t:g}"
    ]
    if not spans:
        lines.append(f"log spans t = {t[0]:g} to {t[-1]:g}; the config runs on [{res.t0:g}, "
                     f"{res.t_end:g}] in strictly increasing t")
    if mismatch:
        lines.append(f"settings differ from the config: {', '.join(mismatch)}")
    return payload, lines, passed


COMMANDS = {
    "simulate": cmd_simulate,
    "baseline": cmd_baseline,
    "gains": cmd_gains,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funnelmpc",
        description="Funnel-based receding-horizon output tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        if needs_out:
            p.add_argument("--out", default=".", help="output directory for artifacts")
        p.add_argument("--json", action="store_true", help="machine-readable summary")

    common(sub.add_parser("simulate", help="run the receding-horizon loop"))
    common(sub.add_parser("baseline", help="run the funnel feedback baseline"))
    common(sub.add_parser("gains", help="print derived chain quantities"), needs_out=False)
    p_verify = sub.add_parser("verify", help="re-check a trajectory CSV")
    p_verify.add_argument("log", help="trajectory CSV produced by simulate or baseline")
    common(p_verify, needs_out=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        res = ResolvedRun(_load_config(args.config))
        for warning in res.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        payload, lines, passed = COMMANDS[args.command](args, res)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuaranteeViolation as exc:
        print(exc, file=sys.stderr)
        return EXIT_GUARANTEE
    except (FunnelMpcError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if passed is not None:
            print("PASS" if passed else "FAIL")
    return EXIT_GUARANTEE if passed is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
