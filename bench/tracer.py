"""Spans and counters recorded around the package's calls in a traced run.

The tracer replaces functions and methods of the ``funnelmpc`` modules with
wrappers for the length of one traced iteration and restores them after.
Coarse calls (a solve, a rollout batch, an artifact write) are kept as spans
with name, start, end and parent.  Hot calls (the plant right-hand sides,
the feedback law, ``chain_matrix``) run hundreds of thousands of times, so
they are only aggregated, but they still charge their time to the enclosing
span.  Self time is a call's duration minus the time its children cover, so
the self times of all names sum to the duration of the outermost span.

A hook whose target no longer exists is skipped and reported as missing;
its metrics then read 0.  Three hooks target private names
(``ocp._Workspace.cost_batch``, ``ocp._fd_gradient``, ``mpc._shifted_warm_start``)
because the solver exposes no public boundary between its gradient and its
line search.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.stack = []  # open frames: [name, start, child seconds, span index, nearest span]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_parent = defaultdict(float)  # (name, parent name) -> seconds
        self.counts = defaultdict(int)
        self.missing = []
        self._restore = []

    def open(self, name: str, record: bool = True) -> list:
        parent = self.stack[-1] if self.stack else None
        nearest = parent[4] if parent is not None else -1
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, nearest])
        frame = [name, 0.0, 0.0, index, index if record else nearest]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child, index, _ = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            self.by_parent[(name, parent[0])] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, fn, name: str, record: bool, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks) -> None:
        for hook in hooks:
            bindings, original = _bindings(hook.target)
            if original is None:
                self.missing.append(hook.target)
                continue
            wrapped = self.wrap(original, hook.name, hook.record, hook.count)
            for owner, attr in bindings:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_sum(self) -> float:
        return sum(self.self_time.values())


def _bindings(target: str):
    """Every (owner, attribute) that holds the target, and the target itself.

    ``target`` is "module:function" or "module:Class.method".  A function is
    also replaced where other package modules imported it by name.
    """
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return [], None
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in vars(cls):
            return [], None
        return [(cls, attr)], vars(cls)[attr]
    original = getattr(module, path, None)
    if original is None:
        return [], None
    owners = []
    for name, mod in list(sys.modules.items()):
        if name == "funnelmpc" or name.startswith("funnelmpc."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    owners.append((mod, attr))
    return owners, original


class Hook:
    def __init__(self, name: str, target: str, record: bool = True, count=None):
        self.name = name
        self.target = target
        self.record = record
        self.count = count


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_rollout(tracer, args, kwargs, result):
    values = _arg(args, kwargs, 1, "values")
    step, h = _arg(args, kwargs, 2, "step"), _arg(args, kwargs, 3, "h")
    tracer.counts["sim.rollout_members"] += int(values.shape[0])
    tracer.counts["sim.rk4_steps"] += int(values.shape[1]) * round(step / h)


def _count_span_steps(span_index: int, step_index: int, step_key: str):
    def count(tracer, args, kwargs, result):
        t0, t1 = _arg(args, kwargs, span_index, "t_span")
        h = _arg(args, kwargs, step_index, step_key)
        tracer.counts["sim.rk4_steps"] += round((t1 - t0) / h)

    return count


def _count_solve(tracer, args, kwargs, result):
    tracer.counts["ocp.iterations"] += result.iterations
    tracer.counts["ocp.evaluations"] += result.evaluations
    tracer.counts["ocp.status." + result.status] += 1


def _count_cost_batch(tracer, args, kwargs, result):
    width = _arg(args, kwargs, 1, "values").shape[0]
    if tracer.inside("ocp.gradient"):
        tracer.counts["ocp.gradient_batches"] += 1
    elif width > 1:
        tracer.counts["ocp.linesearch_batches"] += 1


def _count_cycles(tracer, args, kwargs, result):
    tracer.counts["mpc.cycles"] += len(result.records)


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["logio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = [
    Hook("cli.resolve", "funnelmpc.cli:ResolvedRun"),
    Hook("funnel.select_gains", "funnelmpc.funnel:select_gains"),
    Hook("funnel.build_chain", "funnelmpc.funnel:build_funnel_chain"),
    Hook("funnel.class_g", "funnelmpc.funnel:class_g_check"),
    Hook("errchain.chain_matrix", "funnelmpc.errchain:chain_matrix", record=False),
    Hook("systems.rhs", "funnelmpc.sim:StateSpacePlant.rhs", record=False),
    Hook("systems.rhs", "funnelmpc.sim:NormalFormPlant.rhs", record=False),
    Hook("systems.rhs_batch", "funnelmpc.sim:StateSpacePlant.rhs_batch", record=False),
    Hook("systems.rhs_batch", "funnelmpc.sim:NormalFormPlant.rhs_batch", record=False),
    Hook("systems.yr_parts", "funnelmpc.sim:StateSpacePlant.yr_parts", record=False),
    Hook("systems.yr_parts", "funnelmpc.sim:NormalFormPlant.yr_parts", record=False),
    Hook("sim.feedback_law", "funnelmpc.sim:FeedbackLaw.__call__", record=False),
    Hook("sim.rollout_batch", "funnelmpc.sim:rollout_jets_batch", count=_count_rollout),
    Hook("sim.open_loop", "funnelmpc.sim:integrate_open_loop", count=_count_span_steps(2, 3, "h")),
    Hook("sim.feedback_rollout", "funnelmpc.sim:feedback_rollout",
         count=_count_span_steps(4, 5, "h")),
    Hook("sim.zoh_feedback", "funnelmpc.sim:zoh_feedback_rollout"),
    Hook("ocp.solve", "funnelmpc.ocp:solve_ocp", count=_count_solve),
    Hook("ocp.gradient", "funnelmpc.ocp:_fd_gradient"),
    Hook("ocp.cost_batch", "funnelmpc.ocp:_Workspace.cost_batch", count=_count_cost_batch),
    Hook("mpc.run", "funnelmpc.mpc:run_fmpc", count=_count_cycles),
    Hook("mpc.warm_start", "funnelmpc.mpc:_shifted_warm_start"),
    Hook("mpc.verify", "funnelmpc.mpc:verify_guarantees"),
    Hook("logio.table", "funnelmpc.logio:closed_loop_table"),
    Hook("logio.write", "funnelmpc.logio:write_trajectory_csv", count=_count_bytes),
    Hook("logio.write", "funnelmpc.logio:write_records_csv", count=_count_bytes),
    Hook("logio.write", "funnelmpc.logio:write_closed_loop_svg", count=_count_bytes),
]


def _per_call(tracer: Tracer, name: str, scale: float) -> float:
    calls = tracer.calls[name]
    return scale * tracer.total[name] / calls if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced iteration (plus its traced set-up)."""
    t, c = tracer, tracer.counts
    solves = t.calls["ocp.solve"]
    runs = t.calls["mpc.run"]
    linesearch = c["ocp.linesearch_batches"]
    return {
        "cli.resolve_ms": _per_call(t, "cli.resolve", 1e3),
        "funnel.select_gains_ms": _per_call(t, "funnel.select_gains", 1e3),
        "funnel.build_chain_ms": _per_call(t, "funnel.build_chain", 1e3),
        "funnel.class_g_ms": _per_call(t, "funnel.class_g", 1e3),
        "errchain.chain_matrix_calls": t.calls["errchain.chain_matrix"],
        "systems.rhs_batch_calls": t.calls["systems.rhs_batch"],
        "systems.rhs_batch_us": _per_call(t, "systems.rhs_batch", 1e6),
        "systems.rhs_calls": t.calls["systems.rhs"],
        "systems.rhs_us": _per_call(t, "systems.rhs", 1e6),
        "systems.yr_parts_calls": t.calls["systems.yr_parts"],
        "sim.rollout_batches": t.calls["sim.rollout_batch"],
        "sim.rollout_members": c["sim.rollout_members"],
        "sim.rk4_steps": c["sim.rk4_steps"],
        "sim.rollout_batch_ms": _per_call(t, "sim.rollout_batch", 1e3),
        "sim.open_loop_calls": t.calls["sim.open_loop"],
        "sim.open_loop_s": t.total["sim.open_loop"],
        "sim.feedback_law_calls": t.calls["sim.feedback_law"],
        "sim.feedback_law_us": _per_call(t, "sim.feedback_law", 1e6),
        "sim.zoh_feedback_s": t.total["sim.zoh_feedback"],
        "ocp.solves": solves,
        "ocp.solve_self_ms": _ratio(1e3 * t.self_time["ocp.solve"], solves),
        "ocp.iterations_per_solve": _ratio(c["ocp.iterations"], solves),
        "ocp.evaluations_per_solve": _ratio(c["ocp.evaluations"], solves),
        "ocp.gradient_batches": c["ocp.gradient_batches"],
        "ocp.linesearch_batches": linesearch,
        "ocp.linesearch_accept_ratio": _ratio(c["ocp.iterations"], linesearch),
        "ocp.converged_share": _ratio(c["ocp.status.converged"], solves),
        "ocp.budget_share": _ratio(c["ocp.status.budget-exhausted"], solves),
        "ocp.recovered_share": _ratio(c["ocp.status.infeasible-start-recovered"], solves),
        "mpc.cycles": c["mpc.cycles"],
        "mpc.cycle_ms": _ratio(1e3 * t.total["mpc.run"], c["mpc.cycles"]),
        "mpc.self_ms": _ratio(1e3 * t.self_time["mpc.run"], runs),
        "mpc.apply_s": _ratio(t.by_parent[("sim.open_loop", "mpc.run")], runs),
        "mpc.warm_start_s": _ratio(t.total["mpc.warm_start"], runs),
        "logio.table_s": t.total["logio.table"],
        "logio.write_s": t.total["logio.write"],
        "logio.bytes_written": c["logio.bytes_written"],
    }
