"""Benchmark harness for funnelmpc.

Run from the repository root:

    python3 bench/run.py --workload showcase --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all

One process runs one workload as a closed loop: each iteration starts after
the previous one finished, until ``--seconds`` are used (at least three
iterations; each is also compared with the first, its rerun).  Every
iteration passes the correctness gate or counts as failed.  With
``--trace 0`` the last line of output holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the run adds one traced iteration and the
layer microbenchmarks, and the last line holds the per-layer metrics.  The
exit status is 0 only if every iteration passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# one BLAS/OpenMP thread: the load is generated by this process alone
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# set-ups before each untraced iteration, so the samples span the run
SETUP_REPS = 10
# Time of workloads.reference_kernel() on the machine the benchmark was tuned
# on; wall_s and setup_s are rescaled to this speed.
REFERENCE_S = 0.004
# untraced iterations of a run: the median needs three, and every one after
# the first is also the rerun check of the first
MIN_ITERATIONS = 3
# a traced iteration runs slower than an untraced one by about this factor
TRACE_SLOWDOWN = 1.5
MICRO_SECONDS = 1.5


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank percentile, or NaN unless at least ten samples lie above it."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if rank < 1 or n - rank < 10:
        return math.nan
    return sorted(samples)[rank - 1]


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
        "commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


class SolveClock:
    """Times every solve_ocp and ends a piece of the timed section around it.

    The durations are the OCP time samples.  A reference kernel runs at each
    mark, a few ms against 0.1 s or more per solve, and is excluded from the
    timed seconds.
    """

    def __init__(self, mpc_module):
        self.module = mpc_module
        self.region = None
        self.samples = []

    def __enter__(self):
        self.original = getattr(self.module, "solve_ocp", None)
        if self.original is not None:
            original, clock = self.original, self

            def timed(*args, **kwargs):
                clock.region.mark()
                start = time.perf_counter()
                result = original(*args, **kwargs)
                clock.samples.append(time.perf_counter() - start)
                clock.region.mark()
                return result

            self.module.solve_ocp = timed
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            self.module.solve_ocp = self.original
        return False


def scaled_seconds(region) -> float:
    """Seconds of the region's work at the reference speed.

    Each piece is rescaled by the reference kernel's time around it (the mean
    of the runs right before and right after), so a spell in which other
    load slows the machine slows piece and kernel alike and cancels out.
    """
    total, before = 0.0, region.before
    for seconds, after in region.pieces:
        total += seconds * REFERENCE_S / (0.5 * (before + after))
        before = after
    return total


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Run:
    """One run of one workload: set-ups, iterations through the gate, metrics."""

    def __init__(self, workloads, wl, work: str, clock: SolveClock):
        self.workloads = workloads
        self.wl = wl
        self.work = work
        self.clock = clock
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.margins = []
        self.costs = []
        self.regions = []
        self.setup_raw = []
        self.setup_scaled = []
        self.reference = []

    def set_up(self):
        """Times SETUP_REPS set-ups, each between two reference kernel runs."""
        kernel = self.workloads.reference_kernel
        before = kernel()
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.wl.setup()
            self.setup_raw.append(time.perf_counter() - start)
            after = kernel()
            self.setup_scaled.append(self.setup_raw[-1] * REFERENCE_S / (0.5 * (before + after)))
            self.reference.append(after)
            before = after

    def iterate(self, region) -> bool:
        """One iteration through the correctness gate; False if it failed."""
        k = self.attempted
        self.attempted += 1
        self.clock.region = region
        out_dir = os.path.join(self.work, f"iter-{k}")
        try:
            outcome = self.wl.iterate(out_dir, region)
            problems, margin, costs, digest = self.workloads.gate(self.wl, outcome, self.digest)
        except Exception as exc:  # a raising iteration counts as failed
            traceback.print_exc()
            problems, margin, costs, digest = [f"{type(exc).__name__}: {exc}"], math.nan, [], None
        finally:
            self.workloads.clear(out_dir)
        if self.digest is None:
            self.digest = digest
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"iteration {k + 1}{' traced' if region.tracer else ''}: "
              f"{region.seconds:.4f} s {status}", flush=True)
        if problems:
            self.failed += 1
            return False
        self.margins.append(margin)
        self.costs += costs
        return True

    def loop(self, seconds: float, need: int, reserve_factor: float, reserve_s: float):
        """Untraced iterations until the next one (and the reserve) would overrun."""
        begin = time.perf_counter()
        with self.clock:
            while True:
                self.set_up()
                region = self.workloads.Region()
                if self.iterate(region):
                    self.regions.append(region)
                longest = max((r.seconds for r in self.regions),
                              default=time.perf_counter() - begin)
                reserve = longest * reserve_factor + reserve_s
                if self.failed >= need or (
                        self.attempted >= need
                        and time.perf_counter() - begin + longest + reserve > seconds):
                    return

    def metrics(self) -> dict:
        ocp_ms = [1e3 * s for s in self.clock.samples]
        p90 = tail_percentile(ocp_ms, 90)
        raw = [r.seconds for r in self.regions]
        return {
            "wall_s": statistics.median(map(scaled_seconds, self.regions)) if raw else math.nan,
            "setup_s": statistics.median(self.setup_scaled),
            "wall_raw_s": statistics.median(raw) if raw else math.nan,
            "setup_raw_s": statistics.median(self.setup_raw),
            "reference_ms": 1e3 * statistics.median(self.reference),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "min_margin": min(self.margins, default=math.nan),
            "ocp_ms_p50": statistics.median(ocp_ms) if ocp_ms else 0.0,
            "ocp_ms_p90": 0.0 if math.isnan(p90) else p90,
            "ocp_samples": len(ocp_ms),
            "ocp_cost_mean": statistics.fmean(self.costs) if self.costs else 0.0,
            "failed_share": self.failed / self.attempted if self.attempted else 1.0,
        }


def traced_layers(run: Run, tracing, workloads) -> dict:
    """Per-layer metrics: a traced set-up, a traced iteration, the microbenchmarks."""
    setup_tracer = tracing.Tracer()
    with workloads.Region(setup_tracer, tracing.HOOKS):
        run.wl.setup()
    tracer = tracing.Tracer()
    region = workloads.Region(tracer, tracing.HOOKS)
    run.iterate(region)
    layers = tracing.layer_metrics(tracer)
    setup_layers = tracing.layer_metrics(setup_tracer)
    for key in ("cli.resolve_ms", "funnel.select_gains_ms", "funnel.build_chain_ms",
                "funnel.class_g_ms"):
        layers[key] = setup_layers[key]
    micro, micro_missing = workloads.microbenchmarks()
    layers.update(micro)
    untraced = statistics.median(r.seconds for r in run.regions) if run.regions else math.nan
    layers["trace.overhead_s"] = region.seconds - untraced
    layers["src.loc"] = src_lines(ROOT)
    print(f"trace: {len(tracer.spans)} spans; self times sum to {tracer.self_sum():.4f} s "
          f"against {region.seconds:.4f} s traced and {untraced:.4f} s untraced")
    missing = tracer.missing + micro_missing
    if missing:
        print("trace: not offered by this version, reported as 0: " + ", ".join(missing))
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its metrics and result line, return the exit status."""
    import numpy

    import tracer as tracing
    import workloads
    from funnelmpc import mpc

    definition = load_definition()
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(environment(numpy.__version__), sort_keys=True))
    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = workloads.make(name, seed, work)
        print("config " + json.dumps(wl.cfg, sort_keys=True))
        run = Run(workloads, wl, work, SolveClock(mpc))
        if trace:
            # one untraced iteration at least, then room for the traced one
            run.loop(seconds, 1, TRACE_SLOWDOWN, MICRO_SECONDS)
            layers = traced_layers(run, tracing, workloads)
        else:
            run.loop(seconds, MIN_ITERATIONS, 0.0, 0.0)
            layers = {}
    finally:
        workloads.clear(work)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    measured = run.metrics()
    measured.update(layers)
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    for key, value in measured.items():
        print(f"metric {key} {value!r} {units.get(key, '')}".rstrip())
    wanted = definition["per_layer"] if trace else definition["end_to_end"]
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # a failed run may have nothing to report for a metric: null, not NaN
        "metrics": {m["name"]: {"value": measured[m["name"]] if math.isfinite(measured[m["name"]])
                                else None, "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    names = [w["name"] for w in load_definition()["workloads"]]
    parser = argparse.ArgumentParser(description="funnelmpc benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for var in PIN_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        code = 0
        for name in names:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "funnelmpc", "__init__.py")):
        print(f"funnelmpc source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import funnelmpc

    if not os.path.abspath(funnelmpc.__file__).startswith(src + os.sep):
        print(f"imported funnelmpc from {funnelmpc.__file__}, not {src}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
