"""The repository benchmark: one command per workload, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hot-hits --seed 1 --seconds 12 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures one window of ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` measures an untraced window, then wraps each
layer's public functions and measures a traced window on the same set-up;
it prints the per-layer metrics, the ``unattributed_ms`` residual and the
tracing overhead.  Before the result, both modes print a report with every
metric the run measured (including ``error_rate``, ``epsilon_per_op`` and
the failures per class), one line each.  The last line of standard output
is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end times of CPU-bound windows are scaled to a reference speed
(:class:`harness.Pace`), because the host runs the same code up to 1.7×
slower from one second to the next; the raw figures, and the p90 and p99
latencies that stayed too noisy to gate on, are in the report.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.

Workloads (why each exists, what it bypasses, how it is driven; the host
this was tuned on has 2 CPUs):

* ``hot-hits`` — in-process service, on-disk journal, Diabetes-like 8k rows
  and 5 clusters; closed loop, 1 client; 16 tenants (zipf 1.1) × 8 seeds
  (zipf 1.2) warmed in set-up, so every request is a cache hit.  Isolates
  admission, cache lookup and envelope decode; bypasses ledger, journal and
  engine.
* ``cold-misses`` — the same service started with one worker thread; closed
  loop with 32 requests outstanding from one thread; every seed unique, so
  every request is a funded miss.  Exercises queue coalescing, ``spend``
  plus the journal fsync, ``explain_batched``, release and encode; the
  sharded hop is bypassed.
* ``sharded-open`` — a 2-worker ``ShardSupervisor`` behind ``AsyncFrontend``;
  open loop, Poisson arrivals at 200 requests/s; 16 tenants; 98% of requests
  hit one of 64 zipf seeds warmed in set-up, 2% bring a fresh seed (funded
  misses).  The only workload crossing the frontend's 2 ms coalescing
  window, the frame transport and the worker processes; latency is timed
  from each request's due time, and a run whose generator fell behind is
  marked failed.
* ``explain-cold`` — serial ``DPClustX.explain`` over fresh
  ``ClusteredCounts`` on Diabetes-like 50k rows and 8 clusters, one distinct
  seed per op (the paper's Fig. 9 shape); closed loop, 1 client.  Counts
  materialisation and the scoring kernels run cold; the service is bypassed.
* ``lint-src`` — ``lint_paths([corpus], engine="all")`` over ``src/repro`` frozen
  at commit df671ee (``corpus/``); closed loop, 1 client.  The only workload
  running ``analysis/``; everything else is bypassed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  Times are a layer's
#: inclusive time per op unless the name says otherwise; a layer a
#: workload never reaches reads 0.
PER_LAYER = {
    "service.admission.validated_us": "us",
    "service.admission.lookup_us": "us",
    "service.cache.get_us": "us",
    "service.cache.entry_payload_us": "us",
    "service.cache.hit_ratio": "ratio",
    "service.envelope.encode_us": "us",
    "service.queue.batch_size": "count",
    "service.queue.batch_size_untraced": "count",
    "service.queue.wait_ms": "ms",
    "privacy.budget.spend_us": "us",
    "privacy.budget.epsilon_per_op": "epsilon",
    "service.journal.record_us": "us",
    "service.journal.fsyncs_per_op": "count",
    "evaluation.sweeps.explain_batched_ms": "ms",
    "evaluation.sweeps.seeds_per_call": "count",
    "core.dpclustx.release_histograms_us": "us",
    "core.dpclustx.select_combination_ms": "ms",
    "core.counts.build_ms": "ms",
    "core.counts.materialise_ms": "ms",
    "core.engine.score_matrix_ms": "ms",
    "core.engine.combination_score_tensor_ms": "ms",
    "service.frontend.queue_ms": "ms",
    "service.frontend.coalesce_window_ms": "ms",
    "service.frontend.batch_size": "count",
    "service.transport.frame_rtt_ms": "ms",
    "service.transport.frames_per_op": "count",
    "service.supervisor.respawns": "count",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.lateness_max_ms": "ms",
    "analysis.loader.load_ms": "ms",
    "analysis.callgraph.build_ms": "ms",
    "analysis.callgraph.edges": "count",
    "analysis.rules.ast_ms": "ms",
    "analysis.rules.flow_ms": "ms",
    "unattributed_ms": "ms",
    "tracing.overhead_ratio": "ratio",
}


def _import_workloads():
    """Import the workloads against this checkout's ``src/`` (or fail)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no program sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's tracker process, if shared memory started one."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _unattributed_ms(window, tracer) -> float:
    """Per-op end-to-end time not covered by any traced layer's self time."""
    totals = tracer.layer_totals()
    self_s = sum(cell["self_s"] for cell in totals.values())
    return (window.e2e_per_op_s - self_s / max(1, window.attempted)) * 1e3


def _unit(key: str) -> str:
    """The unit a report field's name implies."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"),
                         ("per_s", "1/s"), ("_s", "s"), ("epsilon_per_op", "epsilon")):
        if key.endswith(suffix):
            return unit
    return PER_LAYER.get(key, "")


def _print_report(name: str, mode: str, fields: dict) -> None:
    for key, value in fields.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"[{name} {mode}] {key}: {value} {_unit(key)}".rstrip())


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = _import_workloads()
    from harness import Pace, Tracer

    cls = workloads.WORKLOADS[name]
    setup_times = []  # (raw seconds, pace factor) per set-up
    for i in range(SETUP_REPEATS):
        workload = cls(seed)
        pace = Pace()
        pace.sample(5)
        t0 = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        elapsed = time.perf_counter() - t0
        pace.sample(5)
        setup_times.append((elapsed, pace.factor))
        if i < SETUP_REPEATS - 1:
            workload.close()
    tracer = None
    try:
        plain = workload.run(seconds, None)
        workload.verify(plain)
        windows = [plain]
        if trace:
            tracer = Tracer()
            workload.instrument(tracer)
            try:
                traced = workload.run(seconds, tracer)
            finally:
                tracer.restore()
            workload.verify(traced)
            windows.append(traced)
        layers = workload.layers(windows[-1], tracer)
        plain_layers = workload.layers(plain, None)
    finally:
        workload.close()
        _stop_resource_tracker()
        try:
            os.rmdir(workloads.WORK_DIR)
        except OSError:
            pass  # absent, or still holding another run's files

    summary = plain.summary()
    report = {
        "setup_s": statistics.median(t * k for t, k in setup_times),
        "raw_setup_runs_s": [round(t, 4) for t, _ in setup_times],
        **summary,
        "epsilon_per_op": plain_layers.get("privacy.budget.epsilon_per_op", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpus": os.cpu_count(),
        "failures": dict(plain.errors) or "none",
    }
    if "late_p99_s" in plain.extra:
        report["loadgen_lateness_p99_ms"] = plain.extra["late_p99_s"] * 1e3
        report["loadgen_lateness_max_ms"] = plain.extra["late_max_s"] * 1e3
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    if trace:
        traced = windows[-1]
        metrics = {key: 0.0 for key in PER_LAYER}
        metrics.update(layers)
        metrics["service.queue.batch_size_untraced"] = plain_layers.get(
            "service.queue.batch_size", 0.0
        )
        if "unattributed_ms" not in layers:
            metrics["unattributed_ms"] = _unattributed_ms(traced, tracer)
        # Raw times on both sides (a traced window is not pace-scaled), so
        # host speed drift between the two windows shows up here too.
        metrics["tracing.overhead_ratio"] = traced.e2e_per_op_s / plain.e2e_per_op_s
        report.update({
            "traced_ops": traced.attempted,
            "traced_failures": dict(traced.errors) or "none",
        })
        units = PER_LAYER
    else:
        metrics = {key: report[key] for key in END_TO_END}
        units = END_TO_END
    _print_report(name, "trace" if trace else "e2e", report)
    if trace:
        _print_report(name, "layer", metrics)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": units[key]} for key in units
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot-hits", "cold-misses", "sharded-open",
                                 "explain-cold", "lint-src"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing: set and dict iteration orders, and with them
        # the work done by order-dependent passes, repeat from run to run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    os.chdir(ROOT)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
