"""Before/after benchmark of the batched sweep-execution layer.

Measures a full ``run_trials`` sweep — 10 seeds x the 5-point log-spaced
epsilon grid of Figure 5, all four explainers — on diabetes_like(20k) with
5 k-means clusters, comparing:

* ``serial_s`` — :func:`repro.evaluation.runner.run_trials_serial`, the
  seed repo's one-seed-at-a-time loop (each seed re-enters the explainers);
* ``batched_s`` — :func:`repro.evaluation.sweeps.run_trials_batched` with
  one shared :class:`SweepContext` per counts provider, exactly the
  production structure of ``run_grid``.

The two paths consume the same spawned child streams, so their results must
be *exactly* equal (``exact_equal`` in the artifact); ``scripts/ci.sh``
fails if the speedup regresses below 5x or the paths diverge.

The timing is paired: each repeat runs the serial sweep and then the batched
one, back to back, so both see the same host load.  ``speedup`` is the
median of the per-repeat ratios; ``serial_s`` and ``batched_s`` are the
medians of each side's times.

Entry points:

* ``pytest benchmarks/bench_sweeps.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_sweeps.py [--rows N --runs R --out F]`` —
  standalone comparison emitting the ``BENCH_sweeps.json`` artifact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.core.counts import ClusteredCounts
from repro.evaluation.runner import make_selectors, run_trials_serial
from repro.evaluation.sweeps import SweepContext, run_trials_batched
from repro.experiments.common import (
    DEFAULT_EPS_GRID,
    fit_clustering,
    load_dataset,
)

from bench_common import BENCH_ROWS


def _counts(n_rows: int, n_clusters: int) -> ClusteredCounts:
    data = load_dataset("Diabetes", n_rows, n_groups=n_clusters, seed=0)
    clustering = fit_clustering("k-means", data, n_clusters, rng=0)
    return ClusteredCounts(data, clustering)


def _sweep_serial(counts, eps_grid, n_runs, n_candidates=3, seed=0):
    return [
        run_trials_serial(
            counts, make_selectors(eps, n_candidates), n_runs, rng=seed
        )
        for eps in eps_grid
    ]


def _sweep_batched(counts, eps_grid, n_runs, n_candidates=3, seed=0):
    context = SweepContext(counts)
    return [
        run_trials_batched(
            counts,
            make_selectors(eps, n_candidates),
            n_runs,
            rng=seed,
            context=context,
        )
        for eps in eps_grid
    ]


def test_sweep_serial(benchmark):
    counts = _counts(BENCH_ROWS["Diabetes"], 5)
    benchmark(lambda: _sweep_serial(counts, DEFAULT_EPS_GRID, 10))


def test_sweep_batched(benchmark):
    counts = _counts(BENCH_ROWS["Diabetes"], 5)
    benchmark(lambda: _sweep_batched(counts, DEFAULT_EPS_GRID, 10))


# --------------------------------------------------------------------------- #
# standalone before/after harness (JSON artifact)
# --------------------------------------------------------------------------- #


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_sweep_bench(
    n_rows: int = 20_000,
    n_clusters: int = 5,
    n_runs: int = 10,
    repeats: int = 5,
) -> dict:
    """Serial vs batched full-sweep comparison plus the equality check."""
    counts = _counts(n_rows, n_clusters)
    eps_grid = DEFAULT_EPS_GRID

    serial_results = _sweep_serial(counts, eps_grid, n_runs)
    batched_results = _sweep_batched(counts, eps_grid, n_runs)
    exact_equal = serial_results == batched_results

    pairs = [
        (
            _timed(lambda: _sweep_serial(counts, eps_grid, n_runs)),
            _timed(lambda: _sweep_batched(counts, eps_grid, n_runs)),
        )
        for _ in range(repeats)
    ]
    serial_s = statistics.median(s for s, _ in pairs)
    batched_s = statistics.median(b for _, b in pairs)
    return {
        "benchmark": "run_trials sweep (4 explainers)",
        "dataset": "diabetes_like",
        "rows": n_rows,
        "clusters": n_clusters,
        "n_runs": n_runs,
        "eps_grid": list(eps_grid),
        "repeats": repeats,
        "serial_s": serial_s,
        "batched_s": batched_s,
        "speedup": statistics.median(s / b for s, b in pairs),
        "exact_equal": exact_equal,
    }


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out",
        default="BENCH_sweeps.json",
        help="JSON artifact path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    result = run_sweep_bench(
        n_rows=args.rows,
        n_clusters=args.clusters,
        n_runs=args.runs,
        repeats=args.repeats,
    )
    print(json.dumps(result, indent=2))
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result


if __name__ == "__main__":
    main()
