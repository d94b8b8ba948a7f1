"""Micro-benchmarks for the hot paths of the framework.

These pin the costs the complexity analysis of Section 5.2 talks about:
single-cluster score evaluation (two group-by queries), the Stage-2 score
tensor (O(k^|C|) global evaluations), and group-by count materialisation.

Two entry points:

* ``pytest benchmarks/bench_micro.py`` — pytest-benchmark timings of the
  batched engine path plus the scalar oracles it replaced;
* ``python benchmarks/bench_micro.py [--rows N --clusters C --out F]`` —
  standalone before/after comparison of Stage-1 + Stage-2 scoring that
  emits a JSON artifact (default ``BENCH_scoring.json``) recording the
  scalar-vs-batched speedup and the numerical agreement of the two paths,
  plus the cold counts build (row assignment and materialisation) that
  precedes scoring on a fresh clustering.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import (
    combination_score_tensor,
    combination_score_tensor_reference,
)
from repro.core.engine import ScoringEngine, scoring_engine
from repro.core.quality.scores import (
    Weights,
    single_cluster_scores_matrix,
    single_cluster_scores_matrix_reference,
)
from repro.core.select_candidates import select_candidates
from repro.experiments.common import fit_clustering, load_dataset
from repro.synth import diabetes_like

from bench_common import BENCH_ROWS


def _counts(n_clusters: int = 5) -> ClusteredCounts:
    data = load_dataset("Diabetes", BENCH_ROWS["Diabetes"], n_groups=n_clusters, seed=0)
    clustering = fit_clustering("k-means", data, n_clusters, rng=0)
    return ClusteredCounts(data, clustering)


def test_counts_materialisation(benchmark):
    data = load_dataset("Diabetes", BENCH_ROWS["Diabetes"], n_groups=5, seed=0)
    clustering = fit_clustering("k-means", data, 5, rng=0)

    def run():
        counts = ClusteredCounts(data, clustering)
        for name in counts.names:
            counts.by_cluster(name)
        return counts

    benchmark(run)


def test_score_matrix_all_attributes(benchmark):
    counts = _counts()

    def run():
        return single_cluster_scores_matrix(counts, 0.5, 0.5)

    out = benchmark(run)
    assert out.shape == (5, 47)


def test_score_matrix_scalar_reference(benchmark):
    """The pre-engine scalar double loop, kept for before/after comparison."""
    counts = _counts()

    def run():
        return single_cluster_scores_matrix_reference(counts, 0.5, 0.5)

    out = benchmark(run)
    assert out.shape == (5, 47)


def test_stage1_selection(benchmark):
    counts = _counts()
    benchmark(lambda: select_candidates(counts, (0.5, 0.5), 0.1, 3, rng=0))


def test_stage2_score_tensor(benchmark):
    counts = _counts()
    sets = tuple(tuple(counts.names[i : i + 3]) for i in range(0, 15, 3))

    def run():
        return combination_score_tensor(counts, sets, Weights())

    out = benchmark(run)
    assert out.shape == (3, 3, 3, 3, 3)


def test_stage2_score_tensor_scalar_reference(benchmark):
    counts = _counts()
    sets = tuple(tuple(counts.names[i : i + 3]) for i in range(0, 15, 3))

    def run():
        return combination_score_tensor_reference(counts, sets, Weights())

    out = benchmark(run)
    assert out.shape == (3, 3, 3, 3, 3)


# --------------------------------------------------------------------------- #
# standalone before/after harness (JSON artifact)
# --------------------------------------------------------------------------- #


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_scoring_bench(
    n_rows: int = 50_000,
    n_clusters: int = 8,
    k: int = 3,
    repeats: int = 9,
) -> dict:
    """Compare scalar-oracle vs batched-engine Stage-1 + Stage-2 scoring.

    Both paths consume the same materialised group-by counts (shared by the
    two implementations in the seed as well), so the numbers isolate pure
    scoring cost:

    * ``scalar_s`` — per-run cost of the pre-engine implementation: the
      scalar ``Score_gamma`` double loop plus the scalar-leaf Stage-2
      tensor.  The seed recomputed these on every explain.
    * ``batched_cold_s`` — a fresh :class:`ScoringEngine` per run (first
      explain on a clustering): kernel matrices are rebuilt each time.
    * ``batched_s`` — the production path (``scoring_engine`` memoised per
      counts provider, as ``DPClustX.select_combination`` and every baseline
      use it): kernel matrices are shared across runs, which is the standard
      experiment loop (``n_runs`` repeats on one clustering).

    ``counts_build_s`` is the median cold ``ClusteredCounts(data,
    clustering)`` plus ``materialise()``: nearest-center assignment of
    every row and the per-attribute group-bys, the work a fresh clustering
    pays before any scoring.
    """
    weights = Weights()
    data = diabetes_like(n_rows=n_rows, n_groups=n_clusters, seed=0)
    clustering = fit_clustering("k-means", data, n_clusters, rng=0)
    counts = ClusteredCounts(data, clustering)
    for name in counts.names:  # both paths share materialised group-bys
        counts.by_cluster(name)
    gamma = weights.gamma()
    rng = np.random.default_rng(0)
    sets = tuple(
        tuple(rng.choice(counts.names, size=k, replace=False))
        for _ in range(n_clusters)
    )

    def scalar_run():
        m = single_cluster_scores_matrix_reference(counts, *gamma)
        t = combination_score_tensor_reference(counts, sets, weights)
        return m, t

    def batched_cold_run():
        engine = ScoringEngine(counts)
        m = engine.score_matrix(*gamma)
        t = engine.combination_score_tensor(sets, weights)
        return m, t

    def batched_run():
        engine = scoring_engine(counts)
        m = engine.score_matrix(*gamma)
        t = engine.combination_score_tensor(sets, weights)
        return m, t

    # Numerical agreement of the two paths (the engine's contract).
    m_ref, t_ref = scalar_run()
    m_fast, t_fast = batched_cold_run()
    stage1_diff = float(
        np.max(np.abs(m_fast - m_ref) / np.maximum(np.abs(m_ref), 1e-300))
    )
    stage2_diff = float(
        np.max(np.abs(t_fast - t_ref) / np.maximum(np.abs(t_ref), 1e-300))
    )

    scalar_s = _median_time(scalar_run, repeats)
    batched_cold_s = _median_time(batched_cold_run, repeats)
    batched_run()  # warm the memoised engine once
    batched_s = _median_time(batched_run, repeats)
    counts_build_s = _median_time(
        lambda: ClusteredCounts(data, clustering).materialise(), repeats
    )

    return {
        "benchmark": "stage1+stage2 scoring",
        "dataset": "diabetes_like",
        "rows": n_rows,
        "clusters": n_clusters,
        "n_candidates": k,
        "n_attributes": len(counts.names),
        "repeats": repeats,
        "scalar_s": scalar_s,
        "batched_cold_s": batched_cold_s,
        "batched_s": batched_s,
        "speedup_cold": scalar_s / batched_cold_s,
        "speedup": scalar_s / batched_s,
        "stage1_max_rel_diff": stage1_diff,
        "stage2_max_rel_diff": stage2_diff,
        "counts_build_s": counts_build_s,
    }


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--clusters", type=int, default=8)
    parser.add_argument("--candidates", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--out",
        default="BENCH_scoring.json",
        help="JSON artifact path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    result = run_scoring_bench(
        n_rows=args.rows,
        n_clusters=args.clusters,
        k=args.candidates,
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
