"""Scale bench: quality at scale, plus the 10M-row memory/fan-out regime.

Two entry points:

* ``pytest benchmarks/bench_scale.py`` — the original quality-vs-rows bench:
  the DP-vs-non-private gap must close as rows grow (the quantitative
  backbone of EXPERIMENTS.md's scale disclaimer).
* ``python benchmarks/bench_scale.py [--out BENCH_scoring.json]`` — the
  large-n perf harness.  It measures, in fresh spawn children (clean
  ``ru_maxrss`` high-water marks):

  - **streaming materialise** at 1M and 10M rows: wall time and peak RSS of
    one-pass chunked counts construction over the deterministic
    :class:`~repro.experiments.scale.ChunkedPlantedSource` (the raw table is
    never held, so RSS must stay under a fixed budget);
  - **fan-out flatness**: per-task cost of a shared-stack sweep worker
    (attach + score) at 50k vs 1M rows — the shared-memory handoff makes it
    independent of ``|D|`` (ratio gated at 1.2 in CI).

  Results are merged into ``BENCH_scoring.json`` under the ``"scale"`` key.
"""

from __future__ import annotations

import argparse
import json

import repro.experiments.scale as scale
from repro.core.engine import share_stack
from repro.evaluation.runner import format_results_table
from repro.experiments.common import ExperimentConfig

from bench_common import merge_json_artifact, run_measured, show

_CFG = ExperimentConfig(datasets=("Diabetes",), methods=("k-means",), n_runs=4)


def test_gap_closes_with_scale(benchmark):
    rows = benchmark.pedantic(
        scale.run,
        args=(_CFG,),
        kwargs={"row_grid": (5_000, 20_000, 50_000)},
        rounds=1,
        iterations=1,
    )
    show("Scale — DPClustX/TabEE ratio vs rows", format_results_table(rows, scale.COLUMNS))
    ratios = {r["n_rows"]: r["ratio"] for r in rows}
    assert ratios[50_000] > ratios[5_000]
    assert ratios[50_000] > 0.9  # near-TabEE at scale, as the paper reports
    benchmark.extra_info["ratio_by_rows"] = ratios


# --------------------------------------------------------------------------- #
# standalone large-n harness (merges into BENCH_scoring.json)
# --------------------------------------------------------------------------- #

PEAK_RSS_BUDGET_MB = 600.0  # 10M-row streaming materialise must stay under this


def run_materialise_bench(row_counts: "tuple[int, ...]") -> list[dict]:
    """Streaming-materialise wall time + peak RSS per row count (spawn child)."""
    out = []
    for n_rows in row_counts:
        measured = run_measured(scale.streaming_materialise_stats, n_rows)
        out.append(
            {
                "rows": n_rows,
                "wall_s": measured["wall_s"],
                "peak_rss_mb": measured["peak_rss_mb"],
                "baseline_rss_mb": measured["baseline_rss_mb"],
                **{
                    k: measured["result"][k]
                    for k in ("n_attributes", "n_clusters", "chunk_rows", "signature")
                },
            }
        )
    return out


def run_fanout_bench(rows_small: int, rows_large: int) -> dict:
    """Per-task sweep cost under the shared-stack handoff, by size.

    The parent materialises counts once per size and shares the stack; a
    fresh spawn child then plays one pool worker (attach + Stage-1 score)
    and reports its task time.
    """
    result: dict = {"rows_small": rows_small, "rows_large": rows_large}
    for tag, n_rows in (("small", rows_small), ("large", rows_large)):
        counts = scale.ChunkedPlantedSource(n_rows=n_rows).counts()
        seg = share_stack(counts.by_cluster_stack())
        try:
            measured = run_measured(scale.attach_and_score_stats, seg.handle)
            result[f"shared_per_task_{tag}_s"] = measured["result"]["task_s"]
        finally:
            seg.close()
            seg.unlink()
    result["shared_ratio"] = (
        result["shared_per_task_large_s"] / result["shared_per_task_small_s"]
    )
    return result


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rows",
        type=int,
        nargs="+",
        default=[1_000_000, 10_000_000],
        help="row counts for the streaming-materialise measurements",
    )
    parser.add_argument("--fanout-small", type=int, default=50_000)
    parser.add_argument("--fanout-large", type=int, default=1_000_000)
    parser.add_argument(
        "--out",
        default="BENCH_scoring.json",
        help="JSON artifact to merge the scale section into ('-' to skip)",
    )
    args = parser.parse_args(argv)

    section = {
        "peak_rss_budget_mb": PEAK_RSS_BUDGET_MB,
        "materialise": run_materialise_bench(tuple(args.rows)),
        "fanout": run_fanout_bench(args.fanout_small, args.fanout_large),
    }
    print(json.dumps({"scale": section}, indent=2))
    if args.out != "-":
        merge_json_artifact(args.out, {"scale": section})
    return section


if __name__ == "__main__":
    main()
