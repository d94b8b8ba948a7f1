"""Scale experiment: how the DP-vs-non-private gap closes with dataset size.

Not a paper figure, but the quantitative backbone of this reproduction's
scale disclaimer (EXPERIMENTS.md): our stand-in datasets run at ~25k rows
versus the paper's 102k-2.46M, and every low-sensitivity score scales with
|D_c| while the selection noise is constant — so the Quality gap at fixed
epsilon must shrink as rows grow.  This harness measures exactly that:
DPClustX's relative Quality (vs TabEE on the same counts) across dataset
sizes at the default selection budget.

Run: ``python -m repro.experiments.scale`` (or ``python -m repro scale``)
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from ..baselines.tabee import TabEE
from ..core.counts import ClusteredCounts, StreamedCounts, StreamingCountsBuilder
from ..core.dpclustx import DPClustX
from ..core.quality.scores import Weights
from ..dataset.schema import Schema
from ..dataset.table import CODE_DTYPE, Dataset, chunk_spans
from ..evaluation.quality import QualityEvaluator
from ..evaluation.runner import format_results_table
from ..evaluation.sweeps import select_batched
from ..privacy.budget import ExplanationBudget
from ..privacy.rng import ensure_rng, spawn
from .common import ExperimentConfig, fit_clustering, load_dataset

COLUMNS = ("dataset", "n_rows", "avg_cluster", "quality_dp", "quality_tabee", "ratio")
ROW_GRID = (5_000, 10_000, 25_000, 60_000)
DEFAULT_EPS = 0.1  # the regime where Figure 5 shows the visible gap


# --------------------------------------------------------------------------- #
# chunked synthetic source for the large-n (1M-10M row) regime
# --------------------------------------------------------------------------- #

# Domain sizes cycled across attributes — mixed power-of-two classes so the
# resulting stack exercises several buckets, like the real datasets do.
_DOMAIN_CYCLE = (8, 12, 6, 16, 10, 5, 20, 9, 14, 7, 11)


def _peaked(m: int, peak: int, sharpness: float = 2.5) -> np.ndarray:
    """A unimodal categorical distribution over ``m`` values peaked at ``peak``."""
    x = np.arange(m, dtype=np.float64)
    w = 1.0 / (1.0 + np.abs(x - peak)) ** sharpness
    return w / w.sum()


@dataclass(frozen=True)
class ChunkedPlantedSource:
    """Deterministic planted-cluster rows generated chunk by chunk.

    The large-n counterpart of :mod:`repro.synth`: every row carries a
    planted group label and per-attribute values drawn from group-peaked
    categorical distributions, but rows are *generated* in fixed-size chunks
    so the 10M-row benchmarks never hold the full table — feed
    :meth:`chunks` straight into a
    :class:`~repro.core.counts.StreamingCountsBuilder`.

    Determinism: row ``i`` is a pure function of ``(seed, i)``.  Each row
    consumes a fixed, 4-aligned number of Philox draws, and each chunk
    resumes the counter at ``start * draws_per_row`` via
    ``Philox.advance`` — so the generated stream is *identical for every
    chunking*, not just for the default ``chunk_rows``.
    """

    n_rows: int
    n_attributes: int = 11
    n_groups: int = 8
    seed: int = 0
    chunk_rows: int = 262_144

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if not 1 <= self.n_attributes:
            raise ValueError("need at least one attribute")
        if self.n_groups < 1:
            raise ValueError("need at least one group")

    @cached_property
    def schema(self) -> Schema:
        sizes = [
            _DOMAIN_CYCLE[j % len(_DOMAIN_CYCLE)] for j in range(self.n_attributes)
        ]
        return Schema.from_domains(
            {
                f"a{j}": tuple(f"v{v}" for v in range(m))
                for j, m in enumerate(sizes)
            }
        )

    @cached_property
    def _cdfs(self) -> tuple[np.ndarray, ...]:
        """Per-attribute ``(n_groups, m_j)`` CDF tables of the planted mixture."""
        cdfs = []
        for j, attr in enumerate(self.schema):
            m = attr.domain_size
            probs = np.stack(
                [_peaked(m, (g * (j + 3)) % m) for g in range(self.n_groups)]
            )
            cdfs.append(np.cumsum(probs, axis=1))
        return tuple(cdfs)

    @property
    def _draws_per_row(self) -> int:
        # 1 label word + 1 word per attribute, padded up to a multiple of 4:
        # Philox.advance() moves in 4-draw counter blocks, so a 4-aligned row
        # width is what makes mid-stream chunk starts land exactly.
        return -(-(self.n_attributes + 1) // 4) * 4

    def _generate_span(
        self, span: slice
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        length = span.stop - span.start
        bit_gen = np.random.Philox(key=self.seed)
        bit_gen.advance(span.start * self._draws_per_row // 4)
        u = np.random.Generator(bit_gen).random((length, self._draws_per_row))
        labels = np.minimum(
            (u[:, 0] * self.n_groups).astype(np.int64), self.n_groups - 1
        )
        columns: dict[str, np.ndarray] = {}
        for j, attr in enumerate(self.schema):
            cdf = self._cdfs[j]
            codes = np.empty(length, dtype=CODE_DTYPE)
            for g in range(self.n_groups):
                mask = labels == g
                codes[mask] = np.searchsorted(cdf[g], u[mask, j + 1], side="right")
            np.minimum(codes, attr.domain_size - 1, out=codes)
            columns[attr.name] = codes
        return columns, labels

    def chunks(
        self, chunk_rows: int | None = None
    ) -> Iterator[tuple[Mapping[str, np.ndarray], np.ndarray]]:
        """Yield ``(columns, labels)`` chunks covering all ``n_rows``."""
        for span in chunk_spans(self.n_rows, chunk_rows or self.chunk_rows):
            yield self._generate_span(span)

    def counts(self, chunk_rows: int | None = None) -> StreamedCounts:
        """Stream-materialise the exact planted-group counts (bounded memory)."""
        builder = StreamingCountsBuilder(self.schema, self.n_groups)
        for columns, labels in self.chunks(chunk_rows):
            builder.add_chunk(columns, labels)
        return builder.finalise()

    def dataset(self) -> tuple[Dataset, np.ndarray]:
        """The full in-RAM ``(Dataset, labels)`` — small ``n_rows`` only."""
        column_parts: dict[str, list[np.ndarray]] = {
            n: [] for n in self.schema.names
        }
        label_parts: list[np.ndarray] = []
        for columns, labels in self.chunks():
            for name in self.schema.names:
                column_parts[name].append(columns[name])
            label_parts.append(labels)
        columns = {
            n: np.concatenate(parts) if parts else np.empty(0, dtype=CODE_DTYPE)
            for n, parts in column_parts.items()
        }
        labels = (
            np.concatenate(label_parts) if label_parts else np.empty(0, np.int64)
        )
        return Dataset(self.schema, columns), labels


def streaming_materialise_stats(
    n_rows: int,
    n_attributes: int = 11,
    n_groups: int = 8,
    seed: int = 0,
    chunk_rows: int = 262_144,
) -> dict:
    """Stream-materialise ``n_rows`` planted rows and describe the result.

    Importable by name so benchmark harnesses can run it inside a fresh
    spawn child whose ``ru_maxrss`` high-water mark isolates this one
    materialisation.
    """
    source = ChunkedPlantedSource(
        n_rows=n_rows,
        n_attributes=n_attributes,
        n_groups=n_groups,
        seed=seed,
        chunk_rows=chunk_rows,
    )
    counts = source.counts()
    return {
        "rows": int(counts.n),
        "n_attributes": n_attributes,
        "n_clusters": n_groups,
        "chunk_rows": chunk_rows,
        "signature": counts.signature()[:16],
    }


def attach_and_score_stats(handle, gamma: tuple[float, float] = (0.5, 0.5)) -> dict:
    """One sweep worker's task body: attach to a shared stack and score it.

    Mirrors what a ``run_grid`` worker does under the shared-stack handoff —
    attach, build an engine, evaluate the Stage-1 matrix — and reports the
    time spent, so the fan-out benchmark can compare per-task cost across
    dataset sizes (it must be flat: nothing here depends on ``|D|``).
    """
    import time

    from ..core.engine import ScoringEngine, attach_counts

    t0 = time.perf_counter()
    counts = attach_counts(handle)
    try:
        engine = ScoringEngine(counts)
        matrix = engine.score_matrix(*gamma)
        elapsed = time.perf_counter() - t0
        return {
            "task_s": elapsed,
            "n_attributes": int(matrix.shape[1]),
            "n_clusters": int(matrix.shape[0]),
        }
    finally:
        counts.close()


def run(
    config: ExperimentConfig | None = None,
    row_grid: tuple[int, ...] = ROW_GRID,
    eps: float = DEFAULT_EPS,
) -> list[dict]:
    """Relative DPClustX quality per dataset size."""
    config = config or ExperimentConfig(datasets=("Diabetes",), methods=("k-means",))
    rows: list[dict] = []
    budget = ExplanationBudget.split_selection(eps)
    for dataset_name in config.datasets:
        for n_rows in row_grid:
            data = load_dataset(
                dataset_name, n_rows, n_groups=config.n_clusters, seed=config.seed
            )
            clustering = fit_clustering(
                "k-means", data, config.n_clusters, config.seed
            )
            counts = ClusteredCounts(data, clustering)
            evaluator = QualityEvaluator(counts, Weights(), 0)
            ref = TabEE(config.n_candidates).select_combination(counts, 0)
            q_ref = evaluator.quality(tuple(ref))
            explainer = DPClustX(config.n_candidates, budget=budget)
            gen = ensure_rng(config.seed)
            # All seeds in one batched pass (stream-identical to the
            # serial per-seed select_combination loop).
            combos = select_batched(
                explainer, counts, spawn(gen, config.n_runs)
            )
            qs = [evaluator.quality(tuple(c)) for c in combos]
            q_dp = float(np.mean(qs))
            rows.append(
                {
                    "dataset": dataset_name,
                    "n_rows": n_rows,
                    "avg_cluster": float(counts.sizes().mean()),
                    "quality_dp": q_dp,
                    "quality_tabee": q_ref,
                    "ratio": q_dp / q_ref if q_ref else 0.0,
                }
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS)
    args = parser.parse_args()
    config = ExperimentConfig(
        n_runs=args.runs, datasets=("Diabetes",), methods=("k-means",)
    )
    rows = run(config, eps=args.eps)
    print(f"Scale experiment — DPClustX/TabEE quality ratio at eps = {args.eps}")
    print(format_results_table(rows, COLUMNS))


if __name__ == "__main__":
    main()
