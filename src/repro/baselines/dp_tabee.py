"""DP-TabEE — the direct DP adaptation of TabEE (Section 6.1).

Uses the *original, sensitive* quality functions for both stages, "but
injects the required noise to satisfy DP, according to Theorem 2.10 and the
sensitivity of the quality functions (Propositions 4.1 and 4.5)".  Those
propositions lower-bound the sensitivity by 1/2; since the scores have range
[0, 1] their sensitivity is at most 1, and we calibrate noise to that valid
upper bound.  Relative to the tiny [0, 1] score range this noise is huge —
which is precisely the failure mode the paper demonstrates (DP-TabEE stays
flat across the whole swept epsilon range, Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..clustering.base import ClusteringFunction
from ..core.counts import ClusteredCounts, CountsProvider
from ..core.dpclustx import release_cluster_histograms
from ..core.hbe import AttributeCombination, GlobalExplanation
from ..core.engine import scoring_engine
from ..core.quality.scores import SENSITIVE_SCORE_SENSITIVITY, Weights
from ..core.select_candidates import draw_candidate_sets, pick_combinations
from ..dataset.table import Dataset
from ..evaluation.quality import QualityEvaluator
from ..privacy.budget import ExplanationBudget, PrivacyAccountant
from ..privacy.histograms import GeometricHistogram, HistogramMechanism
from ..privacy.rng import ensure_rng


@dataclass(frozen=True)
class DPTabEE:
    """TabEE with EM/Top-k noise calibrated to the sensitive scores."""

    n_candidates: int = 3
    weights: Weights = field(default_factory=Weights)
    budget: ExplanationBudget = field(default_factory=ExplanationBudget)
    histogram_mechanism: HistogramMechanism = field(
        default_factory=lambda: GeometricHistogram(1.0)
    )

    def select_combinations(
        self,
        counts: CountsProvider,
        gens: "Sequence[np.random.Generator]",
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
        scorer: "Callable[[tuple[tuple[str, ...], ...]], np.ndarray] | None" = None,
    ) -> "list[AttributeCombination]":
        """Noisy Stage-1 + noisy Stage-2 over the sensitive quality functions,
        once per generator in ``gens``.

        ``scorer`` maps one generator's candidate sets to the flat sensitive
        Quality of every combination (``itertools.product`` order).  The
        default scores each set with a fresh scalar
        :meth:`~repro.evaluation.quality.QualityEvaluator.all_scores`, so
        entry ``r`` equals ``select_combination(counts, gens[r], ...)``; the
        sweep layer passes its memoised Quality tensors instead.
        """
        names = names if names is not None else counts.names
        gamma = self.weights.gamma()
        # Stage-1: one-shot top-k on the sensitive single-cluster score,
        # evaluated for every (cluster, attribute) pair in one engine call.
        matrix = scoring_engine(counts).sensitive_score_matrix(
            gamma[0], gamma[1], names
        )
        per_run_sets = draw_candidate_sets(
            matrix, names, self.budget.eps_cand_set, self.n_candidates, gens,
            accountant, "dp-tabee stage1", SENSITIVE_SCORE_SENSITIVITY,
        )
        # Stage-2: EM on the sensitive Quality of each combination.
        flats = [
            scorer(sets) if scorer is not None
            else QualityEvaluator(counts, self.weights, 0).all_scores(sets)[1]
            for sets in per_run_sets
        ]
        picks = pick_combinations(
            per_run_sets,
            flats,
            self.budget.eps_top_comb,
            gens,
            accountant,
            "dp-tabee stage2",
            SENSITIVE_SCORE_SENSITIVITY,
        )
        return [AttributeCombination(pick) for pick in picks]

    def select_combination(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> AttributeCombination:
        """Noisy Stage-1 + noisy Stage-2 over the sensitive quality functions."""
        (combination,) = self.select_combinations(
            counts, [ensure_rng(rng)], accountant, names
        )
        return combination

    def explain(
        self,
        dataset: Dataset,
        clustering: ClusteringFunction,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        counts: ClusteredCounts | None = None,
    ) -> GlobalExplanation:
        """Full pipeline with DP histograms (same allocation as Algorithm 2)."""
        gen = ensure_rng(rng)
        if counts is None:
            counts = ClusteredCounts(dataset, clustering)
        combination = self.select_combination(counts, gen, accountant)

        (per_cluster,) = release_cluster_histograms(
            self.histogram_mechanism,
            self.budget.eps_hist,
            counts,
            [[(a,) for a in combination.attributes]],
            dataset.schema.attribute,
            [gen],
            accountant,
        )
        return GlobalExplanation(
            per_cluster=tuple(e for (e,) in per_cluster),
            combination=combination,
            metadata={"framework": "DP-TabEE", "budget": self.budget},
        )
