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

import numpy as np

from ..clustering.base import ClusteringFunction
from ..core.counts import ClusteredCounts, CountsProvider
from ..core.dpclustx import release_cluster_histograms
from ..core.hbe import AttributeCombination, GlobalExplanation
from ..core.engine import scoring_engine
from ..core.quality.scores import SENSITIVE_SCORE_SENSITIVITY, Weights
from ..core.select_candidates import stage1_mechanism
from ..dataset.table import Dataset
from ..evaluation.quality import QualityEvaluator
from ..privacy.budget import ExplanationBudget, PrivacyAccountant
from ..privacy.exponential import ExponentialMechanism
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

    def select_combination(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> AttributeCombination:
        """Noisy Stage-1 + noisy Stage-2 over the sensitive quality functions."""
        gen = ensure_rng(rng)
        names = names if names is not None else counts.names
        gamma = self.weights.gamma()
        n_clusters = counts.n_clusters

        # Stage-1: one-shot top-k on the sensitive single-cluster score,
        # evaluated for every (cluster, attribute) pair in one engine call.
        topk = stage1_mechanism(
            self.budget.eps_cand_set,
            n_clusters,
            self.n_candidates,
            SENSITIVE_SCORE_SENSITIVITY,
        )
        score_matrix = scoring_engine(counts).sensitive_score_matrix(
            gamma[0], gamma[1], names
        )
        if accountant is not None:
            accountant.spend(self.budget.eps_cand_set, "dp-tabee stage1")
        sets: list[tuple[str, ...]] = []
        for c in range(n_clusters):
            idx = topk.select(score_matrix[c], gen)
            sets.append(tuple(names[i] for i in idx))

        # Stage-2: EM on the sensitive Quality of each combination.
        evaluator = QualityEvaluator(counts, self.weights, 0)
        combos, scores = evaluator.all_scores(sets)
        em = ExponentialMechanism(
            self.budget.eps_top_comb, SENSITIVE_SCORE_SENSITIVITY
        )
        if accountant is not None:
            accountant.spend(self.budget.eps_top_comb, "dp-tabee stage2")
        chosen = combos[em.select_index(scores, gen)]
        return AttributeCombination(tuple(chosen))

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

        per_cluster = release_cluster_histograms(
            self.histogram_mechanism,
            self.budget.eps_hist,
            counts,
            [(a,) for a in combination.attributes],
            dataset.schema.attribute,
            gen,
            accountant,
        )
        return GlobalExplanation(
            per_cluster=tuple(e for (e,) in per_cluster),
            combination=combination,
            metadata={"framework": "DP-TabEE", "budget": self.budget},
        )
