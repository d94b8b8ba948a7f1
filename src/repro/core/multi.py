"""Appendix B — generating ``ell`` explanations per cluster.

The attribute combination becomes ``AC : C -> {S ⊆ A : |S| = ell}``; the
global score generalises with ``Cand(AC) = {(c, A) : A in AC(c)}``:

* ``Int_ell`` / ``Suf_ell``: averages of the single-candidate scores over the
  ``|C| * ell`` candidates;
* ``Div_ell``: average pairwise diversity over all distinct candidate pairs.

Stage-1 is unchanged; Stage-2 runs the exponential mechanism over the
``C(k, ell)^|C|`` set-valued combinations (the paper flags this blow-up as
the cost of the extension), and noisy histograms are generated for the
``|C| * ell`` selected attributes — within a cluster the ``ell`` cluster
histograms compose sequentially, across clusters in parallel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..clustering.base import ClusteringFunction
from ..dataset.table import Dataset
from ..privacy.budget import ExplanationBudget, PrivacyAccountant
from ..privacy.histograms import GeometricHistogram, HistogramMechanism
from ..privacy.rng import ensure_rng
from .counts import ClusteredCounts, CountsProvider
from .engine import scoring_engine
from .dpclustx import release_cluster_histograms
from .hbe import MultiAttributeCombination, MultiGlobalExplanation
from .quality.diversity import pair_diversity_low_sens
from .quality.interestingness import interestingness_low_sens
from .quality.scores import Weights
from .quality.sufficiency import sufficiency_low_sens
from .select_candidates import pick_combinations, select_candidates

_MAX_COMBINATIONS = 2_000_000


def multi_global_score(
    counts: CountsProvider,
    combination: MultiAttributeCombination,
    weights: Weights,
) -> float:
    """``GlScore_lambda`` extended to set-valued combinations (Appendix B).

    Remains a convex combination of sensitivity-1 functions, hence has
    sensitivity <= 1 (the appendix's analogue of Proposition 4.14).
    """
    cands = combination.candidates()
    if not cands:
        raise ValueError("empty combination")
    score = 0.0
    if weights.lambda_int:
        score += weights.lambda_int * (
            sum(interestingness_low_sens(counts, c, a) for c, a in cands) / len(cands)
        )
    if weights.lambda_suf:
        score += weights.lambda_suf * (
            sum(sufficiency_low_sens(counts, c, a) for c, a in cands) / len(cands)
        )
    if weights.lambda_div and len(cands) >= 2:
        pairs = list(itertools.combinations(range(len(cands)), 2))
        acc = 0.0
        for i, j in pairs:
            c, a = cands[i]
            c2, a2 = cands[j]
            acc += pair_diversity_low_sens(counts, c, c2, a, a2)
        score += weights.lambda_div * acc / len(pairs)
    return score


@dataclass(frozen=True)
class MultiDPClustX:
    """DPClustX emitting ``ell`` histogram pairs per cluster (Appendix B)."""

    ell: int = 2
    n_candidates: int = 3
    weights: Weights = field(default_factory=Weights)
    budget: ExplanationBudget = field(default_factory=ExplanationBudget)
    histogram_mechanism: HistogramMechanism = field(
        default_factory=lambda: GeometricHistogram(1.0)
    )

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.n_candidates < self.ell:
            raise ValueError("need k >= ell candidates per cluster")

    def select_combination(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
    ) -> MultiAttributeCombination:
        """Stage-1 (unchanged Algorithm 1) + EM over C(k, ell)^|C| combinations."""
        gen = ensure_rng(rng)
        gamma = self.weights.gamma()
        candidates = select_candidates(
            counts,
            gamma,
            self.budget.eps_cand_set,
            self.n_candidates,
            gen,
            accountant,
        )
        per_cluster_sets = [
            list(itertools.combinations(s, self.ell))
            for s in candidates.candidate_sets
        ]
        total = math.prod(len(s) for s in per_cluster_sets)
        if total > _MAX_COMBINATIONS:
            raise ValueError(
                f"{total} set-valued combinations exceed the enumeration guard; "
                "reduce k, ell or |C| (Appendix B discusses this blow-up)"
            )
        # Batched Appendix-B GlScore over all C(k, ell)^|C| combinations:
        # assembled from per-cluster subset sums and pairwise diversity
        # blocks instead of one scalar multi_global_score call per combo.
        tensor = scoring_engine(counts).multi_combination_score_tensor(
            per_cluster_sets, self.weights
        )
        (chosen,) = pick_combinations(
            [per_cluster_sets],
            [tensor.reshape(-1)],
            self.budget.eps_top_comb,
            [gen],
            accountant,
            "stage2: multi combination",
        )
        return MultiAttributeCombination(chosen)

    def explain(
        self,
        dataset: Dataset,
        clustering: ClusteringFunction,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        counts: ClusteredCounts | None = None,
    ) -> MultiGlobalExplanation:
        """Full Appendix-B pipeline: selection + noisy histograms."""
        gen = ensure_rng(rng)
        if counts is None:
            counts = ClusteredCounts(dataset, clustering)
        combination = self.select_combination(counts, gen, accountant)

        per_cluster = release_cluster_histograms(
            self.histogram_mechanism,
            self.budget.eps_hist,
            counts,
            combination.attribute_sets,
            dataset.schema.attribute,
            gen,
            accountant,
        )
        return MultiGlobalExplanation(
            per_cluster=per_cluster,
            combination=combination,
            metadata={
                "framework": "MultiDPClustX",
                "ell": self.ell,
                "budget": self.budget,
                "epsilon_total": self.budget.total,
            },
        )
