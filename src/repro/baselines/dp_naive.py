"""DP-Naive — compute every noisy histogram up front, then post-process.

Section 6.1: "Given a privacy budget eps, we compute each of the full-dataset
histograms using a budget eps/(2|A|) for each attribute.  We compute the
histogram of each cluster for each attribute using a budget of eps/(2|A|)
per cluster.  Then, as a post-processing step, we run the TabEE-based
algorithm on the noisy histograms."

Privacy: the |A| full-dataset releases compose sequentially to eps/2; for
each attribute the per-cluster releases are parallel (clusters are disjoint),
and across attributes sequential, giving another eps/2 — eps-DP in total,
with everything after the releases free post-processing.  The waste this
design incurs (noise in |A| * (|C|+1) histograms instead of a handful) is the
motivation for DPClustX's select-then-release order (Section 5).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..clustering.base import ClusteringFunction
from ..core.counts import ClusteredCounts, CountsProvider, NoisyCounts
from ..core.hbe import (
    AttributeCombination,
    GlobalExplanation,
    SingleClusterExplanation,
)
from ..core.quality.scores import Weights
from ..dataset.table import Dataset
from ..privacy.budget import PrivacyAccountant, check_epsilon
from ..privacy.histograms import GeometricHistogram, HistogramMechanism
from ..privacy.rng import ensure_rng
from .tabee import TabEE


_TRUE_BLOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _true_blocks(
    counts: CountsProvider, names: "tuple[str, ...]"
) -> "list[np.ndarray]":
    """Per-attribute ``(1 + |C|, m)`` true-count blocks, cached per provider.

    The blocks are a pure function of the counts, so repeated-trial sweeps
    (one noisy release per seed over the same counts) reuse them instead of
    re-stacking ``|A|`` matrices every seed.  Weakly keyed like the scoring
    engine's memo, so the cache dies with the provider.
    """
    per_names = _TRUE_BLOCKS.get(counts)
    if per_names is None:
        per_names = _TRUE_BLOCKS[counts] = {}
    blocks = per_names.get(names)
    if blocks is None:
        blocks = [
            np.concatenate([counts.full(a)[None, :], counts.by_cluster(a)])
            for a in names
        ]
        per_names[names] = blocks
    return blocks


@dataclass(frozen=True)
class DPNaive:
    """The naive all-histograms-first DP explainer."""

    epsilon: float = 0.2
    n_candidates: int = 3
    weights: Weights = field(default_factory=Weights)
    histogram_mechanism: HistogramMechanism = field(
        default_factory=lambda: GeometricHistogram(1.0)
    )

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def release_noisy_counts(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> NoisyCounts:
        """Release every full-data and per-cluster histogram under eps-DP."""
        gen = ensure_rng(rng)
        names = names if names is not None else counts.names
        eps_each = self.epsilon / (2.0 * len(names))
        mech = self.histogram_mechanism.with_epsilon(eps_each)
        counts.materialise()  # one-pass group-by over all attributes

        # Charge the whole release up front, before any noise is sampled,
        # all or nothing: a refusal leaves both the ledger and the
        # generator untouched.
        if accountant is not None:
            accountant.spend_many(
                [(eps_each * len(names), "dp-naive: full hists")]
                + [
                    ([eps_each] * counts.n_clusters, f"dp-naive: cluster hists {a}")
                    for a in names
                ]
            )

        # Every histogram of the release in one ``release_blocks`` call: per
        # attribute, the full-data histogram stacked on the (|C|, m)
        # by-cluster matrix forms one (1 + |C|, m) block, released row by
        # row (per attribute: full release first, then cluster by cluster)
        # from one generator.  Composition is unchanged: sequential across
        # the full rows, parallel across the disjoint cluster rows.
        full_hists: dict[str, np.ndarray] = {}
        cluster_hists: dict[str, np.ndarray] = {}
        blocks = _true_blocks(counts, names)
        for a, noisy in zip(names, mech.release_blocks(blocks, gen)):
            full_hists[a] = noisy[0]
            cluster_hists[a] = noisy[1:]
        return NoisyCounts(names, full_hists, cluster_hists, counts.n_clusters)

    def select_combination(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> AttributeCombination:
        """Noisy releases + non-private TabEE selection (post-processing)."""
        noisy, combination = self._select(counts, rng, accountant, names)
        return combination

    def _select(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None,
        accountant: PrivacyAccountant | None,
        names: tuple[str, ...] | None,
    ) -> tuple[NoisyCounts, AttributeCombination]:
        gen = ensure_rng(rng)
        noisy = self.release_noisy_counts(counts, gen, accountant, names)
        tabee = TabEE(self.n_candidates, self.weights)
        combination = tabee.select_combination(noisy, 0)
        return noisy, combination

    def explain(
        self,
        dataset: Dataset,
        clustering: ClusteringFunction,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        counts: ClusteredCounts | None = None,
    ) -> GlobalExplanation:
        """Assemble the explanation from the already-released noisy histograms."""
        if counts is None:
            counts = ClusteredCounts(dataset, clustering)
        noisy, combination = self._select(counts, rng, accountant, None)
        explanations = []
        for c in range(counts.n_clusters):
            a = combination[c]
            noisy_c = noisy.cluster(a, c)
            explanations.append(
                SingleClusterExplanation(
                    cluster=c,
                    attribute=dataset.schema.attribute(a),
                    hist_rest=np.maximum(noisy.full(a) - noisy_c, 0.0),
                    hist_cluster=noisy_c,
                )
            )
        return GlobalExplanation(
            per_cluster=tuple(explanations),
            combination=combination,
            metadata={"framework": "DP-Naive", "epsilon": self.epsilon},
        )
