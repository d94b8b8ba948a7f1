"""The end-to-end private pipeline: DP clustering + DP explanation, one ledger.

This is the paper's own evaluation setting made into a first-class object:
cluster the sensitive data with DP-k-means/DP-k-modes, then explain the
resulting clusters with DPClustX — with *both* stages charged to a single
:class:`~repro.privacy.budget.PrivacyAccountant`, so the end-to-end epsilon
(Theorem 5.3's ``eps_CandSet + eps_TopComb + eps_Hist`` plus the clustering
epsilon, composed sequentially) is enforced at runtime rather than only on
paper.

:class:`PrivatePipeline` is the implementation behind
:class:`~repro.session.PrivateAnalysisSession` (single analyst, CLI).  The
other two pipeline front ends,
:func:`~repro.evaluation.sweeps.run_pipeline_batched` (fit once, explain a
whole seed sweep) and the explanation service's ``/v1/pipeline`` route
(multi-tenant, with fitted clusterings cached across requests), share its
:class:`~repro.pipeline.spec.ClusteringSpec` release identity but call
:meth:`~repro.pipeline.spec.ClusteringSpec.fit` themselves.

Repeat fits of the same :class:`~repro.pipeline.spec.ClusteringSpec` inside
one pipeline reuse the already-released clustering at zero charge
(post-processing is free); every *new* fit and every explanation charges the
pipeline's accountant before any noise is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.base import ClusteringFunction
from ..core.counts import ClusteredCounts
from ..core.dpclustx import DPClustX
from ..core.hbe import GlobalExplanation
from ..core.quality.scores import Weights
from ..dataset.table import Dataset
from ..privacy.budget import (
    BudgetError,
    ExplanationBudget,
    PrivacyAccountant,
)
from ..privacy.rng import ensure_rng
from .spec import ClusteringSpec


@dataclass(frozen=True)
class PipelineResult:
    """One pipeline run: the clustering, the explanation, and what it cost."""

    clustering: ClusteringFunction
    explanation: GlobalExplanation
    clustering_epsilon: float  # charged for the fit; 0.0 on fitted reuse
    explanation_epsilon: float
    refit: bool  # False when the fitted clustering was reused

    @property
    def epsilon_total(self) -> float:
        """What this run actually charged (sequential composition)."""
        return self.clustering_epsilon + self.explanation_epsilon


class PrivatePipeline:
    """Fit-or-reuse DP clustering and explain it, under one accountant.

    Parameters
    ----------
    dataset:
        The sensitive dataset; queried only through DP mechanisms.
    accountant:
        The single ledger both stages charge.  Its cap (if any) bounds the
        end-to-end epsilon of everything this pipeline ever releases.
    rng:
        Default generator for operations not pinned by a spec seed (the
        explanation stage).  Fits requested through a
        :class:`~repro.pipeline.spec.ClusteringSpec` with ``rng=None`` use
        the spec's own seed and are byte-reproducible.
    """

    def __init__(
        self,
        dataset: Dataset,
        accountant: PrivacyAccountant,
        rng: "np.random.Generator | int | None" = None,
    ):
        self.dataset = dataset
        self.accountant = accountant
        self._rng = ensure_rng(rng)
        self._fitted: "dict[tuple, tuple[ClusteringFunction, ClusteredCounts]]" = {}

    # -- clustering ------------------------------------------------------- #

    def fit(
        self,
        spec: ClusteringSpec,
        rng: "np.random.Generator | int | None" = None,
        force_refit: bool = False,
    ) -> "tuple[ClusteringFunction, ClusteredCounts, bool]":
        """Fit ``spec`` (or reuse its released fit); returns counts too.

        Returns ``(clustering, counts, refit)``; ``refit=False`` means the
        spec's clustering had already been released by this pipeline and was
        reused at zero charge.  A fresh fit pre-checks the spec's epsilon
        against the remaining budget *before touching data*, then charges
        iteration-by-iteration through the accountant (the fitters
        themselves charge before drawing noise, so a refused charge can
        never follow a released draw).

        An explicit ``rng`` (a session stream) bypasses the spec-seed
        determinism; the fit is still memoised under the spec key for
        zero-charge reuse within this pipeline, but only ``rng=None`` fits
        are byte-reproducible across pipelines.  ``force_refit=True`` skips
        the reuse and buys a *fresh* DP release (charged again) — the
        session's explicit ``cluster_dp_kmeans``-style calls use it so an
        analyst can always escape a bad noisy initialisation.
        """
        spec = spec.validated()
        key = spec.cache_key(self.dataset.fingerprint())
        if not force_refit:
            cached = self._fitted.get(key)
            if cached is not None:
                return cached[0], cached[1], False
        self._require(spec.epsilon, f"clustering {spec.slug()!r}")
        clustering = spec.fit(self.dataset, rng=rng, accountant=self.accountant)
        counts = ClusteredCounts(self.dataset, clustering)
        self._fitted[key] = (clustering, counts)
        return clustering, counts, True

    # -- the full pipeline ------------------------------------------------ #

    def run(
        self,
        spec: ClusteringSpec,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
        rng: "np.random.Generator | int | None" = None,
    ) -> PipelineResult:
        """Cluster (or reuse the fit) and explain: the end-to-end run.

        The explanation stage draws from ``rng`` (default: the pipeline's
        own stream) and charges ``budget.total``; the clustering stage
        charges ``spec.epsilon`` only when it actually fits.
        """
        budget = budget or ExplanationBudget()
        clustering, counts, refit = self.fit(spec, rng=rng)
        self._require(budget.total, "explanation")
        explainer = DPClustX(n_candidates, weights or Weights(), budget)
        explanation = explainer.explain(
            self.dataset,
            clustering,
            rng if rng is not None else self._rng,
            accountant=self.accountant,
            counts=counts,
        )
        return PipelineResult(
            clustering=clustering,
            explanation=explanation,
            clustering_epsilon=spec.epsilon if refit else 0.0,
            explanation_epsilon=budget.total,
            refit=refit,
        )

    # -- internals --------------------------------------------------------- #

    def _require(self, epsilon: float, what: str) -> None:
        # The accountant's own exact O(1) admission check, as a query: no
        # second tolerance window stacked on top of the ledger's arithmetic.
        if not self.accountant.can_spend(epsilon):
            raise BudgetError(
                f"{what} needs eps={epsilon:.4g} but only "
                f"{self.accountant.remaining():.4g} remains in the pipeline "
                f"ledger"
            )
