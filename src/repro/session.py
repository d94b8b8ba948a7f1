"""Analyst sessions: one privacy budget across clustering and explanations.

The paper's deployment story (Sections 1, 3) is an analyst holding a global
privacy budget who clusters privately, explains privately, and must not
overspend across the whole interaction.  :class:`PrivateAnalysisSession`
packages that workflow: it owns a capped
:class:`~repro.privacy.budget.PrivacyAccountant`, threads it through every
operation, and refuses operations that would exceed the cap — turning
Theorem 5.3's arithmetic into an enforced runtime contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering.base import ClusteringFunction
from .core.counts import ClusteredCounts
from .core.dpclustx import DPClustX
from .core.hbe import GlobalExplanation
from .core.multi import MultiDPClustX, MultiGlobalExplanation
from .core.quality.scores import Weights
from .dataset.table import Dataset
from .pipeline import ClusteringSpec, PipelineResult, PrivatePipeline
from .privacy.budget import BudgetError, ExplanationBudget, PrivacyAccountant
from .privacy.rng import ensure_rng


@dataclass
class PrivateAnalysisSession:
    """A budget-capped analysis session over one sensitive dataset.

    Parameters
    ----------
    dataset:
        The sensitive dataset; never released, only queried through DP
        mechanisms.
    total_epsilon:
        The session-wide privacy cap.  Every operation draws from it;
        operations that would exceed it raise
        :class:`~repro.privacy.budget.BudgetError` *before* touching data.
    seed:
        Seed for the session's random generator (reproducible sessions).
    """

    dataset: Dataset
    total_epsilon: float
    seed: int | None = None
    _accountant: PrivacyAccountant = field(init=False)
    _rng: np.random.Generator = field(init=False)
    _clustering: ClusteringFunction | None = field(init=False, default=None)
    _counts: ClusteredCounts | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self._accountant = PrivacyAccountant(limit=self.total_epsilon)
        self._rng = ensure_rng(self.seed)
        # The fit-or-reuse implementation behind cluster_dp_kmeans /
        # cluster_dp_kmodes / run_pipeline.  The service's /v1/pipeline
        # route and sweeps.run_pipeline_batched call ClusteringSpec.fit
        # directly instead.
        self._pipeline = PrivatePipeline(self.dataset, self._accountant)

    # -- budget introspection ------------------------------------------- #

    @property
    def spent(self) -> float:
        """Total epsilon consumed so far."""
        return self._accountant.total()

    @property
    def remaining(self) -> float:
        """Budget left under the session cap."""
        return self._accountant.remaining()

    def ledger(self) -> str:
        """Human-readable charge-by-charge budget report."""
        return self._accountant.summary()

    def ledger_snapshot(self) -> dict:
        """JSON-able ledger state (the service layer's persistence format).

        Pairs with :meth:`restore_ledger`: a session can be checkpointed
        across process restarts without losing track of spent budget — the
        same :meth:`~repro.privacy.budget.PrivacyAccountant.snapshot` /
        ``restore`` contract the explanation service uses for its
        per-(tenant, dataset) ledgers.
        """
        return self._accountant.snapshot()

    def restore_ledger(self, state: dict) -> None:
        """Replace the session ledger with a :meth:`ledger_snapshot`.

        The snapshot's charges are replayed against the *session's* cap
        (not the snapshot's recorded limit), so a snapshot from a
        bigger-budget session cannot smuggle in an overspent ledger.
        """
        restored = dict(state)
        restored["limit"] = self.total_epsilon
        self._accountant.restore(restored)

    # -- clustering ------------------------------------------------------ #

    def cluster_dp_kmeans(
        self, n_clusters: int, epsilon: float, n_iterations: int = 5
    ) -> ClusteringFunction:
        """Privately cluster with DP-k-means [64], charging ``epsilon``."""
        return self._cluster(
            ClusteringSpec("dp-kmeans", n_clusters, epsilon, n_iterations)
        )

    def cluster_dp_kmodes(
        self, n_clusters: int, epsilon: float, n_iterations: int = 5
    ) -> ClusteringFunction:
        """Privately cluster with DP-k-modes [53], charging ``epsilon``."""
        return self._cluster(
            ClusteringSpec("dp-kmodes", n_clusters, epsilon, n_iterations)
        )

    def _cluster(self, spec: ClusteringSpec) -> ClusteringFunction:
        """Fit a DP clustering spec via the shared pipeline.

        Draws from the session's own stream and always fits *fresh*
        (charging ``spec.epsilon`` each call): an explicit
        ``cluster_dp_kmeans`` call is a request for a new release — e.g.
        to escape a bad noisy initialisation — never for a cached one.
        :meth:`run_pipeline` is the reuse-friendly entry point.
        """
        clustering, counts, _ = self._pipeline.fit(
            spec, rng=self._rng, force_refit=True
        )
        self._clustering = clustering
        self._counts = counts
        return clustering

    def run_pipeline(
        self,
        spec: ClusteringSpec,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
    ) -> PipelineResult:
        """The paper's end-to-end setting in one call: fit + explain.

        Clusters per ``spec`` (reusing the session's previous fit of the
        same spec for free), adopts the clustering as the session
        clustering, and runs DPClustX against it — all charges landing in
        the one session ledger.  Returns the
        :class:`~repro.pipeline.pipeline.PipelineResult` recording both
        stages' spend.
        """
        result = self._pipeline.run(
            spec, budget, n_candidates, weights, rng=self._rng
        )
        # Adopt the (memoised, zero-charge) fit as the session clustering.
        clustering, counts, _ = self._pipeline.fit(spec, rng=self._rng)
        self._clustering = clustering
        self._counts = counts
        return result

    def use_clustering(self, clustering: ClusteringFunction) -> None:
        """Adopt an externally-supplied clustering function.

        The function must be data-independent (user predicates) or have been
        computed under DP elsewhere — the session cannot verify this, so the
        charge, if any, is the caller's responsibility (Definition 3.1's
        black-box setting).
        """
        self._set_clustering(clustering)

    # -- explanation ------------------------------------------------------ #

    def explain(
        self,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
    ) -> GlobalExplanation:
        """Run DPClustX (Algorithm 2) against the session clustering."""
        clustering, counts = self._require_clustering()
        budget = budget or ExplanationBudget()
        self._require(budget.total)
        explainer = DPClustX(n_candidates, weights or Weights(), budget)
        return explainer.explain(
            self.dataset,
            clustering,
            self._rng,
            accountant=self._accountant,
            counts=counts,
        )

    def explain_multi(
        self,
        ell: int = 2,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
    ) -> MultiGlobalExplanation:
        """Run the Appendix-B extension (ell explanations per cluster)."""
        clustering, counts = self._require_clustering()
        budget = budget or ExplanationBudget()
        self._require(budget.total)
        explainer = MultiDPClustX(ell, n_candidates, weights or Weights(), budget)
        return explainer.explain(
            self.dataset,
            clustering,
            self._rng,
            accountant=self._accountant,
            counts=counts,
        )

    def release_histogram(self, attribute: str, epsilon: float) -> np.ndarray:
        """Release one ad-hoc noisy histogram (manual EDA step)."""
        from .privacy.histograms import GeometricHistogram

        self._require(epsilon)
        mech = GeometricHistogram(epsilon)
        self._accountant.spend(epsilon, f"ad-hoc histogram: {attribute}")
        return mech.release_column(self.dataset, attribute, self._rng)

    # -- internals --------------------------------------------------------

    def _require(self, epsilon: float) -> None:
        # The accountant's own exact O(1) admission check, as a query: no
        # second tolerance window stacked on top of the ledger's arithmetic.
        if not self._accountant.can_spend(epsilon):
            raise BudgetError(
                f"operation needs eps={epsilon:.4g} but only "
                f"{self.remaining:.4g} of {self.total_epsilon:.4g} remains"
            )

    def _set_clustering(self, clustering: ClusteringFunction) -> None:
        self._clustering = clustering
        self._counts = ClusteredCounts(self.dataset, clustering)

    def _require_clustering(self) -> tuple[ClusteringFunction, ClusteredCounts]:
        if self._clustering is None or self._counts is None:
            raise RuntimeError(
                "no clustering in the session; call cluster_dp_kmeans/"
                "cluster_dp_kmodes or use_clustering first"
            )
        return self._clustering, self._counts
