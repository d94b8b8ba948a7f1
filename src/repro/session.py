"""Analyst sessions: one privacy budget across clustering and explanations.

The paper's deployment story (Sections 1, 3) is an analyst holding a global
privacy budget who clusters privately, explains privately, and must not
overspend across the whole interaction.  :class:`PrivateAnalysisSession`
packages that workflow: it owns a capped
:class:`~repro.privacy.budget.PrivacyAccountant`, threads it through every
operation, and refuses operations that would exceed the cap — turning
Theorem 5.3's arithmetic into an enforced runtime contract.

:meth:`PrivateAnalysisSession.run_pipeline` is the single-analyst front end
of the paper's end-to-end setting (DP clustering, then DPClustX, under one
ledger); :mod:`repro.pipeline` lists the other two.
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
from .pipeline import ClusteringSpec, PipelineResult
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
    # Every DP clustering this session released, by its spec's cache key.
    _fitted: "dict[tuple, tuple[ClusteringFunction, ClusteredCounts]]" = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._accountant = PrivacyAccountant(limit=self.total_epsilon)
        self._rng = ensure_rng(self.seed)

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
        self._accountant.restore(state)

    # -- clustering ------------------------------------------------------ #

    def cluster_dp_kmeans(
        self, n_clusters: int, epsilon: float, n_iterations: int = 5
    ) -> ClusteringFunction:
        """Privately cluster with DP-k-means [64], charging ``epsilon``."""
        spec = ClusteringSpec("dp-kmeans", n_clusters, epsilon, n_iterations)
        self._clustering, self._counts, _ = self._fit(spec, fresh=True)
        return self._clustering

    def cluster_dp_kmodes(
        self, n_clusters: int, epsilon: float, n_iterations: int = 5
    ) -> ClusteringFunction:
        """Privately cluster with DP-k-modes [53], charging ``epsilon``."""
        spec = ClusteringSpec("dp-kmodes", n_clusters, epsilon, n_iterations)
        self._clustering, self._counts, _ = self._fit(spec, fresh=True)
        return self._clustering

    def run_pipeline(
        self,
        spec: ClusteringSpec,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
    ) -> PipelineResult:
        """The paper's end-to-end setting in one call: fit + explain.

        Clusters per ``spec`` (reusing the session's previous release of the
        same spec for free), runs DPClustX against it — all charges landing
        in the one session ledger — and, once the explanation is released,
        adopts the clustering as the session clustering.  ``n_candidates``
        is checked before the fit, so a bad explanation parameter costs
        nothing.
        """
        width = self.dataset.schema.width
        if not 1 <= n_candidates <= width:
            raise ValueError(
                f"n_candidates must be in [1, |A|] = [1, {width}], "
                f"got {n_candidates}"
            )
        budget = budget or ExplanationBudget()
        clustering, counts, refit = self._fit(spec, fresh=False)
        explanation = self._explain(
            DPClustX(n_candidates, weights or Weights(), budget),
            clustering,
            counts,
        )
        self._clustering, self._counts = clustering, counts
        return PipelineResult(
            clustering=clustering,
            explanation=explanation,
            clustering_epsilon=spec.epsilon if refit else 0.0,
            explanation_epsilon=budget.total,
            refit=refit,
        )

    def use_clustering(self, clustering: ClusteringFunction) -> None:
        """Adopt an externally-supplied clustering function.

        The function must be data-independent (user predicates) or have been
        computed under DP elsewhere — the session cannot verify this, so the
        charge, if any, is the caller's responsibility (Definition 3.1's
        black-box setting).
        """
        self._clustering = clustering
        self._counts = ClusteredCounts(self.dataset, clustering)

    # -- explanation ------------------------------------------------------ #

    def explain(
        self,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
    ) -> GlobalExplanation:
        """Run DPClustX (Algorithm 2) against the session clustering."""
        clustering, counts = self._require_clustering()
        explainer = DPClustX(
            n_candidates, weights or Weights(), budget or ExplanationBudget()
        )
        return self._explain(explainer, clustering, counts)

    def explain_multi(
        self,
        ell: int = 2,
        budget: ExplanationBudget | None = None,
        n_candidates: int = 3,
        weights: Weights | None = None,
    ) -> MultiGlobalExplanation:
        """Run the Appendix-B extension (ell explanations per cluster)."""
        clustering, counts = self._require_clustering()
        explainer = MultiDPClustX(
            ell, n_candidates, weights or Weights(), budget or ExplanationBudget()
        )
        return self._explain(explainer, clustering, counts)

    def release_histogram(self, attribute: str, epsilon: float) -> np.ndarray:
        """Release one ad-hoc noisy histogram (manual EDA step).

        An unknown ``attribute`` raises ``SchemaError`` before any charge:
        the check reads only the public schema.
        """
        from .privacy.histograms import GeometricHistogram

        self.dataset.schema.attribute(attribute)
        self._require(epsilon, f"histogram {attribute!r}")
        mech = GeometricHistogram(epsilon)
        self._accountant.spend(epsilon, f"ad-hoc histogram: {attribute}")
        return mech.release_column(self.dataset, attribute, self._rng)

    # -- internals --------------------------------------------------------

    def _fit(
        self, spec: ClusteringSpec, fresh: bool
    ) -> "tuple[ClusteringFunction, ClusteredCounts, bool]":
        """Fit ``spec`` from the session stream, or reuse its release.

        Returns ``(clustering, counts, refit)``.  Without ``fresh``, a spec
        this session already released is reused at zero charge
        (post-processing is free) and ``refit`` is False.  ``fresh=True``
        buys a new release, charged again, so an explicit
        ``cluster_dp_kmeans`` call can escape a bad noisy initialisation;
        it replaces the memo entry that later reuses read.  A fit is
        admitted against the remaining budget before touching data, and
        the fitters charge each iteration before drawing its noise.
        """
        spec = spec.validated()
        key = spec.cache_key(self.dataset.fingerprint())
        if not fresh and key in self._fitted:
            return (*self._fitted[key], False)
        self._require(spec.epsilon, f"clustering {spec.slug()!r}")
        clustering = spec.fit(self.dataset, rng=self._rng, accountant=self._accountant)
        self._fitted[key] = (clustering, ClusteredCounts(self.dataset, clustering))
        return (*self._fitted[key], True)

    def _explain(
        self,
        explainer: "DPClustX | MultiDPClustX",
        clustering: ClusteringFunction,
        counts: ClusteredCounts,
    ):
        """Admit ``explainer``'s budget, then explain from the session stream."""
        self._require(explainer.budget.total, "explanation")
        return explainer.explain(
            self.dataset,
            clustering,
            self._rng,
            accountant=self._accountant,
            counts=counts,
        )

    def _require(self, epsilon: float, what: str) -> None:
        # The accountant's own exact O(1) admission check, as a query: no
        # second tolerance window stacked on top of the ledger's arithmetic.
        if not self._accountant.can_spend(epsilon):
            raise BudgetError(
                f"{what} needs eps={epsilon:.4g} but only "
                f"{self.remaining:.4g} of {self.total_epsilon:.4g} remains"
            )

    def _require_clustering(self) -> tuple[ClusteringFunction, ClusteredCounts]:
        if self._clustering is None or self._counts is None:
            raise RuntimeError(
                "no clustering in the session; call cluster_dp_kmeans/"
                "cluster_dp_kmodes or use_clustering first"
            )
        return self._clustering, self._counts
