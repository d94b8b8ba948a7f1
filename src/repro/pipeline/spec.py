"""Clustering specifications: the named, hashable identity of one DP fit.

The paper's own evaluation setting clusters with DP-k-means at ``eps = 1``
*before* explaining (Section 6.1), so a full private pipeline needs a way to
name a clustering run precisely enough that (a) its privacy spend can be
charged to the same ledger as the explanation that follows, and (b) a repeat
of the same run can be recognised as the *same* DP release and served from a
cache at zero additional cost (post-processing is free, Proposition 2.7).

:class:`ClusteringSpec` is that name: method + parameters + seed.  Fitting a
spec is **deterministic** — :meth:`ClusteringSpec.fit` derives its generator
from ``spec.seed`` alone, so the uniform center initialisation of DP-k-means
(and the uniform mode initialisation of DP-k-modes) and every subsequent
noise draw replay byte-identically.  Two fits of one spec over
fingerprint-equal datasets therefore release the *same* noisy centers/modes,
which is what makes ``(Dataset.fingerprint(), method, params, seed)`` a
sound cache key for fitted clusterings.

:class:`PipelineResult` records one end-to-end run of a spec: the fitted
clustering, its DPClustX explanation, and what each stage charged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.base import ClusteringFunction
from ..clustering.dp_kmeans import DPKMeans
from ..clustering.dp_kmodes import DPKModes
from ..core.hbe import GlobalExplanation
from ..dataset.table import Dataset
from ..privacy.budget import PrivacyAccountant, check_epsilon

PIPELINE_METHODS = ("dp-kmeans", "dp-kmodes")
"""The server-fittable DP clustering methods (references [64] and [53])."""

MAX_CLUSTERS = 1_024
MAX_ITERATIONS = 1_000
"""Resource bounds on server-fittable specs.  A fit runs inline in the
request path (before any future/timeout machinery exists), so unbounded
``n_clusters``/``n_iterations`` would let one cheap-epsilon request pin a
handler thread (and its fit-stripe lock) or attempt a huge center
allocation.  Both caps sit far above the paper's scales (|C| <= 8, T = 5)."""


def _epsilon_text(epsilon: float) -> str:
    """``epsilon`` as text that names it exactly.

    The short ``'g'`` form (``1``, ``0.5``) wherever it reads back as the
    same float, else ``repr``: ``'g'`` keeps 6 significant digits, so
    ``1.0000001`` would otherwise share ``1``'s text.
    """
    short = format(epsilon, "g")
    return short if float(short) == epsilon else repr(float(epsilon))


@dataclass(frozen=True)
class ClusteringSpec:
    """One DP clustering run: method, parameters, and seed stream.

    Parameters
    ----------
    method:
        ``"dp-kmeans"`` (DPLloyd, [64]) or ``"dp-kmodes"`` ([53]).
    n_clusters:
        ``|C|`` — number of clusters to release.
    epsilon:
        The clustering privacy budget (the paper uses 1.0, Section 6.1).
    n_iterations:
        Lloyd iterations ``T``; the per-iteration budget is ``epsilon / T``.
    seed:
        Seed of the fit's generator.  Part of the release identity: the
        same seed replays the same initialisation and the same noise.
    """

    method: str
    n_clusters: int = 5
    epsilon: float = 1.0
    n_iterations: int = 5
    seed: int = 0

    def validated(self) -> "ClusteringSpec":
        """Raise ``ValueError`` on anything the fitters would choke on."""
        if self.method not in PIPELINE_METHODS:
            raise ValueError(
                f"unknown clustering method {self.method!r}; "
                f"supported: {PIPELINE_METHODS}"
            )
        if not isinstance(self.n_clusters, int) or self.n_clusters < 1:
            raise ValueError("n_clusters must be an integer >= 1")
        if self.n_clusters > MAX_CLUSTERS:
            raise ValueError(f"n_clusters must be <= {MAX_CLUSTERS}")
        check_epsilon(self.epsilon, name="clustering epsilon")
        if not isinstance(self.n_iterations, int) or self.n_iterations < 1:
            raise ValueError("n_iterations must be an integer >= 1")
        if self.n_iterations > MAX_ITERATIONS:
            raise ValueError(f"n_iterations must be <= {MAX_ITERATIONS}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        return self

    def build(self) -> "DPKMeans | DPKModes":
        """The configured fitter for this spec."""
        self.validated()
        if self.method == "dp-kmeans":
            return DPKMeans(self.n_clusters, self.epsilon, self.n_iterations)
        return DPKModes(self.n_clusters, self.epsilon, self.n_iterations)

    def fit(
        self,
        dataset: Dataset,
        rng: "np.random.Generator | int | None" = None,
        accountant: PrivacyAccountant | None = None,
    ):
        """Fit this spec's clustering, charging ``accountant`` if given.

        With ``rng=None`` (the cache-keyed path) the generator is derived
        from ``self.seed``, so the fit — initialisation and noise alike —
        is byte-reproducible: re-fitting the same spec on fingerprint-equal
        data yields an identical clustering object.  An explicit ``rng``
        (e.g. a session's stream) overrides that determinism.
        """
        gen = rng if rng is not None else np.random.default_rng(self.seed)
        return self.build().fit(dataset, gen, accountant=accountant)

    def cache_key(self, fingerprint: str) -> tuple:
        """The fitted-clustering release identity over one dataset."""
        return (
            fingerprint,
            self.method,
            self.n_clusters,
            self.epsilon,
            self.n_iterations,
            self.seed,
        )

    def slug(self) -> str:
        """A compact textual id naming exactly this spec (derived dataset
        names): two specs share a slug only if they are equal."""
        return (
            f"{self.method}/k{self.n_clusters}"
            f"/eps{_epsilon_text(self.epsilon)}"
            f"/T{self.n_iterations}/s{self.seed}"
        )

    def label(self, dataset_id: str) -> str:
        """The ledger line for the fit: the full release identity."""
        return (
            f"pipeline: {self.method} dataset={dataset_id} "
            f"k={self.n_clusters} eps={_epsilon_text(self.epsilon)} "
            f"T={self.n_iterations} seed={self.seed}"
        )

    def describe(self) -> dict:
        return {
            "method": self.method,
            "n_clusters": self.n_clusters,
            "epsilon": self.epsilon,
            "n_iterations": self.n_iterations,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, body: dict) -> "ClusteringSpec":
        """Build a spec from decoded JSON fields (raises ``ValueError``)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(body) - known
        if unknown:
            raise ValueError(f"unknown clustering fields: {sorted(unknown)}")
        kwargs = dict(body)
        if "method" not in kwargs:
            raise ValueError("'method' is required")
        if "epsilon" in kwargs:
            kwargs["epsilon"] = float(kwargs["epsilon"])
        for key in ("n_clusters", "n_iterations", "seed"):
            if key in kwargs:
                kwargs[key] = int(kwargs[key])
        return cls(**kwargs).validated()


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
