"""DPLloyd — differentially private k-means in the style of Su et al. [64].

The paper clusters with "DP-k-means [64] implemented by DiffPrivLib" at
``eps = 1``.  We reproduce the DPLloyd recipe those implementations follow:

1. scale data into ``[-1, 1]^d`` using *data-independent* domain bounds
   (our attribute domains are finite and public, Section 2);
2. pick initial centers uniformly in the cube (data-independent, free);
3. run ``T`` Lloyd iterations; each iteration releases, per cluster, a noisy
   count (sensitivity 1) and a noisy coordinate sum (L1 sensitivity ``d``
   since every coordinate is bounded by 1), each with Laplace noise funded by
   an even split of ``eps / T``;
4. release the final centers, which define ``f : dom(R) -> C``.

Total privacy: each iteration is ``eps/T``-DP by sequential composition over
its two query batches (counts and sums are each parallel across the disjoint
clusters), and the ``T`` iterations compose sequentially to ``eps``-DP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.table import Dataset
from ..privacy.budget import PrivacyAccountant, check_epsilon
from ..privacy.mechanisms import LaplaceMechanism
from ..privacy.rng import ensure_rng
from .base import CenterBasedClustering, nearest_center
from .encode import MinMaxEncoder


@dataclass(frozen=True)
class DPKMeans:
    """DPLloyd private k-means releasing ``eps``-DP centers."""

    n_clusters: int
    epsilon: float = 1.0
    n_iterations: int = 5

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        check_epsilon(self.epsilon)
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")

    def fit(
        self,
        dataset: Dataset,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
    ) -> CenterBasedClustering:
        gen = ensure_rng(rng)
        encoder = MinMaxEncoder.fit(dataset)
        points = encoder.transform(dataset)
        n, d = points.shape
        if n == 0:
            raise ValueError("cannot fit DP-k-means on an empty dataset")

        eps_iter = self.epsilon / self.n_iterations
        eps_count = eps_iter / 2.0
        eps_sum = eps_iter / 2.0
        count_mech = LaplaceMechanism(eps_count, sensitivity=1.0)
        sum_mech = LaplaceMechanism(eps_sum, sensitivity=float(max(d, 1)))

        # repro-lint: disable=charge-before-release — init centers are data-independent (uniform over the encoded cube, no dataset input), so this draw consumes no privacy; every data-dependent draw below is charged per iteration first
        centers = gen.uniform(-1.0, 1.0, size=(self.n_clusters, d))
        for it in range(self.n_iterations):
            labels = nearest_center(points, centers)
            # Charge the full iteration *before* any noise is drawn, all or
            # nothing: a BudgetError must never fire after a release has
            # already been sampled, and a refused iteration leaves the
            # ledger exactly as it found it.
            if accountant is not None:
                accountant.spend_many([
                    ([eps_count] * self.n_clusters, f"dp-kmeans iter {it} counts"),
                    ([eps_sum] * self.n_clusters, f"dp-kmeans iter {it} sums"),
                ])
            new_centers = centers.copy()
            noisy_counts = np.empty(self.n_clusters)
            noisy_sums = np.empty((self.n_clusters, d))
            for c in range(self.n_clusters):
                members = points[labels == c]
                noisy_counts[c] = count_mech.randomise(float(len(members)), gen)
                true_sum = members.sum(axis=0) if len(members) else np.zeros(d)
                noisy_sums[c] = np.asarray(sum_mech.randomise(true_sum, gen))
            for c in range(self.n_clusters):
                denom = max(noisy_counts[c], 1.0)
                new_centers[c] = np.clip(noisy_sums[c] / denom, -1.0, 1.0)
            centers = new_centers
        return CenterBasedClustering(encoder, centers)
