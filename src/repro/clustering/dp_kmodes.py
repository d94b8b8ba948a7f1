"""Differentially private k-modes, in the spirit of Nguyen [53].

The paper cites privacy-preserving k-modes as one of the DP clustering
options (reference [53]).  We implement the natural DPLloyd-style recipe for
categorical data: in each of ``T`` iterations, each cluster's new mode is
taken attribute-wise as the *noisy* arg-max of the within-cluster value
histogram.

Privacy analysis.  Per iteration, for every cluster x attribute we release a
noisy histogram with budget ``eps_iter / d`` where ``eps_iter = eps / T``:
within a cluster the ``d`` attribute histograms compose sequentially; across
clusters the releases are parallel (clusters are disjoint for a fixed
assignment).  Taking the arg-max is post-processing.  The ``T`` iterations
compose sequentially, so releasing the final modes is ``eps``-DP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.table import Dataset
from ..privacy.budget import PrivacyAccountant, check_epsilon
from ..privacy.mechanisms import GeometricMechanism
from ..privacy.rng import ensure_rng
from .base import ModeBasedClustering, nearest_mode


@dataclass(frozen=True)
class DPKModes:
    """DP k-modes releasing ``eps``-DP cluster modes."""

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
    ) -> ModeBasedClustering:
        gen = ensure_rng(rng)
        names = dataset.schema.names
        d = len(names)
        if len(dataset) == 0:
            raise ValueError("cannot fit DP-k-modes on an empty dataset")
        codes = dataset.code_matrix(names)
        domain_sizes = [dataset.schema.attribute(n).domain_size for n in names]

        eps_iter = self.epsilon / self.n_iterations
        eps_hist = eps_iter / d
        mech = GeometricMechanism(eps_hist, sensitivity=1.0)

        # Data-independent init: uniform random modes over the domains.
        modes = np.stack(
            [
                # repro-lint: disable=charge-before-release — init modes are drawn uniformly over the schema domains (data-independent), so no privacy is consumed; the per-iteration releases below charge first
                np.array([gen.integers(m) for m in domain_sizes])
                for _ in range(self.n_clusters)
            ]
        )
        for it in range(self.n_iterations):
            labels = nearest_mode(codes, modes)
            # d sequential releases per cluster, parallel across clusters.
            # Charged *before* any noise is drawn so an over-cap iteration
            # raises while zero histograms have been sampled.
            if accountant is not None:
                accountant.parallel(
                    [eps_hist * d] * self.n_clusters, f"dp-kmodes iter {it}"
                )
            new_modes = modes.copy()
            for c in range(self.n_clusters):
                members = codes[labels == c]
                for j, m in enumerate(domain_sizes):
                    hist = (
                        np.bincount(members[:, j], minlength=m)
                        if len(members)
                        else np.zeros(m, dtype=np.int64)
                    )
                    noisy = hist + mech.sample_noise(m, gen)
                    new_modes[c, j] = int(np.argmax(noisy))
            modes = new_modes
        return ModeBasedClustering(tuple(names), modes)
