"""Huang's k-modes for categorical tuples (matching dissimilarity)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.table import Dataset
from ..privacy.rng import ensure_rng
from .base import ModeBasedClustering, nearest_mode


def _column_modes(codes: np.ndarray, domain_sizes: list[int]) -> np.ndarray:
    """Per-column most frequent code of a cluster's member rows."""
    out = np.empty(codes.shape[1], dtype=np.int64)
    for j, m in enumerate(domain_sizes):
        out[j] = int(np.argmax(np.bincount(codes[:, j], minlength=m)))
    return out


@dataclass(frozen=True)
class KModes:
    """Fit categorical modes; assignment minimises attribute mismatches."""

    n_clusters: int
    max_iter: int = 20

    def fit(
        self, dataset: Dataset, rng: np.random.Generator | int | None = None
    ) -> ModeBasedClustering:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        gen = ensure_rng(rng)
        names = dataset.schema.names
        codes = dataset.code_matrix(names)
        n = codes.shape[0]
        if n < self.n_clusters:
            # Row count redacted: raw-data-derived, can reach envelopes.
            raise ValueError(
                f"dataset has fewer rows than {self.n_clusters} clusters"
            )
        domain_sizes = [dataset.schema.attribute(nm).domain_size for nm in names]

        # Seed with distinct random rows (retrying to avoid duplicate modes).
        seen: set[tuple[int, ...]] = set()
        modes: list[np.ndarray] = []
        for _ in range(50 * self.n_clusters):
            row = codes[gen.integers(n)]
            key = tuple(int(v) for v in row)
            if key not in seen:
                seen.add(key)
                modes.append(row.copy())
            if len(modes) == self.n_clusters:
                break
        while len(modes) < self.n_clusters:  # fewer distinct rows than clusters
            modes.append(codes[gen.integers(n)].copy())
        mode_mat = np.stack(modes)

        labels = nearest_mode(codes, mode_mat)
        for _ in range(self.max_iter):
            new_modes = mode_mat.copy()
            for c in range(self.n_clusters):
                members = codes[labels == c]
                if len(members) == 0:
                    new_modes[c] = codes[gen.integers(n)]
                else:
                    new_modes[c] = _column_modes(members, domain_sizes)
            new_labels = nearest_mode(codes, new_modes)
            mode_mat = new_modes
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        return ModeBasedClustering(tuple(names), mode_mat)
