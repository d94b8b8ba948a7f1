"""Clustering functions ``f : dom(R) -> C`` — the black-box interface.

The paper models the *output* of a (DP) clustering algorithm as a function
from the full tuple domain to cluster labels (Section 2.1): fixed centers
define an assignment for any tuple, which is what lets the explanation
mechanism compose sequentially with the clustering mechanism (Definition 3.1).
Every model here is value-based — assignment depends only on a tuple's
attribute values, never on its position in the dataset — and therefore *is*
such a function.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..dataset.table import Dataset
from .encode import IdentityEncoder, MinMaxEncoder, StandardEncoder

Encoder = "StandardEncoder | MinMaxEncoder | IdentityEncoder"


class ClusteringFunction(ABC):
    """A total function from tuples to cluster labels ``{0, ..., |C|-1}``."""

    @property
    @abstractmethod
    def n_clusters(self) -> int:
        """``|C|`` — the number of cluster labels."""

    @abstractmethod
    def assign(self, dataset: Dataset) -> np.ndarray:
        """Label every tuple of ``dataset``; returns an int array of length |D|."""

    def cluster_sizes(self, dataset: Dataset) -> np.ndarray:
        """``(|D_c|)_{c in C}`` for the given dataset."""
        labels = self.assign(dataset)
        return np.bincount(labels, minlength=self.n_clusters).astype(np.int64)

    def partition_masks(self, dataset: Dataset) -> list[np.ndarray]:
        """Boolean masks of the disjoint clusters ``{D_c}``."""
        labels = self.assign(dataset)
        return [labels == c for c in range(self.n_clusters)]


@dataclass(frozen=True)
class CenterBasedClustering(ClusteringFunction):
    """Nearest-center assignment in an encoded metric space.

    Covers k-means, DP-k-means (released centers), GMM hard assignment via
    centroids, and the nearest-centroid extension of agglomerative clustering.
    """

    encoder: "StandardEncoder | MinMaxEncoder | IdentityEncoder"
    centers: np.ndarray  # (k, dim) in encoded space

    @property
    def n_clusters(self) -> int:
        return int(self.centers.shape[0])

    def assign(self, dataset: Dataset) -> np.ndarray:
        points = self.encoder.transform(dataset)
        if points.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return nearest_center(points, self.centers)


@dataclass(frozen=True)
class ModeBasedClustering(ClusteringFunction):
    """Minimum-mismatch assignment to categorical modes (k-modes)."""

    names: tuple[str, ...]
    modes: np.ndarray  # (k, d) integer codes

    @property
    def n_clusters(self) -> int:
        return int(self.modes.shape[0])

    def assign(self, dataset: Dataset) -> np.ndarray:
        codes = dataset.code_matrix(self.names)
        if codes.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return nearest_mode(codes, self.modes)


@dataclass(frozen=True)
class GaussianMixtureClustering(ClusteringFunction):
    """Max-posterior assignment under a diagonal-covariance Gaussian mixture."""

    encoder: "StandardEncoder | MinMaxEncoder | IdentityEncoder"
    means: np.ndarray  # (k, dim)
    variances: np.ndarray  # (k, dim), strictly positive
    log_weights: np.ndarray  # (k,)

    @property
    def n_clusters(self) -> int:
        return int(self.means.shape[0])

    def log_joint(self, points: np.ndarray) -> np.ndarray:
        """``log pi_k + log N(x | mu_k, diag(var_k))`` for every point/component."""
        diff = points[:, None, :] - self.means[None, :, :]
        quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        log_det = np.sum(np.log(self.variances), axis=1)
        d = points.shape[1]
        return self.log_weights[None, :] - 0.5 * (
            quad + log_det[None, :] + d * np.log(2.0 * np.pi)
        )

    def assign(self, dataset: Dataset) -> np.ndarray:
        points = self.encoder.transform(dataset)
        if points.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return np.argmax(self.log_joint(points), axis=1).astype(np.int64)


@dataclass(frozen=True)
class PredicateClustering(ClusteringFunction):
    """User-defined predicates over tuple values (Section 2.1 mentions these).

    ``predicates`` are evaluated in order on the decoded tuple; the first
    match wins, and tuples matching none fall into an implicit final cluster.
    """

    names: tuple[str, ...]
    predicates: tuple[Callable[[dict[str, str]], bool], ...]

    @property
    def n_clusters(self) -> int:
        return len(self.predicates) + 1

    def assign(self, dataset: Dataset) -> np.ndarray:
        labels = np.full(len(dataset), len(self.predicates), dtype=np.int64)
        for i in range(len(dataset)):
            row = dict(zip(dataset.schema.names, dataset.row(i)))
            for c, pred in enumerate(self.predicates):
                if pred(row):
                    labels[i] = c
                    break
        return labels


def nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the closest center (squared Euclidean) per point, blockwise."""
    n = points.shape[0]
    out = np.empty(n, dtype=np.int64)
    block = max(1, int(4_000_000 // max(centers.shape[0], 1)))
    c_sq = np.sum(centers * centers, axis=1)
    for start in range(0, n, block):
        chunk = points[start : start + block]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 constant per row.
        d = chunk @ centers.T
        d = c_sq[None, :] - 2.0 * d
        out[start : start + block] = np.argmin(d, axis=1)
    return out


def nearest_mode(codes: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Index of the mode with the fewest attribute mismatches per row."""
    n = codes.shape[0]
    k = modes.shape[0]
    out = np.empty(n, dtype=np.int64)
    block = max(1, int(8_000_000 // max(k * codes.shape[1], 1)))
    for start in range(0, n, block):
        chunk = codes[start : start + block]
        mism = np.sum(chunk[:, None, :] != modes[None, :, :], axis=2)
        out[start : start + block] = np.argmin(mism, axis=1)
    return out


def subsample_indices(
    n: int, max_rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform row subsample used by quadratic-cost fitters (agglomerative)."""
    if n <= max_rows:
        return np.arange(n)
    return np.sort(rng.choice(n, size=max_rows, replace=False))
