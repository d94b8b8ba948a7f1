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
        return nearest_center_columns(
            self.encoder.transform_columns(dataset), self.centers
        )


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
        """``log pi_k + log N(x | mu_k, diag(var_k))`` for every point/component.

        Evaluated in row blocks whose ``(rows, k, d)`` temporaries hold at
        most ``_BLOCK_ELEMS`` elements.  Each entry still sums its own
        contiguous ``d`` terms, so the result does not depend on the block.
        """
        n, d = points.shape
        k = self.means.shape[0]
        out = np.empty((n, k), dtype=np.float64)
        log_det = np.sum(np.log(self.variances), axis=1)
        rows = max(1, _BLOCK_ELEMS // max(k * d, 1))
        for start in range(0, n, rows):
            diff = points[start : start + rows, None, :] - self.means[None, :, :]
            quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
            out[start : start + rows] = self.log_weights[None, :] - 0.5 * (
                quad + log_det[None, :] + d * np.log(2.0 * np.pi)
            )
        return out

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


#: Element bound on one block's scratch in the row-blocked kernels: the
#: ``(k, rows)`` distance matrix of :func:`nearest_center_columns` and the
#: ``(rows, k, d)`` temporaries of ``GaussianMixtureClustering.log_joint``.
_BLOCK_ELEMS = 4_000_000


def nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the closest center (squared Euclidean) per row of ``points``."""
    return nearest_center_columns(points.T, centers)


def nearest_center_columns(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the closest center per column of the ``(d, n)`` ``columns``.

    ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2`` and ``||x||^2`` is the same
    for every center, so each block ranks ``||c||^2 - 2 C @ X``.  The block
    is a ``(k, rows)`` matrix: scaling it by ``-2`` in place is exact, so it
    holds the same values as ``c_sq - 2.0 * (X.T @ C.T)``.  The labels come
    from a running strict-``<`` minimum over its ``k`` rows (``argmin``
    over the short axis of a ``(rows, k)`` matrix is several times slower);
    like ``argmin`` it sends ties to the lowest index.  The label update is
    ``max(label, j * below)``, exact because every earlier label is below
    ``j``, and much cheaper than a masked copy on a random mask.  Distances
    are assumed finite (a NaN would not win as it does under ``argmin``).
    """
    n = columns.shape[1]
    k = centers.shape[0]
    out = np.empty(n, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMS // max(k, 1))
    c_sq = np.sum(centers * centers, axis=1)[:, None]
    for start in range(0, n, rows):
        dist = centers @ columns[:, start : start + rows]
        dist *= -2.0
        dist += c_sq
        label = out[start : start + rows]
        label.fill(0)
        best = dist[0]
        below = np.empty(best.shape, dtype=bool)
        step = np.empty_like(label)
        for j in range(1, k):
            np.less(dist[j], best, out=below)
            np.minimum(best, dist[j], out=best)
            np.multiply(below, j, out=step)
            np.maximum(label, step, out=label)
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
