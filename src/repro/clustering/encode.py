"""Numeric encodings that let clustering substrates consume coded tuples.

Following the paper's preprocessing ("categorical attributes are transformed
into equivalent numerical data by mapping each domain value to a unique
integer", Section 6.1), clustering algorithms operate on the matrix of domain
codes.  Encoders are *fitted statistics + a pure function of tuple values*, so
a fitted clustering model composes with an encoder into a clustering function
``f : dom(R) -> C`` as Definition 3.1 requires.

Because the function is per-attribute, ``transform`` evaluates it once per
code of ``dom(A)`` and gathers rows through the resulting lookup tables
(:meth:`Dataset.lookup_matrix`).  Each table entry goes through the same
IEEE operations as the row-major ``(matrix - means) / scales`` it replaces,
so the encoded matrix is bit-identical to it, in the same C order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset.table import Dataset, code_tables


@dataclass(frozen=True)
class StandardEncoder:
    """Z-score encoding of the code matrix (zero-variance columns pass through)."""

    names: tuple[str, ...]
    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(cls, dataset: Dataset, names: Sequence[str] | None = None) -> "StandardEncoder":
        names = tuple(names) if names is not None else dataset.schema.names
        mat = dataset.to_matrix(names)
        if mat.shape[0] == 0:
            means = np.zeros(len(names))
            scales = np.ones(len(names))
        else:
            means = mat.mean(axis=0)
            scales = mat.std(axis=0)
            scales = np.where(scales > 0, scales, 1.0)
        return cls(names, means, scales)

    def transform(self, dataset: Dataset) -> np.ndarray:
        tables = [
            (grid - mean) / scale
            for grid, mean, scale in zip(
                code_tables(dataset.schema, self.names), self.means, self.scales
            )
        ]
        return dataset.lookup_matrix(self.names, tables)

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class MinMaxEncoder:
    """Scale codes into ``[-1, 1]^d`` using *data-independent* domain bounds.

    DP-k-means needs coordinates bounded by a constant to calibrate noise;
    because attribute domains are finite and data-independent (Section 2),
    scaling by ``|dom(A)| - 1`` leaks nothing about the dataset.
    """

    names: tuple[str, ...]
    lows: np.ndarray
    highs: np.ndarray

    @classmethod
    def fit(cls, dataset: Dataset, names: Sequence[str] | None = None) -> "MinMaxEncoder":
        names = tuple(names) if names is not None else dataset.schema.names
        lows = np.zeros(len(names))
        highs = np.array(
            [max(dataset.schema.attribute(n).domain_size - 1, 1) for n in names],
            dtype=np.float64,
        )
        return cls(names, lows, highs)

    def transform(self, dataset: Dataset) -> np.ndarray:
        span = np.where(self.highs > self.lows, self.highs - self.lows, 1.0)
        tables = [
            2.0 * (grid - low) / width - 1.0
            for grid, low, width in zip(
                code_tables(dataset.schema, self.names), self.lows, span
            )
        ]
        return dataset.lookup_matrix(self.names, tables)

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class IdentityEncoder:
    """Raw integer codes as floats (used by k-modes, which works on codes)."""

    names: tuple[str, ...]

    @classmethod
    def fit(cls, dataset: Dataset, names: Sequence[str] | None = None) -> "IdentityEncoder":
        names = tuple(names) if names is not None else dataset.schema.names
        return cls(names)

    def transform(self, dataset: Dataset) -> np.ndarray:
        return dataset.to_matrix(self.names)

    @property
    def dim(self) -> int:
        return len(self.names)
