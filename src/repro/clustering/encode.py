"""Numeric encodings that let clustering substrates consume coded tuples.

Following the paper's preprocessing ("categorical attributes are transformed
into equivalent numerical data by mapping each domain value to a unique
integer", Section 6.1), clustering algorithms operate on the matrix of domain
codes.  Encoders are *fitted statistics + a pure function of tuple values*, so
a fitted clustering model composes with an encoder into a clustering function
``f : dom(R) -> C`` as Definition 3.1 requires.

Because the function is per-attribute, an encoder evaluates it once per
code of ``dom(A)`` (:meth:`tables`) and gathers tuples through the resulting
lookup tables.  Each table entry goes through the same IEEE operations as
the row-major ``(matrix - means) / scales`` it replaces, so the encoded
values are bit-identical to it.  ``transform_columns`` returns them
attribute-major, as the gather writes them (:meth:`Dataset.lookup_columns`);
``transform`` returns the tuple-major C-order matrix the fitters reduce over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset.schema import Schema
from ..dataset.table import Dataset, code_tables


class _TableEncoder:
    """Shared ``transform`` surface of the lookup-table encoders."""

    names: tuple[str, ...]

    def tables(self, schema: Schema) -> list[np.ndarray]:
        """The encoded value of every code of each attribute in ``names``."""
        raise NotImplementedError

    def transform(self, dataset: Dataset) -> np.ndarray:
        """Encoded tuples, tuple-major (n x dim, C order)."""
        return dataset.lookup_matrix(self.names, self.tables(dataset.schema))

    def transform_columns(self, dataset: Dataset) -> np.ndarray:
        """Encoded tuples, attribute-major (dim x n, C order)."""
        return dataset.lookup_columns(self.names, self.tables(dataset.schema))

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class StandardEncoder(_TableEncoder):
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

    def tables(self, schema: Schema) -> list[np.ndarray]:
        return [
            (grid - mean) / scale
            for grid, mean, scale in zip(
                code_tables(schema, self.names), self.means, self.scales
            )
        ]


@dataclass(frozen=True)
class MinMaxEncoder(_TableEncoder):
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

    def tables(self, schema: Schema) -> list[np.ndarray]:
        span = np.where(self.highs > self.lows, self.highs - self.lows, 1.0)
        return [
            2.0 * (grid - low) / width - 1.0
            for grid, low, width in zip(code_tables(schema, self.names), self.lows, span)
        ]


@dataclass(frozen=True)
class IdentityEncoder(_TableEncoder):
    """Raw integer codes as floats (used by k-modes, which works on codes)."""

    names: tuple[str, ...]

    @classmethod
    def fit(cls, dataset: Dataset, names: Sequence[str] | None = None) -> "IdentityEncoder":
        names = tuple(names) if names is not None else dataset.schema.names
        return cls(names)

    def tables(self, schema: Schema) -> list[np.ndarray]:
        return code_tables(schema, self.names)
