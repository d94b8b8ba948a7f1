"""Stacked count tensors — the data layer of the batched scoring engine.

Every quality function of Section 4 is a function of the per-attribute count
matrices ``h_A(D_c)`` and vectors ``h_A(D)``.  The scalar API fetches them one
``(cluster, attribute)`` pair at a time; :class:`CountsStack` materialises
them *once* as dense tensors (``CountsProvider.by_cluster_stack`` builds and
caches one per provider) so the kernels in
:mod:`repro.core.engine.kernels` can evaluate all ``O(|C| * |A|)`` pairs in a
handful of NumPy expressions.

Attributes have heterogeneous domain sizes, so a single rectangular tensor
would waste memory padding every attribute to ``max |dom(A)|`` (ruinous for
the Cartesian-product pseudo-attributes of :mod:`repro.core.pairs`).  The
stack therefore groups attributes into :class:`DomainBucket`\\ s, one per
power-of-two domain-size class: attributes are zero-padded up to the class
width (every kernel is invariant to trailing zero bins), bounding both the
padding waste (< 2x) and the bucket count (log of the largest domain), so
kernels run a handful of vectorised passes regardless of schema shape.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


@functools.lru_cache(maxsize=32)
def _bucket_layout(
    names: tuple[str, ...], domain_sizes: tuple[int, ...]
) -> tuple:
    """Bucket structure of a stack, cached per (names, domain sizes).

    The layout — power-of-two width classes, member columns, locator and
    index maps — depends only on the schema, so repeated stack builds over
    the same attribute set (e.g. one noisy release per seed in a sweep)
    reuse it instead of regrouping attributes every time.  The maps are
    shared by every stack of the schema, so they are returned as read-only
    mapping proxies.
    """
    by_class: dict[int, list[int]] = {}
    for j, m in enumerate(domain_sizes):
        by_class.setdefault(1 << max(m - 1, 0).bit_length(), []).append(j)
    buckets = tuple(
        (width, tuple(cols)) for width, cols in sorted(by_class.items())
    )
    locator = types.MappingProxyType(
        {
            names[j]: (b, r)
            for b, (_, cols) in enumerate(buckets)
            for r, j in enumerate(cols)
        }
    )
    index = types.MappingProxyType({n: j for j, n in enumerate(names)})
    return buckets, locator, index


@dataclass(frozen=True)
class DomainBucket:
    """All attributes of one domain-size class, stacked densely.

    Rows are zero-padded from the attribute's true domain size up to the
    class width ``m`` — harmless for every kernel, since empty bins
    contribute nothing to any quality function.
    """

    indices: np.ndarray
    """Positions of the bucket's attributes inside ``CountsStack.names``."""

    by_cluster: np.ndarray
    """``(|A_b|, |C|, m)`` float64 tensor of per-cluster counts."""

    full: np.ndarray
    """``(|A_b|, m)`` float64 matrix of full-data counts."""

    domain_sizes: np.ndarray
    """``(|A_b|,)`` true (unpadded) domain size of each row."""

    @property
    def width(self) -> int:
        return int(self.by_cluster.shape[2])


@dataclass(frozen=True)
class CountsStack:
    """Dense, immutable snapshot of a :class:`~repro.core.counts.CountsProvider`.

    ``totals[j]`` is ``|D|`` (or its per-attribute noisy proxy) for attribute
    ``names[j]``; ``sizes[j, c]`` is ``|D_c|`` (or its proxy).  ``locate``
    maps an attribute name to its ``(bucket, row)`` coordinates.
    """

    names: tuple[str, ...]
    n_clusters: int
    totals: np.ndarray
    sizes: np.ndarray
    buckets: tuple[DomainBucket, ...]
    index: Mapping[str, int]
    locator: Mapping[str, tuple[int, int]]

    @property
    def n_attributes(self) -> int:
        return len(self.names)

    def columns(self, names: Sequence[str]) -> np.ndarray:
        """Column indices of ``names`` inside the stack's attribute order."""
        try:
            index = self.index
            return np.array([index[n] for n in names], dtype=np.intp)
        except KeyError as exc:  # pragma: no cover - defensive
            raise KeyError(f"attribute {exc.args[0]!r} not in stack") from exc

    def attribute_counts(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(h_A(D_c) matrix, h_A(D) vector)`` for one attribute, unpadded."""
        b, r = self.locator[name]
        bucket = self.buckets[b]
        m = int(bucket.domain_sizes[r])
        return bucket.by_cluster[r, :, :m], bucket.full[r, :m]

    @classmethod
    def from_provider(cls, counts) -> "CountsStack":
        """Materialise the stack from a :class:`~repro.core.counts.CountsProvider`.

        Reads each attribute's ``by_cluster`` matrix and ``full`` vector once,
        and the totals and sizes through the provider's vectorised
        ``totals_vector`` / ``sizes_matrix``.
        """
        names = tuple(counts.names)
        n_clusters = int(counts.n_clusters)
        sizes_tuple = tuple(int(counts.domain_size(n)) for n in names)
        layout, locator, index = _bucket_layout(names, sizes_tuple)
        buckets: list[DomainBucket] = []
        for width, cols in layout:
            tensor = np.zeros((len(cols), n_clusters, width), dtype=np.float64)
            full = np.zeros((len(cols), width), dtype=np.float64)
            for r, j in enumerate(cols):
                m = sizes_tuple[j]
                tensor[r, :, :m] = counts.by_cluster(names[j])
                full[r, :m] = counts.full(names[j])
            buckets.append(
                DomainBucket(
                    indices=np.asarray(cols, dtype=np.intp),
                    by_cluster=tensor,
                    full=full,
                    domain_sizes=np.array(
                        [sizes_tuple[j] for j in cols], dtype=np.intp
                    ),
                )
            )
        return cls(
            names=names,
            n_clusters=n_clusters,
            totals=np.asarray(counts.totals_vector(names), dtype=np.float64),
            sizes=np.asarray(counts.sizes_matrix(names), dtype=np.float64),
            buckets=tuple(buckets),
            index=index,
            locator=locator,
        )
