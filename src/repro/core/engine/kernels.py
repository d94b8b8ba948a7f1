"""Array-level quality kernels over a :class:`CountsStack`.

Each kernel evaluates one quality function of Section 4 (or its sensitive
Section-6.1 counterpart) for *every* ``(cluster, attribute)`` pair at once,
returning a ``(|C|, |A|)`` matrix whose columns follow ``stack.names``.  The
scalar functions in :mod:`repro.core.quality` remain the reference semantics;
the property tests in ``tests/test_engine.py`` pin the kernels to them to
1e-12 over random schemas, cluster counts, and empty clusters.

Conventions shared with the scalar layer:

* ``|D| <= 0`` zeroes the low-sensitivity interestingness;
* empty histograms normalise to the all-zero vector (TVD convention of
  :func:`~repro.core.quality.distances.tvd_counts`);
* noisy providers may report ``h_A(D) < h_A(D_c)``; sufficiency clamps the
  denominator to ``max(h, h_c, 1e-12)`` exactly like the scalar code.
"""

from __future__ import annotations

import numpy as np

from .stacks import CountsStack

_EPS = 1e-12


def interestingness_low_sens_matrix(stack: CountsStack) -> np.ndarray:
    """``Int_p`` (Definition 4.3) for every (cluster, attribute) pair.

    ``Int_p = (1/2) * sum_a |cnt_{A=a}(D_c) - (|D_c|/|D|) cnt_{A=a}(D)|``.
    """
    out = np.zeros((stack.n_clusters, stack.n_attributes))
    for bucket in stack.buckets:
        n = stack.totals[bucket.indices]
        n_c = stack.sizes[bucket.indices]
        safe_n = np.where(n > 0, n, 1.0)
        ratio = n_c / safe_n[:, None]
        diff = bucket.by_cluster - ratio[:, :, None] * bucket.full[:, None, :]
        vals = 0.5 * np.abs(diff).sum(axis=2)
        vals = np.where(n[:, None] > 0, vals, 0.0)
        out[:, bucket.indices] = vals.T
    return out


def sufficiency_low_sens_matrix(stack: CountsStack) -> np.ndarray:
    """``Suf_p`` (Definition 4.6) for every (cluster, attribute) pair.

    ``Suf_p = sum_{a : cnt(D_c) > 0} cnt_{A=a}(D_c)^2 / max(cnt_{A=a}(D),
    cnt_{A=a}(D_c))`` — terms with a zero cluster count contribute nothing,
    so the masked scalar sum equals the dense sum below.
    """
    out = np.zeros((stack.n_clusters, stack.n_attributes))
    for bucket in stack.buckets:
        h_c = bucket.by_cluster
        denom = np.maximum(np.maximum(bucket.full[:, None, :], h_c), _EPS)
        # The h_c > 0 mask matters beyond skipping zeros: unclamped noisy
        # releases can hold *negative* counts, which the scalar oracle
        # excludes from the sum entirely.
        vals = np.where(h_c > 0, h_c * h_c / denom, 0.0).sum(axis=2)
        out[:, bucket.indices] = vals.T
    return out


def exclusivity_low_sens_matrix(stack: CountsStack) -> np.ndarray:
    """``Exc_p`` (majority mass) for every (cluster, attribute) pair."""
    out = np.zeros((stack.n_clusters, stack.n_attributes))
    for bucket in stack.buckets:
        vals = np.maximum(
            2.0 * bucket.by_cluster - bucket.full[:, None, :], 0.0
        ).sum(axis=2)
        out[:, bucket.indices] = vals.T
    return out


def interestingness_tvd_matrix(stack: CountsStack) -> np.ndarray:
    """Sensitive ``TVD(pi_A(D), pi_A(D_c))`` (Eq. 1) for every pair.

    Either histogram being empty yields 0, matching ``tvd_counts``.
    """
    out = np.zeros((stack.n_clusters, stack.n_attributes))
    for bucket in stack.buckets:
        full_sums = bucket.full.sum(axis=1)
        cluster_sums = bucket.by_cluster.sum(axis=2)
        p = bucket.full / np.where(full_sums > 0, full_sums, 1.0)[:, None]
        q = bucket.by_cluster / np.where(cluster_sums > 0, cluster_sums, 1.0)[
            :, :, None
        ]
        tvd = 0.5 * np.abs(q - p[:, None, :]).sum(axis=2)
        tvd = np.where((full_sums[:, None] > 0) & (cluster_sums > 0), tvd, 0.0)
        out[:, bucket.indices] = tvd.T
    return out


def sufficiency_normalized_matrix(
    stack: CountsStack, sufficiency: np.ndarray | None = None
) -> np.ndarray:
    """``Suf_p / |D_c|`` in [0, 1] for every pair (empty clusters score 0)."""
    if sufficiency is None:
        sufficiency = sufficiency_low_sens_matrix(stack)
    sizes = stack.sizes.T
    return np.where(sizes > 0, sufficiency / np.where(sizes > 0, sizes, 1.0), 0.0)


def pair_tvd_tensor(stack: CountsStack) -> np.ndarray:
    """Definition 4.8's cluster-vs-cluster TVD for *all* pairs at once.

    Returns an ``(|A|, |C|, |C|)`` tensor ``T[a, c, c']`` equal to
    :func:`pair_tvd_vector` evaluated for every cluster pair — one broadcast
    per domain bucket instead of ``C(|C|, 2)`` kernel invocations.
    """
    n_clusters = stack.n_clusters
    out = np.empty((stack.n_attributes, n_clusters, n_clusters))
    for bucket in stack.buckets:
        n = np.maximum(stack.sizes[bucket.indices], 1.0)
        p = bucket.by_cluster / n[:, :, None]
        out[bucket.indices] = 0.5 * np.abs(
            p[:, :, None, :] - p[:, None, :, :]
        ).sum(axis=3)
    return out


def pair_tvd_vector(stack: CountsStack, c: int, c2: int) -> np.ndarray:
    """Per-attribute ``TVD(pi_A(D_c), pi_A(D_c'))`` with Definition 4.8's
    ``max(|D_c|, 1)`` normalisation, as an ``(|A|,)`` vector."""
    out = np.empty(stack.n_attributes)
    for bucket in stack.buckets:
        n1 = np.maximum(stack.sizes[bucket.indices, c], 1.0)
        n2 = np.maximum(stack.sizes[bucket.indices, c2], 1.0)
        p = bucket.by_cluster[:, c, :] / n1[:, None]
        q = bucket.by_cluster[:, c2, :] / n2[:, None]
        out[bucket.indices] = 0.5 * np.abs(p - q).sum(axis=1)
    return out


def diversity_block(
    stack: CountsStack,
    c: int,
    c2: int,
    cols_c: np.ndarray,
    cols_c2: np.ndarray,
    pair_tvd: np.ndarray | None = None,
) -> np.ndarray:
    """``d(D, f, c, c', A, A')`` (Definition 4.8) for a whole candidate block.

    ``cols_c`` / ``cols_c2`` are stack column indices of the two clusters'
    candidate attributes; the result is the ``(k_c, k_c')`` matrix whose
    ``[j, j']`` entry is the pair diversity of ``(cols_c[j], cols_c2[j'])``.
    Off-diagonal (distinct-attribute) entries are the ``min(|D_c|, |D_c'|)``
    weights alone; equal-attribute entries scale the weight by the
    cluster-vs-cluster TVD.
    """
    if pair_tvd is None:
        pair_tvd = pair_tvd_vector(stack, c, c2)
    w = np.minimum(
        stack.sizes[cols_c, c][:, None], stack.sizes[cols_c2, c2][None, :]
    )
    eq = cols_c[:, None] == cols_c2[None, :]
    return np.where(eq, w * pair_tvd[cols_c][:, None], w)


def cluster_tvd_square(stack: CountsStack, name: str) -> np.ndarray:
    """All-pairs ``TVD`` between cluster distributions on one attribute.

    Uses the ``normalize_counts`` convention (empty cluster -> zero vector),
    matching ``QualityEvaluator._tvd_matrix`` and ``_cluster_tvd_matrix``.
    """
    h, _ = stack.attribute_counts(name)
    sums = h.sum(axis=1)
    p = h / np.where(sums > 0, sums, 1.0)[:, None]
    return 0.5 * np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)


def tvd_rows(full: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Batched :func:`~repro.core.quality.distances.tvd_counts` of one full
    histogram against a ``(|C|, m)`` matrix of cluster histograms."""
    full = np.asarray(full, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    fs = full.sum()
    rs = rows.sum(axis=1)
    if fs <= 0:
        return np.zeros(rows.shape[0])
    p = full / fs
    q = rows / np.where(rs > 0, rs, 1.0)[:, None]
    tvd = 0.5 * np.abs(q - p[None, :]).sum(axis=1)
    return np.where(rs > 0, tvd, 0.0)
