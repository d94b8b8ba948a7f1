"""Diversity: the low-sensitivity pairwise/global measures of Definitions
4.8-4.9 and the sensitive permutation-based ``Div`` of [8] (Appendix A.3).

Low-sensitivity pair diversity:

``d(D, f, c, c', A_c, A_c') = min{|D_c|, |D_c'|} * (1 if A_c != A_c' else
TVD(pi_A(D_c), pi_A(D_c')))``

Global: ``Div_p = average of d over all distinct cluster pairs`` — sensitivity
<= 1 (Proposition 4.10).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ...privacy.rng import ensure_rng
from ..counts import CountsProvider
from .distances import normalize_counts, tvd_probs


def pair_diversity_low_sens(
    counts: CountsProvider, c: int, c2: int, attr_c: str, attr_c2: str
) -> float:
    """``d`` (Definition 4.8) for one ordered-insensitive cluster pair."""
    n_c = counts.cluster_size(attr_c, c)
    n_c2 = counts.cluster_size(attr_c2, c2)
    weight = min(n_c, n_c2)
    if attr_c != attr_c2:
        return float(weight)
    p = np.asarray(counts.cluster(attr_c, c), dtype=np.float64) / max(n_c, 1.0)
    q = np.asarray(counts.cluster(attr_c, c2), dtype=np.float64) / max(n_c2, 1.0)
    return float(weight) * 0.5 * float(np.abs(p - q).sum())


def global_diversity_low_sens(
    counts: CountsProvider, attributes: "tuple[str, ...] | list[str]"
) -> float:
    """``Div_p`` (Definition 4.9): average of all pairwise diversities."""
    k = counts.n_clusters
    if len(attributes) != k:
        raise ValueError("need one attribute per cluster")
    if k < 2:
        return 0.0
    pairs = list(itertools.combinations(range(k), 2))
    acc = sum(
        pair_diversity_low_sens(counts, c, c2, attributes[c], attributes[c2])
        for c, c2 in pairs
    )
    return acc / len(pairs)


def diversity_range(cluster_sizes: np.ndarray) -> float:
    """``R_Div`` of Proposition 4.10: the weighted average of cluster sizes.

    ``R_Div = (1 / C(|C|,2)) * sum_i (|C| - i) * |D_{c_i}|`` with sizes sorted
    ascending (1-indexed ``i`` in the paper; here the smallest cluster gets
    weight ``|C| - 1``).
    """
    sizes = np.sort(np.asarray(cluster_sizes, dtype=np.float64))
    k = sizes.size
    if k < 2:
        return 0.0
    weights = np.arange(k - 1, -1, -1, dtype=np.float64)
    return float((weights * sizes).sum() / math.comb(k, 2))


# --------------------------------------------------------------------------- #
# sensitive, permutation-based diversity of [8] (Appendix A.3)
# --------------------------------------------------------------------------- #

_EXACT_PERMUTATION_LIMIT = 6
_MC_SAMPLES = 300


def _cluster_tvd_matrix(
    counts: CountsProvider, clusters: "tuple[int, ...]", name: str
) -> np.ndarray:
    """Pairwise TVDs between cluster value distributions on one attribute."""
    dists = [normalize_counts(counts.cluster(name, c)) for c in clusters]
    g = len(clusters)
    out = np.zeros((g, g))
    for i in range(g):
        for j in range(i + 1, g):
            out[i, j] = out[j, i] = tvd_probs(dists[i], dists[j])
    return out


@functools.lru_cache(maxsize=8)
def _all_perms(g: int) -> np.ndarray:
    """All permutations of ``range(g)`` as a ``(g!, g)`` index matrix."""
    return np.array(list(itertools.permutations(range(g))), dtype=np.intp)


def _perm_div_batch(tvd: np.ndarray, perms: np.ndarray) -> float:
    """Mean ``PermDiv`` over a ``(P, g)`` permutation matrix, vectorised.

    One gather builds the ``(P, g, g)`` permuted-TVD tensor; the prefix-min
    of row ``i`` over columns ``< i`` is then a handful of axis-mins instead
    of ``P * g^2 / 2`` scalar comparisons.
    """
    g = perms.shape[1]
    gathered = tvd[perms[:, :, None], perms[:, None, :]]
    acc = np.full(perms.shape[0], 1.0)  # the first pick contributes 1
    for i in range(1, g):
        acc += gathered[:, i, :i].min(axis=1)
    return float(acc.sum() / perms.shape[0])


def _avg_perm_div(
    tvd: np.ndarray, rng: np.random.Generator, n_samples: int = _MC_SAMPLES
) -> float:
    """Average PermDiv over permutations: exact for small groups, MC above."""
    g = tvd.shape[0]
    if g == 1:
        return 1.0
    if g == 2:
        # Both orderings score 1 + TVD, and mean(x, x) == x exactly.
        return 1.0 + float(tvd[0, 1])
    if g <= _EXACT_PERMUTATION_LIMIT:
        return _perm_div_batch(tvd, _all_perms(g))
    perms = np.stack([rng.permutation(g) for _ in range(n_samples)])
    return _perm_div_batch(tvd, perms)


def global_diversity_sensitive(
    counts: CountsProvider,
    attributes: "tuple[str, ...] | list[str]",
    rng: np.random.Generator | int | None = 0,
    normalized: bool = True,
) -> float:
    """The sensitive ``Div`` of [8] (Appendix A.3).

    Groups clusters by their assigned attribute (``ExpBy``), averages
    ``PermDiv`` over the group's permutations, and sums across attributes.
    ``normalized=True`` divides by ``|C|`` to land in [0, 1] (footnote 6) —
    the form used by the evaluation ``Quality`` metric.  Groups larger than
    6 are averaged by Monte-Carlo with a pinned default seed, keeping the
    evaluation deterministic.
    """
    k = counts.n_clusters
    if len(attributes) != k:
        raise ValueError("need one attribute per cluster")
    gen = ensure_rng(rng)
    by_attr: dict[str, list[int]] = {}
    for c, a in enumerate(attributes):
        by_attr.setdefault(a, []).append(c)
    total = 0.0
    for name, clusters in by_attr.items():
        tvd = _cluster_tvd_matrix(counts, tuple(clusters), name)
        total += _avg_perm_div(tvd, gen)
    if normalized:
        total /= k
    return total
