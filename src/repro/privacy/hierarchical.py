"""Hierarchical DP histograms with constrained inference (Hay et al. [29]).

The paper's reference [29] ("Boosting the Accuracy of Differentially Private
Histograms Through Consistency") releases a *tree* of noisy interval counts
over the domain and post-processes it into a consistent estimate.  Compared
to the flat per-bin mechanisms, leaves get noisier (the budget splits across
``h`` levels) but *range queries* — sums over contiguous bins, e.g. "how many
patients with lab_proc >= 50", precisely the cumulative statements our
textual descriptions make — improve from ``Theta(r)`` noise terms to
``O(log r)``.

Mechanism.  Build a ``b``-ary interval tree over the (padded) domain.  Each
*level* is a partition of the domain, so releases within a level compose in
parallel; the ``h`` levels compose sequentially, giving each node Laplace
noise at ``eps / h``.  Constrained inference is Hay et al.'s two-pass
weighted least squares:

* upward: ``z[v] = ((b^l - b^(l-1)) / (b^l - 1)) * noisy[v]
  + ((b^(l-1) - 1) / (b^l - 1)) * sum(z[children])`` (leaves: ``z = noisy``),
  where ``l`` is the node's height (leaves at ``l = 1``);
* downward: ``hbar[root] = z[root]``; for a child ``u`` of ``v``:
  ``hbar[u] = z[u] + (hbar[v] - sum(z[siblings incl. u])) / b``.

The released histogram is the leaf vector of ``hbar`` (consistent by
construction: children sum to parents).  All inference is post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .histograms import HistogramMechanism, as_runs
from .mechanisms import LaplaceMechanism


def _tree_shape(n_bins: int, branching: int) -> tuple[int, int]:
    """(padded leaf count, number of levels) for the interval tree."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if branching < 2:
        raise ValueError("branching factor must be >= 2")
    height = 1
    leaves = 1
    while leaves < n_bins:
        leaves *= branching
        height += 1
    return leaves, height


@dataclass(frozen=True)
class HierarchicalHistogram(HistogramMechanism):
    """Tree-structured DP histogram release with consistency post-processing.

    Subclasses :class:`~repro.privacy.histograms.HistogramMechanism`, as the
    flat mechanisms do, so it drops into
    ``DPClustX(histogram_mechanism=HierarchicalHistogram(1.0))`` unchanged.
    """

    branching: int = 2
    clamp_negative: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.branching < 2:
            raise ValueError("branching factor must be >= 2")

    def release_runs(
        self,
        runs: "Sequence[Sequence[np.ndarray]]",
        epsilons: "Sequence[float]",
        gens: "Sequence[np.random.Generator | int | None]",
    ) -> np.ndarray:
        """Release every row of each run's ``(R_i, m_i)`` blocks as its own
        tree, one consistent noisy histogram over ``m_i`` bins per row.

        Runs are released one after another.  A block is one Laplace draw
        from its run's generator over its rows' concatenated levels (leaves
        first, root last), row by row: the order of releasing the rows one
        at a time.  Level sums and both inference passes run on the leading
        row axis.
        """
        runs, epsilons, gens = as_runs(runs, epsilons, gens, np.float64)
        out = [np.empty(0)]
        for mats, eps, gen in zip(runs, epsilons, gens):
            for m in mats:
                out.append(self._release_block(m, eps, gen).ravel())
        return np.concatenate(out)

    def _release_block(
        self, m: np.ndarray, epsilon: float, gen: np.random.Generator
    ) -> np.ndarray:
        n_rows, n_bins = m.shape
        leaves, height = _tree_shape(n_bins, self.branching)
        padded = np.zeros((n_rows, leaves))
        padded[:, :n_bins] = m
        # levels[0] = leaves ... levels[-1] = root; true interval sums.
        levels = [padded]
        while levels[-1].shape[1] > 1:
            levels.append(self._child_sums(levels[-1]))
        mech = LaplaceMechanism(epsilon / height, 1.0)
        noisy = mech.randomise(np.concatenate(levels, axis=1), gen)
        bounds = np.cumsum([lv.shape[1] for lv in levels])[:-1]
        hbar = self._downward_pass(
            self._upward_pass(np.split(noisy, bounds, axis=1))
        )
        released = hbar[0][:, :n_bins]
        if self.clamp_negative:
            np.maximum(released, 0.0, out=released)
        return released

    def _child_sums(self, level: np.ndarray) -> np.ndarray:
        """Sum each run of ``branching`` siblings along the last axis."""
        return level.reshape(level.shape[:-1] + (-1, self.branching)).sum(axis=-1)

    def _upward_pass(self, noisy: list[np.ndarray]) -> list[np.ndarray]:
        b = float(self.branching)
        z: list[np.ndarray] = [noisy[0].copy()]
        for l in range(1, len(noisy)):  # height l+1 in Hay et al.'s indexing
            child_sums = self._child_sums(z[l - 1])
            bl = b ** (l + 1)
            bl1 = b**l
            alpha = (bl - bl1) / (bl - 1.0)
            beta = (bl1 - 1.0) / (bl - 1.0)
            z.append(alpha * noisy[l] + beta * child_sums)
        return z

    def _downward_pass(self, z: list[np.ndarray]) -> list[np.ndarray]:
        b = float(self.branching)
        hbar: list[np.ndarray] = [None] * len(z)  # type: ignore[list-item]
        hbar[-1] = z[-1].copy()
        for l in range(len(z) - 2, -1, -1):
            parents = hbar[l + 1]
            child_z = z[l].reshape(z[l].shape[:-1] + (-1, self.branching))
            correction = (parents - child_z.sum(axis=-1)) / b
            hbar[l] = (child_z + correction[..., None]).reshape(z[l].shape)
        return hbar

    def range_query(
        self,
        released: np.ndarray,
        lo: int,
        hi: int,
    ) -> float:
        """Sum of released bins ``[lo, hi)`` (pure post-processing)."""
        if not 0 <= lo <= hi <= len(released):
            raise ValueError("invalid range")
        return float(np.asarray(released)[lo:hi].sum())

    def expected_leaf_variance(self, n_bins: int) -> float:
        """Upper bound on per-leaf variance before inference: ``2 (h/eps)^2``.

        Constrained inference only reduces it; used by tests as a sanity
        ceiling.
        """
        _, height = _tree_shape(n_bins, self.branching)
        scale = height / self.epsilon
        return 2.0 * scale * scale
