"""The exponential mechanism (Definition 2.9) with utility helpers.

Given candidates ``r in R`` with quality scores ``q(D, r)`` of sensitivity
``Delta_q``, the mechanism outputs ``r`` with probability proportional to
``exp(eps * q(D, r) / (2 * Delta_q))`` and satisfies ``eps``-DP
(Theorem 2.10).  We sample via the Gumbel-max trick — ``argmax`` of
``eps * q / (2 Delta) + Gumbel(1)`` has exactly the EM distribution — which is
numerically stable for the large score magnitudes produced by the
low-sensitivity quality functions (range up to ``|D_c|``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import check_epsilon
from .manifest import register_sanitizer
from .rng import batch_score_rows, ensure_rng, gumbel_rows


@dataclass(frozen=True)
class ExponentialMechanism:
    """Private selection of one candidate by quality score.

    Parameters
    ----------
    epsilon:
        Privacy parameter of the selection.
    sensitivity:
        An upper bound ``Delta_q`` on the quality function's sensitivity
        (Definition 2.8).  Using an upper bound preserves the DP guarantee.
    """

    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        if not self.sensitivity > 0.0:
            raise ValueError("sensitivity must be positive")

    def logits(self, scores: np.ndarray) -> np.ndarray:
        """The unnormalised log-probabilities ``eps * q / (2 Delta)``."""
        scores = np.asarray(scores, dtype=np.float64)
        return self.epsilon * scores / (2.0 * self.sensitivity)

    def probabilities(self, scores: np.ndarray) -> np.ndarray:
        """Exact output distribution over candidates (for tests / analysis)."""
        logit = self.logits(scores)
        logit = logit - logit.max()
        w = np.exp(logit)
        return w / w.sum()

    def select_index(
        self, scores: np.ndarray, rng: np.random.Generator | int | None = None
    ) -> int:
        """Sample a candidate index from the EM distribution (Gumbel-max)."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D array")
        gen = ensure_rng(rng)
        noisy = self.logits(scores) + gen.gumbel(size=scores.size)
        return int(np.argmax(noisy))

    def select_indices(
        self,
        scores: np.ndarray,
        n_draws: int | None = None,
        rng: "np.random.Generator | int | None | Sequence[np.random.Generator]" = None,
    ) -> np.ndarray:
        """``R`` independent EM draws in one vectorised pass.

        ``scores`` is either a shared 1-D score vector (``n_draws`` required)
        or an ``(R, n)`` matrix of per-draw score rows.  ``rng`` is a single
        generator/seed — one ``(R, n)`` Gumbel draw, *stream-identical* to
        ``R`` sequential :meth:`select_index` calls on the same generator —
        or a sequence of ``R`` generators, row ``i`` drawing its noise from
        ``rng[i]`` (matching the spawned per-seed child streams of a
        repeated-trial loop).  Row ``i`` of the returned index vector is
        distributed exactly as ``select_index(scores_i, rng_i)``.
        """
        base, n_rows = batch_score_rows(scores, n_draws)
        if n_rows < 1 or base.shape[1] == 0:
            raise ValueError("need at least one draw over non-empty scores")
        noise = gumbel_rows(rng, n_rows, base.shape[1])
        return np.argmax(self.logits(base) + noise, axis=1)

    def utility_bound(self, n_candidates: int, t: float) -> float:
        """Additive-error bound of Theorem 2.10.

        With probability at least ``1 - e^{-t}``, the selected score is within
        ``(2 Delta / eps) * (ln |R| + t)`` of the optimum.
        """
        if n_candidates < 1:
            raise ValueError("need at least one candidate")
        return (2.0 * self.sensitivity / self.epsilon) * (np.log(n_candidates) + t)


# Self-register this backend's release surface with the taint manifest:
# `repro lint` treats values returned by these as DP-safe.
register_sanitizer("select_index")
register_sanitizer("select_indices")
