"""Combined quality scores: ``Score_gamma`` (Def. 4.11) and ``GlScore_lambda``
(Def. 4.13), plus their sensitive counterparts used by TabEE-style baselines.

Both low-sensitivity scores are convex combinations of sensitivity-1
functions, hence have sensitivity <= 1 (Lemma A.3; Propositions 4.12, 4.14).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..counts import CountsProvider
from .diversity import (
    diversity_range,
    global_diversity_low_sens,
    global_diversity_sensitive,
    pair_diversity_low_sens,
)
from .interestingness import (
    global_interestingness_low_sens,
    global_interestingness_tvd,
    interestingness_low_sens,
    interestingness_tvd,
)
from .sufficiency import (
    cluster_sufficiency_normalized,
    global_sufficiency_low_sens,
    global_sufficiency_sensitive,
    sufficiency_low_sens,
)

SCORE_SENSITIVITY = 1.0
"""Upper bound on the sensitivity of Score_gamma and GlScore_lambda."""


@dataclass(frozen=True)
class Weights:
    """The ``lambda = (lambda_Int, lambda_Suf, lambda_Div)`` hyperparameters.

    Non-negative and summing to 1 (Definition 4.13); the paper's default is
    the equal split 1/3 each (Section 4.4).  ``gamma()`` derives the marginal
    single-cluster weights of Algorithm 2, Line 1.
    """

    lambda_int: float = 1.0 / 3.0
    lambda_suf: float = 1.0 / 3.0
    lambda_div: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        vals = (self.lambda_int, self.lambda_suf, self.lambda_div)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be non-negative")
        total = sum(vals)
        # np.isclose(total, 1.0, atol=1e-9) in plain arithmetic (its default
        # rtol=1e-5 included): this runs on every service request, and the
        # numpy call cost more than the rest of admission.  NaN and inf fail
        # the comparison, as they fail isclose.
        if not abs(total - 1.0) <= 1e-9 + 1e-5:
            raise ValueError(f"weights must sum to 1, got {total}")

    def gamma(self) -> tuple[float, float]:
        """``(gamma_Int, gamma_Suf)`` — Algorithm 2, Line 1.

        When both marginal weights vanish (pure-diversity lambda) we fall
        back to an even split so Stage-1 still ranks candidates.
        """
        denom = self.lambda_int + self.lambda_suf
        if denom <= 0:
            return 0.5, 0.5
        return self.lambda_int / denom, self.lambda_suf / denom

    @classmethod
    def equal(cls) -> "Weights":
        return cls()

    @classmethod
    def without(cls, zeroed: str) -> "Weights":
        """Table 1 configurations: one weight zero, the rest 1/2 each."""
        if zeroed == "int":
            return cls(0.0, 0.5, 0.5)
        if zeroed == "suf":
            return cls(0.5, 0.0, 0.5)
        if zeroed == "div":
            return cls(0.5, 0.5, 0.0)
        raise ValueError(f"unknown weight name {zeroed!r}")


def single_cluster_score(
    counts: CountsProvider,
    c: int,
    name: str,
    gamma_int: float,
    gamma_suf: float,
) -> float:
    """``Score_gamma`` (Definition 4.11): sensitivity <= 1, range [0, |D_c|]."""
    score = 0.0
    if gamma_int:
        score += gamma_int * interestingness_low_sens(counts, c, name)
    if gamma_suf:
        score += gamma_suf * sufficiency_low_sens(counts, c, name)
    return score


def single_cluster_scores_matrix(
    counts: CountsProvider,
    gamma_int: float,
    gamma_suf: float,
    names: "tuple[str, ...] | None" = None,
) -> np.ndarray:
    """``Score_gamma`` for every (cluster, attribute) pair — Algorithm 1's
    inner loop, returned as a ``(|C|, |A|)`` matrix.

    Served by the batched scoring engine (one NumPy expression per quality
    function instead of ``|C| * |A|`` scalar calls); the scalar oracle
    remains available as :func:`single_cluster_scores_matrix_reference`.
    """
    from ..engine import scoring_engine

    return scoring_engine(counts).score_matrix(gamma_int, gamma_suf, names)


def single_cluster_scores_matrix_reference(
    counts: CountsProvider,
    gamma_int: float,
    gamma_suf: float,
    names: "tuple[str, ...] | None" = None,
) -> np.ndarray:
    """Scalar-loop reference for :func:`single_cluster_scores_matrix`.

    Kept as the test oracle the batched kernels are pinned against."""
    names = names if names is not None else counts.names
    out = np.empty((counts.n_clusters, len(names)))
    for c in range(counts.n_clusters):
        for j, a in enumerate(names):
            out[c, j] = single_cluster_score(counts, c, a, gamma_int, gamma_suf)
    return out


def global_score(
    counts: CountsProvider,
    attributes: "tuple[str, ...] | list[str]",
    weights: Weights,
) -> float:
    """``GlScore_lambda`` (Definition 4.13): sensitivity <= 1."""
    score = 0.0
    if weights.lambda_int:
        score += weights.lambda_int * global_interestingness_low_sens(counts, attributes)
    if weights.lambda_suf:
        score += weights.lambda_suf * global_sufficiency_low_sens(counts, attributes)
    if weights.lambda_div:
        score += weights.lambda_div * global_diversity_low_sens(counts, attributes)
    return score


def global_score_range(cluster_sizes: np.ndarray, weights: Weights) -> float:
    """``R_GlScore`` of Proposition 4.14 (used by tests and utility bounds)."""
    sizes = np.asarray(cluster_sizes, dtype=np.float64)
    avg = float(sizes.mean()) if sizes.size else 0.0
    return (weights.lambda_int + weights.lambda_suf) * avg + (
        weights.lambda_div * diversity_range(sizes)
    )


# --------------------------------------------------------------------------- #
# sensitive counterparts (TabEE-style; evaluation and DP-TabEE baseline)
# --------------------------------------------------------------------------- #

SENSITIVE_SCORE_SENSITIVITY = 1.0
"""DP-safe upper bound for the [0, 1]-ranged sensitive scores.

Propositions 4.1 / 4.5 prove the sensitivity is *at least* 1/2; any function
with range [0, 1] has sensitivity at most 1, so calibrating DP-TabEE's noise
to 1 is valid (and the large noise-to-range ratio is exactly the failure mode
the paper demonstrates).
"""


def sensitive_single_cluster_score(
    counts: CountsProvider,
    c: int,
    name: str,
    gamma_int: float,
    gamma_suf: float,
) -> float:
    """TabEE-style per-cluster score in [0, 1]: TVD + normalized sufficiency."""
    score = 0.0
    if gamma_int:
        score += gamma_int * interestingness_tvd(counts, c, name)
    if gamma_suf:
        score += gamma_suf * cluster_sufficiency_normalized(counts, c, name)
    return score


def sensitive_global_score(
    counts: CountsProvider,
    attributes: "tuple[str, ...] | list[str]",
    weights: Weights,
    rng: np.random.Generator | int | None = 0,
) -> float:
    """The sensitive ``Quality`` of Section 6.1 in [0, 1].

    ``lambda_Int * Int + lambda_Suf * Suf + lambda_Div * Div`` with the
    normalized permutation diversity (footnote 6).
    """
    score = 0.0
    if weights.lambda_int:
        score += weights.lambda_int * global_interestingness_tvd(counts, attributes)
    if weights.lambda_suf:
        score += weights.lambda_suf * global_sufficiency_sensitive(counts, attributes)
    if weights.lambda_div:
        score += weights.lambda_div * global_diversity_sensitive(
            counts, attributes, rng, normalized=True
        )
    return score


def enumerate_combinations(
    candidate_sets: "list[list[str]]",
) -> "itertools.product":
    """All attribute combinations drawing one candidate per cluster (Line 5)."""
    return itertools.product(*candidate_sets)
