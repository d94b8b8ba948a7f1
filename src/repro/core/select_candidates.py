"""Algorithm 1 — Select-Candidates: private per-cluster top-k attributes.

For each cluster the single-cluster score (Definition 4.11) of every
attribute is perturbed once with ``Gumbel(sigma)``, ``sigma = 2k /
eps_Topk`` where ``eps_Topk = eps_CandSet / |C|``; the k noisy-best
attributes form the cluster's candidate set ``S_c``.  The procedure is the
One-shot Top-k mechanism [15] applied per cluster, and satisfies
``eps_CandSet``-DP overall (Proposition 5.1) — parallel composition does
*not* apply because each score reads the full dataset, not just the cluster
(Section 5.1).

Both private selection stages of Algorithm 2 are written here once, each
over a list of generators: :func:`draw_candidate_sets` (Stage 1, the
candidate sets) and :func:`pick_combinations` (Stage 2, Lines 5-6: one
exponential-mechanism pick over the flattened score tensor).  One generator
is a serial explainer call; many are the seeds of a batched sweep or a
service batch.  Row ``r`` consumes ``gens[r]``'s stream exactly as a serial
call on that generator would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..privacy.budget import PrivacyAccountant, check_epsilon
from ..privacy.exponential import ExponentialMechanism
from ..privacy.rng import ensure_rng
from ..privacy.topk import OneShotTopK
from .counts import CountsProvider
from .engine import scoring_engine
from .quality.scores import SCORE_SENSITIVITY

ScoreFn = Callable[[CountsProvider, int, str], float]
"""A single-cluster quality score ``(counts, cluster, attribute) -> float``.

Custom scores (Section 8's future work #4) plug into Algorithm 1 through the
``score_fn`` parameter; the caller must supply a valid sensitivity upper
bound via ``score_sensitivity`` for the DP guarantee to hold.
"""

T = TypeVar("T")


@dataclass(frozen=True)
class CandidateSelection:
    """Output of Algorithm 1: the per-cluster candidate sets ``S_c``.

    ``candidate_sets[c]`` lists attribute names in descending noisy-score
    order.
    """

    candidate_sets: tuple[tuple[str, ...], ...]

    @property
    def n_clusters(self) -> int:
        return len(self.candidate_sets)

    @property
    def k(self) -> int:
        return len(self.candidate_sets[0]) if self.candidate_sets else 0


def draw_candidate_sets(
    score_matrix: np.ndarray,
    names: Sequence[str],
    eps_cand_set: float,
    k: int,
    gens: Sequence[np.random.Generator],
    accountant: PrivacyAccountant | None = None,
    label: str = "stage1: candidate sets (one-shot top-k)",
    score_sensitivity: float = SCORE_SENSITIVITY,
) -> list[tuple[tuple[str, ...], ...]]:
    """Stage 1 for every generator: the candidate sets of Algorithm 1.

    ``score_matrix`` is the true ``(|C|, |A|)`` score matrix over the
    attribute pool ``names``.  Each generator's ``eps_cand_set`` is charged
    as one ``spend_many`` row before any noise is drawn.  Then, cluster by
    cluster, one ``select_batch`` call perturbs the cluster's score row with
    one Gumbel row per generator, so each generator sees its draws in
    cluster order, as the serial loop draws them.  Entry ``r`` holds
    ``gens[r]``'s candidate sets, each in descending noisy-score order.
    """
    check_epsilon(eps_cand_set, name="eps_cand_set")
    if k < 1 or k > len(names):
        raise ValueError(f"k must be in [1, |A|] = [1, {len(names)}], got {k}")
    if not gens:
        return []
    n_clusters = score_matrix.shape[0]
    # Lines 1-2: sigma = 2k / (eps / |C|)
    mechanism = OneShotTopK(eps_cand_set / n_clusters, k, score_sensitivity)
    # Charge before any noise is sampled: a BudgetError past this point
    # would mean privacy already burned that the ledger never saw.
    if accountant is not None:
        accountant.spend_many([(eps_cand_set, label)] * len(gens))
    picks = np.empty((len(gens), n_clusters, k), dtype=np.intp)
    for c in range(n_clusters):  # Line 3; Lines 5-9 as one batched draw
        picks[:, c, :] = mechanism.select_batch(score_matrix[c], len(gens), rng=gens)
    gathered = np.asarray(names, dtype=object)[picks].tolist()
    return [tuple(tuple(row) for row in run) for run in gathered]


def pick_combinations(
    options: "Sequence[Sequence[Sequence[T]]]",
    flat_scores: "Sequence[np.ndarray]",
    eps_top_comb: float,
    gens: Sequence[np.random.Generator],
    accountant: PrivacyAccountant | None = None,
    label: str = "stage2: combination (exponential mech.)",
    sensitivity: float = SCORE_SENSITIVITY,
) -> "list[tuple[T, ...]]":
    """Stage 2 for every generator: one exponential-mechanism pick each.

    ``options[r][c]`` lists cluster ``c``'s choices for generator ``r``
    (its candidate attributes, or Appendix B's attribute subsets), and
    ``flat_scores[r]`` (a row of one ``(R, n)`` array, or one of ``R``
    equal-length vectors) scores every combination of them, flattened in
    ``itertools.product`` (C) order.  Each generator's ``eps_top_comb`` is
    charged as one ``spend_many`` row before the draw.  One
    ``select_indices`` call then draws row ``r`` from ``gens[r]``, and the
    flat index unravels to one choice per cluster.
    """
    em = ExponentialMechanism(eps_top_comb, sensitivity)
    if not gens:
        return []
    if accountant is not None:
        accountant.spend_many([(eps_top_comb, label)] * len(gens))
    idx = em.select_indices(np.asarray(flat_scores), rng=gens)
    picked = []
    for r, sets in enumerate(options):
        picks = np.unravel_index(int(idx[r]), tuple(len(s) for s in sets))
        picked.append(tuple(sets[c][int(j)] for c, j in enumerate(picks)))
    return picked


def select_candidates(
    counts: CountsProvider,
    gamma: tuple[float, float],
    eps_cand_set: float,
    k: int,
    rng: np.random.Generator | int | None = None,
    accountant: PrivacyAccountant | None = None,
    names: tuple[str, ...] | None = None,
    score_sensitivity: float = SCORE_SENSITIVITY,
    score_fn: ScoreFn | None = None,
) -> CandidateSelection:
    """Run Algorithm 1 and return the candidate sets ``S_{c_1}, ..., S_{c_|C|}``.

    Parameters
    ----------
    counts:
        Group-by counts of the sensitive dataset under the clustering.
    gamma:
        ``(gamma_Int, gamma_Suf)`` — non-negative, summing to 1.
    eps_cand_set:
        Stage-1 privacy budget ``eps_CandSet``.
    k:
        Candidate-set cardinality.
    names:
        Attribute pool ``A`` (defaults to every attribute of the dataset).
    score_sensitivity:
        Sensitivity bound used to scale the Gumbel noise; 1 for
        ``Score_gamma`` (Proposition 4.12).
    score_fn:
        Optional custom single-cluster score replacing ``Score_gamma``
        (future work #4); ``gamma`` is ignored when provided, and
        ``score_sensitivity`` must upper-bound the custom score's
        sensitivity.
    """
    gamma_int, gamma_suf = gamma
    if gamma_int < 0 or gamma_suf < 0 or not np.isclose(gamma_int + gamma_suf, 1.0):
        raise ValueError("gamma must be non-negative and sum to 1")
    names = names if names is not None else counts.names
    if score_fn is None:
        # Line 5 (true part), batched: the full (|C|, |A|) Score_gamma matrix
        # in one engine call instead of |C| * |A| scalar evaluations.
        score_matrix = scoring_engine(counts).score_matrix(
            gamma_int, gamma_suf, names
        )
    else:
        score_matrix = np.array(
            [[score_fn(counts, c, a) for a in names] for c in range(counts.n_clusters)],
            dtype=np.float64,
        )
    (sets,) = draw_candidate_sets(
        score_matrix,
        names,
        eps_cand_set,
        k,
        [ensure_rng(rng)],
        accountant,
        score_sensitivity=score_sensitivity,
    )
    return CandidateSelection(sets)  # Line 11
