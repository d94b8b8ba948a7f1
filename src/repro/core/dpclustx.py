"""Algorithm 2 — the DPClustX framework (Section 5.2).

Pipeline (Figure 3): Stage-1 candidate sets via Algorithm 1; Stage-2 selects
one attribute combination out of the ``k^|C|`` candidates with the
exponential mechanism over ``GlScore_lambda``; noisy histograms are generated
*only* for the selected attributes.  The whole run is
``(eps_CandSet + eps_TopComb + eps_Hist)``-DP (Theorem 5.3), which the
optional :class:`~repro.privacy.budget.PrivacyAccountant` verifies at runtime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..clustering.base import ClusteringFunction
from ..dataset.schema import Attribute
from ..dataset.table import Dataset
from ..privacy.budget import ExplanationBudget, PrivacyAccountant
from ..privacy.histograms import GeometricHistogram, HistogramMechanism
from ..privacy.rng import ensure_rng
from .counts import ClusteredCounts, CountsProvider
from .engine import scoring_engine
from .hbe import AttributeCombination, GlobalExplanation, SingleClusterExplanation
from .quality.diversity import pair_diversity_low_sens
from .quality.interestingness import interestingness_low_sens
from .quality.scores import Weights
from .quality.sufficiency import sufficiency_low_sens
from .select_candidates import (
    CandidateSelection,
    draw_candidate_sets,
    pick_combinations,
)

_MAX_COMBINATIONS = 50_000_000
"""Guard against enumerating more global candidates than memory allows."""


def combination_score_tensor(
    counts: CountsProvider,
    candidate_sets: "tuple[tuple[str, ...], ...]",
    weights: Weights,
) -> np.ndarray:
    """``GlScore_lambda`` for *every* candidate combination, as a tensor.

    Served by the batched scoring engine: the global score decomposes into
    per-cluster terms (interestingness, sufficiency) plus pairwise diversity
    terms, so the full ``k_1 x ... x k_|C|`` score tensor is assembled from
    ``|C|`` vectors and ``C(|C|, 2)`` small matrices broadcast into place —
    the same ``O(k^|C|)`` evaluation count as the paper's complexity
    analysis, with every leaf score computed as an array kernel rather than
    a per-(cluster, attribute) Python call.
    """
    engine = scoring_engine(counts)
    return engine.combination_score_tensor(
        candidate_sets, weights, max_combinations=_MAX_COMBINATIONS
    )


def combination_score_tensor_reference(
    counts: CountsProvider,
    candidate_sets: "tuple[tuple[str, ...], ...]",
    weights: Weights,
) -> np.ndarray:
    """Scalar-score reference for :func:`combination_score_tensor` (oracle)."""
    n_clusters = counts.n_clusters
    if len(candidate_sets) != n_clusters:
        raise ValueError("need one candidate set per cluster")
    shape = tuple(len(s) for s in candidate_sets)
    total = math.prod(shape)
    if total > _MAX_COMBINATIONS:
        raise ValueError(
            f"{total} candidate combinations exceed the enumeration guard "
            f"({_MAX_COMBINATIONS}); reduce k or |C|"
        )
    tensor = np.zeros(shape, dtype=np.float64)

    # Additive per-cluster part: (lInt * Int_p + lSuf * Suf_p) / |C|.
    for c, attrs in enumerate(candidate_sets):
        vec = np.empty(len(attrs))
        for j, a in enumerate(attrs):
            v = 0.0
            if weights.lambda_int:
                v += weights.lambda_int * interestingness_low_sens(counts, c, a)
            if weights.lambda_suf:
                v += weights.lambda_suf * sufficiency_low_sens(counts, c, a)
            vec[j] = v / n_clusters
        view = [None] * n_clusters
        view[c] = slice(None)
        tensor += vec[tuple(view)]

    # Pairwise diversity part: lDiv * d(c, c') / C(|C|, 2).
    if weights.lambda_div and n_clusters >= 2:
        n_pairs = math.comb(n_clusters, 2)
        for c, c2 in itertools.combinations(range(n_clusters), 2):
            mat = np.empty((len(candidate_sets[c]), len(candidate_sets[c2])))
            for j, a in enumerate(candidate_sets[c]):
                for j2, a2 in enumerate(candidate_sets[c2]):
                    mat[j, j2] = pair_diversity_low_sens(counts, c, c2, a, a2)
            view = [None] * n_clusters
            view[c] = slice(None)
            view[c2] = slice(None)
            # mat is indexed (axis c, axis c2); place accordingly.
            expand = mat[tuple(view[i] for i in range(n_clusters))]
            tensor += weights.lambda_div * expand / n_pairs
    return tensor


def release_cluster_histograms(
    mechanism: HistogramMechanism,
    eps_hist: float,
    counts: CountsProvider,
    attribute_sets: "Sequence[Sequence[Sequence[str]]]",
    attribute: "Callable[[str], Attribute]",
    gens: "Sequence[np.random.Generator]",
    accountant: PrivacyAccountant | None = None,
) -> "list[tuple[tuple[SingleClusterExplanation, ...], ...]]":
    """Lines 8-19 of Algorithm 2 for every generator: the noisy histograms.

    ``attribute_sets[r][c]`` names the ``ell`` attributes explaining cluster
    ``c`` in run ``r`` (``ell = 1`` outside Appendix B), released from
    ``gens[r]``.  In a run, the full-data histograms of the distinct
    attributes ``A'`` compose sequentially at ``eps_hist / (2 |A'|)`` each
    (Lines 8-12), so that epsilon varies from run to run.  A cluster's
    ``ell`` histograms compose sequentially at ``eps_hist / (2 ell)`` each,
    and the disjoint clusters in parallel (Lines 14-16).  Out-of-cluster
    histograms are post-processing (Line 17).  Both halves of every run are
    charged in one all-or-nothing ``spend_many`` before any noise is drawn,
    so a refusal leaves the ledger and every generator as they were.  Each
    half is then one ``release_runs`` call, in which each generator draws
    once: the full-data histograms first, then the cluster rows in cluster
    order, as a serial run draws them.  ``attribute`` maps a name to the
    :class:`~repro.dataset.schema.Attribute` the explanation renders.
    Entry ``r`` holds one tuple of ``ell`` explanations per cluster.
    """
    if len(gens) != len(attribute_sets):
        raise ValueError(
            f"{len(attribute_sets)} attribute sets need as many generators, "
            f"got {len(gens)}"
        )
    if not gens:
        return []
    distinct = [
        tuple(dict.fromkeys(a for attrs in sets for a in attrs))
        for sets in attribute_sets
    ]
    ell = [max(len(attrs) for attrs in sets) for sets in attribute_sets]
    eps_full = [eps_hist / (2.0 * len(names)) for names in distinct]
    eps_cluster = [eps_hist / (2.0 * n) for n in ell]
    if accountant is not None:
        accountant.spend_many([
            row
            for names, sets, e_full, e_cluster, n in zip(
                distinct, attribute_sets, eps_full, eps_cluster, ell
            )
            for row in (
                (e_full * len(names), "histograms: full dataset"),
                ([e_cluster * n] * len(sets), "histograms: clusters (parallel)"),
            )
        ])
    # The true counts of every attribute the batch names, gathered once.
    names = tuple(dict.fromkeys(a for run in distinct for a in run))
    full = {a: counts.full(a)[None] for a in names}
    by_cluster = {a: counts.by_cluster(a) for a in names}
    noisy_full = mechanism.release_runs(
        [[full[a] for a in run] for run in distinct], eps_full, gens
    )
    noisy_c = mechanism.release_runs(
        [
            [by_cluster[a][c : c + 1] for c, attrs in enumerate(sets) for a in attrs]
            for sets in attribute_sets
        ],
        eps_cluster,
        gens,
    )
    # Line 17 for every cluster row of every run at once: gather each row's
    # noisy full-data histogram, subtract, clamp.
    starts = []
    widths = []
    pos = 0
    for run, sets in zip(distinct, attribute_sets):
        start = {}
        for a in run:
            start[a] = pos
            pos += full[a].size
        for attrs in sets:
            for a in attrs:
                starts.append(start[a])
                widths.append(full[a].size)
    offsets = np.cumsum(widths) - widths
    rest = noisy_full[
        np.arange(noisy_c.size) + np.repeat(np.asarray(starts) - offsets, widths)
    ]
    rest -= noisy_c
    np.maximum(rest, 0.0, out=rest)
    per_run = []
    rows = iter(zip(offsets.tolist(), widths))
    for sets in attribute_sets:
        per_cluster = []
        for c, attrs in enumerate(sets):
            explanations = []
            for a in attrs:
                lo, width = next(rows)
                explanations.append(
                    SingleClusterExplanation(
                        cluster=c,
                        attribute=attribute(a),
                        hist_rest=rest[lo : lo + width],
                        hist_cluster=noisy_c[lo : lo + width],
                    )
                )
            per_cluster.append(tuple(explanations))
        per_run.append(tuple(per_cluster))
    return per_run


@dataclass(frozen=True)
class SelectionResult:
    """Stage-1 + Stage-2 outcome before histogram generation."""

    combination: AttributeCombination
    candidates: CandidateSelection


@dataclass(frozen=True)
class DPClustX:
    """The DPClustX explainer (Figure 3).

    Parameters
    ----------
    n_candidates:
        ``k`` — candidate attributes per cluster from Stage-1 (default 3, the
        paper's ablation-supported choice, Figure 7).
    weights:
        ``lambda`` hyperparameters (default equal thirds, Section 4.4).
    budget:
        The three-way privacy budget (defaults 0.1 / 0.1 / 0.1, Section 6.1).
    histogram_mechanism:
        Prototype ``M_hist``; its epsilon is re-derived per Algorithm 2's
        allocation.  Defaults to the Geometric mechanism (Section 6.1).
    """

    n_candidates: int = 3
    weights: Weights = field(default_factory=Weights)
    budget: ExplanationBudget = field(default_factory=ExplanationBudget)
    histogram_mechanism: HistogramMechanism = field(
        default_factory=lambda: GeometricHistogram(1.0)
    )

    # ------------------------------------------------------------------ #
    # attribute selection (Stages 1-2)
    # ------------------------------------------------------------------ #

    def select_combinations(
        self,
        counts: CountsProvider,
        gens: "Sequence[np.random.Generator]",
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> "list[SelectionResult]":
        """Run Lines 1-6 of Algorithm 2 once per generator in ``gens``.

        The true score matrix is computed once, and the ``GlScore``
        tensors of all runs in one engine call; the per-generator work is
        the noise rows of the two shared selection stages, each charged
        before its draws.  Entry ``r`` equals
        ``select_combination(counts, gens[r], ...)``.
        """
        names = names if names is not None else counts.names
        gamma = self.weights.gamma()  # Line 1
        engine = scoring_engine(counts)
        matrix = engine.score_matrix(gamma[0], gamma[1], names)
        per_run_sets = draw_candidate_sets(  # Line 3 (Algorithm 1)
            matrix, names, self.budget.eps_cand_set, self.n_candidates, gens,
            accountant,
        )
        # Lines 5-6: EM over the candidate combinations with GlScore, the
        # tensors of every run from one broadcast.
        columns = engine.columns(
            [a for sets in per_run_sets for attrs in sets for a in attrs]
        ).reshape(len(per_run_sets), counts.n_clusters, self.n_candidates)
        tensors = engine.combination_score_tensor(
            columns, self.weights, max_combinations=_MAX_COMBINATIONS
        )
        picks = pick_combinations(
            per_run_sets, tensors, self.budget.eps_top_comb, gens, accountant
        )
        return [
            SelectionResult(AttributeCombination(pick), CandidateSelection(sets))
            for pick, sets in zip(picks, per_run_sets)
        ]

    def select_combination(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> SelectionResult:
        """Run Lines 1-6 of Algorithm 2: pick the attribute combination."""
        (selection,) = self.select_combinations(
            counts, [ensure_rng(rng)], accountant, names
        )
        return selection

    # ------------------------------------------------------------------ #
    # full pipeline (Algorithm 2)
    # ------------------------------------------------------------------ #

    def explain(
        self,
        dataset: Dataset,
        clustering: ClusteringFunction,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        counts: ClusteredCounts | None = None,
    ) -> GlobalExplanation:
        """Run Algorithm 2 end to end and return the global explanation."""
        gen = ensure_rng(rng)
        if counts is None:
            counts = ClusteredCounts(dataset, clustering)
        selection = self.select_combination(counts, gen, accountant)
        return self.release_histograms(
            counts,
            selection.combination,
            gen,
            accountant=accountant,
            metadata={"candidate_sets": selection.candidates.candidate_sets},
        )

    def release_histograms(
        self,
        counts: ClusteredCounts,
        combination: "AttributeCombination | Sequence[AttributeCombination]",
        rng: "np.random.Generator | int | None | Sequence[np.random.Generator]" = None,
        accountant: PrivacyAccountant | None = None,
        metadata: "dict[str, object] | None" = None,
    ) -> "GlobalExplanation | list[GlobalExplanation]":
        """Lines 8-19 of Algorithm 2: release noisy histograms for a chosen
        combination and assemble the :class:`GlobalExplanation`.

        Split out of :meth:`explain` so batched front ends (the sweep
        layer's ``explain_batched``, the explanation service) can run
        Stage-1/2 selection for many seeds in one scoring pass and then
        continue each seed's generator here.  Given a list of combinations
        and a list of generators, one per combination, the histograms of
        all of them are one :func:`release_cluster_histograms` pass and a
        list of explanations comes back; entry ``r`` consumes ``rng[r]``
        exactly as the one-combination call would.  The release and its
        ``eps_hist`` charge happen in :func:`release_cluster_histograms`;
        extra ``metadata`` entries (e.g. the candidate sets) are merged into
        every output's provenance record.
        """
        single = isinstance(combination, AttributeCombination)
        combinations = [combination] if single else list(combination)
        gens = [ensure_rng(g) for g in ([rng] if single else rng)]
        per_run = release_cluster_histograms(
            self.histogram_mechanism,
            self.budget.eps_hist,
            counts,
            [[(a,) for a in combo.attributes] for combo in combinations],
            counts.dataset.schema.attribute,
            gens,
            accountant,
        )
        provenance: dict[str, object] = {
            "framework": "DPClustX",
            "budget": self.budget,
            "n_candidates": self.n_candidates,
            "weights": self.weights,
        }
        provenance.update(metadata or {})
        provenance["epsilon_total"] = self.budget.total
        released = [
            GlobalExplanation(
                per_cluster=tuple(e for (e,) in per_cluster),
                combination=combo,
                metadata=dict(provenance),
            )
            for combo, per_cluster in zip(combinations, per_run)
        ]
        return released[0] if single else released
