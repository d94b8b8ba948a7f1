"""Batched sweep execution: vectorising the seed/epsilon dimension.

The paper averages every Figure-5-12 measurement over 10 runs across
log-spaced epsilon grids (Section 6.2), so after the scoring engine removed
the per-(cluster, attribute) Python calls, the remaining serial layer was the
outer trial loop: :func:`~repro.evaluation.runner.run_trials_serial` re-enters
each explainer one seed at a time, re-ranking, re-assembling score tensors
and re-evaluating the sensitive Quality per seed.

Both Stage-1 (One-shot Top-k) and Stage-2 (exponential mechanism) perturb
*true* scores, so the repeat dimension factors out: the explainers'
``select_combinations`` run Algorithm 2's two shared selection stages
(:mod:`repro.core.select_candidates`) over every seed's generator at once.
The Stage-1 score matrix is computed once per call, the noise becomes
per-seed Gumbel rows (``select_batch`` / ``select_indices``), and selection
is a row-wise argsort/argmax.  Each seed's Stage-2 tensor is assembled from
the memoised :class:`~repro.core.engine.engine.ScoringEngine`'s per-cluster
vectors; :class:`SweepContext` keeps only what repeats across a sweep's
seeds and epsilon points (the sensitive-Quality tensors, per-combination
Quality and the TabEE selections).

**Exactness contract.**  ``numpy.random.Generator`` fills arrays from the
bit stream value-by-value, so the batched draws consume each spawned child
stream in exactly the serial order; combined with the bit-for-bit
:meth:`~repro.evaluation.quality.QualityEvaluator.quality_tensor`, the
batched runner reproduces :func:`run_trials_serial` *exactly* (equal floats,
not just equal distributions) whenever every permutation-diversity group
fits the exact enumeration limit — always the case for ``|C| <= 6``, which
covers the paper's default configurations.  For larger ``|C|`` the
Monte-Carlo permutation stream differs (the serial path reseeds a fresh
evaluator per selector call); results remain deterministic and
distributionally equivalent.

:func:`run_grid` additionally fans the (dataset, method, epsilon) grid of an
experiment across a ``concurrent.futures`` process pool, each worker keeping
its own memoised dataset/clustering/counts cache
(:mod:`repro.experiments.common`).
"""

from __future__ import annotations

import time

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.counts import ClusteredCounts, CountsProvider
from ..core.dpclustx import DPClustX
from ..core.hbe import AttributeCombination
from ..core.quality.scores import Weights
from ..privacy.rng import ensure_rng, spawn
from .mae import mae
from .quality import QualityEvaluator
from .runner import Selector, TrialResult

__all__ = [
    "SweepContext",
    "select_batched",
    "explain_batched",
    "run_pipeline_batched",
    "PipelineSweep",
    "run_trials_batched",
    "run_grid",
]


class SweepContext:
    """Shared memoisation for one counts provider across a sweep.

    Caches, keyed by the (hashable) :class:`Weights`: one
    :class:`QualityEvaluator` per weight setting, flattened
    sensitive-Quality tensors per candidate-set tuple, per-combination
    Quality values, and the deterministic TabEE selections.  Everything in
    here is a pure function of the true counts, so reuse across seeds and
    epsilon grid points changes nothing but the wall-clock.
    """

    def __init__(self, counts: CountsProvider):
        self.counts = counts
        self._evaluators: dict[Weights, QualityEvaluator] = {}
        self._quality_flat: dict[tuple, np.ndarray] = {}
        self._quality: dict[tuple, float] = {}
        self._tabee: dict[tuple, AttributeCombination] = {}

    def evaluator_for(self, weights: Weights) -> QualityEvaluator:
        ev = self._evaluators.get(weights)
        if ev is None:
            ev = QualityEvaluator(self.counts, weights, 0)
            self._evaluators[weights] = ev
        return ev

    def quality_flat(
        self, weights: Weights, candidate_sets: tuple[tuple[str, ...], ...]
    ) -> np.ndarray:
        """Flattened sensitive-Quality tensor, memoised per candidate sets."""
        key = (weights, candidate_sets)
        cached = self._quality_flat.get(key)
        if cached is None:
            cached = self.evaluator_for(weights).quality_tensor(candidate_sets)
            self._quality_flat[key] = cached
        return cached

    def quality(self, weights: Weights, combination: Sequence[str]) -> float:
        """Memoised sensitive Quality of one combination."""
        key = (weights, tuple(combination))
        cached = self._quality.get(key)
        if cached is None:
            cached = self.evaluator_for(weights).quality(key[1])
            self._quality[key] = cached
        return cached

    def tabee_combination(self, explainer) -> AttributeCombination:
        """Deterministic TabEE selection, computed once per configuration."""
        key = (explainer.n_candidates, explainer.weights)
        cached = self._tabee.get(key)
        if cached is None:
            sets = explainer.candidate_sets(self.counts)
            best, _ = self.evaluator_for(
                explainer.weights
            ).best_combination_batched(sets)
            cached = AttributeCombination(best)
            self._tabee[key] = cached
        return cached


# --------------------------------------------------------------------------- #
# batched per-explainer selection
# --------------------------------------------------------------------------- #


def _select_dpnaive(
    explainer,
    counts: CountsProvider,
    children: Sequence[np.random.Generator],
) -> list[AttributeCombination]:
    """All seeds of ``DPNaive.select_combination``.

    The noisy releases are inherently per-seed (each seed post-processes its
    own noisy histograms), but within a seed they are one
    ``release_blocks`` call and the TabEE Stage-2 over the noisy counts runs
    as one Quality tensor instead of ``k^|C|`` scalar evaluations.
    """
    from ..baselines.tabee import TabEE

    tabee = TabEE(explainer.n_candidates, explainer.weights)
    combos = []
    for child in children:
        noisy = explainer.release_noisy_counts(counts, child)
        sets = tabee.candidate_sets(noisy)
        best, _ = QualityEvaluator(
            noisy, explainer.weights, 0
        ).best_combination_batched(sets)
        combos.append(AttributeCombination(best))
    return combos


def select_batched(
    selector,
    counts: CountsProvider,
    children: Sequence[np.random.Generator],
    ctx: SweepContext | None = None,
) -> list[AttributeCombination]:
    """The combinations all seeds of one selector would pick, batched.

    ``selector`` is either an
    :class:`~repro.evaluation.runner.ExplainerSelector` (or a bare explainer
    instance) of a known type — DPClustX, TabEE, DP-TabEE, DP-Naive — whose
    seed dimension is vectorised, or any ``(counts, rng) -> combination``
    callable, which falls back to the serial per-seed loop.  Entry ``r``
    consumes ``children[r]``'s stream exactly as the serial call would.
    """
    from ..baselines.dp_naive import DPNaive
    from ..baselines.dp_tabee import DPTabEE
    from ..baselines.tabee import TabEE

    if ctx is None:
        ctx = SweepContext(counts)
    if not len(children):
        return []
    explainer = getattr(selector, "explainer", selector)
    if type(explainer) is DPClustX:
        return [
            s.combination for s in explainer.select_combinations(counts, children)
        ]
    if type(explainer) is DPTabEE:
        return explainer.select_combinations(
            counts,
            children,
            scorer=lambda sets: ctx.quality_flat(explainer.weights, sets),
        )
    if type(explainer) is DPNaive:
        return _select_dpnaive(explainer, counts, children)
    if type(explainer) is TabEE:
        # Deterministic: one selection serves every seed.  (The serial path
        # passes the child rng through, but it is only consumed by
        # Monte-Carlo permutation sampling, i.e. never for |C| <= 6.)
        combo = ctx.tabee_combination(explainer)
        return [combo] * len(children)
    if not callable(selector):
        raise TypeError(f"cannot batch or call selector {selector!r}")
    return [selector(counts, child) for child in children]


def explain_batched(
    explainer: DPClustX,
    counts: CountsProvider,
    rngs: Sequence["np.random.Generator | int | None"],
    metrics=None,
):
    """All seeds of ``DPClustX.explain``, batched — one scoring pass.

    The reusable batch entry point behind the explanation service's request
    coalescing: Stage-1/2 selection for every seed runs through
    :meth:`~repro.core.dpclustx.DPClustX.select_combinations` (the score
    matrix is computed once and the per-seed work collapses to Gumbel rows
    + argmax), then each seed's generator — having consumed exactly the
    selection draws of the serial path — continues into :meth:`~repro.core.dpclustx.DPClustX.release_histograms`.
    Entry ``r`` is therefore byte-identical to
    ``explainer.explain(dataset, clustering, rng=rngs[r], counts=counts)``.

    Privacy accounting is deliberately *not* threaded through here: each
    entry is a full ``budget.total`` release, and callers (the service's
    per-tenant ledgers, ``PrivateAnalysisSession``) charge per seed.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) records the
    two kernel phases into the span histogram — ``engine-score`` for the
    batched selection pass, ``mechanism-release`` for the per-seed
    histogram releases.  Timing wraps the calls; it never touches the rng
    streams, so instrumented output stays byte-identical.
    """
    children = [ensure_rng(r) for r in rngs]
    spans = None
    if metrics is not None:
        from ..obs.tracing import span_histogram  # local: keep layering acyclic

        spans = span_histogram(metrics)
    t0 = time.perf_counter()
    selections = explainer.select_combinations(counts, children)
    if spans is not None:
        spans.observe(time.perf_counter() - t0, ("engine-score",))
    t0 = time.perf_counter()
    released = [
        explainer.release_histograms(counts, selection.combination, child)
        for selection, child in zip(selections, children)
    ]
    if spans is not None:
        spans.observe(time.perf_counter() - t0, ("mechanism-release",))
    return released


# --------------------------------------------------------------------------- #
# the batched end-to-end pipeline (fit once, explain a seed sweep)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PipelineSweep:
    """One fitted DP clustering plus the seed sweep explained over it."""

    clustering: object
    counts: "ClusteredCounts"
    explanations: list


def run_pipeline_batched(
    dataset,
    spec,
    seeds: Sequence["np.random.Generator | int | None"],
    explainer: DPClustX | None = None,
    accountant=None,
) -> PipelineSweep:
    """Fit one DP clustering and explain a whole seed sweep over it.

    The fig5/fig6-style amortisation for the end-to-end private setting:
    the clustering (a :class:`~repro.pipeline.spec.ClusteringSpec`) is
    fitted **once** — charging ``spec.epsilon`` once, not per seed — and
    every seed's explanation runs through :func:`explain_batched` (one
    scoring pass, per-seed byte-identical to serial ``DPClustX.explain``).

    With an ``accountant``, the fit charges iteration-wise through it and
    every seed's ``budget.total`` is then reserved in one all-or-nothing
    :meth:`~repro.privacy.budget.PrivacyAccountant.spend_many` *before* any
    explanation noise is drawn: a sweep the cap cannot fund in full is
    refused with the ledger as the fit left it (the already-released fit
    stays charged), and an engine failure refunds the reservations.
    """
    from ..pipeline.spec import ClusteringSpec  # local: keep layering acyclic

    if not isinstance(spec, ClusteringSpec):
        raise TypeError(f"spec must be a ClusteringSpec, got {spec!r}")
    spec = spec.validated()
    explainer = explainer or DPClustX()
    clustering = spec.fit(dataset, accountant=accountant)
    counts = ClusteredCounts(dataset, clustering)
    tokens: "list[int]" = []
    if accountant is not None:
        budget = explainer.budget
        eps = f"eps=({budget.eps_cand_set},{budget.eps_top_comb},{budget.eps_hist})"
        tags = [
            seed if isinstance(seed, int) else f"rng[{i}]"
            for i, seed in enumerate(seeds)
        ]
        tokens = accountant.spend_many([
            (budget.total, f"pipeline explain {spec.slug()} seed={tag} {eps}")
            for tag in tags
        ])
    try:
        explanations = explain_batched(explainer, counts, seeds)
    except Exception:
        # An engine failure rolls back this call's own reservations
        # (nothing was released); the already-released fit stays charged.
        for token in tokens:
            accountant.refund(token)
        raise
    return PipelineSweep(clustering, counts, explanations)


# --------------------------------------------------------------------------- #
# the batched trial runner
# --------------------------------------------------------------------------- #


def run_trials_batched(
    counts: CountsProvider,
    selectors: Mapping[str, Selector],
    n_runs: int = 10,
    weights: Weights | None = None,
    rng: np.random.Generator | int | None = 0,
    reference: "AttributeCombination | None" = None,
    context: SweepContext | None = None,
) -> list[TrialResult]:
    """Batched :func:`~repro.evaluation.runner.run_trials_serial`.

    Consumes the same spawned child streams in the same order, so the
    results are exactly equal for ``|C| <= 6`` (see the module docstring).
    ``context`` lets a grid sweep share one :class:`SweepContext` across
    epsilon points of the same counts provider.
    """
    from ..baselines.tabee import TabEE

    w = weights or Weights()
    gen = ensure_rng(rng)
    ctx = context if context is not None else SweepContext(counts)
    if ctx.counts is not counts:
        raise ValueError("context was built for a different counts provider")
    if reference is None:
        reference = ctx.tabee_combination(TabEE(weights=w))

    results = []
    for name, selector in selectors.items():
        children = spawn(gen, n_runs)
        combinations = select_batched(selector, counts, children, ctx)
        qualities = [ctx.quality(w, tuple(c)) for c in combinations]
        errors = [mae(c, reference) for c in combinations]
        results.append(
            TrialResult(
                explainer=name,
                quality_mean=float(np.mean(qualities)),
                quality_std=float(np.std(qualities)),
                mae_mean=float(np.mean(errors)),
                n_runs=n_runs,
            )
        )
    return results


# --------------------------------------------------------------------------- #
# grid fan-out (dataset x method x epsilon)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _GridTask:
    """One (dataset, method) cell with its epsilon grid — a pool work unit.

    Grouping all epsilon points of a cell into one task lets the worker
    serve every grid point from one counts materialisation and one
    :class:`SweepContext`.  With ``stack_handle`` set, the worker attaches
    the parent's shared-memory :class:`~repro.core.engine.stacks.CountsStack`
    (a size-independent handle) instead of re-loading the dataset and
    re-fitting the clustering behind its own process-local caches.
    """

    dataset: str
    method: str
    eps_grid: tuple[float, ...]
    config: object
    n_clusters: int | None
    explainers: tuple[str, ...] | None
    stack_handle: "object | None" = None


def _run_grid_task(task: _GridTask) -> list[dict]:
    """Worker: all epsilon points of one (dataset, method) cell."""
    from ..experiments.common import clustered_counts, clustering_epsilon_for
    from .runner import make_selectors

    if task.stack_handle is not None:
        from ..core.engine.shm import attach_counts

        counts = attach_counts(task.stack_handle)
    else:
        counts = clustered_counts(
            task.dataset, task.method, task.config, task.n_clusters
        )
    ctx = SweepContext(counts)
    clustering_eps = clustering_epsilon_for(task.method)
    rows: list[dict] = []
    try:
        for eps in task.eps_grid:
            selectors = make_selectors(eps, task.config.n_candidates)
            if task.explainers is not None:
                selectors = {
                    name: sel
                    for name, sel in selectors.items()
                    if name in task.explainers
                }
            for r in run_trials_batched(
                counts,
                selectors,
                task.config.n_runs,
                rng=task.config.seed,
                context=ctx,
            ):
                rows.append(
                    {
                        "dataset": task.dataset,
                        "method": task.method,
                        "epsilon": eps,
                        # The clustering's own DP spend and the end-to-end
                        # epsilon: "epsilon" alone is only the selection budget
                        # and understates the privacy cost of DP-k-means cells.
                        "clustering_epsilon": clustering_eps,
                        "epsilon_total": eps + clustering_eps,
                        "explainer": r.explainer,
                        "quality": r.quality_mean,
                        "quality_std": r.quality_std,
                        "mae": r.mae_mean,
                    }
                )
    finally:
        if task.stack_handle is not None:
            counts.close()
    return rows


def run_grid(
    config,
    n_clusters: int | None = None,
    explainers: tuple[str, ...] | None = None,
    processes: int | None = None,
) -> list[dict]:
    """The (dataset, method, epsilon) sweep behind Figures 5/6/11/12.

    Runs every cell through the batched trial runner; with ``processes > 1``
    the (dataset, method) cells fan out across a process pool.  The parent
    materialises each cell's counts once and hands workers the stack
    through shared memory: the only per-task payload is a segment name plus
    schema metadata, so fan-out cost is flat in dataset size and no worker
    duplicates the dataset, the clustering fit, or the ``lru``-cached
    loaders.  Row order — and every row value — is deterministic and
    independent of the pool size: the stack holds the exact integer counts,
    so scores and noisy releases are bit-identical to the serial run.
    """
    from ..experiments.common import eps_grid_for, methods_for

    tasks = [
        _GridTask(
            dataset=dataset,
            method=method,
            eps_grid=tuple(eps_grid_for(dataset)),
            config=config,
            n_clusters=n_clusters,
            explainers=explainers,
        )
        for dataset in config.datasets
        for method in methods_for(dataset, config.methods)
    ]
    if processes is not None and processes > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from dataclasses import replace

        from ..core.engine.shm import share_stack
        from ..experiments.common import clustered_counts

        shared = []
        try:
            handed = []
            for task in tasks:
                counts = clustered_counts(
                    task.dataset, task.method, task.config, task.n_clusters
                )
                seg = share_stack(counts.by_cluster_stack())
                shared.append(seg)
                handed.append(replace(task, stack_handle=seg.handle))
            with ProcessPoolExecutor(max_workers=processes) as pool:
                per_task = list(pool.map(_run_grid_task, handed))
        finally:
            for seg in shared:
                seg.close()
                seg.unlink()
    else:
        per_task = [_run_grid_task(t) for t in tasks]
    return [row for rows in per_task for row in rows]
