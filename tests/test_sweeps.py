"""Tests for the batched sweep layer (mechanism batching, fused counts,
block releases, Quality tensors, and the batched trial runner).

Two families of guarantees are pinned here:

* **stream equality** — every batched noise draw consumes the generator in
  exactly the serial order (``numpy.random.Generator`` fills arrays from
  the bit stream value-by-value), so batched selections equal scalar ones
  *bitwise*, and ``run_trials_batched`` reproduces ``run_trials_serial``
  under the same spawned child streams;
* **distribution** — chi-square goodness-of-fit of the batched mechanisms
  against the exact ``probabilities()`` law, so the batch path is pinned to
  the mechanism definition and not just to the scalar implementation.
"""

import itertools

import numpy as np
import pytest

from repro.core.counts import ClusteredCounts
from repro.core.quality.scores import Weights
from repro.evaluation.quality import QualityEvaluator
from repro.evaluation.runner import (
    ExplainerSelector,
    make_selectors,
    run_trials,
    run_trials_serial,
)
from repro.evaluation.sweeps import (
    SweepContext,
    explain_batched,
    run_trials_batched,
    select_batched,
)
from repro.privacy.exponential import ExponentialMechanism
from repro.privacy.hierarchical import HierarchicalHistogram
from repro.privacy.histograms import GeometricHistogram, LaplaceHistogram
from repro.privacy.rng import gumbel_rows, spawn
from repro.privacy.topk import OneShotTopK

# Upper critical chi-square values at alpha = 1e-3 for the dfs used below.
CHI2_CRIT = {3: 16.266, 4: 18.467}


def chi_square_statistic(observed: np.ndarray, probs: np.ndarray) -> float:
    expected = probs * observed.sum()
    return float(((observed - expected) ** 2 / expected).sum())


class TestGumbelRows:
    def test_single_generator_matches_sequential_draws(self):
        g1, g2 = np.random.default_rng(0), np.random.default_rng(0)
        batch = gumbel_rows(g1, 7, 5, scale=2.5)
        seq = np.stack([g2.gumbel(scale=2.5, size=5) for _ in range(7)])
        assert np.array_equal(batch, seq)

    def test_per_row_generators(self):
        rows = gumbel_rows([np.random.default_rng(i) for i in range(3)], 3, 4)
        ref = np.stack(
            [np.random.default_rng(i).gumbel(size=4) for i in range(3)]
        )
        assert np.array_equal(rows, ref)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            gumbel_rows([np.random.default_rng(0)], 2, 4)


class TestSelectIndicesStream:
    def test_shared_generator_equals_sequential_select_index(self):
        em = ExponentialMechanism(1.5)
        scores = np.random.default_rng(1).uniform(0, 5, 12)
        g1, g2 = np.random.default_rng(2), np.random.default_rng(2)
        batch = em.select_indices(scores, 50, rng=g1)
        seq = [em.select_index(scores, g2) for _ in range(50)]
        assert list(batch) == seq

    def test_per_row_scores_and_children(self):
        em = ExponentialMechanism(0.8)
        rows = np.random.default_rng(3).uniform(0, 5, (6, 9))
        c1 = spawn(np.random.default_rng(5), 6)
        c2 = spawn(np.random.default_rng(5), 6)
        batch = em.select_indices(rows, rng=c1)
        seq = [em.select_index(rows[i], c2[i]) for i in range(6)]
        assert list(batch) == seq

    def test_validation(self):
        em = ExponentialMechanism(1.0)
        with pytest.raises(ValueError):
            em.select_indices(np.arange(3.0))  # n_draws required for 1-D
        with pytest.raises(ValueError):
            em.select_indices(np.zeros((2, 3)), n_draws=5)
        with pytest.raises(ValueError):
            em.select_indices(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            em.select_indices(np.empty((3, 0)))


class TestSelectIndicesDistribution:
    def test_chi_square_against_exact_probabilities(self):
        em = ExponentialMechanism(1.5, sensitivity=1.0)
        scores = np.array([0.0, 1.0, 2.0, 4.0])
        probs = em.probabilities(scores)
        draws = em.select_indices(scores, 20_000, rng=0)
        observed = np.bincount(draws, minlength=4)
        stat = chi_square_statistic(observed, probs)
        assert stat < CHI2_CRIT[3], f"chi2 = {stat:.2f}"

    def test_chi_square_per_row_scores(self):
        em = ExponentialMechanism(2.0)
        base = np.array([0.0, 0.7, 1.4, 2.5, 0.2])
        probs = em.probabilities(base)
        rows = np.tile(base, (15_000, 1))
        draws = em.select_indices(rows, rng=1)
        observed = np.bincount(draws, minlength=5)
        stat = chi_square_statistic(observed, probs)
        assert stat < CHI2_CRIT[4], f"chi2 = {stat:.2f}"


class TestSelectBatch:
    def test_shared_generator_equals_sequential_select(self):
        m = OneShotTopK(0.7, 3)
        scores = np.random.default_rng(4).uniform(0, 8, 11)
        g1, g2 = np.random.default_rng(6), np.random.default_rng(6)
        batch = m.select_batch(scores, 40, rng=g1)
        seq = [m.select(scores, g2) for _ in range(40)]
        assert all(list(batch[i]) == seq[i] for i in range(40))

    def test_per_row_children(self):
        m = OneShotTopK(1.2, 2)
        scores = np.random.default_rng(7).uniform(0, 4, (5, 8))
        c1, c2 = spawn(np.random.default_rng(8), 5), spawn(np.random.default_rng(8), 5)
        batch = m.select_batch(scores, rng=c1)
        seq = [m.select(scores[i], c2[i]) for i in range(5)]
        assert all(list(batch[i]) == seq[i] for i in range(5))

    def test_first_rank_chi_square_matches_em(self):
        # The first released index has exactly the EM distribution at eps/k.
        eps, k = 2.0, 3
        scores = np.array([0.0, 1.0, 2.0, 3.0])
        probs = ExponentialMechanism(eps / k).probabilities(scores)
        m = OneShotTopK(eps, k)
        firsts = m.select_batch(scores, 20_000, rng=9)[:, 0]
        observed = np.bincount(firsts, minlength=4)
        stat = chi_square_statistic(observed, probs)
        assert stat < CHI2_CRIT[3], f"chi2 = {stat:.2f}"

    def test_validation(self):
        m = OneShotTopK(1.0, 4)
        with pytest.raises(ValueError):
            m.select_batch(np.zeros(3), 2)  # fewer candidates than k
        with pytest.raises(ValueError):
            m.select_batch(np.zeros(6))  # n_draws required for 1-D


def _geometric_rows(block, eps, gen):
    """Per-row reference: ``c + geometric - geometric``, clamped at 0."""
    p = 1.0 - np.exp(-eps)
    rows = []
    for c in block:
        pos = gen.geometric(p, size=c.size)
        neg = gen.geometric(p, size=c.size)
        rows.append(np.maximum(c + pos - neg, 0))
    return np.array(rows, dtype=np.float64).reshape(block.shape)


def _laplace_rows(block, eps, gen):
    """Per-row reference: ``c + Laplace(0, 1/eps)``, clamped at 0."""
    rows = [
        np.maximum(c + gen.laplace(0.0, 1.0 / eps, size=c.size), 0.0)
        for c in block
    ]
    return np.array(rows, dtype=np.float64).reshape(block.shape)


#: Ragged multi-row blocks: rows and widths both vary.
BLOCK_SHAPES = [(1, 5), (4, 3), (2, 9), (3, 1), (5, 4)]


class TestBatchedReleases:
    @pytest.mark.parametrize(
        "mech,reference",
        [
            (GeometricHistogram(0.4), _geometric_rows),
            (LaplaceHistogram(0.4), _laplace_rows),
        ],
        ids=["geometric", "laplace"],
    )
    def test_release_blocks_match_per_row_reference(self, mech, reference):
        rng = np.random.default_rng(2)
        blocks = [rng.integers(0, 6, shape) for shape in BLOCK_SHAPES]
        g1, g2 = np.random.default_rng(3), np.random.default_rng(3)
        batch = mech.release_blocks(blocks, g1)
        expected = [reference(b, mech.epsilon, g2) for b in blocks]
        assert all(np.array_equal(a, b) for a, b in zip(batch, expected))
        # Small counts at eps=0.4: the clamp must actually have fired.
        assert any((a == 0).any() for a in batch)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_hierarchical_release_blocks_match_per_row_release(self):
        mech = HierarchicalHistogram(0.4, branching=3)
        rng = np.random.default_rng(2)
        blocks = [rng.integers(0, 60, shape) for shape in BLOCK_SHAPES]
        g1, g2 = np.random.default_rng(3), np.random.default_rng(3)
        batch = mech.release_blocks(blocks, g1)
        expected = [np.stack([mech.release(r, g2) for r in b]) for b in blocks]
        assert all(np.array_equal(a, b) for a, b in zip(batch, expected))
        assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize(
        "mech",
        [GeometricHistogram(0.5), LaplaceHistogram(0.5), HierarchicalHistogram(0.5)],
        ids=["geometric", "laplace", "hierarchical"],
    )
    def test_release_blocks_rejects_vectors(self, mech):
        with pytest.raises(ValueError, match=r"\(R, m\) matrix"):
            mech.release_blocks([np.zeros((2, 4)), np.zeros(4)])


class TestFusedCountsBuild:
    def test_materialise_matches_lazy_by_cluster(self, dataset, clustering):
        fused = ClusteredCounts(dataset, clustering)
        lazy = ClusteredCounts(dataset, clustering)
        fused.materialise()
        for name in fused.names:
            assert np.array_equal(fused.by_cluster(name), lazy.by_cluster(name))
            assert fused.by_cluster(name).dtype == np.int64

    def test_materialise_is_idempotent(self, counts):
        counts.materialise()
        before = {n: counts.by_cluster(n).copy() for n in counts.names}
        counts.materialise()
        for n in counts.names:
            assert np.array_equal(counts.by_cluster(n), before[n])

    def test_stack_built_from_fused_pass(self, dataset, clustering):
        counts = ClusteredCounts(dataset, clustering)
        stack = counts.by_cluster_stack()
        for name in counts.names:
            mat, full = stack.attribute_counts(name)
            assert np.array_equal(mat, counts.by_cluster(name))
            assert np.array_equal(full, counts.full(name))

    def test_totals_and_sizes_fast_paths(self, counts):
        names = counts.names
        assert np.array_equal(
            counts.totals_vector(names),
            np.array([counts.total(n) for n in names]),
        )
        assert np.array_equal(
            counts.sizes_matrix(names),
            np.array(
                [
                    [counts.cluster_size(n, c) for c in range(counts.n_clusters)]
                    for n in names
                ]
            ),
        )


class TestQualityTensor:
    @pytest.mark.parametrize(
        "weights",
        [Weights(), Weights(0.2, 0.3, 0.5), Weights.without("div"), Weights.without("suf")],
    )
    def test_bitwise_equal_to_scalar_loop(self, diabetes_counts, weights):
        rng = np.random.default_rng(11)
        names = diabetes_counts.names
        sets = tuple(
            tuple(rng.choice(names, size=3, replace=False))
            for _ in range(diabetes_counts.n_clusters)
        )
        scalar_ev = QualityEvaluator(diabetes_counts, weights, 0)
        expected = np.array(
            [scalar_ev.quality(c) for c in itertools.product(*sets)]
        )
        tensor = QualityEvaluator(diabetes_counts, weights, 0).quality_tensor(sets)
        assert np.array_equal(tensor, expected)

    def test_repeated_attribute_groups(self, counts):
        # Combinations repeating one attribute across clusters exercise the
        # non-singleton permutation-diversity groups.
        sets = (("color", "size"), ("color", "flag"), ("color", "size"))
        ev = QualityEvaluator(counts, Weights(), 0)
        expected = np.array(
            [ev.quality(c) for c in itertools.product(*sets)]
        )
        assert np.array_equal(ev.quality_tensor(sets), expected)

    def test_best_combination_matches_scalar_argmax(self, counts):
        sets = [("color", "size"), ("size", "flag"), ("color", "flag")]
        scalar = QualityEvaluator(counts, Weights(), 0).best_combination(sets)
        batched = QualityEvaluator(counts, Weights(), 0).best_combination_batched(sets)
        assert scalar == batched

    def test_arity_check(self, counts):
        with pytest.raises(ValueError):
            QualityEvaluator(counts, Weights(), 0).quality_tensor((("color",),))


class TestRunTrialsBatched:
    @pytest.mark.parametrize("eps", [0.02, 0.5])
    def test_exactly_reproduces_serial(self, diabetes_counts, eps):
        selectors = make_selectors(eps, n_candidates=2)
        serial = run_trials_serial(diabetes_counts, selectors, n_runs=4, rng=3)
        batched = run_trials_batched(diabetes_counts, selectors, n_runs=4, rng=3)
        assert serial == batched

    def test_run_trials_routes_through_batched(self, diabetes_counts):
        selectors = make_selectors(0.2, n_candidates=2)
        assert run_trials(diabetes_counts, selectors, n_runs=3, rng=1) == (
            run_trials_batched(diabetes_counts, selectors, n_runs=3, rng=1)
        )

    def test_shared_context_changes_nothing(self, diabetes_counts):
        selectors = make_selectors(0.1, n_candidates=2)
        ctx = SweepContext(diabetes_counts)
        first = run_trials_batched(
            diabetes_counts, selectors, n_runs=3, rng=0, context=ctx
        )
        second = run_trials_batched(
            diabetes_counts, selectors, n_runs=3, rng=0, context=ctx
        )
        assert first == second
        assert first == run_trials_serial(
            diabetes_counts, selectors, n_runs=3, rng=0
        )

    def test_context_provider_mismatch_rejected(self, diabetes_counts, counts):
        with pytest.raises(ValueError):
            run_trials_batched(
                counts,
                make_selectors(0.1),
                n_runs=2,
                context=SweepContext(diabetes_counts),
            )

    def test_unknown_callable_falls_back_to_serial_loop(self, diabetes_counts):
        calls = []

        def selector(counts, rng):
            calls.append(rng)
            return tuple(counts.names[: counts.n_clusters])

        serial = run_trials_serial(
            diabetes_counts, {"custom": selector}, n_runs=3, rng=5
        )
        batched = run_trials_batched(
            diabetes_counts, {"custom": selector}, n_runs=3, rng=5
        )
        assert serial == batched
        assert len(calls) == 6  # three serial + three fallback calls

    def test_explainer_selector_exposes_explainer(self):
        from repro.core.dpclustx import DPClustX

        selectors = make_selectors(0.2)
        assert isinstance(selectors["DPClustX"], ExplainerSelector)
        assert isinstance(selectors["DPClustX"].explainer, DPClustX)


class TestExplainBatched:
    """The service's batch entry point: full explanations for many seeds."""

    def test_byte_identical_to_serial_explain(self, diabetes_counts):
        from repro.core.dpclustx import DPClustX

        explainer = DPClustX(n_candidates=2)
        seeds = [0, 1, 5]
        batched = explain_batched(explainer, diabetes_counts, seeds)
        for seed, got in zip(seeds, batched):
            serial = explainer.explain(
                diabetes_counts.dataset, None, rng=seed, counts=diabetes_counts
            )
            assert tuple(got.combination) == tuple(serial.combination)
            for e_got, e_serial in zip(got, serial):
                assert np.array_equal(e_got.hist_cluster, e_serial.hist_cluster)
                assert np.array_equal(e_got.hist_rest, e_serial.hist_rest)

    def test_release_histograms_charges_accountant(self, diabetes_counts):
        from repro.core.dpclustx import DPClustX
        from repro.core.hbe import AttributeCombination
        from repro.privacy.budget import PrivacyAccountant

        explainer = DPClustX(n_candidates=2)
        combo = AttributeCombination(
            tuple(diabetes_counts.names[: diabetes_counts.n_clusters])
        )
        acc = PrivacyAccountant()
        explainer.release_histograms(diabetes_counts, combo, rng=0, accountant=acc)
        assert acc.total() == pytest.approx(explainer.budget.eps_hist)


class TestSelectBatchedStreams:
    def test_dpclustx_matches_serial_per_child_streams(self, diabetes_counts):
        from repro.core.dpclustx import DPClustX

        explainer = DPClustX(n_candidates=2)
        c1 = spawn(np.random.default_rng(13), 5)
        c2 = spawn(np.random.default_rng(13), 5)
        batched = select_batched(explainer, diabetes_counts, c1)
        serial = [
            explainer.select_combination(diabetes_counts, child).combination
            for child in c2
        ]
        assert [tuple(c) for c in batched] == [tuple(c) for c in serial]

    def test_dptabee_matches_serial_per_child_streams(self, diabetes_counts):
        from repro.baselines.dp_tabee import DPTabEE

        explainer = DPTabEE(n_candidates=2)
        c1 = spawn(np.random.default_rng(17), 4)
        c2 = spawn(np.random.default_rng(17), 4)
        batched = select_batched(explainer, diabetes_counts, c1)
        serial = [
            explainer.select_combination(diabetes_counts, child) for child in c2
        ]
        assert [tuple(c) for c in batched] == [tuple(c) for c in serial]

    def test_dpnaive_matches_serial_per_child_streams(self, diabetes_counts):
        from repro.baselines.dp_naive import DPNaive

        explainer = DPNaive(epsilon=0.4, n_candidates=2)
        c1 = spawn(np.random.default_rng(19), 3)
        c2 = spawn(np.random.default_rng(19), 3)
        batched = select_batched(explainer, diabetes_counts, c1)
        serial = [
            explainer.select_combination(diabetes_counts, child) for child in c2
        ]
        assert [tuple(c) for c in batched] == [tuple(c) for c in serial]

    def test_tabee_deterministic_replication(self, diabetes_counts):
        from repro.baselines.tabee import TabEE

        explainer = TabEE(n_candidates=2)
        children = spawn(np.random.default_rng(23), 3)
        batched = select_batched(explainer, diabetes_counts, children)
        expected = explainer.select_combination(diabetes_counts, 0)
        assert [tuple(c) for c in batched] == [tuple(expected)] * 3

    def test_empty_children(self, diabetes_counts):
        from repro.baselines.tabee import TabEE

        assert select_batched(TabEE(), diabetes_counts, []) == []


class TestMemoisedExperimentCells:
    def test_clustered_counts_memoised(self):
        from repro.experiments.common import ExperimentConfig, clustered_counts

        config = ExperimentConfig(
            datasets=("Diabetes",),
            methods=("k-means",),
            rows={"Diabetes": 2_000, "Census": 2_000, "StackOverflow": 2_000},
        )
        a = clustered_counts("Diabetes", "k-means", config)
        b = clustered_counts("Diabetes", "k-means", config)
        assert a is b

    def test_load_dataset_memoised(self):
        from repro.experiments.common import load_dataset

        a = load_dataset("Diabetes", 2_000, n_groups=3, seed=1)
        b = load_dataset("Diabetes", 2_000, n_groups=3, seed=1)
        assert a is b
        c = load_dataset("Diabetes", 2_000, n_groups=3, seed=2)
        assert c is not a


class TestRunGridHandoffModes:
    """run_grid rows must be identical across the serial and shared paths."""

    def test_rows_identical_across_pool_modes(self):
        from repro.evaluation.sweeps import run_grid
        from repro.experiments.common import ExperimentConfig

        config = ExperimentConfig(
            datasets=("Diabetes",),
            methods=("k-means",),
            n_runs=2,
            rows={"Diabetes": 1_500, "Census": 1_500, "StackOverflow": 1_500},
        )
        serial = run_grid(config, explainers=("DPClustX", "TabEE"))
        shared = run_grid(config, explainers=("DPClustX", "TabEE"), processes=2)
        assert serial == shared
        assert len(serial) > 0

    def test_no_shared_segments_leak(self):
        import os

        from repro.evaluation.sweeps import run_grid
        from repro.experiments.common import ExperimentConfig

        def segments():
            try:
                return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
            except FileNotFoundError:
                return set()

        config = ExperimentConfig(
            datasets=("Diabetes",),
            methods=("k-means",),
            n_runs=1,
            rows={"Diabetes": 1_000, "Census": 1_000, "StackOverflow": 1_000},
        )
        before = segments()
        run_grid(config, explainers=("TabEE",), processes=2)
        assert segments() == before
