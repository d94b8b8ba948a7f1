"""Tests for the hierarchical DP histogram (Hay et al. [29])."""

import numpy as np
import pytest

from repro.privacy.hierarchical import HierarchicalHistogram, _tree_shape
from repro.privacy.histograms import LaplaceHistogram

from helpers import make_dataset


class TestTreeShape:
    def test_powers_of_branching(self):
        assert _tree_shape(8, 2) == (8, 4)
        assert _tree_shape(9, 3) == (9, 3)

    def test_padding(self):
        assert _tree_shape(5, 2) == (8, 4)
        assert _tree_shape(10, 4) == (16, 3)

    def test_single_bin(self):
        assert _tree_shape(1, 2) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            _tree_shape(0, 2)
        with pytest.raises(ValueError):
            _tree_shape(4, 1)


class TestRelease:
    def test_shape_preserved(self):
        out = HierarchicalHistogram(1.0).release(np.arange(10), rng=0)
        assert out.shape == (10,)

    def test_high_epsilon_is_nearly_exact(self):
        counts = np.array([50.0, 30.0, 20.0, 10.0, 5.0])
        out = HierarchicalHistogram(1e5).release(counts, rng=0)
        assert np.abs(out - counts).max() < 0.1

    def test_unbiased_without_clamping(self):
        rng = np.random.default_rng(0)
        mech = HierarchicalHistogram(0.5, clamp_negative=False)
        counts = np.full(8, 100.0)
        released = np.stack([mech.release(counts, rng) for _ in range(600)])
        assert np.abs(released.mean(axis=0) - 100.0).max() < 3.0

    def test_clamps_by_default(self):
        rng = np.random.default_rng(1)
        out = HierarchicalHistogram(0.05).release(np.zeros(16), rng)
        assert (out >= 0).all()

    def test_single_bin_release(self):
        out = HierarchicalHistogram(10.0).release(np.array([42.0]), rng=0)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(42.0, abs=2.0)

    def test_with_epsilon(self):
        mech = HierarchicalHistogram(1.0, branching=4).with_epsilon(0.2)
        assert mech.epsilon == 0.2
        assert mech.branching == 4

    def test_release_column(self):
        d = make_dataset()
        out = HierarchicalHistogram(1e5).release_column(d, "size", rng=0)
        assert np.allclose(out, d.histogram("size"), atol=0.1)

    def test_branching_three(self):
        counts = np.arange(9, dtype=float) * 10
        out = HierarchicalHistogram(1e5, branching=3).release(counts, rng=0)
        assert np.abs(out - counts).max() < 0.1


class TestConsistency:
    def test_leaves_sum_to_consistent_totals(self):
        # After constrained inference, any two sibling groups sum to the
        # same parent estimate — check total-vs-halves consistency on the
        # unclamped release.
        rng = np.random.default_rng(2)
        mech = HierarchicalHistogram(0.5, clamp_negative=False)
        counts = rng.integers(0, 50, 16).astype(float)
        leaves, height = _tree_shape(16, 2)
        padded = np.zeros(leaves)
        padded[:16] = counts
        levels = [padded]
        while levels[-1].shape[0] > 1:
            levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
        eps_level = mech.epsilon / height
        from repro.privacy.mechanisms import LaplaceMechanism

        noise = LaplaceMechanism(eps_level, 1.0)
        noisy = [np.asarray(noise.randomise(level, rng)) for level in levels]
        z = mech._upward_pass(noisy)
        hbar = mech._downward_pass(z)
        for l in range(len(hbar) - 1):
            child_sums = hbar[l].reshape(-1, 2).sum(axis=1)
            assert np.allclose(child_sums, hbar[l + 1], atol=1e-9)


class TestRangeQueryAdvantage:
    def test_beats_flat_laplace_on_wide_ranges(self):
        """Hay et al.'s headline: O(log r) vs Theta(r) noise on range sums."""
        rng = np.random.default_rng(3)
        m, eps = 256, 0.2
        counts = rng.integers(0, 30, m).astype(float)
        true_range = counts[: m // 2].sum()
        hier = HierarchicalHistogram(eps, clamp_negative=False)
        flat = LaplaceHistogram(eps, clamp_negative=False)
        errs_h, errs_f = [], []
        for _ in range(120):
            errs_h.append(abs(hier.release(counts, rng)[: m // 2].sum() - true_range))
            errs_f.append(abs(flat.release(counts, rng)[: m // 2].sum() - true_range))
        assert np.mean(errs_h) < np.mean(errs_f)

    def test_range_query_helper(self):
        mech = HierarchicalHistogram(1.0)
        released = np.array([1.0, 2.0, 3.0])
        assert mech.range_query(released, 0, 2) == 3.0
        with pytest.raises(ValueError):
            mech.range_query(released, 2, 1)

    def test_leaf_variance_within_bound(self):
        rng = np.random.default_rng(4)
        mech = HierarchicalHistogram(0.5, clamp_negative=False)
        counts = np.full(32, 40.0)
        released = np.stack([mech.release(counts, rng) for _ in range(400)])
        empirical = released.var(axis=0).max()
        assert empirical <= mech.expected_leaf_variance(32) * 1.2


class TestInsideDPClustX:
    def test_drop_in_mechanism(self, dataset, clustering):
        from repro.core.dpclustx import DPClustX
        from repro.privacy.budget import PrivacyAccountant

        acc = PrivacyAccountant()
        explainer = DPClustX(histogram_mechanism=HierarchicalHistogram(1.0))
        expl = explainer.explain(dataset, clustering, rng=0, accountant=acc)
        assert expl.n_clusters == clustering.n_clusters
        assert acc.total() == pytest.approx(explainer.budget.total)


def _per_level_reference(mech, counts, gen):
    """One row released level by level, one Laplace call per level."""
    from repro.privacy.mechanisms import LaplaceMechanism

    leaves, height = _tree_shape(len(counts), mech.branching)
    padded = np.zeros(leaves)
    padded[: len(counts)] = counts
    levels = [padded]
    while levels[-1].shape[0] > 1:
        levels.append(levels[-1].reshape(-1, mech.branching).sum(axis=1))
    noise = LaplaceMechanism(mech.epsilon / height, 1.0)
    noisy = [np.asarray(noise.randomise(level, gen)) for level in levels]
    hbar = mech._downward_pass(mech._upward_pass(noisy))
    released = hbar[0][: len(counts)]
    return np.maximum(released, 0.0) if mech.clamp_negative else released


class TestBlockRelease:
    """A multi-row block is one draw, equal to releasing its rows in turn."""

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(5)
        return [
            rng.integers(0, 40, size=(3, 7)),
            rng.integers(0, 40, size=(1, 1)),
            rng.integers(0, 40, size=(4, 9)),
            rng.integers(0, 40, size=(2, 5)),
        ]

    @pytest.mark.parametrize("branching", [2, 3])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_one_call_equals_rows_one_at_a_time(self, branching, clamp):
        mech = HierarchicalHistogram(0.7, branching=branching, clamp_negative=clamp)
        blocks = self._blocks()
        batched = mech.release_blocks(blocks, np.random.default_rng(9))

        gen = np.random.default_rng(9)
        per_row = [np.stack([mech.release(row, gen) for row in b]) for b in blocks]
        gen = np.random.default_rng(9)
        per_level = [
            np.stack([_per_level_reference(mech, row, gen) for row in b])
            for b in blocks
        ]
        assert [b.shape for b in batched] == [b.shape for b in blocks]
        for got, rows, levels in zip(batched, per_row, per_level):
            assert np.array_equal(got, rows)
            assert np.array_equal(got, levels)
