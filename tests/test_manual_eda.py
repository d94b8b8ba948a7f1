"""Tests for the simulated manual-EDA baseline."""

import numpy as np
import pytest

from repro.baselines import manual_eda
from repro.baselines.manual_eda import ManualEDASession
from repro.core.engine.kernels import tvd_rows
from repro.privacy.budget import PrivacyAccountant
from repro.privacy.hierarchical import HierarchicalHistogram
from repro.privacy.histograms import GeometricHistogram, LaplaceHistogram


class TestBudgetModel:
    def test_round_count(self):
        s = ManualEDASession(epsilon=0.2, eps_probe=0.01)
        assert s.n_rounds == 10

    def test_budget_must_cover_one_round(self):
        with pytest.raises(ValueError, match="probe round"):
            ManualEDASession(epsilon=0.01, eps_probe=0.01)

    def test_session_cost_within_budget(self, counts):
        s = ManualEDASession(epsilon=0.2, eps_probe=0.04)
        assert s.session_cost(len(counts.names)) <= s.epsilon + 1e-12

    def test_accountant_matches_session_cost(self, counts):
        s = ManualEDASession(epsilon=0.3, eps_probe=0.05)
        acc = PrivacyAccountant()
        s.select_combination(counts, rng=0, accountant=acc)
        assert acc.total() == pytest.approx(s.session_cost(len(counts.names)))

    def test_probes_capped_by_attribute_count(self, counts):
        # 3 attributes but budget for 10 rounds: only 3 probed.
        s = ManualEDASession(epsilon=1.0, eps_probe=0.05)
        acc = PrivacyAccountant()
        s.select_combination(counts, rng=0, accountant=acc)
        assert acc.total() == pytest.approx(2 * 0.05 * 3)


class TestSelection:
    def test_output_shape(self, counts):
        s = ManualEDASession(epsilon=0.2, eps_probe=0.02)
        combo = s.select_combination(counts, rng=0)
        assert combo.n_clusters == counts.n_clusters
        for a in combo:
            assert a in counts.names

    def test_only_probed_attributes_selectable(self, diabetes_counts):
        # With budget for a single round, all clusters pick that attribute.
        s = ManualEDASession(epsilon=0.02, eps_probe=0.01)
        combo = s.select_combination(diabetes_counts, rng=3)
        assert len(set(combo)) == 1

    def test_coverage_grows_with_budget(self, diabetes_counts):
        # More rounds -> more attributes seen -> (weakly) better picks.
        from repro.core.quality.scores import Weights
        from repro.evaluation.quality import QualityEvaluator

        ev = QualityEvaluator(diabetes_counts, Weights(), 0)

        def avg_quality(eps):
            s = ManualEDASession(epsilon=eps, eps_probe=0.01)
            return float(
                np.mean(
                    [
                        ev.quality(tuple(s.select_combination(diabetes_counts, rng=r)))
                        for r in range(4)
                    ]
                )
            )

        assert avg_quality(0.9) >= avg_quality(0.04) - 0.05

    def test_loses_to_dpclustx_at_equal_budget(self, diabetes_counts):
        """The paper's motivating claim, quantified."""
        from repro.core.dpclustx import DPClustX
        from repro.core.quality.scores import Weights
        from repro.evaluation.quality import QualityEvaluator
        from repro.privacy.budget import ExplanationBudget

        ev = QualityEvaluator(diabetes_counts, Weights(), 0)
        eps = 0.2
        eda = ManualEDASession(epsilon=eps, eps_probe=0.01)
        q_eda = np.mean(
            [
                ev.quality(tuple(eda.select_combination(diabetes_counts, rng=r)))
                for r in range(5)
            ]
        )
        explainer = DPClustX(budget=ExplanationBudget.split_selection(eps))
        q_x = np.mean(
            [
                ev.quality(
                    tuple(explainer.select_combination(diabetes_counts, rng=r).combination)
                )
                for r in range(5)
            ]
        )
        assert q_x > q_eda

    def test_deterministic_given_seed(self, counts):
        s = ManualEDASession(epsilon=0.2, eps_probe=0.02)
        assert s.select_combination(counts, rng=7) == s.select_combination(
            counts, rng=7
        )


class TestReleases:
    """The session's batched release equals releasing row by row."""

    @pytest.mark.parametrize(
        "mechanism",
        [
            GeometricHistogram(1.0),
            LaplaceHistogram(1.0),
            HierarchicalHistogram(1.0),
        ],
        ids=["geometric", "laplace", "hierarchical"],
    )
    def test_noisy_releases_match_a_per_row_reference(
        self, diabetes_counts, monkeypatch, mechanism
    ):
        seen = []

        def recording_tvd_rows(noisy_full, noisy_clusters):
            seen.append((noisy_full.copy(), noisy_clusters.copy()))
            return tvd_rows(noisy_full, noisy_clusters)

        monkeypatch.setattr(manual_eda, "tvd_rows", recording_tvd_rows)
        s = ManualEDASession(
            epsilon=0.2, eps_probe=0.02, histogram_mechanism=mechanism
        )
        s.select_combination(diabetes_counts, rng=3)

        # Reference: the probe order, then one release call per row.
        names = diabetes_counts.names
        mech = mechanism.with_epsilon(s.eps_probe)
        gen = np.random.default_rng(3)
        order = gen.permutation(len(names))[: min(s.n_rounds, len(names))]
        expected = []
        for idx in order:
            a = names[int(idx)]
            full = mech.release(diabetes_counts.full(a), gen)
            clusters = np.stack(
                [
                    mech.release(diabetes_counts.cluster(a, c), gen)
                    for c in range(diabetes_counts.n_clusters)
                ]
            )
            expected.append((full, clusters))

        assert len(seen) == len(expected) == s.n_rounds
        for (got_full, got_clusters), (want_full, want_clusters) in zip(
            seen, expected
        ):
            assert np.array_equal(got_full, want_full)
            assert np.array_equal(got_clusters, want_clusters)
