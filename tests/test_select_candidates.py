"""Tests for Algorithm 1 (Select-Candidates)."""

import numpy as np
import pytest

from repro.core.quality.scores import single_cluster_score
from repro.core.select_candidates import select_candidates
from repro.privacy.budget import PrivacyAccountant


class TestStructure:
    def test_one_set_per_cluster_of_size_k(self, counts):
        sel = select_candidates(counts, (0.5, 0.5), 1.0, 2, rng=0)
        assert sel.n_clusters == counts.n_clusters
        assert sel.k == 2
        for s in sel.candidate_sets:
            assert len(s) == 2
            assert len(set(s)) == 2
            for a in s:
                assert a in counts.names

    def test_restricted_attribute_pool(self, counts):
        pool = ("size", "flag")
        sel = select_candidates(counts, (0.5, 0.5), 1.0, 1, rng=0, names=pool)
        for s in sel.candidate_sets:
            assert s[0] in pool


class TestPrivacyAndNoise:
    def test_accountant_charged_eps_cand_set(self, counts):
        acc = PrivacyAccountant()
        select_candidates(counts, (0.5, 0.5), 0.7, 2, rng=0, accountant=acc)
        assert acc.total() == pytest.approx(0.7)

    def test_huge_epsilon_recovers_true_topk(self, counts):
        sel = select_candidates(counts, (0.5, 0.5), 1e9, 2, rng=0)
        for c in range(counts.n_clusters):
            true_scores = {
                a: single_cluster_score(counts, c, a, 0.5, 0.5)
                for a in counts.names
            }
            true_top = sorted(true_scores, key=lambda a: -true_scores[a])[:2]
            assert sorted(sel.candidate_sets[c]) == sorted(true_top)

    def test_tiny_epsilon_is_noisy(self, diabetes_counts):
        # At eps ~ 0 the selection should differ across seeds (pure noise).
        picks = {
            select_candidates(
                diabetes_counts, (0.5, 0.5), 1e-4, 3, rng=s
            ).candidate_sets
            for s in range(5)
        }
        assert len(picks) > 1

    def test_selection_varies_with_seed_at_moderate_eps(self, counts):
        a = select_candidates(counts, (0.5, 0.5), 0.01, 2, rng=0).candidate_sets
        b = select_candidates(counts, (0.5, 0.5), 0.01, 2, rng=99).candidate_sets
        assert a != b  # with overwhelming probability

    def test_deterministic_given_seed(self, counts):
        a = select_candidates(counts, (0.5, 0.5), 0.5, 2, rng=42)
        b = select_candidates(counts, (0.5, 0.5), 0.5, 2, rng=42)
        assert a.candidate_sets == b.candidate_sets


class TestValidation:
    def test_bad_gamma(self, counts):
        with pytest.raises(ValueError, match="gamma"):
            select_candidates(counts, (0.7, 0.7), 1.0, 2, rng=0)
        with pytest.raises(ValueError, match="gamma"):
            select_candidates(counts, (-0.5, 1.5), 1.0, 2, rng=0)

    def test_bad_k(self, counts):
        with pytest.raises(ValueError, match="k must"):
            select_candidates(counts, (0.5, 0.5), 1.0, 0, rng=0)
        with pytest.raises(ValueError, match="k must"):
            select_candidates(counts, (0.5, 0.5), 1.0, 99, rng=0)

    def test_bad_epsilon(self, counts):
        with pytest.raises(Exception):
            select_candidates(counts, (0.5, 0.5), 0.0, 2, rng=0)
