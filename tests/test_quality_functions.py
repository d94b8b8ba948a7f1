"""Tests for the Section 4 quality functions, including the paper's examples."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import ClusteredCounts
from repro.core.quality.diversity import (
    diversity_range,
    global_diversity_low_sens,
    global_diversity_sensitive,
    pair_diversity_low_sens,
)
from repro.core.quality.interestingness import (
    global_interestingness_low_sens,
    interestingness_jsd,
    interestingness_low_sens,
    interestingness_tvd,
)
from repro.core.quality.scores import (
    Weights,
    global_score,
    global_score_range,
    sensitive_single_cluster_score,
    single_cluster_score,
    single_cluster_scores_matrix,
)
from repro.core.quality.sufficiency import (
    cluster_sufficiency_normalized,
    global_sufficiency_low_sens,
    global_sufficiency_sensitive,
    sufficiency_low_sens,
)
from repro.dataset import Attribute, Dataset, Schema

from helpers import CodeModuloClustering


def two_cluster_dataset(rows_a: list[int], rows_grp: list[int]) -> ClusteredCounts:
    """Dataset with binary attribute A and explicit cluster attribute grp."""
    schema = Schema(
        (Attribute("A", ("0", "1")), Attribute("grp", ("g0", "g1")))
    )
    d = Dataset(
        schema,
        {"A": np.array(rows_a), "grp": np.array(rows_grp)},
    )
    return ClusteredCounts(d, CodeModuloClustering("grp", 2))


class TestExample42:
    """Example 4.2: a single added tuple swings TVD interestingness by ~0.5."""

    def _build(self, n: int = 1000):
        # n rows, 95% with A=1, all in cluster 0 except one A=0 tuple in c1.
        n_ones = int(0.95 * n)
        a = [1] * n_ones + [0] * (n - n_ones)
        grp = [0] * (n - 1) + [1]  # last tuple (A=0) forms cluster 1
        a[-1] = 0
        return two_cluster_dataset(a, grp)

    def test_before_addition(self):
        counts = self._build()
        # cluster 1 = single tuple with A=0: TVD = P(A=1) = ~0.95.
        assert interestingness_tvd(counts, 1, "A") == pytest.approx(0.95, abs=0.01)

    def test_single_tuple_halves_the_score(self):
        counts = self._build()
        before = interestingness_tvd(counts, 1, "A")
        d2 = counts.dataset.with_tuple((1, 1))  # A=1 joins cluster 1
        counts2 = ClusteredCounts(d2, CodeModuloClustering("grp", 2))
        after = interestingness_tvd(counts2, 1, "A")
        assert before - after > 0.45  # the ~0.5 jump of Example 4.2

    def test_low_sens_variant_moves_by_at_most_one(self):
        counts = self._build()
        before = interestingness_low_sens(counts, 1, "A")
        d2 = counts.dataset.with_tuple((1, 1))
        counts2 = ClusteredCounts(d2, CodeModuloClustering("grp", 2))
        after = interestingness_low_sens(counts2, 1, "A")
        assert abs(after - before) <= 1.0 + 1e-9  # Proposition 4.4


class TestInterestingness:
    def test_int_p_is_size_times_tvd(self, counts):
        # Definition 4.3's identity: Int_p = |D_c| * TVD (Corollary A.1).
        for c in range(counts.n_clusters):
            for name in counts.names:
                expected = counts.cluster_size(name, c) * interestingness_tvd(
                    counts, c, name
                )
                assert interestingness_low_sens(counts, c, name) == pytest.approx(
                    expected
                )

    def test_range_zero_to_cluster_size(self, counts):
        for c in range(counts.n_clusters):
            for name in counts.names:
                v = interestingness_low_sens(counts, c, name)
                assert 0.0 <= v <= counts.cluster_size(name, c) + 1e-9

    def test_ranking_preserved(self, diabetes_counts):
        # For a fixed cluster, Int_p ranks attributes exactly as TVD does.
        names = diabetes_counts.names
        tvd_rank = sorted(
            names, key=lambda a: -interestingness_tvd(diabetes_counts, 0, a)
        )
        lowsens_rank = sorted(
            names, key=lambda a: -interestingness_low_sens(diabetes_counts, 0, a)
        )
        assert tvd_rank == lowsens_rank

    def test_global_is_average(self, counts):
        ac = tuple(counts.names[0] for _ in range(counts.n_clusters))
        expected = np.mean(
            [interestingness_low_sens(counts, c, ac[c]) for c in range(3)]
        )
        assert global_interestingness_low_sens(counts, ac) == pytest.approx(expected)

    def test_global_arity_check(self, counts):
        with pytest.raises(ValueError):
            global_interestingness_low_sens(counts, ("color",))

    def test_jsd_variant_bounded(self, counts):
        for c in range(counts.n_clusters):
            assert 0.0 <= interestingness_jsd(counts, c, "size") <= 1.0

    def test_empty_cluster_is_zero(self):
        counts = two_cluster_dataset([0, 1, 1], [0, 0, 0])
        assert interestingness_tvd(counts, 1, "A") == 0.0
        assert interestingness_low_sens(counts, 1, "A") == 0.0


class TestSufficiency:
    def test_definition_by_hand(self):
        # cluster0 = {A=0, A=0, A=1}, cluster1 = {A=1}:
        # Suf_p(c0) = 2^2/2 + 1^2/2 = 2.5 ; Suf_p(c1) = 1^2/2 = 0.5
        counts = two_cluster_dataset([0, 0, 1, 1], [0, 0, 0, 1])
        assert sufficiency_low_sens(counts, 0, "A") == pytest.approx(2.5)
        assert sufficiency_low_sens(counts, 1, "A") == pytest.approx(0.5)

    def test_exclusive_values_maximise(self):
        # Values of cluster 0 never occur outside -> Suf_p = |D_c|.
        counts = two_cluster_dataset([0, 0, 1, 1, 1], [0, 0, 1, 1, 1])
        assert sufficiency_low_sens(counts, 0, "A") == pytest.approx(2.0)
        assert cluster_sufficiency_normalized(counts, 0, "A") == pytest.approx(1.0)

    def test_range(self, counts):
        for c in range(counts.n_clusters):
            for name in counts.names:
                v = sufficiency_low_sens(counts, c, name)
                assert 0.0 <= v <= counts.cluster_size(name, c) + 1e-9

    def test_empty_cluster_is_zero(self):
        counts = two_cluster_dataset([0, 1], [0, 0])
        assert sufficiency_low_sens(counts, 1, "A") == 0.0
        assert cluster_sufficiency_normalized(counts, 1, "A") == 0.0

    def test_proposition_4_5_construction(self):
        # D = {t1} alone: Suf = 1; adding t2 with same value to the other
        # cluster drops Suf to 1/2 (sensitivity >= 1/2 for the sensitive fn).
        counts = two_cluster_dataset([0], [0])
        assert global_sufficiency_sensitive(counts, ("A", "A")) == pytest.approx(1.0)
        counts2 = two_cluster_dataset([0, 0], [0, 1])
        assert global_sufficiency_sensitive(counts2, ("A", "A")) == pytest.approx(0.5)

    def test_global_low_sens_is_average(self, counts):
        ac = tuple(counts.names[0] for _ in range(3))
        expected = np.mean([sufficiency_low_sens(counts, c, ac[c]) for c in range(3)])
        assert global_sufficiency_low_sens(counts, ac) == pytest.approx(expected)


class TestDiversity:
    def test_different_attributes_give_min_size(self, counts):
        v = pair_diversity_low_sens(counts, 0, 1, "color", "size")
        assert v == min(counts.cluster_size("color", 0), counts.cluster_size("size", 1))

    def test_same_attribute_gives_weighted_tvd(self):
        counts = two_cluster_dataset([0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1])
        # cluster0 dist on A = (1, 0); cluster1 dist = (0, 1); TVD = 1.
        v = pair_diversity_low_sens(counts, 0, 1, "A", "A")
        assert v == pytest.approx(min(2, 4) * 1.0)

    def test_identical_distributions_give_zero(self):
        counts = two_cluster_dataset([0, 1, 0, 1], [0, 0, 1, 1])
        assert pair_diversity_low_sens(counts, 0, 1, "A", "A") == pytest.approx(0.0)

    def test_empty_cluster_handled(self):
        counts = two_cluster_dataset([0, 1], [0, 0])
        assert pair_diversity_low_sens(counts, 0, 1, "A", "A") == 0.0

    def test_global_average(self, counts):
        names = counts.names
        ac = (names[0], names[1], names[2])
        pairs = [(0, 1), (0, 2), (1, 2)]
        expected = np.mean(
            [pair_diversity_low_sens(counts, a, b, ac[a], ac[b]) for a, b in pairs]
        )
        assert global_diversity_low_sens(counts, ac) == pytest.approx(expected)

    def test_single_cluster_is_zero(self):
        counts = two_cluster_dataset([0, 1], [0, 0])
        single = ClusteredCounts(counts.dataset, np.zeros(2, dtype=np.int64), 1)
        assert global_diversity_low_sens(single, ("A",)) == 0.0

    def test_diversity_range_formula(self):
        # sizes {1,2,3}: R_Div = (2*1 + 1*2 + 0*3) / C(3,2) = 4/3.
        assert diversity_range(np.array([3, 1, 2])) == pytest.approx(4.0 / 3.0)

    def test_distinct_attributes_attain_range(self, counts):
        ac = counts.names[:3]
        assert global_diversity_low_sens(counts, ac) == pytest.approx(
            diversity_range(counts.sizes())
        )

    def test_sensitive_distinct_attributes_is_one(self, counts):
        # Each singleton ExpBy group contributes 1; normalised -> |C|/|C| = 1.
        v = global_diversity_sensitive(counts, counts.names[:3], rng=0)
        assert v == pytest.approx(1.0)

    def test_sensitive_same_attribute_identical_dists(self):
        # All clusters share one attribute with identical distributions:
        # PermDiv = 1 (first pick) + 0 -> normalised 1/|C|.
        counts = two_cluster_dataset([0, 1, 0, 1], [0, 0, 1, 1])
        v = global_diversity_sensitive(counts, ("A", "A"), rng=0)
        assert v == pytest.approx(0.5)

    def test_sensitive_unnormalized_max_is_num_clusters(self, counts):
        v = global_diversity_sensitive(
            counts, counts.names[:3], rng=0, normalized=False
        )
        assert v == pytest.approx(3.0)


class TestScores:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Weights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Weights(-0.1, 0.6, 0.5)

    @staticmethod
    def _accepts(vals) -> bool:
        try:
            Weights(*vals)
        except ValueError as exc:
            assert "sum to 1" in str(exc) or "non-negative" in str(exc)
            return False
        return True

    @staticmethod
    def _oracle(vals) -> bool:
        """The verdict of the former ``np.isclose`` check."""
        return all(not v < 0 for v in vals) and bool(
            np.isclose(sum(vals), 1.0, atol=1e-9)
        )

    @pytest.mark.parametrize(
        "vals",
        [
            (1.0 + (1e-5 + 1e-9), 0.0, 0.0),
            (1.0 - (1e-5 + 1e-9), 0.0, 0.0),
            (math.nextafter(1.0 + (1e-5 + 1e-9), math.inf), 0.0, 0.0),
            (math.nextafter(1.0 + (1e-5 + 1e-9), 0.0), 0.0, 0.0),
            (math.nextafter(1.0 - (1e-5 + 1e-9), math.inf), 0.0, 0.0),
            (math.nextafter(1.0 - (1e-5 + 1e-9), 0.0), 0.0, 0.0),
            (math.nan, 0.5, 0.5),
            (math.inf, 0.0, 0.0),
            (0.5, math.inf, -math.inf),
            (-math.inf, 1.0, 1.0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 0, 0),
        ],
    )
    def test_weights_sum_check_matches_isclose(self, vals):
        """The plain-arithmetic sum check keeps ``np.isclose``'s verdict."""
        assert self._accepts(vals) == self._oracle(vals)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-1e-4, max_value=1.0),
        )
        | st.tuples(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        | st.floats(min_value=-3e-5, max_value=3e-5).map(
            lambda d: (0.25, 0.25, 0.5 + d)
        )
    )
    def test_weights_sum_check_matches_isclose_sweep(self, vals):
        assert self._accepts(vals) == self._oracle(vals)

    def test_weights_table1_configs(self):
        assert Weights.without("int").lambda_int == 0.0
        assert Weights.without("suf").lambda_suf == 0.0
        assert Weights.without("div").lambda_div == 0.0
        with pytest.raises(ValueError):
            Weights.without("bogus")

    def test_gamma_derivation_line_1(self):
        # Algorithm 2, Line 1: gamma = lambda_{Int,Suf} / (lambda_Int + lambda_Suf)
        w = Weights(0.2, 0.3, 0.5)
        g_int, g_suf = w.gamma()
        assert g_int == pytest.approx(0.4)
        assert g_suf == pytest.approx(0.6)

    def test_gamma_pure_diversity_fallback(self):
        g = Weights(0.0, 0.0, 1.0).gamma()
        assert g == (0.5, 0.5)

    def test_single_cluster_score_combination(self, counts):
        v = single_cluster_score(counts, 0, "size", 0.25, 0.75)
        expected = 0.25 * interestingness_low_sens(
            counts, 0, "size"
        ) + 0.75 * sufficiency_low_sens(counts, 0, "size")
        assert v == pytest.approx(expected)

    def test_scores_matrix_shape(self, counts):
        m = single_cluster_scores_matrix(counts, 0.5, 0.5)
        assert m.shape == (3, 3)
        assert (m >= 0).all()

    def test_global_score_combination(self, counts):
        w = Weights(0.2, 0.3, 0.5)
        ac = ("color", "size", "flag")
        expected = (
            0.2 * global_interestingness_low_sens(counts, ac)
            + 0.3 * global_sufficiency_low_sens(counts, ac)
            + 0.5 * global_diversity_low_sens(counts, ac)
        )
        assert global_score(counts, ac, w) == pytest.approx(expected)

    def test_global_score_within_range_bound(self, counts):
        w = Weights()
        bound = global_score_range(counts.sizes(), w)
        for ac in [("color",) * 3, ("color", "size", "flag")]:
            assert global_score(counts, ac, w) <= bound + 1e-9

    def test_sensitive_single_cluster_score_in_unit_interval(self, counts):
        for c in range(3):
            for name in counts.names:
                v = sensitive_single_cluster_score(counts, c, name, 0.5, 0.5)
                assert 0.0 <= v <= 1.0
