"""Equivalence tests: the batched scoring engine vs the scalar oracles.

Every kernel in ``repro.core.engine`` must reproduce the scalar quality
functions of ``repro.core.quality`` to 1e-12 across random schemas, cluster
counts, and empty clusters — on every counts provider: exact
:class:`ClusteredCounts`, :class:`StreamedCounts`, :class:`ProductCounts`
and an attached :class:`StackCounts`, and :class:`NoisyCounts` (where full
counts can fall below cluster counts).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import ClusteredCounts, NoisyCounts, StreamingCountsBuilder
from repro.core.dpclustx import (
    combination_score_tensor,
    combination_score_tensor_reference,
)
from repro.core.engine import (
    CountsStack,
    ScoringEngine,
    attach_counts,
    scoring_engine,
    share_stack,
)
from repro.core.engine.kernels import tvd_rows
from repro.core.hbe import MultiAttributeCombination
from repro.core.multi import multi_global_score
from repro.core.pairs import ProductCounts
from repro.core.quality.distances import normalize_counts, tvd_counts, tvd_probs
from repro.core.quality.diversity import pair_diversity_low_sens
from repro.core.quality.exclusivity import exclusivity_low_sens
from repro.core.quality.interestingness import (
    interestingness_low_sens,
    interestingness_tvd,
)
from repro.core.quality.scores import (
    Weights,
    global_score,
    sensitive_single_cluster_score,
    single_cluster_scores_matrix,
    single_cluster_scores_matrix_reference,
)
from repro.core.quality.sufficiency import (
    cluster_sufficiency_normalized,
    sufficiency_low_sens,
)

from helpers import random_dataset

TOL = dict(rtol=1e-12, atol=1e-12)


def random_clustered(
    rng: np.random.Generator,
    n_rows: int = 200,
    n_clusters: int = 4,
    domain_sizes: tuple[int, ...] = (3, 4, 2, 7),
    empty_clusters: tuple[int, ...] = (),
) -> ClusteredCounts:
    """Random exact counts; ``empty_clusters`` are left without any rows."""
    data = random_dataset(rng, n_rows, domain_sizes)
    allowed = [c for c in range(n_clusters) if c not in empty_clusters]
    labels = rng.choice(allowed, size=n_rows).astype(np.int64)
    return ClusteredCounts(data, labels, n_clusters)


def random_noisy(
    rng: np.random.Generator,
    n_clusters: int = 3,
    domain_sizes: tuple[int, ...] = (3, 5, 2),
    zero_cluster: bool = True,
    low: int = 0,
) -> NoisyCounts:
    """Random noisy counts, optionally with one all-zero cluster release.

    Full histograms are drawn independently of the cluster matrices, so
    ``h_A(D) < h_A(D_c)`` happens — the regime the sufficiency clamp guards.
    ``low < 0`` mimics unclamped mechanisms that release negative counts.
    """
    names = tuple(f"a{i}" for i in range(len(domain_sizes)))
    full = {n: rng.integers(low, 40, size=m).astype(float) for n, m in zip(names, domain_sizes)}
    clusters = {
        n: rng.integers(low, 25, size=(n_clusters, m)).astype(float)
        for n, m in zip(names, domain_sizes)
    }
    if zero_cluster:
        for n in names:
            clusters[n][-1] = 0.0
    return NoisyCounts(names, full, clusters, n_clusters)


def random_streamed(rng: np.random.Generator):
    """Exact counts streamed from row chunks of a random dataset."""
    exact = random_clustered(rng, n_rows=150, n_clusters=3, domain_sizes=(5, 2, 3))
    builder = StreamingCountsBuilder(exact.dataset.schema, exact.n_clusters)
    return builder.add_dataset(exact.dataset, exact.labels, chunk_rows=40).finalise()


def random_attached(rng: np.random.Generator):
    """A :class:`StackCounts` attached to a shared copy of an exact stack.

    The owner unlinks the segment at once; the attached mapping stays valid
    for the provider's lifetime, so no segment outlives this call.
    """
    exact = random_clustered(rng, n_clusters=3, domain_sizes=(4, 2, 6))
    with share_stack(exact.by_cluster_stack()) as seg:
        return attach_counts(seg.handle)


def all_providers(seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        random_clustered(rng),
        random_clustered(rng, n_clusters=5, empty_clusters=(1, 3)),
        random_clustered(rng, n_clusters=1, domain_sizes=(2, 6)),
        random_noisy(rng),
        random_noisy(rng, n_clusters=4, domain_sizes=(2, 2, 9), zero_cluster=False),
        random_noisy(rng, n_clusters=3, domain_sizes=(4, 3), low=-6),
        random_streamed(rng),
        ProductCounts(random_clustered(rng, n_clusters=3, domain_sizes=(3, 4, 2))),
        random_attached(rng),
    ]


def scalar_matrix(counts, fn) -> np.ndarray:
    return np.array(
        [
            [fn(counts, c, a) for a in counts.names]
            for c in range(counts.n_clusters)
        ]
    )


# --------------------------------------------------------------------------- #
# stack integrity
# --------------------------------------------------------------------------- #


class TestCountsStack:
    def test_round_trips_counts_through_padding(self):
        for counts in all_providers():
            stack = CountsStack.from_provider(counts)
            for name in counts.names:
                mat, full = stack.attribute_counts(name)
                np.testing.assert_array_equal(mat, counts.by_cluster(name))
                np.testing.assert_array_equal(full, counts.full(name))

    def test_padding_is_zero(self):
        counts = all_providers()[0]
        stack = CountsStack.from_provider(counts)
        for bucket in stack.buckets:
            for r, m in enumerate(bucket.domain_sizes):
                assert not bucket.by_cluster[r, :, int(m):].any()
                assert not bucket.full[r, int(m):].any()

    def test_sizes_and_totals(self):
        for counts in all_providers(1):
            stack = CountsStack.from_provider(counts)
            for j, name in enumerate(counts.names):
                assert stack.totals[j] == counts.total(name)
                for c in range(counts.n_clusters):
                    assert stack.sizes[j, c] == counts.cluster_size(name, c)

    def test_provider_caches_stack(self):
        counts = all_providers()[0]
        assert counts.by_cluster_stack() is counts.by_cluster_stack()

    def test_engine_memoised_per_provider(self):
        counts = all_providers()[0]
        assert scoring_engine(counts) is scoring_engine(counts)

    def test_engine_memo_evicts_dead_providers(self):
        # The engine must not keep its provider alive: the memo table is
        # weakly keyed, so a strong engine -> provider edge would leak every
        # provider (and its dataset + stack) ever scored.
        import gc
        import weakref

        from repro.core.engine.engine import _ENGINES

        counts = all_providers()[0]
        scoring_engine(counts).interestingness_matrix()
        ref = weakref.ref(counts)
        del counts
        gc.collect()
        assert ref() is None
        assert not any(k is ref() for k in list(_ENGINES))


# --------------------------------------------------------------------------- #
# (|C|, |A|) matrix kernels vs scalar oracles
# --------------------------------------------------------------------------- #


class TestMatrixKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interestingness(self, seed):
        for counts in all_providers(seed):
            got = ScoringEngine(counts).interestingness_matrix()
            want = scalar_matrix(counts, interestingness_low_sens)
            np.testing.assert_allclose(got, want, **TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sufficiency(self, seed):
        for counts in all_providers(seed):
            got = ScoringEngine(counts).sufficiency_matrix()
            want = scalar_matrix(counts, sufficiency_low_sens)
            np.testing.assert_allclose(got, want, **TOL)

    def test_sufficiency_with_negative_noisy_counts(self):
        # Unclamped histogram mechanisms release negative counts; the scalar
        # oracle's h_c > 0 mask must carry over to the batched kernel (a
        # negative h_c with a non-positive full-data bin would otherwise
        # contribute an enormous h_c^2 / eps term).
        counts = NoisyCounts(
            ("a",),
            {"a": np.array([5.0, -1.0])},
            {"a": np.array([[2.0, -3.0], [-1.0, 4.0]])},
            2,
        )
        got = ScoringEngine(counts).sufficiency_matrix()
        want = scalar_matrix(counts, sufficiency_low_sens)
        np.testing.assert_allclose(got, want, **TOL)
        assert got[0, 0] == pytest.approx(0.8)

    def test_exclusivity(self):
        for counts in all_providers(3):
            got = ScoringEngine(counts).exclusivity_matrix()
            want = scalar_matrix(counts, exclusivity_low_sens)
            np.testing.assert_allclose(got, want, **TOL)

    def test_interestingness_tvd(self):
        for counts in all_providers(4):
            got = ScoringEngine(counts).interestingness_tvd_matrix()
            want = scalar_matrix(counts, interestingness_tvd)
            np.testing.assert_allclose(got, want, **TOL)

    def test_sufficiency_normalized(self):
        for counts in all_providers(5):
            got = ScoringEngine(counts).sufficiency_normalized_matrix()
            want = scalar_matrix(counts, cluster_sufficiency_normalized)
            np.testing.assert_allclose(got, want, **TOL)

    def test_score_matrix_matches_scalar_reference(self):
        for counts in all_providers(6):
            for gamma in [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7)]:
                got = single_cluster_scores_matrix(counts, *gamma)
                want = single_cluster_scores_matrix_reference(counts, *gamma)
                np.testing.assert_allclose(got, want, **TOL)

    def test_score_matrix_name_subset_ordering(self):
        counts = all_providers(7)[0]
        names = (counts.names[2], counts.names[0])
        got = single_cluster_scores_matrix(counts, 0.5, 0.5, names)
        want = single_cluster_scores_matrix_reference(counts, 0.5, 0.5, names)
        np.testing.assert_allclose(got, want, **TOL)

    def test_sensitive_score_matrix(self):
        for counts in all_providers(8):
            got = ScoringEngine(counts).sensitive_score_matrix(0.5, 0.5)
            want = scalar_matrix(
                counts,
                lambda cnt, c, a: sensitive_single_cluster_score(cnt, c, a, 0.5, 0.5),
            )
            np.testing.assert_allclose(got, want, **TOL)


# --------------------------------------------------------------------------- #
# diversity kernels
# --------------------------------------------------------------------------- #


class TestDiversityKernels:
    def test_pair_tvd_tensor_matches_scalar_pairs(self):
        for counts in all_providers(9):
            engine = ScoringEngine(counts)
            k = counts.n_clusters
            tensor = engine.pair_tvd_tensor()
            for c, c2 in itertools.combinations(range(k), 2):
                for j, a in enumerate(counts.names):
                    n_c = counts.cluster_size(a, c)
                    n_c2 = counts.cluster_size(a, c2)
                    weight = min(n_c, n_c2)
                    want = pair_diversity_low_sens(counts, c, c2, a, a)
                    got = weight * tensor[j, c, c2]
                    np.testing.assert_allclose(got, want, **TOL)

    def test_diversity_blocks_match_scalar(self):
        for counts in all_providers(10):
            engine = ScoringEngine(counts)
            k = counts.n_clusters
            if k < 2:
                continue
            rng = np.random.default_rng(0)
            for c, c2 in itertools.combinations(range(k), 2):
                attrs_c = tuple(rng.permutation(counts.names))
                attrs_c2 = tuple(rng.permutation(counts.names))
                block = engine.diversity_block(c, c2, attrs_c, attrs_c2)
                want = np.array(
                    [
                        [
                            pair_diversity_low_sens(counts, c, c2, a, a2)
                            for a2 in attrs_c2
                        ]
                        for a in attrs_c
                    ]
                )
                np.testing.assert_allclose(block, want, **TOL)

    def test_cluster_tvd_square(self):
        for counts in all_providers(11):
            engine = ScoringEngine(counts)
            for a in counts.names:
                got = engine.cluster_tvd_square(a)
                k = counts.n_clusters
                dists = [normalize_counts(counts.cluster(a, c)) for c in range(k)]
                want = np.zeros((k, k))
                for i in range(k):
                    for j in range(i + 1, k):
                        want[i, j] = want[j, i] = tvd_probs(dists[i], dists[j])
                np.testing.assert_allclose(got, want, **TOL)

    def test_tvd_rows(self):
        rng = np.random.default_rng(12)
        full = rng.integers(0, 30, size=9).astype(float)
        rows = rng.integers(0, 10, size=(5, 9)).astype(float)
        rows[2] = 0.0
        got = tvd_rows(full, rows)
        want = [tvd_counts(full, rows[c]) for c in range(5)]
        np.testing.assert_allclose(got, want, **TOL)
        np.testing.assert_allclose(tvd_rows(np.zeros(4), rows[:, :4]), 0.0)


# --------------------------------------------------------------------------- #
# Stage-2 tensors
# --------------------------------------------------------------------------- #


class TestCombinationTensors:
    def _candidate_sets(self, counts, rng, k):
        return tuple(
            tuple(rng.choice(counts.names, size=k, replace=False))
            for _ in range(counts.n_clusters)
        )

    @pytest.mark.parametrize("weights", [
        Weights(),
        Weights(0.0, 0.5, 0.5),
        Weights(0.5, 0.5, 0.0),
        Weights(0.0, 0.0, 1.0),
    ])
    def test_tensor_matches_scalar_reference(self, weights):
        for counts in all_providers(13):
            rng = np.random.default_rng(1)
            sets = self._candidate_sets(counts, rng, k=2)
            got = combination_score_tensor(counts, sets, weights)
            want = combination_score_tensor_reference(counts, sets, weights)
            np.testing.assert_allclose(got, want, **TOL)

    def test_tensor_matches_global_score_entrywise(self):
        counts = all_providers(14)[0]
        rng = np.random.default_rng(2)
        sets = self._candidate_sets(counts, rng, k=2)
        w = Weights()
        tensor = combination_score_tensor(counts, sets, w)
        for picks in itertools.product(*(range(len(s)) for s in sets)):
            combo = tuple(sets[c][j] for c, j in enumerate(picks))
            np.testing.assert_allclose(
                tensor[picks], global_score(counts, combo, w), **TOL
            )

    @pytest.mark.parametrize("weights", [Weights(), Weights(0.5, 0.5, 0.0)])
    def test_batched_rows_equal_single_run_tensors_bitwise(self, weights):
        for counts in all_providers(17):
            engine = ScoringEngine(counts)
            n_runs = 4
            for k in range(1, min(4, len(counts.names)) + 1):
                rng = np.random.default_rng(k)
                runs = [self._candidate_sets(counts, rng, k=k) for _ in range(n_runs)]
                columns = np.stack([
                    [engine.columns(attrs) for attrs in sets] for sets in runs
                ])
                got = engine.combination_score_tensor(columns, weights)
                assert got.shape == (n_runs, k ** counts.n_clusters)
                for row, sets in zip(got, runs):
                    single = engine.combination_score_tensor(sets, weights)
                    assert np.array_equal(row, single.reshape(-1))

    def test_batched_tensor_sums_each_element_in_the_documented_order(self):
        # Per-cluster terms by cluster, then the pairs in combinations order,
        # one scalar at a time: the batched broadcast must give these bits.
        weights = Weights()
        for counts in all_providers(19):
            n_clusters = counts.n_clusters
            if n_clusters < 2 or n_clusters > 5:
                continue
            engine = ScoringEngine(counts)
            base = engine.score_matrix(weights.lambda_int, weights.lambda_suf)
            sizes = engine.stack.sizes
            tvd = engine.pair_tvd_tensor()
            scale = weights.lambda_div / (n_clusters * (n_clusters - 1) // 2)
            k = min(2, len(counts.names))
            rng = np.random.default_rng(6)
            runs = [self._candidate_sets(counts, rng, k=k) for _ in range(3)]
            columns = np.stack([
                [engine.columns(attrs) for attrs in sets] for sets in runs
            ])
            got = engine.combination_score_tensor(columns, weights)
            for row, cols in zip(got, columns):
                want = []
                for picks in itertools.product(range(k), repeat=n_clusters):
                    a = [cols[c][j] for c, j in enumerate(picks)]
                    v = np.float64(0.0)
                    for c in range(n_clusters):
                        v += base[c, a[c]] / n_clusters
                    for c, c2 in itertools.combinations(range(n_clusters), 2):
                        w = np.minimum(sizes[a[c], c], sizes[a[c2], c2])
                        v += scale * (w * tvd[a[c], c, c2] if a[c] == a[c2] else w)
                    want.append(v)
                assert np.array_equal(row, np.array(want))

    def test_batched_tensor_rejects_a_wrong_shape(self):
        counts = all_providers(18)[0]
        engine = ScoringEngine(counts)
        with pytest.raises(ValueError, match=r"\(R, \|C\|, k\)"):
            engine.combination_score_tensor(
                np.zeros((2, counts.n_clusters + 1, 2), dtype=np.intp), Weights()
            )

    def test_ragged_candidate_sets(self):
        # Non-uniform k exercises the per-pair fallback path.
        counts = all_providers(15)[1]
        sets = tuple(
            tuple(counts.names[: 1 + (c % 3)]) for c in range(counts.n_clusters)
        )
        got = combination_score_tensor(counts, sets, Weights())
        want = combination_score_tensor_reference(counts, sets, Weights())
        np.testing.assert_allclose(got, want, **TOL)

    def test_multi_tensor_matches_scalar(self):
        for counts in all_providers(16):
            if counts.n_clusters > 4:
                continue
            ell = 2
            subsets = [
                list(itertools.combinations(counts.names, ell))
                for _ in range(counts.n_clusters)
            ]
            tensor = ScoringEngine(counts).multi_combination_score_tensor(
                subsets, Weights()
            )
            for picks in itertools.product(
                *(range(len(s)) for s in subsets)
            ):
                mac = MultiAttributeCombination(
                    tuple(subsets[c][j] for c, j in enumerate(picks))
                )
                np.testing.assert_allclose(
                    tensor[picks],
                    multi_global_score(counts, mac, Weights()),
                    **TOL,
                )


# --------------------------------------------------------------------------- #
# hypothesis: random schemas, cluster counts, empty clusters
# --------------------------------------------------------------------------- #


@settings(max_examples=25, deadline=None)
@given(
    domain_sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    n_clusters=st.integers(1, 5),
    n_rows=st.integers(0, 120),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_batched_matches_scalar(domain_sizes, n_clusters, n_rows, seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n_rows, tuple(domain_sizes))
    labels = (
        rng.integers(0, n_clusters, size=n_rows).astype(np.int64)
        if n_rows
        else np.zeros(0, dtype=np.int64)
    )
    counts = ClusteredCounts(data, labels, n_clusters)
    engine = ScoringEngine(counts)
    np.testing.assert_allclose(
        engine.interestingness_matrix(),
        scalar_matrix(counts, interestingness_low_sens),
        **TOL,
    )
    np.testing.assert_allclose(
        engine.sufficiency_matrix(),
        scalar_matrix(counts, sufficiency_low_sens),
        **TOL,
    )
    if n_clusters >= 2:
        block = engine.diversity_block(0, 1, counts.names, counts.names)
        want = np.array(
            [
                [pair_diversity_low_sens(counts, 0, 1, a, a2) for a2 in counts.names]
                for a in counts.names
            ]
        )
        np.testing.assert_allclose(block, want, **TOL)


# --------------------------------------------------------------------------- #
# the engine's fused score: Int_p and Suf_p combined into one Score_gamma
# --------------------------------------------------------------------------- #


class TestFusedKernels:
    """The engine's cached ``Score_gamma`` — ``Int_p`` and ``Suf_p`` fused
    into one matrix — vs the separate kernels and the oracles."""

    def test_fused_score_equals_unfused_composition_exactly(self):
        from repro.core.engine import kernels

        for counts in all_providers():
            engine = ScoringEngine(counts)
            stack = engine.stack
            for gi, gs in [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7), (0.0, 0.0)]:
                ref = gi * kernels.interestingness_low_sens_matrix(
                    stack
                ) + gs * kernels.sufficiency_low_sens_matrix(stack)
                # Bit-identical, not merely close: DP releases select on
                # these scores, so any reordering of the arithmetic would
                # change released bytes.
                assert np.array_equal(engine.score_matrix(gi, gs), ref)

    def test_engine_score_matrix_memoised_per_gamma(self):
        counts = all_providers()[0]
        engine = ScoringEngine(counts)
        a = engine.score_matrix(0.5, 0.5)
        b = engine.score_matrix(0.5, 0.5)
        c = engine.score_matrix(0.3, 0.7)
        assert a is b
        assert c is not a
        assert not a.flags.writeable  # callers share the cached array
        # subset views stay consistent with the full matrix
        names = counts.names[:2]
        sub = engine.score_matrix(0.5, 0.5, names)
        assert np.array_equal(sub, a[:, :2])

    def test_combination_tensor_unchanged_by_fusion(self):
        for counts in all_providers():
            engine = ScoringEngine(counts)
            rng = np.random.default_rng(3)
            sets = tuple(
                tuple(rng.choice(counts.names, size=2, replace=False))
                for _ in range(counts.n_clusters)
            )
            got = engine.combination_score_tensor(sets, Weights())
            ref = combination_score_tensor_reference(counts, sets, Weights())
            np.testing.assert_allclose(got, ref, **TOL)


class TestGetStackMemo:
    def test_full_stack_still_served_by_provider_cache(self):
        for counts in all_providers():
            assert scoring_engine(counts).stack is counts.by_cluster_stack()
