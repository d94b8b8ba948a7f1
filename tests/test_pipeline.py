"""Tests for the end-to-end private pipeline (repro.pipeline).

Covers the contracts ISSUE 4 pins down:

* the charge-before-release ordering fix in ``DPKMeans.fit`` /
  ``DPKModes.fit``: an over-cap fit raises with **zero** mechanism draws
  and an unchanged ledger;
* spec-seeded fits are byte-reproducible — the soundness of the
  ``(fingerprint, method, params, seed)`` fitted-clustering cache key;
* ``PrivateAnalysisSession.run_pipeline`` charges clustering and
  explanation to one ledger, reuses released fits for free, checks its
  explanation parameters before paying for a fit, and round-trips
  mid-pipeline ledger snapshots;
* ``run_pipeline_batched`` amortises one fit across a seed sweep,
  byte-identical per seed to the serial explain path;
* the session flows (fit-then-reuse, cluster-then-pipeline, explain,
  explain_multi, ad-hoc histograms) are pinned by SHA-256 over their fitted
  centers, released histograms and ledger ``(units, composition)`` rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.clustering.dp_kmeans as dp_kmeans_module
import repro.clustering.dp_kmodes as dp_kmodes_module

from repro import ClusteringSpec, DPClustX, PrivateAnalysisSession
from repro.core.counts import ClusteredCounts
from repro.evaluation.sweeps import run_pipeline_batched
from repro.obs.metrics import MetricsRegistry, snapshot_series
from repro.privacy.budget import (
    BudgetError,
    ExplanationBudget,
    PrivacyAccountant,
)
from repro.privacy.mechanisms import GeometricMechanism, LaplaceMechanism
from repro.service.cache import ExplanationCache
from repro.synth import diabetes_like


@pytest.fixture(scope="module")
def data():
    return diabetes_like(n_rows=1_500, n_groups=3, seed=9)


class TestClusteringSpec:
    def test_validated_accepts_both_methods(self):
        for method in ("dp-kmeans", "dp-kmodes"):
            spec = ClusteringSpec(method, 3, 1.0).validated()
            assert spec.method == method

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "k-means"},  # non-private methods are not fittable
            {"method": "dp-kmeans", "n_clusters": 0},
            {"method": "dp-kmeans", "n_clusters": 10_000_000},  # resource cap
            {"method": "dp-kmeans", "epsilon": -1.0},
            {"method": "dp-kmeans", "n_iterations": 0},
            {"method": "dp-kmeans", "n_iterations": 10_000_000},  # resource cap
            {"method": "dp-kmeans", "seed": -1},
        ],
    )
    def test_validated_rejects(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ClusteringSpec(**{"n_clusters": 3, **kwargs}).validated()

    def test_from_json_roundtrip_and_unknown_fields(self):
        spec = ClusteringSpec.from_json(
            {"method": "dp-kmodes", "n_clusters": 4, "epsilon": 0.5, "seed": 2}
        )
        assert spec == ClusteringSpec("dp-kmodes", 4, 0.5, 5, 2)
        with pytest.raises(ValueError):
            ClusteringSpec.from_json({"method": "dp-kmeans", "evil": 1})

    def test_cache_key_leads_with_fingerprint(self, data):
        key = ClusteringSpec("dp-kmeans", 3).cache_key(data.fingerprint())
        assert key[0] == data.fingerprint()
        assert key[1:] == ("dp-kmeans", 3, 1.0, 5, 0)


class TestFitReproducibility:
    """The fitted-clustering cache key is sound because fits replay."""

    def test_dp_kmeans_fit_is_byte_identical_given_the_spec_seed(self, data):
        spec = ClusteringSpec("dp-kmeans", 3, 1.0, seed=4)
        a = spec.fit(data)
        b = spec.fit(data)
        assert np.array_equal(a.centers, b.centers)  # exact, not approx
        assert np.array_equal(a.assign(data), b.assign(data))

    def test_dp_kmodes_fit_is_byte_identical_given_the_spec_seed(self, data):
        spec = ClusteringSpec("dp-kmodes", 3, 1.0, seed=4)
        a = spec.fit(data)
        b = spec.fit(data)
        assert np.array_equal(a.modes, b.modes)

    def test_different_seed_changes_the_release(self, data):
        a = ClusteringSpec("dp-kmeans", 3, seed=0).fit(data)
        b = ClusteringSpec("dp-kmeans", 3, seed=1).fit(data)
        assert not np.array_equal(a.centers, b.centers)

    def test_fingerprint_equal_data_fits_identically(self, data):
        """Distinct but content-equal Dataset objects release the same fit."""
        twin = diabetes_like(n_rows=1_500, n_groups=3, seed=9)
        assert twin is not data and twin.fingerprint() == data.fingerprint()
        spec = ClusteringSpec("dp-kmeans", 3, seed=7)
        assert np.array_equal(spec.fit(data).centers, spec.fit(twin).centers)


class _CountingLaplace(LaplaceMechanism):
    """Laplace mechanism recording every draw (charge-ordering regression)."""

    draws = 0

    def randomise(self, values, rng=None):
        type(self).draws += 1
        return super().randomise(values, rng)


class _CountingGeometric(GeometricMechanism):
    draws = 0

    def sample_noise(self, size, rng=None):
        type(self).draws += 1
        return super().sample_noise(size, rng)


class TestChargeBeforeRelease:
    """An over-cap fit must raise while zero noise has been drawn."""

    def test_dp_kmeans_over_cap_draws_nothing(self, data, monkeypatch):
        _CountingLaplace.draws = 0
        monkeypatch.setattr(dp_kmeans_module, "LaplaceMechanism", _CountingLaplace)
        accountant = PrivacyAccountant(limit=0.05)  # < first 0.1 counts charge
        with pytest.raises(BudgetError):
            dp_kmeans_module.DPKMeans(3, epsilon=1.0).fit(
                data, rng=0, accountant=accountant
            )
        assert _CountingLaplace.draws == 0
        assert accountant.total() == 0.0  # ledger untouched

    def test_dp_kmeans_refused_sums_charge_rolls_back_the_counts_charge(
        self, data, monkeypatch
    ):
        """Iteration charges are all-or-nothing: if the sums half of an
        iteration is refused, the counts half (whose noise was equally
        never drawn) must not stay on the ledger."""
        _CountingLaplace.draws = 0
        monkeypatch.setattr(dp_kmeans_module, "LaplaceMechanism", _CountingLaplace)
        accountant = PrivacyAccountant(limit=0.15)  # counts 0.1 fits, sums not
        with pytest.raises(BudgetError):
            dp_kmeans_module.DPKMeans(3, epsilon=1.0).fit(
                data, rng=0, accountant=accountant
            )
        assert _CountingLaplace.draws == 0
        assert accountant.total() == 0.0

    def test_dp_kmeans_mid_fit_refusal_keeps_released_iterations(
        self, data, monkeypatch
    ):
        """Iterations already released stay charged; the aborted iteration
        leaves no charge and no draws beyond the released ones."""
        _CountingLaplace.draws = 0
        monkeypatch.setattr(dp_kmeans_module, "LaplaceMechanism", _CountingLaplace)
        accountant = PrivacyAccountant(limit=0.3)  # one 0.2 iteration fits
        with pytest.raises(BudgetError):
            dp_kmeans_module.DPKMeans(3, epsilon=1.0).fit(
                data, rng=0, accountant=accountant
            )
        assert _CountingLaplace.draws == 2 * 3  # iteration 0 only (k counts + k sums)
        assert accountant.total() == pytest.approx(0.2)

    def test_dp_kmodes_over_cap_draws_nothing(self, data, monkeypatch):
        _CountingGeometric.draws = 0
        monkeypatch.setattr(
            dp_kmodes_module, "GeometricMechanism", _CountingGeometric
        )
        accountant = PrivacyAccountant(limit=0.1)  # < 0.2 iteration charge
        with pytest.raises(BudgetError):
            dp_kmodes_module.DPKModes(3, epsilon=1.0).fit(
                data, rng=0, accountant=accountant
            )
        assert _CountingGeometric.draws == 0
        assert accountant.total() == 0.0

    def test_successful_fit_stream_is_unchanged_by_the_reordering(self, data):
        """Charging earlier must not move any noise draw: a fit with an
        ample accountant equals the accountant-less fit bit-for-bit."""
        free = ClusteringSpec("dp-kmeans", 3, seed=3).fit(data)
        metered = ClusteringSpec("dp-kmeans", 3, seed=3).fit(
            data, accountant=PrivacyAccountant(limit=10.0)
        )
        assert np.array_equal(free.centers, metered.centers)


class TestPrivatePipeline:
    """The private pipeline (fit, then explain) as the session runs it."""

    def test_run_charges_both_stages_to_one_ledger(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=5.0, seed=0)
        result = s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        assert result.refit
        assert result.epsilon_total == pytest.approx(1.3)
        assert s.spent == pytest.approx(1.3)
        labels = [c["label"] for c in s.ledger_snapshot()["charges"]]
        assert any("dp-kmeans" in label for label in labels)
        assert any("histograms" in label for label in labels)

    def test_over_budget_fit_refused_before_touching_data(self, data, monkeypatch):
        _CountingLaplace.draws = 0
        monkeypatch.setattr(dp_kmeans_module, "LaplaceMechanism", _CountingLaplace)
        s = PrivateAnalysisSession(data, total_epsilon=0.5, seed=0)
        with pytest.raises(BudgetError, match="clustering"):
            s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        assert _CountingLaplace.draws == 0
        assert s.spent == 0.0
        assert s.ledger_snapshot()["charges"] == []


class TestFittedClusteringCache:
    """The service's fitted-clustering cache: the one LRU, labelled ``fitted``."""

    def test_lru_and_fingerprint_invalidation(self):
        cache = ExplanationCache(max_entries=2, label="fitted")
        cache.put(("fp1", "dp-kmeans", 3), "a")
        cache.put(("fp2", "dp-kmeans", 3), "b")
        assert cache.get(("fp1", "dp-kmeans", 3)) == "a"
        cache.put(("fp1", "dp-kmodes", 3), "c")  # evicts fp2 (LRU)
        assert cache.get(("fp2", "dp-kmeans", 3)) is None
        assert cache.invalidate_fingerprint("fp1") == 2
        assert len(cache) == 0

    def test_stats(self):
        cache = ExplanationCache(label="fitted")
        cache.get(("x",))
        cache.put(("x",), 1)
        cache.get(("x",))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == pytest.approx(0.5)

    def test_on_evict_fires_for_lru_pressure_only(self):
        evicted = []
        cache = ExplanationCache(
            max_entries=1, on_evict=lambda k, e: evicted.append((k, e)), label="fitted"
        )
        cache.put(("a",), 1)
        cache.put(("b",), 2)  # LRU-evicts ("a",)
        assert evicted == [(("a",), 1)]
        assert cache.remove(("b",)) is True  # explicit: no callback
        assert cache.remove(("b",)) is False
        assert evicted == [(("a",), 1)]

    def test_events_are_labelled_fitted(self):
        metrics = MetricsRegistry()
        cache = ExplanationCache(max_entries=1, metrics=metrics, label="fitted")
        cache.get(("a",))
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.put(("b",), 2)
        series = snapshot_series(metrics.snapshot(), "repro_cache_events_total")
        assert series == {
            ("fitted", "hit"): 1,
            ("fitted", "miss"): 1,
            ("fitted", "eviction"): 1,
        }


class TestRunPipelineBatched:
    def test_each_seed_matches_the_serial_explain_path(self, data):
        spec = ClusteringSpec("dp-kmeans", 3, 1.0, seed=2)
        sweep = run_pipeline_batched(data, spec, seeds=[0, 1, 2])
        clustering = spec.fit(data)
        counts = ClusteredCounts(data, clustering)
        for seed, batched in zip([0, 1, 2], sweep.explanations):
            serial = DPClustX().explain(data, clustering, rng=seed, counts=counts)
            assert tuple(batched.combination) == tuple(serial.combination)
            for got, expected in zip(batched, serial):
                assert np.array_equal(got.hist_cluster, expected.hist_cluster)
                assert np.array_equal(got.hist_rest, expected.hist_rest)

    def test_fit_charged_once_explanations_per_seed(self, data):
        accountant = PrivacyAccountant(limit=5.0)
        run_pipeline_batched(
            data,
            ClusteringSpec("dp-kmeans", 3, 1.0),
            seeds=[0, 1, 2],
            accountant=accountant,
        )
        assert accountant.total() == pytest.approx(1.0 + 3 * 0.3)

    def test_partially_affordable_sweep_rolls_back_its_reservations(self, data):
        """Seeds beyond the cap refund their own reservations; the released
        fit stays charged and no explanation noise was drawn."""
        accountant = PrivacyAccountant(limit=1.5)  # fit 1.0 + one 0.3 only
        with pytest.raises(BudgetError):
            run_pipeline_batched(
                data,
                ClusteringSpec("dp-kmeans", 3, 1.0),
                seeds=[0, 1, 2],
                accountant=accountant,
            )
        assert accountant.total() == pytest.approx(1.0)

    def test_rejects_non_spec(self, data):
        with pytest.raises(TypeError):
            run_pipeline_batched(data, "dp-kmeans", seeds=[0])

    def test_engine_failure_refunds_every_seed_reservation(
        self, data, monkeypatch
    ):
        """If the batched explain itself dies, no explanation was released:
        all per-seed reservations roll back; the fit stays charged."""
        import repro.evaluation.sweeps as sweeps_module

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(sweeps_module, "explain_batched", boom)
        accountant = PrivacyAccountant(limit=5.0)
        with pytest.raises(RuntimeError):
            run_pipeline_batched(
                data,
                ClusteringSpec("dp-kmeans", 3, 1.0),
                seeds=[0, 1, 2],
                accountant=accountant,
            )
        assert accountant.total() == pytest.approx(1.0)  # the fit only


class TestSessionPipeline:
    def test_run_pipeline_one_ledger(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        result = s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        assert result.refit
        assert s.spent == pytest.approx(1.3)
        assert "dp-kmeans" in s.ledger() and "histograms" in s.ledger()

    def test_repeat_spec_reuses_the_fit(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        spec = ClusteringSpec("dp-kmeans", 3, 1.0)
        s.run_pipeline(spec)
        again = s.run_pipeline(spec)
        assert not again.refit
        assert s.spent == pytest.approx(1.6)

    def test_repeat_run_charges_only_the_explanation(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        spec = ClusteringSpec("dp-kmodes", 3, 0.5)
        first = s.run_pipeline(spec)
        again = s.run_pipeline(spec)
        assert not again.refit
        assert again.clustering_epsilon == 0.0
        assert again.clustering is first.clustering
        assert s.spent == pytest.approx(0.5 + 0.3 + 0.3)

    def test_cluster_then_pipeline_reuses_the_fit_for_free(self, data):
        """An explicit fit is a release the pipeline can reuse: the same
        spec afterwards charges only its explanation."""
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        clustering = s.cluster_dp_kmeans(3, epsilon=1.0)
        result = s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        assert not result.refit
        assert result.clustering is clustering
        assert s.spent == pytest.approx(1.3)

    def test_cluster_dp_kmeans_still_charges_through_the_pipeline(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.cluster_dp_kmeans(3, epsilon=1.0)
        assert s.spent == pytest.approx(1.0)
        s.explain()
        assert s.spent == pytest.approx(1.3)

    def test_explicit_recluster_is_a_fresh_release_charged_again(self, data):
        """cluster_dp_kmeans is a request for a NEW noisy clustering (an
        analyst escaping a bad initialisation), never a cached one — each
        call draws fresh from the session stream and charges again."""
        s = PrivateAnalysisSession(data, total_epsilon=3.0, seed=0)
        first = s.cluster_dp_kmeans(3, epsilon=1.0)
        second = s.cluster_dp_kmeans(3, epsilon=1.0)
        assert s.spent == pytest.approx(2.0)
        assert not np.array_equal(first.centers, second.centers)

    def test_mid_pipeline_snapshot_restores_to_exact_remaining(self, data):
        """ISSUE satellite: snapshot after fit / before explain restores to
        a state where the explain step charges exactly the remaining
        amount — and nothing more fits after it."""
        s = PrivateAnalysisSession(data, total_epsilon=1.3, seed=0)
        clustering = s.cluster_dp_kmeans(3, epsilon=1.0)
        state = s.ledger_snapshot()

        resumed = PrivateAnalysisSession(data, total_epsilon=1.3, seed=0)
        resumed.restore_ledger(state)
        assert resumed.remaining == pytest.approx(0.3)
        resumed.use_clustering(clustering)
        resumed.explain(ExplanationBudget(0.1, 0.1, 0.1))
        assert resumed.spent == pytest.approx(1.3)
        assert resumed.remaining == pytest.approx(0.0)
        with pytest.raises(BudgetError):
            resumed.explain(ExplanationBudget(0.1, 0.1, 0.1))

    def test_pipeline_overspend_refused_before_touching_data(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=0.5, seed=0)
        with pytest.raises(BudgetError):
            s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        assert s.spent == 0.0

    def test_over_budget_explanation_refused_after_fit(self, data):
        """The fit was released, so it stays charged; the session adopts a
        clustering only once its explanation is released."""
        s = PrivateAnalysisSession(data, total_epsilon=1.1, seed=0)
        with pytest.raises(BudgetError, match="explanation"):
            s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        assert s.spent == pytest.approx(1.0)  # the fit stands
        with pytest.raises(RuntimeError, match="no clustering"):
            s.explain()

    def test_bad_n_candidates_refused_before_the_fit(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        spec = ClusteringSpec("dp-kmeans", 3, 1.0)
        for bad in (0, data.schema.width + 1, 100):
            with pytest.raises(ValueError, match="n_candidates"):
                s.run_pipeline(spec, n_candidates=bad)
        assert s.spent == 0.0
        assert s.ledger_snapshot()["charges"] == []
        assert s.run_pipeline(spec).refit  # nothing was fitted or memoised


# --------------------------------------------------------------------------- #
# golden digests of the session flows
# --------------------------------------------------------------------------- #


def _session_flow(flow: str) -> list:
    """Run one session flow; return its fits, releases and result flags."""
    data = diabetes_like(n_rows=600, n_groups=3, seed=5)
    s = PrivateAnalysisSession(data, total_epsilon=10.0, seed=0)
    parts: list = []
    if flow == "run_pipeline-fit-then-reuse":
        spec = ClusteringSpec("dp-kmeans", 3, 1.0)
        for _ in range(2):
            result = s.run_pipeline(spec)
            parts += [str(result.refit), result.clustering.centers]
            parts += list(_explanation_parts(result.explanation))
    elif flow == "cluster-then-run_pipeline":
        parts.append(s.cluster_dp_kmeans(3, epsilon=1.0).centers)
        result = s.run_pipeline(ClusteringSpec("dp-kmeans", 3, 1.0))
        parts += [str(result.refit), result.clustering.centers]
        parts += list(_explanation_parts(result.explanation))
    elif flow == "explain-and-explain_multi":
        parts.append(s.cluster_dp_kmodes(3, epsilon=0.5).modes)
        parts += list(_explanation_parts(s.explain()))
        parts += list(_explanation_parts(s.explain_multi(ell=2)))
    elif flow == "release_histogram":
        parts += [
            s.release_histogram("age", epsilon=0.5),
            s.release_histogram("lab_proc", epsilon=0.25),
        ]
    else:
        raise AssertionError(flow)
    for charge in s.ledger_snapshot()["charges"]:
        parts.append(f"{charge['units']}:{charge['composition']}")
    return parts


def _explanation_parts(expl):
    for entry in expl.per_cluster:
        for e in entry if isinstance(entry, tuple) else (entry,):
            yield e.attribute.name
            yield e.hist_cluster
            yield e.hist_rest


def session_digest(flow: str) -> str:
    """SHA-256 over one session flow's fits, releases and ledger rows."""
    h = hashlib.sha256()
    for part in _session_flow(flow):
        if isinstance(part, str):
            h.update(part.encode() + b"\0")
        else:
            arr = np.ascontiguousarray(part, dtype=np.float64)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


#: SHA-256 hex digest per session flow.
SESSION_GOLDEN = {
    'cluster-then-run_pipeline': '17668e2851797dcc96378d8867bfa3086d427a21a1661808c280935edff28008',
    'explain-and-explain_multi': 'b30894ca11d62c674e063b6c0d13c98b3d0bdcf8e4c77e17dbdff355e2cf913f',
    'release_histogram': '3dbb4e585f703e397facbca53ffebd6dabfdf24b18232d76a5f0e33c53a45f44',
    'run_pipeline-fit-then-reuse': '875c0e0aa7b7cf44a93d6cf4b39faee7a60d0f2dda8f5802441c8b9c9551cd49',
}


@pytest.mark.parametrize("flow", sorted(SESSION_GOLDEN))
def test_session_flows_are_pinned(flow):
    """Session fits, releases and charges replay byte-identically."""
    assert session_digest(flow) == SESSION_GOLDEN[flow]
