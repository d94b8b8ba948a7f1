"""Tests for the budget-capped analyst session (repro.session)."""

import numpy as np
import pytest

from repro.clustering import KMeans
from repro.dataset import SchemaError
from repro.privacy.budget import BudgetError, ExplanationBudget
from repro.session import PrivateAnalysisSession
from repro.synth import diabetes_like


@pytest.fixture(scope="module")
def data():
    return diabetes_like(n_rows=3_000, n_groups=3, seed=9)


class TestBudgetEnforcement:
    def test_fresh_session_state(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        assert s.spent == 0.0
        assert s.remaining == 2.0

    def test_clustering_charges(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.cluster_dp_kmeans(3, epsilon=1.0)
        assert s.spent == pytest.approx(1.0)

    def test_explain_charges_theorem_total(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.cluster_dp_kmeans(3, epsilon=1.0)
        budget = ExplanationBudget(0.1, 0.1, 0.1)
        s.explain(budget)
        assert s.spent == pytest.approx(1.3)
        assert s.remaining == pytest.approx(0.7)

    def test_overspend_refused_before_touching_data(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=0.5, seed=0)
        with pytest.raises(BudgetError, match="remains"):
            s.cluster_dp_kmeans(3, epsilon=1.0)
        assert s.spent == 0.0  # nothing was charged

    def test_explain_overspend_refused(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=1.1, seed=0)
        s.cluster_dp_kmeans(3, epsilon=1.0)
        with pytest.raises(BudgetError):
            s.explain(ExplanationBudget(0.1, 0.1, 0.1))  # needs 0.3 > 0.1

    def test_ledger_lists_charges(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.cluster_dp_kmeans(3, epsilon=1.0)
        assert "dp-kmeans" in s.ledger()


class TestLedgerPersistence:
    def test_snapshot_restore_roundtrip(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.release_histogram("lab_proc", epsilon=0.2)
        state = s.ledger_snapshot()

        resumed = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        resumed.restore_ledger(state)
        assert resumed.spent == pytest.approx(0.2)
        assert resumed.remaining == pytest.approx(1.8)

    def test_restored_session_keeps_enforcing_the_cap(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=0.5, seed=0)
        s.release_histogram("lab_proc", epsilon=0.4)

        resumed = PrivateAnalysisSession(data, total_epsilon=0.5, seed=0)
        resumed.restore_ledger(s.ledger_snapshot())
        with pytest.raises(BudgetError):
            resumed.release_histogram("lab_proc", epsilon=0.2)

    def test_unknown_attribute_costs_nothing(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=1.0, seed=0)
        with pytest.raises(SchemaError, match="no_such_attr"):
            s.release_histogram("no_such_attr", epsilon=0.5)
        assert s.spent == 0.0
        assert s.ledger_snapshot()["charges"] == []

    def test_restore_replays_against_the_session_cap(self, data):
        big = PrivateAnalysisSession(data, total_epsilon=10.0, seed=0)
        big.release_histogram("lab_proc", epsilon=5.0)
        small = PrivateAnalysisSession(data, total_epsilon=1.0, seed=0)
        with pytest.raises(BudgetError):
            small.restore_ledger(big.ledger_snapshot())


class TestWorkflow:
    def test_explain_requires_clustering(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=1.0, seed=0)
        with pytest.raises(RuntimeError, match="no clustering"):
            s.explain()

    def test_external_clustering_is_free(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=0.5, seed=0)
        s.use_clustering(KMeans(3).fit(data, rng=0))
        assert s.spent == 0.0
        expl = s.explain(ExplanationBudget(0.1, 0.1, 0.1))
        assert expl.n_clusters == 3
        assert s.spent == pytest.approx(0.3)

    def test_dp_kmodes_path(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.cluster_dp_kmodes(3, epsilon=0.5)
        assert s.spent == pytest.approx(0.5)
        expl = s.explain()
        assert expl.n_clusters == 3

    def test_multi_explanations(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=1.0, seed=0)
        s.use_clustering(KMeans(3).fit(data, rng=0))
        multi = s.explain_multi(ell=2)
        assert len(multi[0]) == 2
        assert s.spent == pytest.approx(0.3)

    def test_adhoc_histogram(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=1.0, seed=0)
        hist = s.release_histogram("lab_proc", epsilon=0.2)
        assert hist.shape == (data.schema.attribute("lab_proc").domain_size,)
        assert s.spent == pytest.approx(0.2)

    def test_sequential_operations_accumulate(self, data):
        s = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
        s.use_clustering(KMeans(3).fit(data, rng=0))
        s.explain()
        s.explain()  # a second explanation spends again
        assert s.spent == pytest.approx(0.6)

    def test_reproducible_given_seed(self, data):
        def run(seed):
            s = PrivateAnalysisSession(data, total_epsilon=1.0, seed=seed)
            s.use_clustering(KMeans(3).fit(data, rng=0))
            return tuple(s.explain().combination)

        assert run(5) == run(5)
