"""Tests for the 2-D (attribute-pair) extension (repro.core.pairs)."""

import numpy as np
import pytest

from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import DPClustX
from repro.core.pairs import (
    ProductCounts,
    explain_with_pairs,
    pair_name,
    product_attribute,
    split_pair_name,
    top_pairs_by_interestingness,
)
from repro.core.quality.interestingness import interestingness_low_sens
from repro.core.quality.sufficiency import sufficiency_low_sens
from repro.privacy.budget import PrivacyAccountant


class TestNames:
    def test_round_trip(self):
        assert split_pair_name(pair_name("a", "b")) == ("a", "b")

    def test_split_rejects_plain_names(self):
        with pytest.raises(ValueError):
            split_pair_name("plain")

    def test_product_attribute_domain(self, schema):
        p = product_attribute(schema.attribute("flag"), schema.attribute("color"))
        assert p.domain_size == 2 * 3
        assert p.domain[0] == "no | red"


class TestProductCounts:
    def test_exposes_singletons_and_pairs(self, counts):
        pc = ProductCounts(counts)
        assert set(counts.names) <= set(pc.names)
        assert pair_name("color", "size") in pc.names
        assert pc.n_clusters == counts.n_clusters

    def test_pairs_only_mode(self, counts):
        pc = ProductCounts(counts, include_singletons=False)
        assert all(pc.is_pair(n) for n in pc.names)

    def test_joint_counts_are_correct(self, counts, dataset):
        pc = ProductCounts(counts)
        name = pair_name("color", "size")
        joint = pc.full(name)
        m_size = dataset.schema.attribute("size").domain_size
        # cell (red, S) = 2 rows in the fixture dataset
        red = dataset.schema.attribute("color").code_of("red")
        s = dataset.schema.attribute("size").code_of("S")
        assert joint[red * m_size + s] == 2
        assert joint.sum() == len(dataset)

    def test_stack_totals_and_sizes_are_the_base_counts(self, counts):
        pc = ProductCounts(counts)
        stack = pc.by_cluster_stack()
        assert stack.names == pc.names
        assert np.array_equal(stack.totals, np.full(len(pc.names), float(counts.n)))
        for j in range(len(pc.names)):
            assert np.array_equal(stack.sizes[j], counts.sizes().astype(np.float64))

    def test_cluster_joint_partitions_full(self, counts):
        pc = ProductCounts(counts)
        name = pair_name("size", "flag")
        assert np.array_equal(pc.by_cluster(name).sum(axis=0), pc.full(name))

    def test_marginals_recoverable_from_joint(self, counts):
        pc = ProductCounts(counts)
        name = pair_name("color", "size")
        m_b = counts.domain_size("size")
        joint = pc.full(name).reshape(-1, m_b)
        assert np.array_equal(joint.sum(axis=1), counts.full("color"))
        assert np.array_equal(joint.sum(axis=0), counts.full("size"))

    def test_quality_functions_work_on_pairs(self, counts):
        pc = ProductCounts(counts)
        name = pair_name("color", "size")
        for c in range(pc.n_clusters):
            v_int = interestingness_low_sens(pc, c, name)
            v_suf = sufficiency_low_sens(pc, c, name)
            assert 0.0 <= v_int <= pc.cluster_size(name, c) + 1e-9
            assert 0.0 <= v_suf <= pc.cluster_size(name, c) + 1e-9

    def test_pair_interestingness_at_least_marginal(self, diabetes_counts):
        # Finer partitions cannot decrease L1 deviation: the joint histogram
        # separates at least as much as either marginal.
        pc = ProductCounts(
            diabetes_counts, pairs=[("lab_proc", "time_in_hospital")]
        )
        name = pair_name("lab_proc", "time_in_hospital")
        for c in range(pc.n_clusters):
            joint = interestingness_low_sens(pc, c, name)
            marg = max(
                interestingness_low_sens(diabetes_counts, c, "lab_proc"),
                interestingness_low_sens(diabetes_counts, c, "time_in_hospital"),
            )
            assert joint >= marg - 1e-9

    def test_validation(self, counts):
        with pytest.raises(ValueError, match="repeats"):
            ProductCounts(counts, pairs=[("color", "color")])
        with pytest.raises(ValueError, match="unknown"):
            ProductCounts(counts, pairs=[("color", "nope")])


class TestExplainWithPairs:
    def test_full_pipeline_and_accounting(self, counts):
        pc = ProductCounts(counts)
        acc = PrivacyAccountant()
        explainer = DPClustX(n_candidates=2)
        expl = explain_with_pairs(explainer, pc, rng=0, accountant=acc)
        assert expl.n_clusters == counts.n_clusters
        assert acc.total() == pytest.approx(explainer.budget.total)
        for e in expl.per_cluster:
            assert e.hist_cluster.shape == (e.attribute.domain_size,)

    def test_selected_attributes_come_from_pool(self, counts):
        pc = ProductCounts(counts)
        expl = explain_with_pairs(DPClustX(n_candidates=2), pc, rng=1)
        for a in expl.combination:
            assert a in pc.names

    def test_renders_product_labels(self, counts):
        pc = ProductCounts(counts, include_singletons=False)
        expl = explain_with_pairs(DPClustX(n_candidates=2), pc, rng=0)
        assert " | " in expl.per_cluster[0].render()


class TestTopPairs:
    def test_limit_respected(self, diabetes_counts):
        pairs = top_pairs_by_interestingness(diabetes_counts, limit=5)
        assert 0 < len(pairs) <= 5
        for a, b in pairs:
            assert a in diabetes_counts.names
            assert b in diabetes_counts.names
            assert a != b

    def test_pairs_prefer_signal_attributes(self, diabetes_counts):
        pairs = top_pairs_by_interestingness(diabetes_counts, limit=3)
        members = {a for p in pairs for a in p}
        signal = {"lab_proc", "time_in_hospital", "num_medications", "age",
                  "diag_1", "discharge_disp", "num_procedures", "number_inpatient"}
        assert members & signal
