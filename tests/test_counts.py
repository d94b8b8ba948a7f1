"""Unit tests for the count providers (repro.core.counts)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import ClusteredCounts, NoisyCounts, StreamingCountsBuilder
from repro.service.service import ExplanationService

from helpers import CodeModuloClustering, make_dataset, random_dataset


class TestClusteredCounts:
    def test_from_clustering_function(self, counts):
        assert counts.n_clusters == 3
        assert counts.n == 8
        assert int(counts.sizes().sum()) == 8

    def test_cluster_histograms_partition_full(self, counts):
        for name in counts.names:
            assert np.array_equal(
                counts.by_cluster(name).sum(axis=0), counts.full(name)
            )

    def test_full_histogram_matches_dataset(self, counts, dataset):
        for name in counts.names:
            assert np.array_equal(counts.full(name), dataset.histogram(name))

    def test_cluster_histogram_row_sums_are_sizes(self, counts):
        sizes = counts.sizes()
        for name in counts.names:
            assert np.array_equal(counts.by_cluster(name).sum(axis=1), sizes)

    def test_hand_computed_cluster_counts(self):
        d = make_dataset()
        f = CodeModuloClustering("color", 3)
        cc = ClusteredCounts(d, f)
        # cluster 0 = red rows: sizes S,S,M -> [2, 1, 0, 0]
        assert cc.cluster("size", 0).tolist() == [2, 1, 0, 0]

    def test_from_label_array(self, dataset):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cc = ClusteredCounts(dataset, labels, 2)
        assert cc.sizes().tolist() == [4, 4]

    def test_label_array_requires_n_clusters(self, dataset):
        with pytest.raises(ValueError, match="n_clusters"):
            ClusteredCounts(dataset, np.zeros(8, dtype=np.int64))

    def test_label_length_mismatch(self, dataset):
        with pytest.raises(ValueError, match="length"):
            ClusteredCounts(dataset, np.zeros(3, dtype=np.int64), 2)

    def test_labels_out_of_range(self, dataset):
        with pytest.raises(ValueError, match="out of range"):
            ClusteredCounts(dataset, np.full(8, 5, dtype=np.int64), 2)

    def test_total_and_cluster_size_ignore_attribute(self, counts):
        assert counts.total("color") == counts.total("flag") == 8.0
        assert counts.cluster_size("color", 0) == counts.cluster_size("flag", 0)

    def test_caching_returns_same_array(self, counts):
        a = counts.by_cluster("size")
        b = counts.by_cluster("size")
        assert a is b

    def test_empty_cluster_allowed(self, dataset):
        labels = np.zeros(8, dtype=np.int64)
        cc = ClusteredCounts(dataset, labels, 3)
        assert cc.cluster_size("color", 2) == 0.0
        assert cc.cluster("color", 2).sum() == 0


class TestLabelValidation:
    """Label arrays must hold whole numbers; floats are never truncated."""

    FRACTIONAL = np.array([0.2, 1.9, 0, 1, 0, 1, 0, 1, 0, 1.5])

    @pytest.fixture
    def data10(self):
        return random_dataset(np.random.default_rng(0), 10)

    @pytest.mark.parametrize(
        "bad",
        [
            FRACTIONAL,
            np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, np.nan]),
            np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, np.inf]),
            np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, -np.inf]),
            # Passes the length check; numpy's bincount would refuse it
            # with its own message.
            np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1]).reshape(10, 1),
        ],
    )
    def test_non_integral_float_labels_are_refused(self, data10, bad):
        with pytest.raises(ValueError) as info:
            ClusteredCounts(data10, bad, 2)
        message = str(info.value)
        # No label value and no row index may reach the message.
        for leaked in ("0.2", "1.9", "1.5", "nan", "inf", "9"):
            assert leaked not in message

    def test_whole_floats_count_like_integers(self, data10):
        ints = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        from_floats = ClusteredCounts(data10, ints.astype(np.float64), 2)
        from_ints = ClusteredCounts(data10, ints, 2)
        assert from_floats.labels.dtype == np.int64
        assert from_floats.signature() == from_ints.signature()
        for name in from_ints.names:
            assert np.array_equal(from_floats.by_cluster(name), from_ints.by_cluster(name))

    def test_both_builders_refuse_two_dimensional_labels_alike(self, data10):
        labels = np.zeros((10, 1), dtype=np.int64)
        with pytest.raises(ValueError) as in_ram:
            ClusteredCounts(data10, labels, 2)
        with pytest.raises(ValueError) as streamed:
            StreamingCountsBuilder(data10.schema, 2).add_dataset(data10, labels)
        assert str(in_ram.value) == str(streamed.value)

    def test_non_numeric_labels_are_refused(self, data10):
        with pytest.raises(ValueError, match="integer"):
            ClusteredCounts(data10, np.array(["0"] * 10), 2)

    def test_streaming_builder_refuses_fractional_labels(self, data10):
        builder = StreamingCountsBuilder(data10.schema, 2)
        with pytest.raises(ValueError, match="whole"):
            builder.add_dataset(data10, self.FRACTIONAL)
        assert builder.n_rows == 0

    def test_service_registration_refuses_fractional_labels(self, data10):
        service = ExplanationService()
        with pytest.raises(ValueError, match="whole"):
            service.register_dataset("d", data10, self.FRACTIONAL, n_clusters=2)

    def test_labels_are_copied(self, data10):
        labels = np.zeros(10, dtype=np.int64)
        counts = ClusteredCounts(data10, labels, 2)
        labels[:] = 1
        assert counts.sizes().tolist() == [10, 0]


def reference_by_cluster(data, labels, k, name):
    """``(k, m)`` counts by unbuffered scatter-add, one row at a time."""
    ref = np.zeros((k, data.schema.attribute(name).domain_size), dtype=np.int64)
    np.add.at(ref, (labels, np.asarray(data.column(name))), 1)
    return ref


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(0, 400),
    chunk_rows=st.integers(1, 450),
    # Few distinct sizes, so attributes often share their scaled labels.
    domains=st.lists(st.sampled_from([1, 2, 3, 7]), min_size=1, max_size=7).map(tuple),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_per_attribute_counts_match_independent_references(
    n_rows, chunk_rows, domains, k, seed
):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n_rows, domains)
    labels = rng.integers(0, k, size=n_rows)

    lazy = ClusteredCounts(data, labels, k)
    chunked = ClusteredCounts(data, labels, k)
    chunked.materialise(chunk_rows=chunk_rows)
    streamed = (
        StreamingCountsBuilder(data.schema, k)
        .add_dataset(data, labels, chunk_rows=chunk_rows)
        .finalise()
    )
    for name in data.schema.names:
        want = reference_by_cluster(data, labels, k, name)
        for got in (
            lazy.by_cluster(name),
            chunked.by_cluster(name),
            streamed.by_cluster(name),
        ):
            assert got.dtype == np.int64
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestNoisyCounts:
    def _make(self):
        names = ("a", "b")
        full = {"a": np.array([10.0, 5.0]), "b": np.array([3.0, 6.0, 6.0])}
        clusters = {
            "a": np.array([[6.0, 2.0], [4.0, 3.0]]),
            "b": np.array([[1.0, 3.0, 2.0], [2.0, 3.0, 4.0]]),
        }
        return NoisyCounts(names, full, clusters, 2)

    def test_accessors(self):
        nc = self._make()
        assert nc.domain_size("a") == 2
        assert nc.full("b").tolist() == [3.0, 6.0, 6.0]
        assert nc.cluster("a", 1).tolist() == [4.0, 3.0]

    def test_totals_are_per_attribute_sums(self):
        nc = self._make()
        assert nc.total("a") == 15.0
        assert nc.total("b") == 15.0
        assert nc.cluster_size("a", 0) == 8.0

    def test_total_clamped_to_one(self):
        nc = NoisyCounts(
            ("a",), {"a": np.zeros(2)}, {"a": np.zeros((1, 2))}, 1
        )
        assert nc.total("a") == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            NoisyCounts(
                ("a",), {"a": np.zeros(2)}, {"a": np.zeros((3, 2))}, 2
            )

    def test_cluster_size_clamped_to_one(self):
        # Regression: the docstring promises totals *and* cluster sizes are
        # clamped to a minimum of 1, but cluster_size used to clamp to 0,
        # letting an all-zero noisy release zero-divide downstream quality
        # formulas (e.g. the normalised sufficiency).
        nc = NoisyCounts(
            ("a",), {"a": np.array([4.0, 2.0])}, {"a": np.zeros((1, 2))}, 1
        )
        assert nc.cluster_size("a", 0) == 1.0

    def test_clamped_cluster_size_keeps_quality_finite(self):
        from repro.core.quality.sufficiency import cluster_sufficiency_normalized
        from repro.core.quality.diversity import pair_diversity_low_sens

        nc = NoisyCounts(
            ("a",),
            {"a": np.array([4.0, 2.0])},
            {"a": np.array([[0.0, 0.0], [3.0, 1.0]])},
            2,
        )
        assert np.isfinite(cluster_sufficiency_normalized(nc, 0, "a"))
        assert np.isfinite(pair_diversity_low_sens(nc, 0, 1, "a", "a"))


class TestProviderInventory:
    """Every counts provider in ``src/repro`` subclasses one base.

    Scanned from the source, not imported, so a provider in a module no test
    imports is still counted.  A new provider changes the pinned set: add it
    here after deciding whether its counts are raw or released.
    """

    PROVIDERS = {
        "ClusteredCounts",
        "StreamedCounts",
        "NoisyCounts",
        "ProductCounts",
        "StackCounts",
    }

    @pytest.fixture(scope="class")
    def classes(self):
        import ast
        import pathlib

        import repro

        found = {}
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ClassDef):
                    bases = {
                        b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                        for b in node.bases
                    }
                    methods = {
                        n.name
                        for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    }
                    found[node.name] = (bases, methods)
        return found

    def test_every_by_cluster_class_subclasses_the_base(self, classes):
        defining = [
            name for name, (_, methods) in classes.items() if "by_cluster" in methods
        ]
        assert defining
        for name in defining:
            assert "CountsProvider" in classes[name][0], name

    def test_subclass_set_is_the_five_providers(self, classes):
        subclasses = {
            name for name, (bases, _) in classes.items() if "CountsProvider" in bases
        }
        assert subclasses == self.PROVIDERS
