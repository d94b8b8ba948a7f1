"""Unit tests for clustering-function abstractions (Definition 3.1 interface)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.base as base
from repro.clustering.base import (
    CenterBasedClustering,
    GaussianMixtureClustering,
    ModeBasedClustering,
    PredicateClustering,
    nearest_center,
    nearest_center_columns,
    nearest_mode,
    subsample_indices,
)
from repro.clustering.encode import IdentityEncoder, MinMaxEncoder, StandardEncoder

from helpers import make_dataset, random_dataset


class TestNearestCenter:
    def test_exact_assignment(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [0.2, -0.1]])
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert nearest_center(pts, centers).tolist() == [0, 1, 0]

    def test_blockwise_matches_direct(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(500, 4))
        centers = rng.normal(size=(7, 4))
        got = nearest_center(pts, centers)
        direct = np.argmin(
            ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1
        )
        assert np.array_equal(got, direct)


def row_major_reference(points, centers):
    """The former kernel: ``argmin`` over a row-major ``(n, k)`` block."""
    c_sq = np.sum(centers * centers, axis=1)
    return np.argmin(c_sq[None, :] - 2.0 * (points @ centers.T), axis=1)


@st.composite
def kernel_cases(draw):
    """Points and centers; some centers duplicated, some data on a grid.

    Small-integer coordinates make distinct centers tie exactly, and
    duplicated centers tie always, so the tie rule is exercised as well as
    the ranking.
    """
    n = draw(st.sampled_from([0, 1, 2, 37, 300]))
    k = draw(st.integers(1, 9))
    d = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        centers = rng.integers(-2, 3, size=(k, d)).astype(np.float64)
    else:
        points = rng.normal(size=(n, d))
        centers = rng.normal(size=(k, d))
    copies = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
    for src, dst in copies:
        centers[dst] = centers[src]
    return points, centers


class TestNearestCenterKernel:
    """The ``(k, n)`` kernel gives exactly the row-major ``argmin`` labels."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.sampled_from([None, 1, 5, 64]))
    def test_matches_row_major_reference(self, case, block_elems):
        points, centers = case
        want = row_major_reference(points, centers)
        with pytest.MonkeyPatch.context() as mp:
            if block_elems is not None:
                # Small blocks: n spans many of them, with a short last one.
                mp.setattr(base, "_BLOCK_ELEMS", block_elems * centers.shape[0])
            got = nearest_center(points, centers)
            got_columns = nearest_center_columns(
                np.ascontiguousarray(points.T), centers
            )
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(got_columns, want)

    def test_duplicated_centers_tie_to_lowest_index(self):
        centers = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        assert nearest_center(points, centers).tolist() == [1, 0, 0]

    def test_single_center_and_no_points(self):
        points = np.random.default_rng(0).normal(size=(9, 3))
        assert nearest_center(points, points[:1]).tolist() == [0] * 9
        empty = nearest_center(np.empty((0, 3)), points[:4])
        assert empty.shape == (0,) and empty.dtype == np.int64

    @pytest.mark.parametrize("encoder", [StandardEncoder, MinMaxEncoder, IdentityEncoder])
    def test_assign_matches_tuple_major_kernel(self, encoder):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 50_000, (2, 5, 9, 3, 17, 4))
        enc = encoder.fit(data)
        points = enc.transform(data)
        centers = points[rng.choice(len(data), size=8, replace=False)]
        centers = centers + rng.normal(scale=0.1, size=centers.shape)
        labels = CenterBasedClustering(enc, centers).assign(data)
        assert np.array_equal(labels, nearest_center(points, centers))
        assert np.array_equal(labels, row_major_reference(points, centers))


class TestNearestMode:
    def test_exact_assignment(self):
        codes = np.array([[0, 1, 2], [3, 3, 3]])
        modes = np.array([[0, 1, 0], [3, 3, 2]])
        assert nearest_mode(codes, modes).tolist() == [0, 1]

    def test_blockwise_matches_direct(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=(300, 5))
        modes = rng.integers(0, 4, size=(6, 5))
        got = nearest_mode(codes, modes)
        direct = np.argmin(
            (codes[:, None, :] != modes[None]).sum(axis=2), axis=1
        )
        assert np.array_equal(got, direct)


class TestCenterBasedClustering:
    def test_is_function_of_values(self):
        # Identical tuples must get identical labels (f : dom(R) -> C).
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 1.0]]))
        labels = f.assign(d)
        assert labels[0] == labels[6]  # rows 0 and 6 are both ("red","S","no")

    def test_cluster_sizes_sum_to_n(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.array([[0.0, 0, 0], [2.0, 3, 1]]))
        assert int(f.cluster_sizes(d).sum()) == len(d)

    def test_partition_masks_disjoint_and_cover(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.array([[0.0, 0, 0], [2.0, 3, 1]]))
        masks = f.partition_masks(d)
        stacked = np.stack(masks)
        assert (stacked.sum(axis=0) == 1).all()  # exactly one cluster per tuple

    def test_empty_dataset(self):
        from repro.dataset import Dataset

        d = make_dataset()
        empty = d.subset(np.zeros(len(d), dtype=bool))
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.zeros((2, 3)))
        assert f.assign(empty).shape == (0,)


class TestGaussianMixtureClustering:
    def test_assigns_to_closest_component(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        means = np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 1.0]])
        f = GaussianMixtureClustering(
            enc, means, np.ones_like(means), np.log(np.array([0.5, 0.5]))
        )
        labels = f.assign(d)
        assert labels[0] == 0  # ("red","S","no") = (0,0,0)
        assert labels[5] == 1  # ("blue","XL","yes") = (2,3,1)

    def test_log_joint_is_independent_of_the_row_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(257, 5))
        means = rng.normal(size=(4, 5))
        variances = rng.uniform(0.5, 2.0, size=(4, 5))
        model = GaussianMixtureClustering(
            None, means, variances, np.log(np.full(4, 0.25))
        )
        diff = points[:, None, :] - means[None, :, :]
        quad = np.sum(diff * diff / variances[None, :, :], axis=2)
        log_det = np.sum(np.log(variances), axis=1)
        want = model.log_weights[None, :] - 0.5 * (
            quad + log_det[None, :] + 5 * np.log(2.0 * np.pi)
        )
        assert np.array_equal(model.log_joint(points), want)
        monkeypatch.setattr(base, "_BLOCK_ELEMS", 3 * 4 * 5)  # 3-row blocks
        assert np.array_equal(model.log_joint(points), want)

    def test_weights_break_ties(self):
        d = make_dataset([("red", "S", "no")])
        enc = IdentityEncoder.fit(d)
        means = np.zeros((2, 3))
        f = GaussianMixtureClustering(
            enc, means, np.ones((2, 3)), np.log(np.array([0.9, 0.1]))
        )
        assert f.assign(d)[0] == 0


class TestPredicateClustering:
    def test_first_match_wins_with_default_bucket(self):
        d = make_dataset()
        f = PredicateClustering(
            names=("color", "size", "flag"),
            predicates=(
                lambda row: row["color"] == "red",
                lambda row: row["flag"] == "yes",
            ),
        )
        labels = f.assign(d)
        assert f.n_clusters == 3
        assert labels[0] == 0  # red
        assert labels[2] == 1  # green + yes
        assert labels[3] == 2  # green + no -> default


class TestSubsample:
    def test_no_subsample_when_small(self):
        idx = subsample_indices(10, 20, np.random.default_rng(0))
        assert np.array_equal(idx, np.arange(10))

    def test_subsample_size_and_uniqueness(self):
        idx = subsample_indices(1000, 50, np.random.default_rng(0))
        assert len(idx) == 50
        assert len(set(idx.tolist())) == 50
        assert np.array_equal(idx, np.sort(idx))
