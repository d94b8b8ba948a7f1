"""Shared-memory stack handoff: attach fidelity, lifecycle, no leaks.

The fan-out layer ships a `SharedStackHandle` (a few hundred bytes) instead
of pickled tensors or dataset recipes; these tests pin the contract — an
attached `StackCounts` answers every `CountsProvider` accessor with
exactly the owner's values, segments never outlive their owner, and attaches
after unlink fail loudly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dataset
from repro.core.counts import ClusteredCounts
from repro.core.engine import (
    ScoringEngine,
    attach_counts,
    share_stack,
    scoring_engine,
)
from repro.core.engine.shm import _packing


def _segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: no listable shm directory
        return set()


def _counts(seed: int = 0, n_rows: int = 600, k: int = 4) -> ClusteredCounts:
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n_rows, (3, 4, 2, 6))
    labels = rng.integers(0, k, size=n_rows, dtype=np.int64)
    return ClusteredCounts(data, labels, k)


def test_packing_is_deterministic_and_size_independent():
    names = ("a", "b", "c")
    packed1, nbytes1 = _packing(names, (3, 9, 2), 4)
    packed2, nbytes2 = _packing(names, (3, 9, 2), 4)
    assert packed1 == packed2 and nbytes1 == nbytes2
    # every offset 64-byte aligned
    assert all(off % 64 == 0 for _, off, _ in packed1)


def test_attach_serves_owner_values_exactly():
    counts = _counts()
    stack = counts.by_cluster_stack()
    before = _segments()
    with share_stack(stack) as seg:
        attached = attach_counts(seg.handle)
        try:
            assert attached.names == counts.names
            assert attached.n_clusters == counts.n_clusters
            assert attached.n == counts.n
            for name in counts.names:
                assert attached.domain_size(name) == counts.domain_size(name)
                assert np.array_equal(attached.by_cluster(name), counts.by_cluster(name))
                assert np.array_equal(attached.full(name), counts.full(name))
                assert attached.total(name) == counts.total(name)
                for c in range(counts.n_clusters):
                    assert attached.cluster_size(name, c) == counts.cluster_size(name, c)
                    assert np.array_equal(
                        attached.cluster(name, c), counts.cluster(name, c)
                    )
            assert np.array_equal(
                attached.totals_vector(counts.names),
                counts.totals_vector(counts.names),
            )
            assert np.array_equal(
                attached.sizes_matrix(counts.names),
                counts.sizes_matrix(counts.names),
            )
        finally:
            attached.close()
            attached.close()  # idempotent
    assert _segments() == before


def test_attached_engine_scores_bit_identical():
    """A worker scoring via the shared stack == scoring the original counts."""
    counts = _counts(seed=5)
    expected = scoring_engine(counts).score_matrix(0.5, 0.5)
    with share_stack(counts.by_cluster_stack()) as seg:
        with attach_counts(seg.handle) as attached:
            got = ScoringEngine(attached).score_matrix(0.5, 0.5)
            assert np.array_equal(got, expected)


def test_attached_views_are_read_only():
    counts = _counts()
    with share_stack(counts.by_cluster_stack()) as seg:
        with attach_counts(seg.handle) as attached:
            stack = attached.by_cluster_stack()
            with pytest.raises(ValueError):
                stack.buckets[0].by_cluster[0, 0, 0] = 99.0
            with pytest.raises(ValueError):
                stack.totals[0] = 1.0


def test_unlink_forbids_late_attach_and_leaves_no_segment():
    counts = _counts()
    before = _segments()
    seg = share_stack(counts.by_cluster_stack())
    assert len(_segments()) == len(before) + 1 or not _segments()
    seg.close()
    seg.unlink()
    seg.unlink()  # idempotent
    with pytest.raises(FileNotFoundError):
        attach_counts(seg.handle)
    assert _segments() == before


def test_handle_size_independent_of_rows():
    """Nothing row-dependent crosses the process boundary."""
    import pickle

    small = _counts(n_rows=100)
    large = _counts(n_rows=5_000)
    with share_stack(small.by_cluster_stack()) as seg_s:
        with share_stack(large.by_cluster_stack()) as seg_l:
            assert seg_s.nbytes == seg_l.nbytes
            assert len(pickle.dumps(seg_l.handle)) == len(pickle.dumps(seg_s.handle))


@settings(max_examples=25, deadline=None)
@given(
    domains=st.lists(st.integers(2, 8), min_size=1, max_size=4).map(tuple),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_attach_detach_round_trip_property(domains, k, seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(0, 200))
    data = random_dataset(rng, n_rows, domains)
    labels = rng.integers(0, k, size=n_rows, dtype=np.int64)
    counts = ClusteredCounts(data, labels, k)
    before = _segments()
    with share_stack(counts.by_cluster_stack()) as seg:
        with attach_counts(seg.handle) as attached:
            for name in counts.names:
                assert np.array_equal(
                    attached.by_cluster(name), counts.by_cluster(name)
                )
    assert _segments() == before
