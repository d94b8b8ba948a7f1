"""Pickle-free :class:`CountsStack` handoff over POSIX shared memory.

The process-pool sweep layer used to ship each worker the *recipe* for its
counts — dataset name, row count, clustering method — and every worker then
re-generated the dataset and re-fitted the clustering behind its own
``lru_cache``.  That makes fan-out cost linear in ``|D|`` per worker and
duplicates the whole table once per process.

This module ships the *result* instead: the stack's bucketed tensors (a few
``(|A_b|, |C|, m)`` float64 blocks whose size depends on the schema and
cluster count, **not** on the row count) are packed into one
``multiprocessing.shared_memory`` segment, and workers attach zero-copy
read-only views.  The picklable :class:`SharedStackHandle` that crosses the
process boundary is a few hundred bytes regardless of dataset size, so
fan-out cost is flat in ``|D|``.

Lifecycle contract (the part POSIX makes easy to get wrong):

* the **owner** (``share_stack``) creates the segment and must eventually
  call :meth:`SharedStack.close` + :meth:`SharedStack.unlink` (or use it as
  a context manager) — ``run_grid`` does this in a ``finally``; the owner
  keeps the stdlib ``SharedMemory`` object, so its ``resource_tracker``
  registration remains a crash safety net until the explicit unlink;
* each **worker** (``attach_counts``) maps the segment with a raw
  ``shm_open`` + ``mmap`` that never touches the resource tracker (Python
  < 3.13 has no ``track=False``, and tracker registrations are a plain set
  shared with the parent — a worker registering and unregistering would
  erase the *owner's* entry) and must call :meth:`StackCounts.close` when
  done;
* after the owner unlinks, the name is gone: late attaches raise
  ``FileNotFoundError`` rather than silently reading freed memory.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from ..counts import CountsProvider
from .stacks import CountsStack, DomainBucket, _bucket_layout

_ALIGN = 64  # cache-line alignment for every packed array


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _packing(
    names: Sequence[str], domain_sizes: Sequence[int], n_clusters: int
) -> tuple[tuple, int]:
    """Deterministic (field -> (offset, shape)) layout of a stack's arrays.

    Derived purely from ``(names, domain_sizes, n_clusters)`` — the same
    inputs :func:`_bucket_layout` consumes — so the owner and every worker
    compute identical offsets without shipping them.
    """
    layout, _, _ = _bucket_layout(tuple(names), tuple(domain_sizes))
    fields: list[tuple[str, tuple[int, ...]]] = [
        ("totals", (len(names),)),
        ("sizes", (len(names), n_clusters)),
    ]
    for b, (width, cols) in enumerate(layout):
        fields.append((f"by_cluster/{b}", (len(cols), n_clusters, width)))
        fields.append((f"full/{b}", (len(cols), width)))
    packed = []
    offset = 0
    for field, shape in fields:
        offset = _align(offset)
        packed.append((field, offset, shape))
        offset += int(np.prod(shape)) * np.dtype(np.float64).itemsize
    return tuple(packed), max(offset, 1)


@dataclass(frozen=True)
class SharedStackHandle:
    """Picklable descriptor of a shared stack segment (size-independent).

    Everything a worker needs to rebuild the :class:`CountsStack` — the
    bucket layout, locator and index maps are recomputed from
    ``(names, domain_sizes)`` via the cached :func:`_bucket_layout`, and the
    array offsets from :func:`_packing` — so the handle itself stays a few
    hundred bytes no matter how large the dataset behind the counts was.
    """

    segment: str
    names: tuple[str, ...]
    domain_sizes: tuple[int, ...]
    n_clusters: int
    nbytes: int


def _segment_views(shm, handle: SharedStackHandle) -> dict[str, np.ndarray]:
    packed, nbytes = _packing(handle.names, handle.domain_sizes, handle.n_clusters)
    if shm.size < nbytes:
        raise ValueError(
            f"segment {handle.segment!r} is {shm.size} bytes, "
            f"layout needs {nbytes}"
        )
    return {
        field: np.ndarray(shape, dtype=np.float64, buffer=shm.buf, offset=off)
        for field, off, shape in packed
    }


def _stack_from_views(
    views: dict[str, np.ndarray], handle: SharedStackHandle, writeable: bool
) -> CountsStack:
    layout, locator, index = _bucket_layout(handle.names, handle.domain_sizes)
    buckets = []
    for b, (width, cols) in enumerate(layout):
        by_cluster = views[f"by_cluster/{b}"]
        full = views[f"full/{b}"]
        if not writeable:
            by_cluster = by_cluster.view()
            by_cluster.flags.writeable = False
            full = full.view()
            full.flags.writeable = False
        buckets.append(
            DomainBucket(
                indices=np.asarray(cols, dtype=np.intp),
                by_cluster=by_cluster,
                full=full,
                domain_sizes=np.array(
                    [handle.domain_sizes[j] for j in cols], dtype=np.intp
                ),
            )
        )
    totals = views["totals"]
    sizes = views["sizes"]
    if not writeable:
        totals = totals.view()
        totals.flags.writeable = False
        sizes = sizes.view()
        sizes.flags.writeable = False
    return CountsStack(
        names=handle.names,
        n_clusters=handle.n_clusters,
        totals=totals,
        sizes=sizes,
        buckets=tuple(buckets),
        index=index,
        locator=locator,
    )


class SharedStack:
    """Owner side of one shared stack segment (create, hand out, unlink)."""

    def __init__(self, stack: CountsStack):
        # Recover true per-attribute domain sizes in stack name order.
        sizes_by_name = {}
        for bucket in stack.buckets:
            for r, j in enumerate(bucket.indices):
                sizes_by_name[stack.names[j]] = int(bucket.domain_sizes[r])
        domain_sizes = tuple(sizes_by_name[n] for n in stack.names)
        packed, nbytes = _packing(stack.names, domain_sizes, stack.n_clusters)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.handle = SharedStackHandle(
            segment=self._shm.name,
            names=stack.names,
            domain_sizes=domain_sizes,
            n_clusters=stack.n_clusters,
            nbytes=nbytes,
        )
        views = _segment_views(self._shm, self.handle)
        views["totals"][:] = stack.totals
        views["sizes"][:] = stack.sizes
        for b, bucket in enumerate(stack.buckets):
            views[f"by_cluster/{b}"][:] = bucket.by_cluster
            views[f"full/{b}"][:] = bucket.full
        self._views = views
        self._closed = False

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    def stack(self) -> CountsStack:
        """The owner's own zero-copy view of the shared tensors."""
        return _stack_from_views(self._views, self.handle, writeable=False)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if not self._closed:
            self._closed = True
            self._views = {}
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment; attaches after this raise FileNotFoundError."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked — idempotent
            pass

    def __enter__(self) -> "SharedStack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


def share_stack(stack: CountsStack) -> SharedStack:
    """Copy a stack's tensors into one fresh shared-memory segment."""
    return SharedStack(stack)


class _RawSegment:
    """A tracker-free read/write mapping of an existing shared segment.

    ``SharedMemory(name=...)`` on Python < 3.13 unconditionally registers
    the segment with the resource tracker.  The tracker's registry is a
    plain *set* shared between the owner and every spawned worker, so a
    worker registering on attach and unregistering on close would erase the
    owner's entry (and unregistering on attach races other workers).  This
    maps the segment with the same ``shm_open`` + ``mmap`` calls the stdlib
    uses, minus any tracker interaction — ownership stays entirely with the
    creator's ``SharedMemory`` object.
    """

    def __init__(self, name: str):
        import _posixshmem  # stdlib backing module of shared_memory

        fd = _posixshmem.shm_open(f"/{name}", os.O_RDWR, 0o600)
        try:
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self.name = name
        self.size = size
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        if self.buf is not None:
            self.buf.release()
            self.buf = None
            self._mmap.close()


class StackCounts(CountsProvider):
    """A read-only :class:`~repro.core.counts.CountsProvider` over an attached stack.

    The worker-side counterpart of ``ClusteredCounts``: the per-attribute
    matrices, full counts, totals, cluster sizes and ``by_cluster_stack``
    are read off the shared tensors, so a worker
    never touches the dataset, the labels, or the clustering that produced
    them.  Counts come back float64 (the stack's dtype); they are exact
    integer values well inside float64's 2**53 integer range, so every
    downstream score and release is bit-identical to the int64 path.

    ``dataset`` optionally carries a schema-bearing dataset descriptor
    (anything exposing ``.schema``, ``__len__`` and ``fingerprint()``): the
    histogram-release path reads ``counts.dataset.schema`` for attribute
    domains, so a shard worker that serves full explanations — not just
    Stage-1 scoring — attaches with the descriptor its registration frame
    shipped alongside the handle.
    """

    def __init__(self, stack: CountsStack, shm=None, dataset=None):
        super().__init__()
        self._stack = stack
        self._shm = shm
        self.dataset = dataset
        self._closed = False

    @property
    def names(self) -> tuple[str, ...]:
        return self._stack.names

    @property
    def n_clusters(self) -> int:
        return self._stack.n_clusters

    @property
    def n(self) -> int:
        return int(self._stack.totals[0]) if len(self._stack.names) else 0

    def domain_size(self, name: str) -> int:
        b, r = self._stack.locator[name]
        return int(self._stack.buckets[b].domain_sizes[r])

    def by_cluster(self, name: str) -> np.ndarray:
        mat, _ = self._stack.attribute_counts(name)
        return mat

    def full(self, name: str) -> np.ndarray:
        _, full = self._stack.attribute_counts(name)
        return full

    def total(self, name: str) -> float:
        return float(self._stack.totals[self._stack.index[name]])

    def cluster_size(self, name: str, c: int) -> float:
        return float(self._stack.sizes[self._stack.index[name], c])

    def totals_vector(self, names: Sequence[str]) -> np.ndarray:
        return np.asarray(self._stack.totals[self._stack.columns(names)], dtype=np.float64)

    def sizes_matrix(self, names: Sequence[str]) -> np.ndarray:
        return np.asarray(self._stack.sizes[self._stack.columns(names)], dtype=np.float64)

    def by_cluster_stack(self) -> CountsStack:
        return self._stack

    def close(self) -> None:
        """Detach from the shared segment (idempotent)."""
        if not self._closed:
            self._closed = True
            self._stack = None
            if self._shm is not None:
                self._shm.close()
                self._shm = None

    def __enter__(self) -> "StackCounts":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_counts(handle: SharedStackHandle, dataset=None) -> StackCounts:
    """Attach to a shared stack segment as a read-only counts provider.

    ``dataset`` (optional) is the schema-bearing descriptor forwarded to
    :class:`StackCounts` for consumers that release histograms.  Raises
    ``FileNotFoundError`` once the owner has unlinked the segment.
    """
    shm = _RawSegment(handle.segment)
    views = _segment_views(shm, handle)
    stack = _stack_from_views(views, handle, writeable=False)
    return StackCounts(stack, shm, dataset=dataset)
