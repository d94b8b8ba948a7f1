"""Count providers: the group-by machinery behind every quality function.

All quality functions of Section 4 are functions of ``cnt_{A=a}(D)`` and
``cnt_{A=a}(D_c)``.  :class:`CountsProvider` is the one base class serving
them: a subclass supplies the per-cluster matrix ``by_cluster(name)`` and the
base derives the full-data counts, totals, cluster sizes and the dense engine
stack.  Five subclasses exist.  :class:`ClusteredCounts` materialises the
counts from a dataset and a clustering function (two group-by queries per
attribute, as the complexity analysis in Section 5.2 counts them), and
:class:`StreamedCounts` holds the same counts built from row chunks by
:class:`StreamingCountsBuilder`.  :class:`NoisyCounts` serves pre-released
noisy histograms — this is what the DP-Naive baseline post-processes — with
``|D|`` / ``|D_c|`` proxied by the per-attribute noisy totals.
``ProductCounts`` (:mod:`repro.core.pairs`) exposes attribute pairs, and
``StackCounts`` (:mod:`repro.core.engine.shm`) reads an attached shared stack.
"""

from __future__ import annotations

import hashlib

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..dataset.schema import Schema
from ..dataset.table import CODE_DTYPE, Dataset, FingerprintAccumulator, chunk_spans
from ..clustering.base import ClusteringFunction

# Row-chunk size rule for chunked materialisation: one chunk's codes over
# every attribute, as int64, fill at most ~64 MiB.  That bounds what a chunk
# reads from a memory-mapped source; the counting scratch itself is only a
# few chunk-length vectors (see ``_count_chunk``), so a 10M-row dataset
# group-bys in bounded memory.
_CHUNK_SCRATCH_BYTES = 64 * 1024 * 1024


def _materialise_chunk_rows(n_attributes: int) -> int:
    """Rows per chunk keeping the chunk's (|A|, chunk) int64 codes under budget."""
    per_row = max(n_attributes, 1) * np.dtype(CODE_DTYPE).itemsize
    return max(_CHUNK_SCRATCH_BYTES // per_row, 1024)


def _validated_labels(labels: np.ndarray) -> np.ndarray:
    """``labels`` as a one-dimensional int64 array.

    Refuses arrays of any other shape, and non-finite or fractional floats:
    a plain ``astype`` would truncate ``1.9`` to cluster 1 and count it
    there.  Whole-valued floats are accepted.  The messages carry no label
    value or row index: both are derived from the sensitive rows.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if labels.dtype.kind == "f":
        if not np.isfinite(labels).all():
            raise ValueError("labels must be finite")
        if not np.array_equal(labels, np.trunc(labels)):
            raise ValueError("labels must be whole numbers")
    elif labels.dtype.kind not in "biu":
        raise ValueError("labels must be an integer array")
    return labels.astype(np.int64)


def _count_chunk(
    hists: Sequence[np.ndarray],
    labels: np.ndarray,
    columns: Sequence[np.ndarray],
    domain_sizes: Sequence[int],
) -> None:
    """Add one row chunk's by-cluster counts into per-attribute histograms.

    ``hists[j]`` is the C-order ``(|C|, m_j)`` int64 histogram of attribute
    ``j``; flattened, it gains ``np.bincount(labels * m_j + columns[j])``.  Attributes
    are visited grouped by domain size, so ``labels * m`` is formed once per
    distinct ``m`` and the scratch stays at two chunk-length vectors.
    Bincount is an exact integer sum, so any chunking of the rows gives the
    same histograms.
    """
    by_size: dict[int, list[int]] = {}
    for j, m in enumerate(domain_sizes):
        by_size.setdefault(int(m), []).append(j)
    index = np.empty(labels.shape, dtype=np.int64)
    for m, members in by_size.items():
        scaled = labels * m
        for j in members:
            np.add(scaled, columns[j], out=index)
            flat = hists[j].reshape(-1)
            flat += np.bincount(index, minlength=flat.shape[0])


def _signature_digest(fingerprint: str, n_clusters: int, label_digest: bytes) -> str:
    """The (dataset, clustering) cache-key hash shared by all count builders.

    ``label_digest`` is the SHA-256 over the raw int64 label bytes — a
    sub-digest, so a streaming build that only ever sees label chunks
    produces the same signature as the in-RAM path.
    """
    h = hashlib.sha256()
    h.update(fingerprint.encode("ascii"))
    h.update(f"|C|={n_clusters}".encode("ascii"))
    h.update(label_digest)
    return h.hexdigest()


class CountsProvider:
    """Base of every counts provider consumed by the quality functions.

    A subclass serves ``names``, ``n_clusters``, ``domain_size(name)`` and
    ``by_cluster(name)`` — the ``(n_clusters, |dom(A)|)`` matrix of
    ``h_A(D_c)`` — and, when its counts are exact, ``n`` (``|D|``) and
    ``_sizes`` (the int vector ``(|D_c|)_c``).  Everything else is derived
    here once: ``h_A(D)`` (:meth:`full`), one cluster's row, the totals and
    cluster sizes (scalar and vectorised), and the cached dense
    :class:`~repro.core.engine.stacks.CountsStack` the batched scoring
    engine runs on.  Providers of noisy proxies override the size accessors.
    """

    def __init__(self) -> None:
        self._full: dict[str, np.ndarray] = {}
        self._stack = None

    def full(self, name: str) -> np.ndarray:
        """``h_A(D)`` — counts over ``dom(A)`` for the whole dataset."""
        cached = self._full.get(name)
        if cached is None:
            cached = self.by_cluster(name).sum(axis=0)
            self._full[name] = cached
        return cached

    def cluster(self, name: str, c: int) -> np.ndarray:
        """``h_A(D_c)`` — counts over ``dom(A)`` for cluster ``c``."""
        return self.by_cluster(name)[c]

    def sizes(self) -> np.ndarray:
        """``(|D_c|)_c`` as an int vector."""
        return self._sizes.copy()

    def total(self, name: str) -> float:
        """``|D|`` (or its noisy proxy for the given attribute)."""
        return float(self.n)

    def cluster_size(self, name: str, c: int) -> float:
        """``|D_c|`` (or its noisy proxy for the given attribute)."""
        return float(self._sizes[c])

    def totals_vector(self, names: Sequence[str]) -> np.ndarray:
        """Vectorised :meth:`total` over many attributes."""
        return np.full(len(names), float(self.n), dtype=np.float64)

    def sizes_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Vectorised :meth:`cluster_size`: the ``(|names|, |C|)`` matrix."""
        return np.broadcast_to(
            self._sizes.astype(np.float64), (len(names), self.n_clusters)
        ).copy()

    def materialise(self) -> None:
        """Build every attribute's counts ahead of use; a no-op by default."""

    def by_cluster_stack(self):
        """Lazily-built dense stack feeding the batched scoring engine.

        :meth:`materialise` runs first, so a provider with a one-pass build
        feeds the stack from one pass over the rows rather than ``|A|``
        separate :meth:`by_cluster` calls.
        """
        if self._stack is None:
            from .engine.stacks import CountsStack

            self.materialise()
            self._stack = CountsStack.from_provider(self)
        return self._stack


class ClusteredCounts(CountsProvider):
    """Exact counts from a dataset + clustering function, lazily cached.

    Parameters
    ----------
    dataset:
        The sensitive dataset ``D``.
    clustering:
        Either a :class:`~repro.clustering.base.ClusteringFunction` or a
        pre-computed integer label array of length ``|D|``.
    n_clusters:
        Required when ``clustering`` is a label array.
    """

    def __init__(
        self,
        dataset: Dataset,
        clustering: "ClusteringFunction | np.ndarray",
        n_clusters: int | None = None,
    ):
        super().__init__()
        self._dataset = dataset
        if isinstance(clustering, np.ndarray):
            if n_clusters is None:
                raise ValueError("n_clusters is required with a label array")
            labels = _validated_labels(clustering)
            self._n_clusters = int(n_clusters)
        else:
            labels = clustering.assign(dataset)
            self._n_clusters = clustering.n_clusters
        if len(labels) != len(dataset):
            raise ValueError("label array length must equal |D|")
        if len(labels) and (labels.min() < 0 or labels.max() >= self._n_clusters):
            raise ValueError("labels out of range")
        self._labels = labels
        self._sizes = np.bincount(labels, minlength=self._n_clusters).astype(np.int64)
        self._by_cluster: dict[str, np.ndarray] = {}
        self._signature: str | None = None

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def names(self) -> tuple[str, ...]:
        return self._dataset.schema.names

    @property
    def n_clusters(self) -> int:
        return self._n_clusters

    @property
    def n(self) -> int:
        return len(self._dataset)

    def domain_size(self, name: str) -> int:
        return self._dataset.schema.attribute(name).domain_size

    def signature(self) -> str:
        """Stable hash of (dataset fingerprint, |C|, label assignment).

        The clustering half of the explanation service's cache key: two
        ``ClusteredCounts`` sign equally iff they were built over
        fingerprint-equal datasets with identical cluster counts and
        identical per-row labels, so relabeling (even a pure permutation of
        cluster ids) or rebinning the dataset changes the key.
        """
        if self._signature is None:
            label_digest = hashlib.sha256(
                np.ascontiguousarray(self._labels).tobytes()
            ).digest()
            self._signature = _signature_digest(
                self._dataset.fingerprint(), self._n_clusters, label_digest
            )
        return self._signature

    def by_cluster(self, name: str) -> np.ndarray:
        """The ``(n_clusters, |dom(A)|)`` matrix of per-cluster counts."""
        cached = self._by_cluster.get(name)
        if cached is None:
            m = self.domain_size(name)
            cached = np.zeros((self._n_clusters, m), dtype=np.int64)
            _count_chunk([cached], self._labels, [self._dataset.column(name)], [m])
            self._by_cluster[name] = cached
        return cached

    def materialise(self, chunk_rows: int | None = None) -> None:
        """Streaming group-by over every not-yet-cached attribute.

        One pass over fixed-size row chunks (``chunk_rows`` rows; the
        default keeps one chunk's ``(|A|, chunk)`` codes under ~64 MiB).
        Each chunk adds, per attribute ``A``, ``np.bincount(labels * m_A +
        codes_A)`` into that attribute's ``(|C|, m_A)`` histogram, with
        ``labels * m`` formed once per distinct domain size
        (``_count_chunk``, shared with :class:`StreamingCountsBuilder`).
        Nothing of size ``|A| x chunk`` is built: the scratch is two
        chunk-length vectors.  Bincount is an exact integer sum, so the
        result is bit-identical for every chunk size, and peak scratch is
        flat in ``|D|``.  Idempotent; :meth:`by_cluster_stack` calls it so
        the dense engine stack is fed from one pass over the rows.
        """
        missing = [n for n in self.names if n not in self._by_cluster]
        if not missing:
            return
        sizes = [self.domain_size(n) for n in missing]
        if chunk_rows is None:
            chunk_rows = _materialise_chunk_rows(len(missing))
        hists = [np.zeros((self._n_clusters, m), dtype=np.int64) for m in sizes]
        columns = [self._dataset.column(a) for a in missing]
        for span in chunk_spans(len(self._dataset), chunk_rows):
            _count_chunk(hists, self._labels[span], [c[span] for c in columns], sizes)
        self._by_cluster.update(zip(missing, hists))


class StreamingCountsBuilder:
    """One-pass accumulator turning ``(columns, labels)`` row chunks into counts.

    The big-data entry to the counts layer: feed row chunks from any column
    source — slices of an in-RAM :class:`~repro.dataset.table.Dataset`
    (``Dataset.iter_chunks``), memory-mapped columns, or a generator that
    synthesises chunks on the fly — and :meth:`finalise` returns a
    :class:`StreamedCounts` provider holding only the per-attribute
    ``(|C|, m_A)`` histograms, per-cluster sizes, and streaming content
    hashes.  The
    raw table is never materialised, so peak memory is flat in ``|D|``.

    Exactness contract: each accumulated histogram is an integer sum of
    per-chunk ``np.bincount`` results (``_count_chunk``, the helper
    ``ClusteredCounts`` counts with), so the by-cluster matrices are
    bit-identical to ``ClusteredCounts(dataset, labels).materialise()`` over
    the concatenated rows for *any* chunking — and the streaming
    fingerprint/signature equal ``dataset.fingerprint()`` /
    ``ClusteredCounts.signature()`` of the same rows, so downstream cache
    and ledger keys agree no matter which path built the counts.
    """

    def __init__(self, schema: Schema, n_clusters: int):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self._schema = schema
        self._names = schema.names
        self._n_clusters = int(n_clusters)
        self._domain_sizes = [schema.attribute(n).domain_size for n in self._names]
        self._hists = [
            np.zeros((self._n_clusters, m), dtype=np.int64) for m in self._domain_sizes
        ]
        self._sizes = np.zeros(self._n_clusters, dtype=np.int64)
        self._n = 0
        self._fingerprint_acc = FingerprintAccumulator(schema)
        self._label_hasher = hashlib.sha256()
        self._finalised = False

    @property
    def n_rows(self) -> int:
        return self._n

    def add_chunk(
        self, columns: Mapping[str, np.ndarray], labels: np.ndarray
    ) -> None:
        """Accumulate one row chunk (validated, hashed, bincounted)."""
        if self._finalised:
            raise RuntimeError("builder already finalised")
        labels = _validated_labels(labels)
        k = labels.shape[0]
        if k and (labels.min() < 0 or labels.max() >= self._n_clusters):
            raise ValueError("labels out of range")
        cols = []
        for j, name in enumerate(self._names):
            col = np.ascontiguousarray(columns[name], dtype=CODE_DTYPE)
            if col.shape != (k,):
                # Chunk lengths redacted: row-count-derived, can reach
                # envelopes.
                raise ValueError(
                    f"column {name!r} chunk length does not match the "
                    "labels chunk"
                )
            if k and (col.min() < 0 or col.max() >= self._domain_sizes[j]):
                raise ValueError(f"column {name!r} contains out-of-domain codes")
            cols.append(col)
        if not k:
            return
        self._fingerprint_acc.update(dict(zip(self._names, cols)))
        self._label_hasher.update(labels.tobytes())
        _count_chunk(self._hists, labels, cols, self._domain_sizes)
        self._sizes += np.bincount(labels, minlength=self._n_clusters)
        self._n += k

    def add_dataset(
        self,
        dataset: Dataset,
        labels: np.ndarray,
        chunk_rows: int | None = None,
    ) -> "StreamingCountsBuilder":
        """Feed a whole (possibly memory-mapped) dataset chunk by chunk."""
        if len(labels) != len(dataset):
            raise ValueError("label array length must equal |D|")
        if chunk_rows is None:
            chunk_rows = _materialise_chunk_rows(len(self._names))
        for span, cols in dataset.iter_chunks(chunk_rows):
            self.add_chunk(cols, labels[span])
        return self

    def finalise(self) -> "StreamedCounts":
        """Freeze the accumulated counts into a :class:`StreamedCounts`."""
        self._finalised = True
        fingerprint = self._fingerprint_acc.hexdigest()
        signature = _signature_digest(
            fingerprint, self._n_clusters, self._label_hasher.digest()
        )
        return StreamedCounts(
            schema=self._schema,
            by_cluster=dict(zip(self._names, self._hists)),
            sizes=self._sizes,
            n_rows=self._n,
            fingerprint=fingerprint,
            signature=signature,
        )


class StreamedCounts(CountsProvider):
    """Exact counts materialised by :class:`StreamingCountsBuilder`.

    Serves the :class:`CountsProvider` interface from the per-attribute
    histograms alone — no dataset, no label array.
    ``fingerprint()``/``signature()`` reproduce the values the equivalent
    in-RAM ``Dataset``/``ClusteredCounts`` would report, so the service's
    cache and ledger keys are source-agnostic.
    """

    def __init__(
        self,
        schema: Schema,
        by_cluster: Mapping[str, np.ndarray],
        sizes: np.ndarray,
        n_rows: int,
        fingerprint: str,
        signature: str,
    ):
        super().__init__()
        self._schema = schema
        self._by_cluster = dict(by_cluster)
        self._sizes = np.asarray(sizes, dtype=np.int64)
        self._n = int(n_rows)
        self._fingerprint = fingerprint
        self._signature = signature

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def names(self) -> tuple[str, ...]:
        return self._schema.names

    @property
    def n_clusters(self) -> int:
        return int(self._sizes.shape[0])

    @property
    def n(self) -> int:
        return self._n

    def domain_size(self, name: str) -> int:
        return self._schema.attribute(name).domain_size

    def fingerprint(self) -> str:
        return self._fingerprint

    def signature(self) -> str:
        return self._signature

    def by_cluster(self, name: str) -> np.ndarray:
        return self._by_cluster[name]


def materialise_stream(
    schema: Schema,
    chunks: Iterable[tuple[Mapping[str, np.ndarray], np.ndarray]],
    n_clusters: int,
) -> StreamedCounts:
    """One-call streaming materialisation from any chunk iterator.

    ``chunks`` yields ``(columns mapping, labels)`` pairs — e.g. the output
    of :meth:`~repro.experiments.scale.ChunkedPlantedSource.chunks` or a
    reader over memory-mapped column files — and the result is the exact
    :class:`StreamedCounts` over their concatenation, built in bounded
    memory.
    """
    builder = StreamingCountsBuilder(schema, n_clusters)
    for columns, labels in chunks:
        builder.add_chunk(columns, labels)
    return builder.finalise()


class NoisyCounts(CountsProvider):
    """Counts served from released noisy histograms (post-processing only).

    ``full_hists[name]`` is the noisy full-data histogram; ``cluster_hists``
    maps a name to the ``(n_clusters, m)`` noisy per-cluster matrix.  Totals
    and cluster sizes are the corresponding noisy sums, clamped to a minimum
    of 1 to keep the quality formulas finite.
    """

    def __init__(
        self,
        names: Sequence[str],
        full_hists: Mapping[str, np.ndarray],
        cluster_hists: Mapping[str, np.ndarray],
        n_clusters: int,
    ):
        super().__init__()
        self._names = tuple(names)
        self._n_clusters = int(n_clusters)
        self._released_full = {
            n: np.asarray(full_hists[n], dtype=np.float64) for n in names
        }
        self._clusters = {
            n: np.asarray(cluster_hists[n], dtype=np.float64) for n in names
        }
        for n in names:
            mat = self._clusters[n]
            if mat.shape != (self._n_clusters, self._released_full[n].shape[0]):
                raise ValueError(f"shape mismatch for attribute {n!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def n_clusters(self) -> int:
        return self._n_clusters

    def domain_size(self, name: str) -> int:
        return int(self._released_full[name].shape[0])

    def by_cluster(self, name: str) -> np.ndarray:
        return self._clusters[name]

    def full(self, name: str) -> np.ndarray:
        # Released on its own, not summed from the noisy cluster rows.
        return self._released_full[name]

    def total(self, name: str) -> float:
        return max(float(self._released_full[name].sum()), 1.0)

    def cluster_size(self, name: str, c: int) -> float:
        # Clamped to 1 like ``total`` (the documented contract): a noisy
        # all-zero cluster release must not zero-divide downstream quality
        # formulas such as the normalised sufficiency.
        return max(float(self._clusters[name][c].sum()), 1.0)

    def totals_vector(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.total(n) for n in names], dtype=np.float64)

    def sizes_matrix(self, names: Sequence[str]) -> np.ndarray:
        return np.stack(
            [np.maximum(self._clusters[n].sum(axis=1), 1.0) for n in names]
        )
