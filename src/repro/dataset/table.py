"""Columnar, integer-coded implementation of the paper's dataset model.

A dataset ``D`` is a bag (multiset) of tuples over ``dom(A_1) x ... x dom(A_d)``
(Section 2).  We store it column-wise: one ``numpy`` integer array of domain
codes per attribute.  This gives:

* ``pi_A(D)`` — projection — as a single array lookup,
* ``h_A(D)`` — the histogram of counts over ``dom(A)`` — as ``np.bincount``,
* cluster-restricted histograms as boolean-mask bincounts,
* and the add/remove-one-tuple operations that define *neighboring datasets*
  (Definition 2.5), which the test-suite uses to verify sensitivity bounds.
"""

from __future__ import annotations

import hashlib

from typing import Iterable, Mapping, Sequence

import numpy as np

from .schema import Attribute, Schema, SchemaError

CODE_DTYPE = np.int64


def chunk_spans(n_rows: int, chunk_rows: int) -> "Iterable[slice]":
    """Fixed-size row spans covering ``[0, n_rows)`` (last one may be short).

    The canonical chunk grid shared by every streaming consumer: the chunked
    ``materialise`` path, the streaming fingerprint, and the large-``n``
    synthetic generators all walk the same spans, so their per-chunk work
    lines up without any coordination.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    for start in range(0, n_rows, chunk_rows):
        yield slice(start, min(start + chunk_rows, n_rows))


def code_tables(
    schema: Schema, names: Sequence[str], dtype=np.float64
) -> list[np.ndarray]:
    """The identity table ``[0, 1, ..., |dom(A)|-1]`` of each attribute ``A``.

    Gathering codes through these (:meth:`Dataset.lookup_columns`) gives the
    raw code matrix; an encoder evaluates its per-element formula once on
    them instead, which gives lookup tables whose size does not depend on
    the data.
    """
    return [np.arange(schema.attribute(n).domain_size, dtype=dtype) for n in names]


def _update_str(h, s: str) -> None:
    """Length-prefixed string update (no in-band separator can be forged)."""
    b = s.encode("utf-8")
    h.update(len(b).to_bytes(8, "big"))
    h.update(b)


def schema_digest_update(h, schema: Schema) -> None:
    """Feed a schema's identity (names + full ordered domains) into ``h``."""
    h.update(len(schema).to_bytes(8, "big"))
    for attr in schema:
        _update_str(h, attr.name)
        h.update(len(attr.domain).to_bytes(8, "big"))
        for value in attr.domain:
            _update_str(h, value)


class FingerprintAccumulator:
    """Streaming computation of :meth:`Dataset.fingerprint`.

    Feed row chunks (as ``{name: code array}`` mappings) in order with
    :meth:`update`; :meth:`hexdigest` then equals the fingerprint of the
    ``Dataset`` holding the concatenation of those chunks.  One SHA-256
    hasher per column absorbs that column's code bytes chunk by chunk —
    column bytes concatenate across chunks, so the per-column digests (and
    therefore the combined hash) are independent of the chunking.
    """

    def __init__(self, schema: Schema):
        self._schema = schema
        self._n = 0
        self._hashers = {n: hashlib.sha256() for n in schema.names}

    @property
    def n_rows(self) -> int:
        return self._n

    def update(self, columns: Mapping[str, np.ndarray]) -> int:
        """Absorb one row chunk; returns the chunk's row count."""
        lengths = set()
        for name in self._schema.names:
            col = np.ascontiguousarray(columns[name], dtype=CODE_DTYPE)
            lengths.add(col.shape[0])
            self._hashers[name].update(col.tobytes())
        if len(lengths) != 1:
            raise SchemaError(f"ragged chunk columns: lengths {sorted(lengths)}")
        k = lengths.pop()
        self._n += k
        return k

    def hexdigest(self) -> str:
        h = hashlib.sha256()
        schema_digest_update(h, self._schema)
        h.update(f"n={self._n}".encode("ascii"))
        for name in self._schema.names:
            h.update(self._hashers[name].digest())
        return h.hexdigest()


class Dataset:
    """A bag of tuples over a :class:`~repro.dataset.schema.Schema`.

    Parameters
    ----------
    schema:
        The relation schema.
    columns:
        ``{attribute name: int array of domain codes}``; every column must
        have the same length and codes within the attribute's domain.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self._schema = schema
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise SchemaError(
                f"columns do not match schema (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        lengths = {len(columns[n]) for n in schema.names}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0
        self._columns: dict[str, np.ndarray] = {}
        for attr in schema:
            col = np.asarray(columns[attr.name], dtype=CODE_DTYPE)
            if col.ndim != 1:
                raise SchemaError(f"column {attr.name!r} must be one-dimensional")
            if col.size and (col.min() < 0 or col.max() >= attr.domain_size):
                raise SchemaError(
                    f"column {attr.name!r} contains codes outside "
                    f"[0, {attr.domain_size})"
                )
            self._columns[attr.name] = col
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[str]]) -> "Dataset":
        """Build a dataset from value tuples in schema attribute order."""
        rows = list(rows)
        cols: dict[str, list[int]] = {n: [] for n in schema.names}
        for row in rows:
            if len(row) != schema.width:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema width {schema.width}"
                )
            for attr, value in zip(schema, row):
                cols[attr.name].append(attr.code_of(value))
        return cls(schema, {n: np.asarray(v, dtype=CODE_DTYPE) for n, v in cols.items()})

    @classmethod
    def empty(cls, schema: Schema) -> "Dataset":
        """An empty bag over ``schema``."""
        zero = {n: np.empty(0, dtype=CODE_DTYPE) for n in schema.names}
        return cls(schema, zero)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        """``|D|`` — number of tuples."""
        return self._n

    def column(self, name: str) -> np.ndarray:
        """``pi_A(D)`` as a read-only code array."""
        col = self._columns[name]
        view = col.view()
        view.flags.writeable = False
        return view

    def fingerprint(self) -> str:
        """Stable content hash over schema *and* data (hex SHA-256).

        Covers attribute names, the full ordered domains (so re-binned or
        re-labelled schemas — whose bin edges are encoded in the interval
        domain labels — hash differently) and a per-column SHA-256 digest of
        every column's code bytes (strings are length-prefixed so no in-band
        separator can be forged by a domain value containing it).  Two
        datasets fingerprint equally iff they hold the same tuples in the
        same order over the same schema; the explanation service uses this
        as the dataset half of its cache / ledger keys.  Computed once and
        cached — datasets are immutable by contract (every mutation helper
        returns a new object).

        The per-column sub-digest layout makes the hash computable in one
        streaming pass over row chunks (:class:`FingerprintAccumulator`):
        column bytes concatenate across chunks, so a chunked build of the
        same rows — including one that never holds the full table — yields
        the identical fingerprint.
        """
        if self._fingerprint is None:
            acc = FingerprintAccumulator(self._schema)
            if self._n:
                acc.update(self._columns)
            self._fingerprint = acc.hexdigest()
        return self._fingerprint

    def iter_chunks(self, chunk_rows: int) -> "Iterable[tuple[slice, dict[str, np.ndarray]]]":
        """Walk the dataset in fixed-size row chunks (zero-copy views).

        Yields ``(span, {name: codes[span]})`` pairs covering all rows in
        order.  The column slices are read-only views, so iterating a
        memory-mapped dataset touches only ``chunk_rows`` rows' worth of
        pages at a time — the adapter between column sources (in-RAM arrays
        or ``np.memmap``-backed columns, both accepted by the constructor)
        and the streaming consumers (:class:`FingerprintAccumulator`,
        ``ClusteredCounts.materialise``, ``StreamingCountsBuilder``).
        """
        for span in chunk_spans(self._n, chunk_rows):
            yield span, {n: self.column(n)[span] for n in self._schema.names}

    def row(self, i: int) -> tuple[str, ...]:
        """The ``i``-th tuple, decoded to domain values."""
        return tuple(
            attr.value_of(int(self._columns[attr.name][i])) for attr in self._schema
        )

    def row_codes(self, i: int) -> tuple[int, ...]:
        """The ``i``-th tuple as raw codes in schema order."""
        return tuple(int(self._columns[n][i]) for n in self._schema.names)

    # ------------------------------------------------------------------ #
    # histograms & projections
    # ------------------------------------------------------------------ #

    def histogram(self, name: str, mask: np.ndarray | None = None) -> np.ndarray:
        """``h_A(D)`` (or ``h_A(D[mask])``) — counts over ``dom(A)``.

        The returned vector has length ``|dom(A)|`` and its ``a``-th entry is
        ``cnt_{A=a}``; its L1 norm equals the number of selected tuples
        (Corollary A.1's histogram-vector view).
        """
        attr = self._schema.attribute(name)
        codes = self._columns[name]
        if mask is not None:
            codes = codes[mask]
        return np.bincount(codes, minlength=attr.domain_size).astype(np.int64)

    def count(self, name: str, value: str) -> int:
        """``cnt_{A=a}(D)`` for a decoded value."""
        attr = self._schema.attribute(name)
        return int(np.count_nonzero(self._columns[name] == attr.code_of(value)))

    def active_domain(self, name: str) -> tuple[str, ...]:
        """``dom_D(A)`` — values occurring at least once in ``pi_A(D)``."""
        attr = self._schema.attribute(name)
        present = np.flatnonzero(self.histogram(name) > 0)
        return tuple(attr.domain[i] for i in present)

    # ------------------------------------------------------------------ #
    # bag operations (neighboring datasets, subsets)
    # ------------------------------------------------------------------ #

    def subset(self, mask: np.ndarray) -> "Dataset":
        """Return the sub-bag selected by a boolean mask or index array."""
        return Dataset(
            self._schema, {n: self._columns[n][mask] for n in self._schema.names}
        )

    def sample(self, fraction: float, rng: np.random.Generator) -> "Dataset":
        """Uniformly sample ``round(fraction * |D|)`` tuples without replacement."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        m = int(round(fraction * self._n))
        idx = rng.choice(self._n, size=m, replace=False)
        return self.subset(np.sort(idx))

    def with_tuple(self, row_codes: Sequence[int]) -> "Dataset":
        """``D ∪ {t}`` — the neighboring dataset with one tuple added."""
        if len(row_codes) != self._schema.width:
            raise SchemaError("tuple arity does not match schema")
        cols = {}
        for attr, code in zip(self._schema, row_codes):
            if not 0 <= code < attr.domain_size:
                raise SchemaError(f"code {code} outside dom({attr.name})")
            cols[attr.name] = np.append(self._columns[attr.name], CODE_DTYPE(code))
        return Dataset(self._schema, cols)

    def without_index(self, i: int) -> "Dataset":
        """``D \\ {t_i}`` — the neighboring dataset with tuple ``i`` removed."""
        if not 0 <= i < self._n:
            raise IndexError(f"row {i} out of range")
        keep = np.ones(self._n, dtype=bool)
        keep[i] = False
        return self.subset(keep)

    def concat(self, other: "Dataset") -> "Dataset":
        """Bag union of two datasets over the same schema."""
        if other._schema != self._schema:
            raise SchemaError("cannot concat datasets with different schemas")
        cols = {
            n: np.concatenate([self._columns[n], other._columns[n]])
            for n in self._schema.names
        }
        return Dataset(self._schema, cols)

    # ------------------------------------------------------------------ #
    # schema surgery
    # ------------------------------------------------------------------ #

    def project(self, names: Iterable[str]) -> "Dataset":
        """Restrict to the given attributes (relational projection, bag kept)."""
        names = list(names)
        return Dataset(
            self._schema.project(names), {n: self._columns[n] for n in names}
        )

    def with_column(self, attribute: Attribute, codes: np.ndarray) -> "Dataset":
        """Append a new attribute column (used for correlation injection)."""
        if attribute.name in self._schema:
            raise SchemaError(f"attribute {attribute.name!r} already exists")
        if len(codes) != self._n:
            raise SchemaError("new column length does not match dataset size")
        schema = self._schema.with_attributes([attribute])
        cols = dict(self._columns)
        cols[attribute.name] = np.asarray(codes, dtype=CODE_DTYPE)
        return Dataset(schema, cols)

    # ------------------------------------------------------------------ #
    # numeric encoding for clustering substrates
    # ------------------------------------------------------------------ #

    def lookup_columns(
        self,
        names: Sequence[str],
        tables: Sequence[np.ndarray],
        dtype=np.float64,
    ) -> np.ndarray:
        """Map tuples attribute-wise through per-code tables (d x n, C order).

        Entry ``[j, i]`` is ``tables[j][code]`` for tuple ``i``'s code of
        ``names[j]``, so ``tables[j]`` must cover ``dom(names[j])`` and
        have ``dtype``.  The attribute-major layout is the gather's own:
        each attribute is one contiguous ``np.take`` into row ``j``, with
        no transpose.  Consumers that work per attribute or feed a BLAS
        product (nearest-center assignment) read it as it is.
        """
        out = np.empty((len(names), self._n), dtype=dtype)
        for row, name, table in zip(out, names, tables, strict=True):
            if len(table) < self._schema.attribute(name).domain_size:
                raise ValueError(f"lookup table for {name!r} does not cover dom")
            # Codes are validated in-domain at construction, so "clip" never
            # clips; it only skips the bounds-check buffer of mode="raise".
            np.take(table, self._columns[name], out=row, mode="clip")
        return out

    def lookup_matrix(
        self,
        names: Sequence[str],
        tables: Sequence[np.ndarray],
        dtype=np.float64,
    ) -> np.ndarray:
        """:meth:`lookup_columns` as a tuple-major matrix (n x d, C order).

        One transposing copy of the gather gives the layout that
        ``np.stack(..., axis=1)`` gives.  Row-wise consumers need it: the
        axis-0 reductions of the fitters (``mean(axis=0)``, ``std``) sum
        in an order that depends on layout.
        """
        return np.ascontiguousarray(self.lookup_columns(names, tables, dtype).T)

    def code_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Tuples as an int64 matrix of domain codes (n x d, C order)."""
        names = list(names) if names is not None else list(self._schema.names)
        tables = code_tables(self._schema, names, CODE_DTYPE)
        return self.lookup_matrix(names, tables, CODE_DTYPE)

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Encode tuples as a float matrix of domain codes (n x d, C order).

        This mirrors the paper's preprocessing for clustering: "categorical
        attributes are transformed into equivalent numerical data by mapping
        each domain value to a unique integer" (Section 6.1).
        """
        names = list(names) if names is not None else list(self._schema.names)
        return self.lookup_matrix(names, code_tables(self._schema, names))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset(n={self._n}, d={self._schema.width})"
