"""Append-only ledger journal: O(1) durable persistence per charge.

Before PR 5 the service re-serialized the *entire* tenant snapshot after
every successful request — O(n) bytes of I/O per charge over a long-lived
ledger.  :class:`TenantLedgerStore` replaces that with write-ahead-log
persistence, and the journal is the ledger's history:

* **snapshot** (``<tenant>.json``) — the base state, in the same shape as
  :meth:`~repro.service.registry.Tenant.snapshot` plus ``"format": 2``
  and the ``journal_seq`` fence; every charge row carries its ``units``
  and ``token``.  It is written at only two points, both through
  :meth:`TenantLedgerStore.rebase`: tenant creation and a runtime
  :meth:`~repro.service.registry.Tenant.restore`.  A snapshot of any other
  format (the older float-only files carry none) refuses to load;
* **journal** (``<tenant>.journal``) — an append-only JSONL record of
  every charge/refund since the snapshot, one O(1)-byte record per
  mutation; a record outside a :func:`commit_scope` is fsync'd on its
  own, records inside one share a single fsync per tenant journal at
  scope exit.  Nothing folds it back: a snapshot would hold every charge
  too, so rewriting one bounds neither replay time nor disk;
* **crash replay** = snapshot + the journal records above its fence.  A
  record with ``seq <= journal_seq`` predates the snapshot (a crash
  between a rebase's snapshot write and its journal rewrite leaves the
  old ledger's records behind) and is skipped.  The store owns only this
  file framing — the format check, the fence, torn-tail repair and the
  ``seq``/``dataset`` routing — and hands each dataset's records on
  unread.  The charge fields and the replay rules belong to
  :meth:`PrivacyAccountant.restore
  <repro.privacy.budget.PrivacyAccountant.restore>`.

Durability ordering — *every charge is durable before the first draw*.
The store's :meth:`record` runs inside the accountant's mutation hook
(under the ledger lock, before the accountant applies the charge) and
writes its line before the charging call returns.  Outside a commit
scope it also fsyncs there (a refund's record does).  Every charge runs
inside a :func:`commit_scope`: its own, which commits before ``spend()``
returns, or the one the service funds a whole batch in.  The fsync is
deferred to scope exit:
one ``os.fsync`` per touched tenant journal, taken under the store lock and
never under an accountant lock, and the caller draws no noise until the
scope has exited cleanly.  A scope whose commit fails raises, and its
caller refunds every charge it made before any noise is drawn.  A crash
can therefore only lose a charge that never funded a release (safe), or
persist a charge whose release never happened (overcounting — safe in the
privacy direction).

The store raises :class:`LedgerStoreError` (a ``ValueError``) on corrupt
state; the registry maps it to its structured ``corrupt-ledger`` refusal.
A truncated *final* journal line (torn write at crash) is not corruption —
its record never committed, and the half-line is dropped on the next
rewrite.
"""

from __future__ import annotations

import json
import os
import threading
import time

from contextlib import contextmanager

from ..obs.tracing import span_histogram


class LedgerStoreError(ValueError):
    """Corrupt or inconsistent persisted ledger state."""


#: Per-thread open commit scope: the stores (an insertion-ordered dict used
#: as a set) whose records this thread wrote without an fsync yet.
_scope = threading.local()


@contextmanager
def commit_scope():
    """Group-commit every journal record this thread writes in the body.

    Inside the scope :meth:`TenantLedgerStore.record` still writes and
    flushes its line (and bumps ``seq``) under the store lock, but skips the
    fsync and enrols its store instead.  On a clean exit the scope syncs
    each enrolled store once (:meth:`TenantLedgerStore.sync`), so a batch of
    charges costs one fsync per touched tenant journal rather than one per
    charge.  The caller must draw no noise against those charges until the
    ``with`` block has exited: that exit is the point the charges become
    durable.

    A body that raises commits nothing, and a failed sync raises out of the
    ``with``; either way the caller refunds its charges (their refund
    records are fsync'd on their own).  A scope opened inside another one
    on the same thread joins it: the outermost scope commits.
    """
    if getattr(_scope, "stores", None) is not None:
        yield
        return
    stores: "dict[TenantLedgerStore, None]" = {}
    _scope.stores = stores
    try:
        yield
    finally:
        _scope.stores = None
    for store in stores:
        store.sync()


def _fsync_write(path: str, data: str) -> None:
    """Crash-safe whole-file write: temp file + fsync + atomic replace."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class TenantLedgerStore:
    """Snapshot + append-only journal for one tenant's privacy ledgers.

    One instance per persisted tenant, owned by the
    :class:`~repro.service.registry.ServiceRegistry`.  All methods are
    thread-safe; :meth:`record` is designed to be called from
    :meth:`PrivacyAccountant.set_observer
    <repro.privacy.budget.PrivacyAccountant.set_observer>` hooks (the lock
    order is always accountant-lock → store-lock, and the store never
    acquires accountant locks, so the two layers cannot deadlock).
    """

    SNAPSHOT_SUFFIX = ".json"
    JOURNAL_SUFFIX = ".journal"

    def __init__(self, base_path: str, *, metrics=None):
        self.base_path = os.fspath(base_path)
        self.snapshot_path = self.base_path + self.SNAPSHOT_SUFFIX
        self.journal_path = self.base_path + self.JOURNAL_SUFFIX
        self._lock = threading.Lock()
        self._fh = None  # append handle, opened lazily
        self._seq = 0
        self._tail_records = 0  # journal records since the snapshot
        self._unsynced = 0  # records written but not yet fsync'd
        if metrics is not None:
            self._spans = span_histogram(metrics)
            self._m_records = metrics.counter(
                "repro_journal_records_total",
                "Charge/refund records appended to tenant journals.",
            )
        else:
            self._spans = self._m_records = None

    # -- lifecycle -------------------------------------------------------- #

    @classmethod
    def open(cls, base_path: str, *, metrics=None):
        """Open an existing store; returns ``(store, state, journal)``.

        ``state`` is the tenant snapshot in :meth:`Tenant.snapshot` shape
        and ``journal`` maps each dataset id to its records above the
        snapshot's fence, in write order — together the crash-recovered
        tenant, ready for :meth:`Tenant.load`.  Raises
        :class:`LedgerStoreError` (or ``OSError``/``KeyError`` on
        unreadable files) when the file framing is corrupt.
        """
        store = cls(base_path, metrics=metrics)
        state, journal = store._replay()
        return store, state, journal

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                if self._unsynced:
                    os.fsync(self._fh.fileno())
                    self._unsynced = 0
                self._fh.close()
                self._fh = None

    # -- journaling ------------------------------------------------------- #

    def record(self, dataset_id: str, record: dict) -> None:
        """Append one charge/refund record — O(1) bytes, O(1) time.

        ``record`` is the ``record`` of a
        :meth:`PrivacyAccountant.set_observer` event, written as given;
        the line adds the dataset id (one tenant journal covers all of
        the tenant's per-dataset ledgers) and a monotonic ``seq``, which
        replay compares with the snapshot's ``journal_seq`` fence.  Outside
        a :func:`commit_scope` the record is fsync'd before this returns;
        inside one the fsync is deferred to the scope's exit.
        """
        stores = getattr(_scope, "stores", None)
        t0 = time.perf_counter()
        with self._lock:
            self._seq += 1
            line = json.dumps(
                {"seq": self._seq, "dataset": dataset_id, **record},
                separators=(",", ":"),
            )
            fh = self._open_journal()
            fh.write(line + "\n")
            fh.flush()
            if stores is None:
                os.fsync(fh.fileno())
                self._unsynced = 0
            else:
                self._unsynced += 1
            self._tail_records += 1
        if stores is not None:
            stores[self] = None
        elif self._spans is not None:
            self._spans.observe(time.perf_counter() - t0, ("journal-fsync",))
        if self._m_records is not None:
            self._m_records.inc()

    def sync(self) -> None:
        """Commit: one fsync covering every record written since the last.

        A no-op when nothing is pending — another thread's fsync or a
        rebase's rewrite already made those records durable.
        """
        t0 = time.perf_counter()
        with self._lock:
            if not self._unsynced:
                return
            os.fsync(self._fh.fileno())
            self._unsynced = 0
        if self._spans is not None:
            self._spans.observe(time.perf_counter() - t0, ("journal-fsync",))

    def _open_journal(self):
        if self._fh is None:
            self._fh = open(self.journal_path, "a")
        return self._fh

    @property
    def tail_records(self) -> int:
        """Journal records since the snapshot (creation or restore)."""
        with self._lock:
            return self._tail_records

    # -- rebase ----------------------------------------------------------- #

    def rebase(self, state: dict) -> None:
        """Make ``state`` the new base: write its snapshot, empty the journal.

        Called with no concurrent chargers (tenant creation, runtime
        restore).  The snapshot's ``journal_seq`` fence is the newest seq,
        so a crash between the snapshot replace and the journal rewrite
        leaves records that replay skips as already covered.
        """
        with self._lock:
            _fsync_write(
                self.snapshot_path,
                json.dumps(
                    {"format": 2, "journal_seq": self._seq, **state},
                    separators=(",", ":"),
                )
                + "\n",
            )
            self._rewrite_journal_locked([])

    def _rewrite_journal_locked(self, records: "list[dict]") -> None:
        """Atomically replace the journal contents.  Caller holds the lock."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        _fsync_write(
            self.journal_path,
            "".join(
                json.dumps(rec, separators=(",", ":")) + "\n" for rec in records
            ),
        )
        self._tail_records = len(records)
        self._unsynced = 0  # every kept record was just fsync'd

    # -- replay ----------------------------------------------------------- #

    def _replay(self) -> "tuple[dict, dict[str, list[dict]]]":
        """Read the snapshot and route the journal records above its fence.

        Returns ``(state, journal)``: the snapshot without its framing keys,
        and each dataset's records in write order.  The records' charge
        fields are not read here: the accountant parses and applies them
        (:meth:`PrivacyAccountant.restore
        <repro.privacy.budget.PrivacyAccountant.restore>`).
        """
        try:
            with open(self.snapshot_path) as fh:
                state = json.load(fh)
        except FileNotFoundError:
            raise LedgerStoreError(
                f"journal {self.journal_path!r} has no base snapshot "
                f"{self.snapshot_path!r}"
            ) from None
        if not isinstance(state, dict):
            raise LedgerStoreError(f"snapshot {self.snapshot_path!r} is not an object")
        fmt = state.pop("format", None)
        if fmt != 2:
            raise LedgerStoreError(
                f"snapshot {self.snapshot_path!r} has format {fmt!r}, not 2"
            )
        fence = int(state.pop("journal_seq", 0))
        with self._lock:
            tail, dirty = self._read_journal_locked()
            if dirty:
                # A torn final line from a crash mid-append: its record
                # never committed.  Drop it from disk *now*, before any new
                # append would land after the half-line and corrupt the file.
                self._rewrite_journal_locked(tail)
        journal: "dict[str, list[dict]]" = {}
        max_seq = fence
        replayed = 0
        for rec in tail:
            seq = int(rec["seq"])
            if seq <= fence:
                continue  # covered by the snapshot (crash mid-rebase)
            replayed += 1
            max_seq = max(max_seq, seq)
            journal.setdefault(str(rec["dataset"]), []).append(rec)
        with self._lock:
            self._seq = max(self._seq, max_seq)
            self._tail_records = replayed
        return state, journal

    def _read_journal_locked(self) -> "tuple[list[dict], bool]":
        """Parse the journal, tolerating only a torn *final* line.

        Returns ``(records, dirty)`` — ``dirty`` means the on-disk file has
        a trailing fragment that must be rewritten away before appending.
        """
        try:
            with open(self.journal_path) as fh:
                raw = fh.read()
        except FileNotFoundError:
            return [], False
        records: "list[dict]" = []
        lines = raw.split("\n")
        torn_tail = bool(lines and lines[-1] != "")  # no trailing newline
        if lines and lines[-1] == "":
            lines.pop()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            last = i == len(lines) - 1
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                if last and torn_tail:
                    return records, True  # the record never committed
                raise LedgerStoreError(
                    f"journal {self.journal_path!r} is corrupt at line {i + 1}"
                ) from None
            if not isinstance(rec, dict):
                raise LedgerStoreError(
                    f"journal {self.journal_path!r} line {i + 1} is not an object"
                )
            records.append(rec)
        # A complete final record missing only its newline is committed but
        # still needs the rewrite, or the next append glues to it.
        return records, torn_tail
