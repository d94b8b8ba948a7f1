"""Tenants, datasets, and persistent privacy ledgers — the service's state.

The paper's deployment story (Sections 1, 3) is an analyst holding a global
privacy budget; at service scale that becomes *many* analysts (tenants), each
metered per dataset.  :class:`ServiceRegistry` owns:

* the registered datasets — each a :class:`~repro.dataset.table.Dataset` plus
  a fixed clustering, materialised once into
  :class:`~repro.core.counts.ClusteredCounts`, whose memoised scoring engine
  every request against the dataset reuses;
* the tenants — each a :class:`Tenant` holding one capped, thread-safe
  :class:`~repro.privacy.budget.PrivacyAccountant` per dataset id.

Ledgers persist under ``ledger_dir`` as one snapshot (``<tenant>.json``)
plus one append-only journal (``<tenant>.journal``) per tenant — a
:class:`~repro.service.journal.TenantLedgerStore`.  Every charge/refund is
one O(1) journal record, written from the accountant's mutation hook
*before* the charging call returns, and every charge is fsync'd before the
first draw against it: a lone charge fsyncs its own record, a service
batch funds all its releases inside one commit scope that fsyncs each
touched tenant journal once before the batch draws any noise.  The
journal is the ledger's history: the snapshot is written only when a
tenant is created and when :meth:`Tenant.restore` replaces its ledgers at
runtime.
Both files reload on construction — a restarted service refuses requests a
crashed one could no longer afford.  A snapshot in any format but the
current one (charge rows with ``units`` and ``token``) refuses to load as
``corrupt-ledger`` and is left as it was.
"""

from __future__ import annotations

import os
import threading

from collections import OrderedDict
from typing import Callable
from urllib.parse import quote, unquote

from ..clustering.base import ClusteringFunction
from ..core.counts import ClusteredCounts
from ..dataset.table import Dataset
from ..obs.metrics import MetricsRegistry
from ..privacy.budget import (
    BudgetError,
    PrivacyAccountant,
    check_epsilon,
    epsilon_from_units,
)
from .journal import TenantLedgerStore, commit_scope

#: Joins a derived entry's id: ``base::spec-slug``.  Registered ids may not
#: contain it, so a server-side fit can never replace an entry an operator
#: registered.
DERIVED_SEPARATOR = "::"


def check_dataset_id(dataset_id: str) -> None:
    """Refuse an empty dataset id, or one holding :data:`DERIVED_SEPARATOR`."""
    if not dataset_id:
        raise ValueError("dataset id must be non-empty")
    if DERIVED_SEPARATOR in dataset_id:
        raise ValueError(
            f"dataset id {dataset_id!r} contains {DERIVED_SEPARATOR!r}, "
            "which names server-side fitted clusterings"
        )


class _BudgetMetrics:
    """Per-registry budget telemetry fed from the accountant observer hook.

    Called under the accountant's ledger lock (zero new locking on the
    charge path); exceptions are swallowed by the caller so telemetry can
    never veto — and therefore never roll back — an admitted charge.
    """

    def __init__(self, metrics: MetricsRegistry):
        labels = ("tenant", "dataset")
        self._charges = metrics.counter(
            "repro_budget_charges_total",
            "Admitted privacy charges per (tenant, dataset) ledger.",
            labels,
        )
        self._refunds = metrics.counter(
            "repro_budget_refunds_total",
            "Refunded (rolled-back) charges per (tenant, dataset) ledger.",
            labels,
        )
        self._spent = metrics.gauge(
            "repro_budget_spent_epsilon",
            "Epsilon spent so far on a (tenant, dataset) ledger.",
            labels,
        )
        self._remaining = metrics.gauge(
            "repro_budget_remaining_epsilon",
            "Epsilon left under the cap on a (tenant, dataset) ledger.",
            labels,
        )

    def __call__(self, tenant_id: str, dataset_id: str, event: dict) -> None:
        key = (tenant_id, dataset_id)
        op = event["record"]["op"]
        if op == "charge":
            self._charges.inc(1, key)
        elif op == "refund":
            self._refunds.inc(1, key)
        spent_units = event["spent_units"]
        self._spent.set(epsilon_from_units(spent_units), key)
        limit_units = event["limit_units"]
        if limit_units is not None:
            self._remaining.set(
                epsilon_from_units(limit_units - spent_units), key
            )


class ServiceError(Exception):
    """A request-level failure with an HTTP-style status code."""

    def __init__(self, code: int, reason: str, message: str):
        super().__init__(message)
        self.code = code
        self.reason = reason


class DatasetEntry:
    """One registered (dataset, clustering) pair plus its derived state.

    ``clustering=None`` registers a **labels-free** dataset: the raw data
    is admitted (it can be clustered server-side through ``/v1/pipeline``)
    but plain ``/v1/explain`` requests are refused until a clustering
    exists — ``counts`` and ``signature`` stay ``None``.

    ``base_id`` names the ledger this entry's charges land in.  It defaults
    to the entry's own id; *derived* entries — fitted server-side from a
    labels-free base through the pipeline route — set it to the base
    dataset's id, so clustering and explanation charges for one underlying
    dataset share one (tenant, dataset) ledger regardless of how many
    fitted variants exist.
    """

    def __init__(
        self,
        dataset_id: str,
        dataset: Dataset,
        clustering: "ClusteringFunction | object | None" = None,
        n_clusters: int | None = None,
        *,
        base_id: str | None = None,
        clustering_spec=None,
    ):
        self.dataset_id = dataset_id
        self.dataset = dataset
        self.base_id = base_id if base_id is not None else dataset_id
        self.clustering_spec = clustering_spec
        if clustering is None:
            self.counts = None
            self.signature = None
        else:
            self.counts = (
                clustering
                if isinstance(clustering, ClusteredCounts)
                else ClusteredCounts(dataset, clustering, n_clusters)
            )
            self.signature = self.counts.signature()
        self.fingerprint = dataset.fingerprint()

    @classmethod
    def from_shared(
        cls,
        dataset_id: str,
        dataset,
        counts,
        signature: "str | None",
    ) -> "DatasetEntry":
        """Build an entry over an already-materialised counts provider.

        The shard tier's registration path: a worker process attaches the
        parent's :class:`~repro.core.engine.shm.SharedStackHandle` as a
        zero-copy :class:`~repro.core.engine.shm.StackCounts` and registers
        it here without ever holding the rows.  ``dataset`` only needs the
        slice of the :class:`~repro.dataset.table.Dataset` surface the
        service reads — ``schema``, ``__len__`` and ``fingerprint()`` (the
        shard worker passes a lightweight descriptor rebuilt from the
        registration frame); ``signature`` is the *parent's*
        ``ClusteredCounts.signature()``, carried verbatim so cache keys —
        and therefore response bytes — match the in-process deployment
        exactly.
        """
        entry = cls.__new__(cls)
        entry.dataset_id = dataset_id
        entry.dataset = dataset
        entry.base_id = dataset_id
        entry.clustering_spec = None
        entry.counts = counts
        entry.signature = signature
        entry.fingerprint = dataset.fingerprint()
        return entry

    @property
    def is_derived(self) -> bool:
        return self.base_id != self.dataset_id

    def describe(self) -> dict:
        info = {
            "dataset": self.dataset_id,
            "rows": len(self.dataset),
            "attributes": list(self.dataset.schema.names),
            "n_clusters": self.counts.n_clusters if self.counts else None,
            "fingerprint": self.fingerprint,
            "signature": self.signature,
        }
        if self.is_derived:
            info["derived_from"] = self.base_id
        if self.clustering_spec is not None:
            info["clustering"] = self.clustering_spec.describe()
        return info


class Tenant:
    """One metered caller: a budget cap and per-dataset privacy ledgers.

    Each (tenant, dataset) pair gets its own
    :class:`~repro.privacy.budget.PrivacyAccountant` capped at
    ``budget_limit`` — the accountant's internal lock makes the cap check
    and the charge one atomic step, so concurrent service workers charging
    the same ledger can never jointly overspend it.

    The journal store and the telemetry sink (``sink(tenant_id,
    dataset_id, event)``) are fixed at construction and wired into every
    ledger's mutation hook as the ledger is created.  The hook appends one
    record to the tenant's journal *under the ledger lock*, then feeds the
    sink — durability first, telemetry second — and the journal's commit
    scope is the accountant's commit group: a lone ``spend()`` fsyncs its
    record before returning, a scope (``spend_many``, a service batch)
    fsyncs once at exit — before any noise is drawn either way.
    """

    def __init__(
        self,
        tenant_id: str,
        budget_limit: float,
        *,
        store: "TenantLedgerStore | None" = None,
        sink: "Callable[[str, str, dict], None] | None" = None,
    ):
        if not tenant_id:
            raise ValueError("tenant id must be non-empty")
        self.tenant_id = tenant_id
        self.budget_limit = check_epsilon(budget_limit, name="budget_limit")
        self._lock = threading.Lock()
        self._accountants: dict[str, PrivacyAccountant] = {}
        self._store = store
        self._sink = sink

    def _new_accountant(self, dataset_id: str) -> PrivacyAccountant:
        """A ledger capped at ``budget_limit``, wired to the store and sink."""
        acc = PrivacyAccountant(limit=self.budget_limit)
        store, sink, tenant_id = self._store, self._sink, self.tenant_id
        if store is None and sink is None:
            return acc

        def observer(event: dict) -> None:
            if store is not None:
                # Journal first: a failed append must roll the charge back
                # (the accountant's _append contract), untouched by metrics.
                store.record(dataset_id, event["record"])
            if sink is not None:
                try:
                    sink(tenant_id, dataset_id, event)
                except Exception:
                    pass  # telemetry must never undo a durable charge

        acc.set_observer(observer, commit_scope if store is not None else None)
        return acc

    def accountant(self, dataset_id: str) -> PrivacyAccountant:
        """The (lazily created) ledger for one dataset id."""
        with self._lock:
            acc = self._accountants.get(dataset_id)
            if acc is None:
                acc = self._accountants[dataset_id] = self._new_accountant(
                    dataset_id
                )
            return acc

    def snapshot(self) -> dict:
        """JSON-able state: the persistence format of the tenant's ledgers."""
        with self._lock:
            ledgers = {d: a.snapshot() for d, a in sorted(self._accountants.items())}
        return {
            "tenant": self.tenant_id,
            "budget_limit": self.budget_limit,
            "ledgers": ledgers,
        }

    def load(
        self, state: dict, journal: "dict[str, list[dict]] | None" = None
    ) -> None:
        """Replace the ledgers with a :meth:`snapshot` plus ``journal``, each
        dataset's journal records above the snapshot's fence (reload path).

        Nothing is written: this is the state the store already holds.
        Every ledger is replayed into an accountant capped at the
        *tenant's own* ``budget_limit`` — the snapshot's top-level
        ``budget_limit`` and any per-dataset ``limit`` fields are never
        read, so loading a snapshot can never widen an *existing*
        tenant's cap (the same defense as
        ``PrivateAnalysisSession.restore_ledger``).  A snapshot whose
        charges exceed this tenant's cap raises
        :class:`~repro.privacy.budget.BudgetError` and leaves the tenant
        unchanged.  ``self.budget_limit`` is never modified here.

        Scope of the guarantee: on the service-restart path there is no
        pre-existing tenant, so ``_load_ledgers`` necessarily takes the cap
        from the ledger file itself when constructing the :class:`Tenant` —
        the ledger directory is the system of record for caps across
        restarts and must live on trusted storage (see ``_load_ledgers``).
        """
        ledgers = state.get("ledgers", {})
        journal = journal or {}
        accountants = {}
        for dataset_id in dict.fromkeys([*ledgers, *journal]):
            acc = accountants[dataset_id] = self._new_accountant(dataset_id)
            acc.restore(ledgers.get(dataset_id, {}), journal.get(dataset_id, ()))
        with self._lock:
            self._accountants = accountants

    def restore(self, state: dict) -> None:
        """Replace the ledgers with a :meth:`snapshot` at runtime.

        As :meth:`load`, and then the store (if any) is rebased on the
        restored state: its journal described the *replaced* ledgers.
        Restore is an admin step, not concurrent with charging.
        """
        self.load(state)
        if self._store is not None:
            self._store.rebase(self.snapshot())

    def describe(self) -> dict:
        with self._lock:
            accountants = dict(self._accountants)
        ledgers = {}
        for d, a in sorted(accountants.items()):
            # One locked read per ledger: spent + remaining move together,
            # so concurrent charges can never make them disagree with the
            # cap (spent + remaining == limit, exactly, in grid units).
            b = a.balance()
            ledgers[d] = {"spent": b.spent, "remaining": b.remaining}
        return {
            "tenant": self.tenant_id,
            "budget_limit": self.budget_limit,
            "ledgers": ledgers,
        }


class ServiceRegistry:
    """Datasets + tenants + ledger persistence for one service instance.

    Persistence is O(1) bytes per charge (one journal record), not
    O(ledger), for the life of the ledger.

    ``tenant_filter`` scopes this registry to a *partition* of the tenants
    sharing ``ledger_dir``: reload skips tenants the predicate rejects, so
    N shard workers can point at one directory while each replays (and
    therefore owns — the routing layer never sends a tenant's requests to
    two workers) only its own tenants' ledger files.  No cross-process
    locking is needed because ownership is exclusive by partition.

    Derived entries (pipeline fits) are the service's only store of
    server-side fits.  At most ``derived_limit`` of them stay registered:
    admitting one more drops the least recently used, and a
    :meth:`derived` hit counts as a use.
    :class:`~repro.service.service.ExplanationService` sets the limit to
    its ``fitted_entries``.  A dropped fit costs at worst a byte-identical
    re-fit that re-charges: an overcount, never a leak.
    """

    def __init__(
        self,
        ledger_dir: "str | os.PathLike | None" = None,
        *,
        tenant_filter: "Callable[[str], bool] | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._lock = threading.Lock()
        # Insertion order, with each derived entry moved to the end when it
        # is used: the first derived entry is the least recently used.
        self._datasets: "OrderedDict[str, DatasetEntry]" = OrderedDict()
        self.derived_limit = 64
        self._tenants: dict[str, Tenant] = {}
        self._stores: dict[str, TenantLedgerStore] = {}
        self.tenant_filter = tenant_filter
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._budget_metrics = _BudgetMetrics(self.metrics)
        self.ledger_dir = os.fspath(ledger_dir) if ledger_dir is not None else None
        if self.ledger_dir is not None:
            os.makedirs(self.ledger_dir, exist_ok=True)
            self._load_ledgers()

    # -- datasets -------------------------------------------------------- #

    def register_dataset(
        self,
        dataset_id: str,
        dataset: Dataset,
        clustering: "ClusteringFunction | object | None" = None,
        n_clusters: int | None = None,
    ) -> DatasetEntry:
        """Register (or replace) a dataset id; returns the new entry.

        ``clustering=None`` registers the dataset labels-free (pipeline
        requests fit a clustering server-side).  Replacing an id (schema
        change, rebinned domains, new clustering) yields fresh
        fingerprints, so previously cached releases become unreachable;
        :class:`~repro.service.service.ExplanationService` additionally
        evicts them along with the id's derived fitted entries.
        """
        check_dataset_id(dataset_id)
        entry = DatasetEntry(dataset_id, dataset, clustering, n_clusters)
        self.add_entry(entry)
        return entry

    def add_entry(self, entry: DatasetEntry) -> "DatasetEntry | None":
        """Register (or replace) a pre-built entry under its own id.

        Returns the entry it replaced, or ``None``, read in the same locked
        step as the replacement.  Besides :meth:`register_dataset`, the
        shard-worker path calls this with an entry assembled from a
        shared-memory registration frame
        (:func:`repro.service.shard.entry_from_frame`).  An id holding
        :data:`DERIVED_SEPARATOR` is refused: only
        :meth:`add_entry_if_current` admits those.
        """
        check_dataset_id(entry.dataset_id)
        with self._lock:
            old = self._datasets.get(entry.dataset_id)
            self._datasets[entry.dataset_id] = entry
        return old

    def add_entry_if_current(
        self, entry: DatasetEntry, base: DatasetEntry
    ) -> bool:
        """Atomically admit a derived entry iff ``base`` is still registered.

        The pipeline fits outside the registry lock; by the time the fit
        finishes, the base dataset id may have been re-registered with
        different data.  Admitting the derived entry only while its exact
        base object is still current (one atomic check-and-insert under the
        registry lock, the same lock ``register_dataset`` mutates under)
        ensures a stale fit can never be registered over a replaced base.
        Admitting past ``derived_limit`` drops the least recently used
        derived entries.
        """
        if not entry.dataset_id:
            raise ValueError("dataset id must be non-empty")
        with self._lock:
            if self._datasets.get(base.dataset_id) is not base:
                return False
            self._datasets[entry.dataset_id] = entry
            self._datasets.move_to_end(entry.dataset_id)
            derived = [k for k, e in self._datasets.items() if e.is_derived]
            for k in derived[: max(0, len(derived) - self.derived_limit)]:
                del self._datasets[k]
            return True

    def derived(self, dataset_id: str, base: DatasetEntry) -> "DatasetEntry | None":
        """The entry fitted as ``dataset_id`` over ``base``'s data, or None.

        A hit needs the same dataset fingerprint and ``base_id`` as
        ``base``, and marks the entry most recently used.
        """
        with self._lock:
            entry = self._datasets.get(dataset_id)
            if (
                entry is None
                or entry.fingerprint != base.fingerprint
                or entry.base_id != base.base_id
            ):
                return None
            self._datasets.move_to_end(dataset_id)
            return entry

    def drop_derived(self, base_id: str) -> "list[DatasetEntry]":
        """Remove every derived entry fitted from ``base_id``; return them.

        Called when the base dataset id is re-registered with different
        data or clustering: the derived entries reference the replaced
        :class:`~repro.dataset.table.Dataset` object and must not keep
        serving it.
        """
        with self._lock:
            stale = [
                e
                for e in self._datasets.values()
                if e.is_derived and e.base_id == base_id
            ]
            for e in stale:
                del self._datasets[e.dataset_id]
            return stale

    def dataset(self, dataset_id: str) -> DatasetEntry:
        with self._lock:
            entry = self._datasets.get(dataset_id)
        if entry is None:
            raise ServiceError(
                404, "unknown-dataset", f"no dataset registered as {dataset_id!r}"
            )
        return entry

    def datasets(self) -> tuple[DatasetEntry, ...]:
        with self._lock:
            return tuple(self._datasets.values())

    # -- tenants --------------------------------------------------------- #

    def create_tenant(self, tenant_id: str, budget_limit: float) -> Tenant:
        with self._lock:
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} already exists")
            return self._publish_locked(tenant_id, budget_limit)

    def tenant(
        self, tenant_id: str, auto_budget: float | None = None
    ) -> Tenant:
        """Look a tenant up; auto-provision at ``auto_budget`` if given."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                if auto_budget is None:
                    raise ServiceError(
                        404, "unknown-tenant", f"no tenant named {tenant_id!r}"
                    )
                tenant = self._publish_locked(tenant_id, auto_budget)
            return tenant

    def _publish_locked(
        self,
        tenant_id: str,
        budget_limit: float,
        store: "TenantLedgerStore | None" = None,
        state: "dict | None" = None,
        journal: "dict[str, list[dict]] | None" = None,
    ) -> Tenant:
        """Wire a tenant to its journal store and telemetry sink, then
        publish it — the one step every tenant goes through.

        A reloaded tenant arrives with what :meth:`TenantLedgerStore.open`
        returned, and its ledgers are loaded as found.  A new tenant
        (``state is None``) gets a fresh store when persisting, and its
        initial snapshot (tenant id + cap, empty ledgers) is written and
        fsync'd before it is published, so the tenant's existence and its
        cap are durable before any charge can reference them; from then on
        every charge is one O(1) journal record.
        """
        if state is None and self.ledger_dir is not None:
            store = TenantLedgerStore(
                self._ledger_base(tenant_id), metrics=self.metrics
            )
        tenant = Tenant(
            tenant_id, budget_limit, store=store, sink=self._budget_metrics
        )
        if state is not None:
            tenant.load(state, journal)
        elif store is not None:
            store.rebase(tenant.snapshot())
        self._tenants[tenant_id] = tenant
        if store is not None:
            self._stores[tenant_id] = store
        return tenant

    def tenants(self) -> tuple[Tenant, ...]:
        with self._lock:
            return tuple(self._tenants.values())

    # -- persistence ----------------------------------------------------- #

    def _ledger_base(self, tenant_id: str) -> str:
        # Tenant ids become file names via percent-encoding — a *bijective*
        # mapping, so two distinct ids ('team a' vs 'team_a') can never
        # collide on one file and silently clobber each other's persisted
        # privacy spend.  The store appends ``.json`` (snapshot) and
        # ``.journal`` (tail) to this base.
        return os.path.join(self.ledger_dir, quote(tenant_id, safe=""))

    def close(self) -> None:
        """Close every tenant journal's append handle.

        Each store reopens its journal on the next record, so a service
        that is stopped and started again still journals every charge.
        """
        with self._lock:
            stores = list(self._stores.values())
        for store in stores:
            store.close()

    def journal_tails(self) -> "dict[str, int]":
        """Per-tenant journal records since each snapshot (creation or
        restore) — the deep-health cheap read."""
        with self._lock:
            stores = dict(self._stores)
        return {
            tenant_id: store.tail_records
            for tenant_id, store in sorted(stores.items())
        }

    def _load_ledgers(self) -> None:
        """Reload every persisted tenant ledger (service restart path).

        Crash recovery is snapshot + journal replay via
        :meth:`TenantLedgerStore.open`; a snapshot in an older format
        (float charges without units or tokens, no ``format`` field)
        refuses as ``corrupt-ledger`` and is not rewritten.  The tenant's
        cap is taken from the snapshot's top-level ``budget_limit`` — after a
        restart the ledger directory is the only record of what each
        tenant was provisioned with, so it is trusted by construction.
        Anyone who can edit these files can rewrite caps and charges
        alike; keep ``ledger_dir`` on storage with the same integrity
        protections as the service itself.  (What the loader *does* defend
        against: per-dataset ``limit`` fields disagreeing with the tenant
        cap — :meth:`Tenant.load` ignores them — charge replays
        exceeding the declared cap, torn journal tails from a crash
        mid-append, and truly corrupt files, which refuse to load.)
        """
        for name in sorted(os.listdir(self.ledger_dir)):
            if not name.endswith(TenantLedgerStore.SNAPSHOT_SUFFIX):
                continue  # *.journal tails, *.tmp partials from a crash, etc.
            if self.tenant_filter is not None:
                tenant_id = unquote(name[: -len(TenantLedgerStore.SNAPSHOT_SUFFIX)])
                if not self.tenant_filter(tenant_id):
                    continue  # another shard worker's tenant — not ours
            path = os.path.join(self.ledger_dir, name)
            base = path[: -len(TenantLedgerStore.SNAPSHOT_SUFFIX)]
            try:
                store, state, journal = TenantLedgerStore.open(
                    base, metrics=self.metrics
                )
                with self._lock:
                    self._publish_locked(
                        str(state["tenant"]),
                        float(state["budget_limit"]),
                        store,
                        state,
                        journal,
                    )
            except (OSError, ValueError, KeyError, TypeError, BudgetError) as exc:
                # LedgerStoreError is a ValueError: corrupt snapshots and
                # corrupt journal interiors both land here, as do fields of
                # the wrong type (a null token).
                raise ServiceError(
                    500,
                    "corrupt-ledger",
                    f"cannot reload tenant ledger {path!r}: {exc}",
                ) from exc
