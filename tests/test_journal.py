"""Tests for the append-only ledger journal (PR 5 tentpole, durability half).

The contract under test: persistence is **one O(1) record per
charge/refund** (no full-snapshot rewrite per request), fsync'd on its own
or once per touched journal by a commit scope, so every charge is durable
before the first draw; crash replay = snapshot + the journal records above
its ``journal_seq`` fence, replay above the fence is idempotent (a charge
already in the snapshot re-applies as a no-op), the snapshot is rewritten
only by a rebase (tenant creation, runtime restore), and older
snapshot-only directories refuse to load.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from helpers import CodeModuloClustering, make_dataset

from repro.baselines.dp_naive import DPNaive
from repro.core.counts import ClusteredCounts
from repro.obs.metrics import snapshot_series
from repro.privacy import budget
from repro.privacy.budget import BudgetError, PrivacyAccountant
from repro.service.journal import (
    LedgerStoreError,
    TenantLedgerStore,
    commit_scope,
)
from repro.service.registry import ServiceError, ServiceRegistry, Tenant


def make_tenant(tmp_path, tenant_id="t", cap=10.0):
    """A journal-backed tenant plus its store, as the registry wires them."""
    store = TenantLedgerStore(str(tmp_path / tenant_id))
    tenant = Tenant(tenant_id, cap, store=store)
    store.rebase(tenant.snapshot())
    return tenant, store


def reload_state(tmp_path, tenant_id="t", cap=10.0):
    """Crash-recover the tenant from disk alone (snapshot + tail replay)."""
    _, state, journal = TenantLedgerStore.open(str(tmp_path / tenant_id))
    tenant = Tenant(str(state["tenant"]), float(state["budget_limit"]))
    tenant.load(state, journal)
    return tenant


def ledger_units(tenant: Tenant, dataset_id: str) -> int:
    return tenant.accountant(dataset_id).total_units()


class TestRecordPerMutation:
    def test_each_charge_appends_one_record(self, tmp_path):
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        for i in range(5):
            acc.spend(0.1, f"c{i}")
        lines = (tmp_path / "t.journal").read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(ln)["op"] == "charge" for ln in lines)

    def test_snapshot_file_not_rewritten_per_charge(self, tmp_path):
        """The O(1)-bytes-per-request contract: charging must not touch the
        snapshot file at all (only the journal grows)."""
        tenant, store = make_tenant(tmp_path)
        before = (tmp_path / "t.json").read_bytes()
        acc = tenant.accountant("d")
        for i in range(20):
            acc.spend(0.1, f"c{i}")
        assert (tmp_path / "t.json").read_bytes() == before

    def test_refund_appends_a_refund_record(self, tmp_path):
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        token = acc.spend(0.5, "reserved")
        acc.refund(token)
        ops = [
            json.loads(ln)["op"]
            for ln in (tmp_path / "t.journal").read_text().splitlines()
        ]
        assert ops == ["charge", "refund"]
        assert reload_state(tmp_path).accountant("d").total_units() == 0

    def test_reload_replays_charges_and_refunds(self, tmp_path):
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        acc.spend(0.3, "kept")
        token = acc.spend(0.4, "rolled back")
        acc.refund(token)
        acc.spend(0.2, "kept too")
        reloaded = reload_state(tmp_path)
        assert reloaded.accountant("d").total_units() == ledger_units(tenant, "d")
        labels = [c.label for c in reloaded.accountant("d")]
        assert labels == ["kept", "kept too"]

    def test_multiple_datasets_share_one_journal(self, tmp_path):
        tenant, store = make_tenant(tmp_path)
        tenant.accountant("a").spend(0.1, "on a")
        tenant.accountant("b").spend(0.2, "on b")
        reloaded = reload_state(tmp_path)
        assert reloaded.accountant("a").total_units() == 100_000_000
        assert reloaded.accountant("b").total_units() == 200_000_000


class TestCrashReplayIdentity:
    def test_truncation_at_every_record_boundary_matches_memory(self, tmp_path):
        """Crash injection: cutting the journal after record i must replay to
        exactly the in-memory ledger as of mutation i — for every i."""
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        expected: "list[dict]" = []  # accountant snapshot after each mutation
        tokens = {}
        script = [
            ("spend", 0.3, "a"),
            ("spend", 0.1, "b"),
            ("refund", None, "a"),
            ("spend", 0.25, "c"),
            ("refund", None, "b"),
            ("spend", 0.5, "d"),
        ]
        for op, eps, label in script:
            if op == "spend":
                tokens[label] = acc.spend(eps, label)
            else:
                acc.refund(tokens[label])
            expected.append(acc.snapshot())

        journal = (tmp_path / "t.journal").read_text().splitlines(keepends=True)
        assert len(journal) == len(script)
        for i in range(len(script)):
            crash_dir = tmp_path / f"crash{i}"
            crash_dir.mkdir()
            (crash_dir / "t.json").write_bytes((tmp_path / "t.json").read_bytes())
            (crash_dir / "t.journal").write_text("".join(journal[: i + 1]))
            replayed = reload_state(crash_dir).accountant("d")
            want = PrivacyAccountant.from_snapshot(
                {**expected[i], "limit": 10.0}
            )
            assert replayed.total_units() == want.total_units()
            assert [
                (c.label, c.units, c.composition) for c in replayed
            ] == [(c.label, c.units, c.composition) for c in want]

    def test_torn_final_line_is_dropped_and_repaired(self, tmp_path):
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        acc.spend(0.3, "committed")
        path = tmp_path / "t.journal"
        with open(path, "a") as fh:
            fh.write('{"seq": 99, "dataset": "d", "op": "ch')  # torn write
        reloaded = reload_state(tmp_path)
        assert reloaded.accountant("d").total_units() == 300_000_000
        # The half-line is rewritten away so later appends cannot glue to it.
        repaired = path.read_text()
        assert '"seq": 99' not in repaired
        assert all(json.loads(ln) for ln in repaired.splitlines())

    def test_corrupt_interior_line_refuses_to_load(self, tmp_path):
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        acc.spend(0.3, "a")
        acc.spend(0.2, "b")
        path = tmp_path / "t.journal"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("GARBAGE\n" + lines[1])
        with pytest.raises(LedgerStoreError, match="corrupt"):
            TenantLedgerStore.open(str(tmp_path / "t"))

    def test_journal_without_snapshot_refuses_to_load(self, tmp_path):
        (tmp_path / "ghost.journal").write_text("")
        with pytest.raises(LedgerStoreError, match="snapshot"):
            TenantLedgerStore.open(str(tmp_path / "ghost"))


class CountingFsync:
    """Counts ``os.fsync`` calls; raises on the calls listed in ``fail``."""

    def __init__(self, monkeypatch, fail=()):
        self.calls = 0
        self.fail = set(fail)
        self._real = os.fsync
        monkeypatch.setattr(os, "fsync", self)

    def __call__(self, fd):
        self.calls += 1
        if self.calls in self.fail:
            raise OSError("fsync failed")
        self._real(fd)


def journal_lines(path) -> "list[str]":
    return path.read_text().splitlines(keepends=True)


class TestGroupCommit:
    def test_scope_fsyncs_once_per_touched_tenant(self, tmp_path, monkeypatch):
        a, _ = make_tenant(tmp_path, "a")
        b, _ = make_tenant(tmp_path, "b")
        fsync = CountingFsync(monkeypatch)
        with commit_scope():
            for i in range(4):
                a.accountant("d").spend(0.1, f"a{i}")
                b.accountant("d").spend(0.1, f"b{i}")
            assert fsync.calls == 0  # written and flushed, not yet synced
            assert len(journal_lines(tmp_path / "a.journal")) == 4
        assert fsync.calls == 2
        assert reload_state(tmp_path, "a").accountant("d").total_units() == (
            4 * 100_000_000
        )

    def test_outside_a_scope_each_record_fsyncs(self, tmp_path, monkeypatch):
        tenant, _ = make_tenant(tmp_path)
        fsync = CountingFsync(monkeypatch)
        for i in range(3):
            tenant.accountant("d").spend(0.1, f"c{i}")
        assert fsync.calls == 3

    def test_nested_scope_joins_the_outer_commit(self, tmp_path, monkeypatch):
        tenant, _ = make_tenant(tmp_path)
        fsync = CountingFsync(monkeypatch)
        with commit_scope():
            tenant.accountant("d").spend_many([(0.1, "x"), (0.2, "y")])
            assert fsync.calls == 0
            tenant.accountant("d").spend(0.1, "z")
        assert fsync.calls == 1

    def test_failed_commit_raises_out_of_the_scope(self, tmp_path, monkeypatch):
        tenant, _ = make_tenant(tmp_path)
        CountingFsync(monkeypatch, fail={1})
        with pytest.raises(OSError):
            with commit_scope():
                tenant.accountant("d").spend(0.1, "unsynced")

    def test_span_observed_once_per_commit(self, tmp_path):
        registry = ServiceRegistry(ledger_dir=tmp_path)
        tenant = registry.create_tenant("t", 10.0)

        def fsync_spans() -> int:
            series = snapshot_series(
                registry.metrics.snapshot(), "repro_span_duration_seconds"
            )
            cell = series.get(("journal-fsync",))
            return cell["count"] if cell else 0

        before = fsync_spans()
        with commit_scope():
            for i in range(5):
                tenant.accountant("d").spend(0.1, f"c{i}")
        assert fsync_spans() - before == 1
        tenant.accountant("d").spend(0.1, "lone")
        assert fsync_spans() - before == 2


class TestGroupCrashReplay:
    def test_cut_inside_a_two_tenant_group_replays_a_prefix(self, tmp_path):
        """Crash injection inside a group commit: cut each tenant journal at
        every record boundary of the group (and once mid-line).  Each cut
        must replay to none or a prefix of that tenant's group charges, and
        never past the cap."""
        caps = {"a": 1.0, "b": 0.6}
        tenants = {t: make_tenant(tmp_path, t, cap=c)[0] for t, c in caps.items()}
        tenants["a"].accountant("d").spend(0.2, "before")
        tenants["b"].accountant("d").spend(0.1, "before")
        before = {t: len(journal_lines(tmp_path / f"{t}.journal")) for t in caps}
        group = {"a": [0.3, 0.1, 0.4], "b": [0.2, 0.3]}  # fills both caps
        with commit_scope():
            for i in range(3):
                for t, eps in group.items():
                    if i < len(eps):
                        tenants[t].accountant("d").spend(eps[i], f"g{i}")
        full = {t: journal_lines(tmp_path / f"{t}.journal") for t in caps}
        cuts = {
            t: [
                "".join(full[t][:n])
                for n in range(before[t], len(full[t]) + 1)
            ] + ["".join(full[t][:before[t] + 1])[:-7]]  # torn mid-line
            for t in caps
        }
        for i, (cut_a, cut_b) in enumerate(
            (x, y) for x in cuts["a"] for y in cuts["b"]
        ):
            crash_dir = tmp_path / f"crash{i}"
            crash_dir.mkdir()
            for t, cut in (("a", cut_a), ("b", cut_b)):
                (crash_dir / f"{t}.json").write_bytes(
                    (tmp_path / f"{t}.json").read_bytes()
                )
                (crash_dir / f"{t}.journal").write_text(cut)
                acc = reload_state(crash_dir, t).accountant("d")
                labels = [c.label for c in acc]
                assert labels[0] == "before"
                replayed = labels[1:]
                assert replayed == [f"g{k}" for k in range(len(replayed))]
                assert acc.total_units() <= round(caps[t] * 1e9)


class TestSpendMany:
    def test_records_share_one_fsync(self, tmp_path, monkeypatch):
        tenant, _ = make_tenant(tmp_path)
        fsync = CountingFsync(monkeypatch)
        tokens = tenant.accountant("d").spend_many(
            [(0.1, "seq"), ([0.2, 0.3], "par"), (0.1, "seq2")]
        )
        assert fsync.calls == 1
        assert len(tokens) == 3
        acc = reload_state(tmp_path).accountant("d")
        assert [(c.label, c.composition, c.units) for c in acc] == [
            ("seq", "sequential", 100_000_000),
            ("par", "parallel-group", 300_000_000),
            ("seq2", "sequential", 100_000_000),
        ]

    def test_refusal_leaves_ledger_journal_and_generator_untouched(
        self, tmp_path
    ):
        counts = ClusteredCounts(make_dataset(), CodeModuloClustering("color", 2))
        tenant, _ = make_tenant(tmp_path, cap=1.0)
        acc = tenant.accountant("d")
        acc.spend(0.5, "earlier")
        journal_before = (tmp_path / "t.journal").read_bytes()
        snapshot_before = acc.snapshot()
        gen = np.random.default_rng(7)
        state_before = gen.bit_generator.state
        with pytest.raises(BudgetError):
            DPNaive(epsilon=0.6).release_noisy_counts(counts, gen, acc)
        assert gen.bit_generator.state == state_before
        assert acc.snapshot() == snapshot_before
        assert (tmp_path / "t.journal").read_bytes() == journal_before

    def test_refusal_is_one_integer_check_on_the_sum(self):
        acc = PrivacyAccountant(limit=0.3)
        with pytest.raises(BudgetError):
            acc.spend_many([(0.1, "a"), ([0.1, 0.15], "b"), (0.06, "c")])
        assert acc.charges() == ()
        # The sum fills the cap to the last unit: admitted in full.
        acc.spend_many([(0.1, "a"), ([0.1, 0.15], "b"), (0.05, "c")])
        assert acc.total_units() == 300_000_000
        with pytest.raises(BudgetError):
            acc.spend_many([(1e-9, "one unit past")])

    def test_failed_commit_refunds_every_item(self, tmp_path, monkeypatch):
        tenant, _ = make_tenant(tmp_path, cap=1.0)
        acc = tenant.accountant("d")
        acc.spend(0.2, "earlier")
        CountingFsync(monkeypatch, fail={1})  # the group's commit
        with pytest.raises(OSError):
            acc.spend_many([(0.3, "x"), ([0.1, 0.2], "y")])
        assert [c.label for c in acc] == ["earlier"]
        assert reload_state(tmp_path, cap=1.0).accountant("d").total_units() == (
            200_000_000
        )

    def test_concurrent_calls_never_overspend_the_cap(self, tmp_path):
        tenant, _ = make_tenant(tmp_path, cap=2.0)
        acc = tenant.accountant("d")
        admitted = []
        barrier = threading.Barrier(8)

        def worker(w: int) -> None:
            barrier.wait()
            for i in range(6):
                try:
                    acc.spend_many([(0.05, f"w{w}.{i}a"), ([0.05, 0.02], "b")])
                    admitted.append(w)
                except BudgetError:
                    pass

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(admitted) == 20  # 2.0 / (0.05 + 0.05), exactly
        assert acc.total_units() == 2_000_000_000
        replayed = reload_state(tmp_path, cap=2.0).accountant("d")
        assert replayed.total_units() == acc.total_units()


class TestCompaction:
    """Snapshot rewrites: the two rebase points, and the crash between a
    rebase's snapshot write and its journal rewrite."""

    def test_indented_snapshot_still_replays(self, tmp_path):
        """Snapshots used to be written indented; they must replay to the
        same ledger as the compact one-line form."""
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        for i in range(3):
            acc.spend(0.1, f"c{i}")
        store.rebase(tenant.snapshot())
        acc.spend(0.2, "tail")
        path = tmp_path / "t.json"
        compact_text = path.read_text()
        assert "\n " not in compact_text  # one line, compact separators
        compact = reload_state(tmp_path).accountant("d").snapshot()
        path.write_text(json.dumps(json.loads(compact_text), indent=2) + "\n")
        assert reload_state(tmp_path).accountant("d").snapshot() == compact

    def test_crash_between_snapshot_and_journal_rewrite_is_idempotent(
        self, tmp_path
    ):
        """The mid-rebase crash: the new snapshot already contains the
        journal's records, but the old journal survives.  Replaying the
        stale journal over the fresh snapshot must not double-count a
        single charge."""
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        acc.spend(0.3, "a")
        token = acc.spend(0.1, "b")
        acc.refund(token)
        stale_journal = (tmp_path / "t.journal").read_bytes()
        store.rebase(tenant.snapshot())
        # Simulated crash: the journal rewrite never happened.
        (tmp_path / "t.journal").write_bytes(stale_journal)
        reloaded = reload_state(tmp_path)
        assert reloaded.accountant("d").total_units() == 300_000_000
        assert [c.label for c in reloaded.accountant("d")] == ["a"]

    def test_refund_after_compaction_finds_the_folded_charge(self, tmp_path):
        """A refund journaled after a rebase removes a charge that now
        lives only in the snapshot."""
        tenant, store = make_tenant(tmp_path)
        acc = tenant.accountant("d")
        token = acc.spend(0.4, "folded")
        store.rebase(tenant.snapshot())
        acc.refund(token)  # the refund record lands in a fresh journal
        reloaded = reload_state(tmp_path)
        assert reloaded.accountant("d").total_units() == 0


class TestObserverFailureAtomicity:
    def test_failed_journal_write_rolls_back_the_charge(self, tmp_path):
        """A charge that cannot be made durable must not stand in memory:
        spend() raises, the ledger is unchanged, and the room is re-usable
        once the disk recovers."""
        acc = PrivacyAccountant(limit=1.0)
        kept = acc.spend(0.4, "kept")
        boom = {"on": True}

        def flaky_observer(event):
            if boom["on"]:
                raise OSError("disk full")

        acc.set_observer(flaky_observer)
        with pytest.raises(OSError):
            acc.spend(0.5, "never durable")
        assert acc.total_units() == 400_000_000
        assert [c.label for c in acc] == ["kept"]
        boom["on"] = False
        # The room was really rolled back; the failed charge's token stays
        # retired, so the next charge gets the one after it.
        assert acc.spend(0.5, "durable now") == kept + 2
        assert acc.total_units() == 900_000_000
        assert [r["token"] for r in acc.snapshot()["charges"]] == [kept, kept + 2]

    def test_failed_refund_record_keeps_the_charge(self):
        """The mirror direction: a refund whose record cannot be written is
        not applied — the spend stays on the books (overcount, the safe
        privacy direction) and memory never diverges from disk."""
        acc = PrivacyAccountant(limit=1.0)
        events = []
        acc.set_observer(lambda e: events.append(e))
        token = acc.spend(0.4, "reserved")
        acc.set_observer(lambda e: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(OSError):
            acc.refund(token)
        assert acc.total_units() == 400_000_000
        acc.set_observer(None)
        acc.refund(token)  # recovers once the sink does
        assert acc.total_units() == 0

    def test_failed_middle_refund_keeps_token_order(self):
        acc = PrivacyAccountant(limit=1.0)
        first = acc.spend(0.1, "first")
        middle = acc.spend(0.4, "middle")
        last = acc.spend(0.1, "last")
        acc.set_observer(lambda e: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(OSError):
            acc.refund(middle)
        assert [c.label for c in acc.charges()] == ["first", "middle", "last"]
        acc.set_observer(None)
        acc.refund(middle)
        assert [c.label for c in acc.charges()] == ["first", "last"]
        assert [r["token"] for r in acc.snapshot()["charges"]] == [first, last]


class TestOlderFormatsRefuse:
    """One persisted format: every snapshot carries ``"format": 2`` and every
    charge row its ``units`` and ``token``.  Anything else refuses to load
    as 500 ``corrupt-ledger``, and the files stay byte-for-byte as found."""

    def _refuses_untouched(self, tmp_path):
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ServiceError) as exc:
            ServiceRegistry(ledger_dir=tmp_path)
        assert (exc.value.code, exc.value.reason) == (500, "corrupt-ledger")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def _current_dir(self, tmp_path, drop, null=False):
        """A directory the current code wrote, with field ``drop`` removed
        from one snapshot row (or set to null)."""
        registry = ServiceRegistry(ledger_dir=tmp_path)
        tenant = registry.create_tenant("old", 1.0)
        tenant.accountant("d").spend(0.1, "a")
        tenant.accountant("d").spend(0.2, "b")
        tenant.restore(tenant.snapshot())  # rebase: the rows move to the snapshot
        path = tmp_path / "old.json"
        state = json.loads(path.read_text())
        row = state["ledgers"]["d"]["charges"][1]
        if null:
            row[drop] = None
        else:
            del row[drop]
        path.write_text(json.dumps(state))

    def _journal_dir(self, tmp_path, drop, null=False):
        """A directory the current code wrote, with field ``drop`` removed
        from one journal record (or set to null)."""
        registry = ServiceRegistry(ledger_dir=tmp_path)
        tenant = registry.create_tenant("old", 1.0)
        tenant.accountant("d").spend(0.1, "a")
        tenant.accountant("d").spend(0.2, "b")
        path = tmp_path / "old.journal"
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        if null:
            records[1][drop] = None
        else:
            del records[1][drop]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))

    def test_float_only_dir_refuses_and_stays_unchanged(self, tmp_path):
        """An old ledger dir: one JSON snapshot, no format, float epsilons,
        no units, no tokens, no journal."""
        legacy = {
            "tenant": "old",
            "budget_limit": 0.5,
            "ledgers": {
                "d": {
                    "limit": 0.5,
                    "charges": [
                        {"label": "a", "epsilon": 0.1,
                         "composition": "sequential"},
                        {"label": "b", "epsilon": 0.2,
                         "composition": "parallel-group"},
                    ],
                }
            },
        }
        (tmp_path / "old.json").write_text(json.dumps(legacy))
        self._refuses_untouched(tmp_path)
        assert not (tmp_path / "old.journal").exists()

    def test_row_without_token_refuses(self, tmp_path):
        self._current_dir(tmp_path, "token")
        self._refuses_untouched(tmp_path)

    def test_row_without_units_refuses(self, tmp_path):
        self._current_dir(tmp_path, "units")
        self._refuses_untouched(tmp_path)

    def test_null_token_refuses(self, tmp_path):
        self._current_dir(tmp_path, "token", null=True)
        self._refuses_untouched(tmp_path)

    def test_journal_record_without_units_refuses(self, tmp_path):
        self._journal_dir(tmp_path, "units")
        self._refuses_untouched(tmp_path)

    def test_journal_record_without_token_refuses(self, tmp_path):
        self._journal_dir(tmp_path, "token")
        self._refuses_untouched(tmp_path)

    def test_journal_record_null_token_refuses(self, tmp_path):
        self._journal_dir(tmp_path, "token", null=True)
        self._refuses_untouched(tmp_path)

    def test_compacted_dir_with_tail_reloads_identically(self, tmp_path):
        """A directory in the shape a compacting writer left: snapshot rows
        behind a ``journal_seq`` fence, the pre-fence records a crash kept
        in the journal, a post-fence record the snapshot already holds, and
        two new ones."""

        def row(label, units, token, composition="sequential"):
            return {"label": label, "epsilon": units / 1e9,
                    "composition": composition, "units": units,
                    "token": token}

        def rec(seq, op, token, *charge):
            out = {"seq": seq, "dataset": "d", "op": op, "token": token}
            if charge:
                label, units = charge
                out.update(label=label, epsilon=units / 1e9, units=units,
                           composition="sequential")
            return out

        snapshot = {
            "format": 2,
            "journal_seq": 4,
            "tenant": "t",
            "budget_limit": 1.0,
            "ledgers": {"d": {"limit": 1.0, "next_token": 4, "charges": [
                row("a", 100_000_000, 0),
                row("c", 300_000_000, 2, "parallel-group"),
                row("raced", 50_000_000, 3),
            ]}},
        }
        journal = [
            rec(1, "charge", 0, "a", 100_000_000),
            rec(2, "charge", 1, "b", 200_000_000),
            rec(3, "refund", 1),
            rec(4, "charge", 2, "c", 300_000_000),
            rec(5, "charge", 3, "raced", 50_000_000),  # in the snapshot too
            rec(6, "charge", 4, "e", 150_000_000),
            rec(7, "refund", 0),
        ]
        (tmp_path / "t.json").write_text(json.dumps(snapshot))
        (tmp_path / "t.journal").write_text(
            "".join(json.dumps(r) + "\n" for r in journal)
        )
        acc = ServiceRegistry(ledger_dir=tmp_path).tenant("t").accountant("d")
        got = acc.snapshot()
        assert [(r["label"], r["units"], r["token"]) for r in got["charges"]] == [
            ("c", 300_000_000, 2),
            ("raced", 50_000_000, 3),
            ("e", 150_000_000, 4),
        ]
        assert got["next_token"] == 5
        assert acc.total_units() == 500_000_000
        # New records continue the seq past every record on disk.
        acc.spend(0.1, "next")
        last = journal_lines(tmp_path / "t.journal")[-1]
        assert json.loads(last)["seq"] == 8

    def test_current_dir_reloads_identically(self, tmp_path):
        registry = ServiceRegistry(ledger_dir=tmp_path)
        tenant = registry.create_tenant("t", 1.0)
        acc = tenant.accountant("d")
        first = acc.spend(0.1, "a")
        acc.parallel([0.2, 0.3], "b")
        acc.refund(first)
        tenant.restore(tenant.snapshot())  # rebase: the rows move to the snapshot
        acc = tenant.accountant("d")
        acc.spend(0.25, "c")  # stays in the journal
        want = acc.snapshot()
        got = ServiceRegistry(ledger_dir=tmp_path).tenant("t").accountant("d")
        assert got.snapshot() == want


class TestOnePassReload:
    def test_each_row_and_record_above_the_fence_is_parsed_once(
        self, tmp_path, monkeypatch
    ):
        """Reload reads every snapshot row and every charge record above
        the fence exactly once, through the accountant's one parser; the
        records the fence covers are not read at all."""
        registry = ServiceRegistry(ledger_dir=tmp_path)
        tenant = registry.create_tenant("t", 10.0)
        tenant.accountant("d").spend(0.1, "row a")
        tenant.accountant("d").spend(0.2, "row b")
        tenant.accountant("e").spend(0.3, "row c")
        covered = (tmp_path / "t.journal").read_text()
        tenant.restore(tenant.snapshot())  # rebase: the rows move to the snapshot
        tenant.accountant("d").spend(0.4, "record d")
        e = tenant.accountant("e")
        e.refund(e.spend(0.5, "record e"))
        # The shape a crash mid-rebase leaves: covered records kept below
        # the fence, ahead of the records written since.
        journal = tmp_path / "t.journal"
        journal.write_text(covered + journal.read_text())
        parsed = []
        parse_charge = budget.parse_charge

        def counting(row):
            parsed.append((row["label"], "seq" in row))
            return parse_charge(row)

        monkeypatch.setattr(budget, "parse_charge", counting)
        reloaded = ServiceRegistry(ledger_dir=tmp_path).tenant("t")
        assert sorted(parsed) == [
            ("record d", True),
            ("record e", True),
            ("row a", False),
            ("row b", False),
            ("row c", False),
        ]
        assert [c.label for c in reloaded.accountant("d")] == [
            "row a", "row b", "record d",
        ]
        assert [c.label for c in reloaded.accountant("e")] == ["row c"]


class TestRestoreRebase:
    def test_runtime_restore_rebases_the_store(self, tmp_path):
        """Tenant.restore replaces the ledgers wholesale; the journal tail
        describes the *old* ledgers, so restore must fold the restored
        state into a fresh snapshot and drop the stale tail."""
        tenant, store = make_tenant(tmp_path, cap=1.0)
        tenant.accountant("d").spend(0.9, "old world")
        tenant.restore(
            {
                "budget_limit": 1.0,
                "ledgers": {
                    "d": {
                        "limit": 1.0,
                        "charges": [
                            {"label": "new world", "epsilon": 0.2,
                             "composition": "sequential",
                             "units": 200_000_000, "token": 0}
                        ],
                    }
                },
            }
        )
        assert (tmp_path / "t.journal").read_text() == ""
        reloaded = reload_state(tmp_path, cap=1.0)
        acc = reloaded.accountant("d")
        assert acc.total_units() == 200_000_000
        assert [c.label for c in acc] == ["new world"]
        # And the restored accountants are re-wired: new charges journal.
        tenant.accountant("d").spend(0.1, "after restore")
        assert len((tmp_path / "t.journal").read_text().splitlines()) == 1

    def test_crash_mid_restore_keeps_the_restored_ledger(self, tmp_path):
        """A crash after restore's snapshot write but before its journal
        rewrite leaves the *old* ledger's records on disk.  They sit at or
        below the new snapshot's fence, so replay must skip them: applying
        the old refund would drop the restored charge that reuses its
        token, and the reloaded ledger would undercount."""
        tenant, store = make_tenant(tmp_path, cap=10.0)
        acc = tenant.accountant("d")
        acc.refund(acc.spend(0.5, "old world"))
        stale_journal = (tmp_path / "t.journal").read_bytes()
        tenant.restore(
            {
                "budget_limit": 10.0,
                "ledgers": {
                    "d": {
                        "limit": 10.0,
                        "charges": [
                            {"label": "kept", "epsilon": 0.5,
                             "composition": "sequential",
                             "units": 500_000_000, "token": 0},
                            {"label": "restored", "epsilon": 3.5,
                             "composition": "sequential",
                             "units": 3_500_000_000, "token": 1},
                        ],
                    }
                },
            }
        )
        # Simulated crash: the journal rewrite never happened.
        (tmp_path / "t.journal").write_bytes(stale_journal)
        reloaded = reload_state(tmp_path).accountant("d")
        assert reloaded.total_units() == 4_000_000_000
        assert [c.label for c in reloaded] == ["kept", "restored"]
