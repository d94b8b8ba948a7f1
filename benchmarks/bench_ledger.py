"""Before/after benchmark of budget-ledger admission and persistence.

Replays heavy charge traffic against two accounting designs:

* ``seed`` — the PR 3/4-era ledger: every admission re-sums the whole
  float charge list against the cap plus a ``1e-9`` tolerance (O(n) per
  charge, O(n^2) over a ledger's life), and every request persists by
  re-serializing the tenant's *entire* snapshot (O(n) bytes per request);
* ``exact`` — the PR 5 integer micro-epsilon ledger: admission is one O(1)
  integer compare-and-add on a running nano-eps total (and exact: zero
  tolerance), and persistence is one O(1) append-only journal record per
  charge.

The artifact records admission throughput with a 100k-charge ledger
already on the books, the median refund of a just-minted charge (the
service's failed-batch rollback) on 1k- and 100k-charge ledgers,
persistence bytes-per-request at small vs large ledger sizes, the bytes
the whole process writes per funded service miss on tenant ledgers
preloaded with 1k and 100k charges (``wchar`` from ``/proc/self/io``, so
any snapshot rewrite counts, not just the journal record), the
best-of-3 seconds a fresh registry takes to reload each of those two
journal-only directories (reported, not gated), and journal fsyncs per
request for one coalesced batch of 16 funded misses through
:class:`~repro.service.ExplanationService` (group commit: one fsync per
touched tenant journal), read from the service's own ``journal-fsync``
span count — for one tenant, and for 16 zipf-skewed tenants.
``scripts/ci.sh`` fails if the admission speedup at 100k charges
regresses below 10x, refunds, journal records or persisted bytes per
charge stop being O(1), or the single-tenant batch pays more than one
fsync per 16 requests.

Entry points:

* ``pytest benchmarks/bench_ledger.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_ledger.py [--ledger-size N --charges K]``
  — standalone comparison emitting the ``BENCH_ledger.json`` artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

from repro import KMeans, diabetes_like
from repro.obs.metrics import snapshot_series
from repro.obs.tracing import SPAN_HISTOGRAM
from repro.privacy.budget import PrivacyAccountant
from repro.service import ExplainRequest, ExplanationService, ServiceRegistry
from repro.service.journal import TenantLedgerStore

#: A realistic service ledger line (see ExplanationService._charge_label).
LABEL = (
    "service: DPClustX dataset=diabetes seed=12345 "
    "eps=(0.1,0.1,0.1) k=3 w=(0.3333333333333333, 0.3333333333333333, "
    "0.3333333333333333)"
)
CHARGE_EPS = 0.3
#: Funded misses in the group-commit batch (``fsyncs_per_request``).
BATCH_REQUESTS = 16
#: Funded misses per persisted-bytes measurement.  A design that rewrites
#: the snapshot every N records shows its amortised cost once the misses
#: span N; 256 spans the 256-record snapshot compaction the service ran
#: before the journal became the only persisted history.
PERSIST_MISSES = 256


class _SeedAccountant:
    """The pre-PR-5 admission path: full-ledger float re-sum + tolerance."""

    TOLERANCE = 1e-9

    def __init__(self, limit: float):
        self.limit = limit
        self._charges: "list[tuple[str, float]]" = []

    def total(self) -> float:
        return float(sum(eps for _, eps in self._charges))

    def spend(self, epsilon: float, label: str) -> None:
        if self.total() + epsilon > self.limit + self.TOLERANCE:
            raise ValueError("over budget")
        self._charges.append((label, epsilon))

    def preload(self, n: int) -> None:
        self._charges.extend((LABEL, CHARGE_EPS) for _ in range(n))


def _preloaded_exact(n: int, headroom: int) -> PrivacyAccountant:
    acc = PrivacyAccountant(limit=CHARGE_EPS * (n + headroom))
    for _ in range(n):
        acc.spend(CHARGE_EPS, LABEL)
    return acc


def _admission_rps_seed(ledger_size: int, charges: int) -> float:
    acc = _SeedAccountant(limit=CHARGE_EPS * (ledger_size + charges))
    acc.preload(ledger_size)
    t0 = time.perf_counter()
    for _ in range(charges):
        acc.spend(CHARGE_EPS, LABEL)
    return charges / (time.perf_counter() - t0)


def _admission_rps_exact(ledger_size: int, charges: int) -> float:
    acc = _preloaded_exact(ledger_size, headroom=charges)
    t0 = time.perf_counter()
    for _ in range(charges):
        acc.spend(CHARGE_EPS, LABEL)
    return charges / (time.perf_counter() - t0)


def _refund_us(ledger_size: int, refunds: int) -> float:
    """Median microseconds to refund a charge minted on top of a ledger
    already holding ``ledger_size`` charges — a failed batch's rollback."""
    acc = _preloaded_exact(ledger_size, headroom=1)
    samples = []
    for _ in range(refunds):
        token = acc.spend(CHARGE_EPS, LABEL)
        t0 = time.perf_counter()
        acc.refund(token)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e6


def _snapshot_bytes(ledger_size: int) -> int:
    """Bytes the seed design wrote per request: the full tenant snapshot."""
    snapshot = {
        "tenant": "bench",
        "budget_limit": CHARGE_EPS * (ledger_size + 1),
        "ledgers": {
            "diabetes": {
                "limit": CHARGE_EPS * (ledger_size + 1),
                "charges": [
                    {
                        "label": LABEL,
                        "epsilon": CHARGE_EPS,
                        "composition": "sequential",
                    }
                ]
                * ledger_size,
            }
        },
    }
    return len(json.dumps(snapshot, indent=2)) + 1


def _journal_bytes_per_record(ledger_size: int, records: int) -> float:
    """Bytes the exact design writes per request, measured on a real store.

    ``ledger_size`` only positions the charge stream deep into a ledger's
    life (high seq/token values) — O(1) means the answer barely moves.
    """
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "bench")
        acc = PrivacyAccountant(limit=CHARGE_EPS * (ledger_size + records))
        store = TenantLedgerStore(base)
        store.rebase({"tenant": "bench", "budget_limit": acc.limit, "ledgers": {}})
        # Fast-forward the identity counters to "deep ledger" territory.
        store._seq = ledger_size
        for _ in range(ledger_size):
            acc._next_token += 1
        acc.set_observer(lambda event: store.record("diabetes", event["record"]))
        for _ in range(records):
            acc.spend(CHARGE_EPS, LABEL)
        size = os.path.getsize(base + ".journal")
        store.close()
    return size / records


def _fsync_spans(service: ExplanationService) -> int:
    cell = snapshot_series(service.metrics.snapshot(), SPAN_HISTOGRAM).get(
        ("journal-fsync",)
    )
    return cell["count"] if cell else 0


def _bench_service(ledger_dir: str) -> ExplanationService:
    """A persisting service with the small diabetes table registered."""
    dataset = diabetes_like(n_rows=1_500, n_groups=3, seed=7)
    clustering = KMeans(3).fit(dataset, rng=0)
    service = ExplanationService(ledger_dir=ledger_dir)
    service.register_dataset("diabetes", dataset, clustering)
    return service


def _serve_misses(service: ExplanationService, requests) -> None:
    """Serve ``requests`` (unique seeds) as one batch of funded misses."""
    futures = [service.submit(request) for request in requests]
    if service.process_pending() != 1:
        raise RuntimeError("the misses did not coalesce into one batch")
    served = [f.result(timeout=60)["meta"]["cache"] for f in futures]
    if served != ["miss"] * len(futures):
        raise RuntimeError(f"expected {len(futures)} funded misses: {served}")


def _fsyncs_per_request(
    n_tenants: int, requests: int = BATCH_REQUESTS, skew: float = 1.1
) -> float:
    """Journal fsyncs per funded miss for one coalesced batch of misses.

    ``requests`` unique seeds go to one ``process_pending`` batch; tenants
    are drawn zipf(``skew``) from ``n_tenants`` (all one tenant when
    ``n_tenants == 1``).  The count is the service's own ``journal-fsync``
    span count, which observes each actual fsync once.
    """
    weights = np.arange(1, n_tenants + 1, dtype=np.float64) ** -skew
    picks = np.random.default_rng(0).choice(
        n_tenants, size=requests, p=weights / weights.sum()
    )
    with tempfile.TemporaryDirectory() as tmp:
        service = _bench_service(tmp)
        for t in range(n_tenants):
            service.create_tenant(f"t{t}", 1e6)
        before = _fsync_spans(service)
        _serve_misses(
            service,
            [
                ExplainRequest(tenant=f"t{t}", dataset="diabetes", seed=i)
                for i, t in enumerate(picks)
            ],
        )
        fsyncs = _fsync_spans(service) - before
        service.stop()
    return fsyncs / requests


def _wchar() -> int:
    """Bytes this process has handed to write() so far (Linux only)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _reload_s(ledger_dir: str, runs: int = 3) -> float:
    """Best-of-``runs`` seconds for a fresh registry to reload a directory."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        registry = ServiceRegistry(ledger_dir=ledger_dir)
        best = min(best, time.perf_counter() - t0)
        registry.close()
    return best


def _persisted_ledger(ledger_size: int) -> "tuple[float, float]":
    """Bytes the process writes per funded miss on a preloaded ledger, and
    the seconds a restart takes to reload that ledger.

    The tenant's ledger first takes ``ledger_size`` charges (journaled in
    one commit), then ``PERSIST_MISSES`` unique-seed requests are served
    as funded misses.  The bytes figure is the process's ``wchar`` delta
    over the misses divided by their count: the journal records plus every
    snapshot byte the service writes while serving them.  The reload
    figure is :func:`_reload_s` of the journal-only directory this leaves.
    """
    with tempfile.TemporaryDirectory() as tmp:
        service = _bench_service(tmp)
        tenant = service.create_tenant(
            "bench", CHARGE_EPS * (ledger_size + PERSIST_MISSES)
        )
        tenant.accountant("diabetes").spend_many(
            [(CHARGE_EPS, LABEL)] * ledger_size
        )
        before = _wchar()
        _serve_misses(
            service,
            [
                ExplainRequest(tenant="bench", dataset="diabetes", seed=seed)
                for seed in range(PERSIST_MISSES)
            ],
        )
        written = _wchar() - before
        service.stop()
        reload_s = _reload_s(tmp)
    return written / PERSIST_MISSES, reload_s


def run_ledger_bench(
    ledger_size: int = 100_000,
    seed_charges: int = 300,
    exact_charges: int = 50_000,
    small_ledger: int = 1_000,
    journal_records: int = 512,
    refunds: int = 2_000,
) -> dict:
    seed_rps = _admission_rps_seed(ledger_size, seed_charges)
    exact_rps = _admission_rps_exact(ledger_size, exact_charges)
    refund_small = _refund_us(small_ledger, refunds)
    refund_large = _refund_us(ledger_size, refunds)

    seed_bytes_small = _snapshot_bytes(small_ledger)
    seed_bytes_large = _snapshot_bytes(ledger_size)
    journal_small = _journal_bytes_per_record(small_ledger, journal_records)
    journal_large = _journal_bytes_per_record(ledger_size, journal_records)
    fsyncs_single = _fsyncs_per_request(n_tenants=1)
    fsyncs_zipf = _fsyncs_per_request(n_tenants=16)
    persisted_small, reload_small = _persisted_ledger(small_ledger)
    persisted_large, reload_large = _persisted_ledger(ledger_size)

    return {
        "benchmark": (
            "exact O(1) integer ledger vs seed float re-sum + "
            "snapshot-per-request"
        ),
        "ledger_size": ledger_size,
        "seed_admission_rps": seed_rps,
        "exact_admission_rps": exact_rps,
        "admission_speedup": exact_rps / seed_rps,
        "refund_us_small": refund_small,
        "refund_us_large": refund_large,
        "refund_growth": refund_large / refund_small,
        "seed_bytes_per_request_small": seed_bytes_small,
        "seed_bytes_per_request_large": seed_bytes_large,
        "seed_bytes_growth": seed_bytes_large / seed_bytes_small,
        "journal_bytes_per_request_small": journal_small,
        "journal_bytes_per_request_large": journal_large,
        "journal_bytes_growth": journal_large / journal_small,
        "persistence_bytes_ratio_at_large": seed_bytes_large / journal_large,
        "persist_misses": PERSIST_MISSES,
        "persisted_bytes_per_charge_small": persisted_small,
        "persisted_bytes_per_charge_large": persisted_large,
        "persisted_bytes_growth": persisted_large / persisted_small,
        "reload_s_small": reload_small,
        "reload_s_large": reload_large,
        "batch_requests": BATCH_REQUESTS,
        "fsyncs_per_request": fsyncs_single,
        "fsyncs_per_request_zipf16": fsyncs_zipf,
    }


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #


def test_admission_seed(benchmark):
    acc = _SeedAccountant(limit=CHARGE_EPS * 20_000)
    acc.preload(10_000)
    benchmark(lambda: acc.spend(CHARGE_EPS, LABEL))


def test_admission_exact(benchmark):
    acc = _preloaded_exact(10_000, headroom=10**7)
    benchmark(lambda: acc.spend(CHARGE_EPS, LABEL))


# --------------------------------------------------------------------------- #
# standalone before/after harness (JSON artifact)
# --------------------------------------------------------------------------- #


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ledger-size", type=int, default=100_000)
    parser.add_argument("--seed-charges", type=int, default=300)
    parser.add_argument("--exact-charges", type=int, default=50_000)
    parser.add_argument(
        "--out",
        default="BENCH_ledger.json",
        help="JSON artifact path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    result = run_ledger_bench(
        ledger_size=args.ledger_size,
        seed_charges=args.seed_charges,
        exact_charges=args.exact_charges,
    )
    print(json.dumps(result, indent=2))
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result


if __name__ == "__main__":
    main()
