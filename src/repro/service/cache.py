"""Fingerprint-keyed release cache with post-processing-is-free semantics.

A differentially private release, once computed, is public: re-serving it is
post-processing and costs no additional privacy budget (Proposition 2.7).
:class:`ExplanationCache` therefore memoises *released* explanation payloads
keyed by everything that determines them byte-for-byte:

``(dataset fingerprint, dataset id, clustering signature, explainer,
budget triple, n_candidates, weights, seed-stream id)``

Two consequences the service tests pin down:

* a cache hit returns a byte-identical response body (entries store a
  marshalled copy of the decoded canonical JSON encoding and re-serve fresh
  ``marshal.loads`` copies, so callers can never mutate the cached object)
  with **zero** new budget charged to any tenant;
* the dataset fingerprint / clustering signature in the key make staleness
  structural — rebinning, schema changes, or relabeling produce different
  keys, and :meth:`invalidate_fingerprint` additionally evicts the orphaned
  entries when a dataset id is re-registered.

The same class holds the service's DP-fitted clusterings (``label=
"fitted"``), keyed by ``ClusteringSpec.cache_key(fingerprint)`` =
``(fingerprint, method, n_clusters, epsilon, n_iterations, seed)``.  A fit
is a released object too, and ``ClusteringSpec.fit`` is byte-reproducible
given the spec seed, so an eviction can at worst re-charge for the
identical release: an overcount, never a leak.
"""

from __future__ import annotations

import json
import marshal
import threading

from collections import OrderedDict
from dataclasses import dataclass

CacheKey = tuple


def canonical_json(payload: dict) -> str:
    """The canonical byte encoding cached entries are compared under."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CacheEntry:
    """One released explanation: its copy form + the epsilon it cost.

    The copy form is the *decoded* canonical JSON text (so the same lists,
    floats and key order ``json.loads`` gives), marshalled once when the
    entry is built by :meth:`decoded`.  Every hit unmarshals a fresh deep
    copy from it, about three times faster than parsing the JSON again.
    """

    copy_form: bytes
    epsilon_total: float

    @classmethod
    def decoded(
        cls, canonical: str, epsilon_total: float
    ) -> "tuple[CacheEntry, dict]":
        """A new entry plus the body it was built from, decoded once.

        Nobody else holds the returned body, so the payer of a fresh
        release can be served it without a second decode.
        """
        body = json.loads(canonical)
        return cls(marshal.dumps(body), epsilon_total), body

    def payload(self) -> dict:
        """A fresh (mutation-safe) copy of the response body."""
        return marshal.loads(self.copy_form)


class ExplanationCache:
    """Thread-safe LRU cache of released objects keyed by fingerprint first.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) adds
    hit/miss/eviction counters to ``repro_cache_events_total`` labelled
    ``cache=label``; the local integer counters behind :meth:`stats` are
    kept regardless — they are the exact counts the service tests and
    ``/v1/stats`` always had.

    ``on_evict(key, entry)``, when given, fires for entries pushed out by
    **LRU pressure** (not for explicit ``remove``/``invalidate``/``clear``,
    whose callers already know what they dropped).  The service uses it to
    drop a fitted clustering's derived registry entry alongside, so the
    registry never becomes an unbounded shadow store of fits the cache
    already let go.  Callbacks run outside the cache lock.
    """

    def __init__(
        self,
        max_entries: int = 256,
        *,
        on_evict=None,
        metrics=None,
        label: str = "explanation",
    ):
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self._max = int(max_entries)
        self._on_evict = on_evict
        self._label = label
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if metrics is not None:
            self._events = metrics.counter(
                "repro_cache_events_total",
                "Cache lookup/eviction outcomes by cache and event.",
                ("cache", "event"),
            )
        else:
            self._events = None

    def get(self, key: CacheKey):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        if self._events is not None:
            self._events.inc(1, (self._label, "miss" if entry is None else "hit"))
        return entry

    def put(self, key: CacheKey, entry) -> None:
        evicted: "list[tuple[CacheKey, object]]" = []
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._max:
                evicted.append(self._entries.popitem(last=False))
            self._evictions += len(evicted)
        if evicted:
            if self._events is not None:
                self._events.inc(len(evicted), (self._label, "eviction"))
            if self._on_evict is not None:
                for k, e in evicted:
                    self._on_evict(k, e)

    def remove(self, key: CacheKey) -> bool:
        """Drop one entry by key (no ``on_evict``); True if it existed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Evict every entry whose dataset fingerprint matches; return count.

        Keys lead with the dataset fingerprint, so a re-registered (rebinned
        or re-clustered) dataset id can drop its orphaned releases and fits
        even though the new keys would never collide with them.
        """
        with self._lock:
            stale = [k for k in self._entries if k and k[0] == fingerprint]
            for k in stale:
                del self._entries[k]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self._max,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                # None, not 0.0: an untouched cache has no hit ratio, and
                # reporting zero reads as "everything missed".
                "hit_ratio": (self._hits / lookups) if lookups else None,
            }
