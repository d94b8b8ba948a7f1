"""Fingerprint-keyed release cache with post-processing-is-free semantics.

A differentially private release, once computed, is public: re-serving it is
post-processing and costs no additional privacy budget (Proposition 2.7).
:class:`ExplanationCache` therefore memoises *released* explanation payloads
keyed by everything that determines them byte-for-byte:

``(dataset fingerprint, dataset id, clustering signature, explainer,
budget triple, n_candidates, weights, seed-stream id)``

Two consequences the service tests pin down:

* a cache hit returns a byte-identical response body (entries store a
  marshalled copy of the body, built as ``json.loads`` would decode its
  canonical JSON encoding, and re-serve fresh ``marshal.loads`` copies, so
  callers can never mutate the cached object)
  with **zero** new budget charged to any tenant;
* the dataset fingerprint / clustering signature in the key make staleness
  structural — rebinning, schema changes, or relabeling produce different
  keys, and :meth:`invalidate_fingerprint` additionally evicts the orphaned
  entries when a dataset id is re-registered.

Server-side DP-fitted clusterings are not held here: the registry's
derived entries are their one store
(:class:`~repro.service.registry.ServiceRegistry`).
"""

from __future__ import annotations

import json
import marshal
import pickle
import threading

from collections import OrderedDict
from dataclasses import dataclass

CacheKey = tuple

#: ``repro_cache_events_total`` label tuples, built once for the hit path.
_HIT = ("explanation", "hit")
_MISS = ("explanation", "miss")
_EVICTION = ("explanation", "eviction")


def canonical_json(payload: dict) -> str:
    """The canonical byte encoding cached entries are compared under."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CacheEntry:
    """One released explanation: its copy form + the epsilon it cost.

    The copy form is the response body as ``json.loads`` would give it
    back from :func:`canonical_json` (the same lists, floats and key
    order), marshalled once when the entry is built by :meth:`of`.  Every
    hit unmarshals a fresh deep copy from it, about three times faster
    than parsing the JSON again.
    """

    copy_form: bytes
    epsilon_total: float

    @classmethod
    def of(cls, body: dict, epsilon_total: float) -> "CacheEntry":
        """The entry of a decoded body; the caller may go on using ``body``.

        ``body`` shares interned strings (its dict keys, the schema's names
        and domain values) and floats with other objects; ``marshal`` would
        write those interned and by reference, and every hit would re-intern
        them on load.  A pickle round trip of our own body gives fresh,
        uninterned strings and unshared floats, as ``json.loads`` does, so
        the copy form loads as fast as the decoded canonical JSON's.
        """
        fresh = pickle.loads(pickle.dumps(body, pickle.HIGHEST_PROTOCOL))
        return cls(marshal.dumps(fresh), epsilon_total)

    def payload(self) -> dict:
        """A fresh (mutation-safe) copy of the response body."""
        return marshal.loads(self.copy_form)


class ExplanationCache:
    """Thread-safe LRU cache of released explanations keyed by fingerprint first.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) adds
    hit/miss/eviction counters to ``repro_cache_events_total`` labelled
    ``cache="explanation"``; the local integer counters behind
    :meth:`stats` are kept regardless — they are the exact counts the
    service tests and ``/v1/stats`` always had.
    """

    def __init__(self, max_entries: int = 256, *, metrics=None):
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self._max = int(max_entries)
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
            self._events.inc(1, _MISS if entry is None else _HIT)
        return entry

    def put(self, key: CacheKey, entry) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted and self._events is not None:
            self._events.inc(evicted, _EVICTION)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Evict every entry whose dataset fingerprint matches; return count.

        Keys lead with the dataset fingerprint, so a re-registered (rebinned
        or re-clustered) dataset id can drop its orphaned releases even
        though the new keys would never collide with them.
        """
        with self._lock:
            stale = [k for k in self._entries if k and k[0] == fingerprint]
            for k in stale:
                del self._entries[k]
            return len(stale)

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
