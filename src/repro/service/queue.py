"""The coalescing request queue feeding the service's worker pool.

Concurrent explanation requests against the same *engine key* — the
(dataset, explainer configuration) pair that determines the true-score
tensors — differ only in their seed streams, so N simultaneous callers can
be served by **one** batched scoring pass
(:func:`~repro.evaluation.sweeps.explain_batched`).  :meth:`RequestQueue.take_batch`
implements exactly that coalescing: it blocks for the oldest pending item
whose key no worker holds, then drains every other queued item sharing its
key, preserving the arrival order of both the batch and the remainder.

It is also the service's only single-flight: a taken key stays *held*
until the worker that took it calls :meth:`RequestQueue.release`, and a
held key's items wait in the queue while other keys are served.  Equal
cache keys imply equal engine keys, so no two workers ever compute (or
charge) the same release at once; a duplicate queued behind a running
batch is taken after that batch has filled the cache, and served from it.
"""

from __future__ import annotations

import threading

from collections import deque
from typing import Callable, Hashable, Sequence


class QueueClosed(Exception):
    """Raised by :meth:`RequestQueue.take_batch` after :meth:`RequestQueue.close`."""


class RequestQueue:
    """An unbounded FIFO of ``(key, item)`` pairs with same-key batch pops.

    Each key is handed to one taker at a time: :meth:`take_batch` marks the
    key it returns as held, and :meth:`release` hands it back.

    ``metrics`` adds a queue-depth gauge and a coalesce fan-in histogram
    (batch size per :meth:`take_batch`, in powers-of-two buckets).
    """

    def __init__(self, metrics=None):
        self._cv = threading.Condition()
        self._items: "deque[tuple[Hashable, object]]" = deque()
        self._held: "set[Hashable]" = set()
        self._closed = False
        if metrics is not None:
            self._depth = metrics.gauge(
                "repro_queue_depth",
                "Requests waiting in the coalescing queue.",
            )
            self._fanin = metrics.histogram(
                "repro_coalesce_fanin",
                "Same-key requests drained per coalesced batch.",
                base=1.0, growth=2.0, n_buckets=12,
            )
        else:
            self._depth = self._fanin = None

    def put(self, key: Hashable, item: object) -> None:
        with self._cv:
            if self._closed:
                raise QueueClosed("queue is closed")
            self._items.append((key, item))
            depth = len(self._items)
            self._cv.notify()
        if self._depth is not None:
            self._depth.set(depth)

    def __len__(self) -> int:
        with self._cv:
            return len(self._items)

    def close(self) -> None:
        """Wake every blocked worker; subsequent puts/takes raise/return."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def release(self, key: Hashable) -> None:
        """Hand ``key`` back after its batch ran; its next items become takeable."""
        with self._cv:
            self._held.discard(key)
            self._cv.notify()

    def release_all(self) -> None:
        """Forget every hold, for a final drain past takers that never returned."""
        with self._cv:
            self._held.clear()
            self._cv.notify_all()

    def take_batch(self, timeout: float | None = None) -> "list[object]":
        """Pop the oldest takeable item plus every queued item sharing its key.

        An item is takeable when no other taker holds its key; the returned
        batch's key is held until :meth:`release`.  Blocks up to ``timeout``
        seconds for a takeable item (``None`` waits indefinitely); returns
        ``[]`` on timeout and raises :class:`QueueClosed` once the queue is
        closed *and* drained — a worker-pool shutdown still processes
        everything already enqueued.
        """
        with self._cv:
            while True:
                for key, _ in self._items:
                    if key not in self._held:
                        return self._drain_matching(key)
                if self._closed and not self._items:
                    raise QueueClosed("queue is closed")
                if not self._cv.wait(timeout):
                    return []

    def _drain_matching(self, key: Hashable) -> "list[object]":
        """Move every ``key`` item into a batch and hold ``key``.

        Caller holds ``self._cv``.
        """
        batch = []
        rest: "deque[tuple[Hashable, object]]" = deque()
        for k, item in self._items:
            if k == key:
                batch.append(item)
            else:
                rest.append((k, item))
        self._items = rest
        self._held.add(key)
        if self._depth is not None:
            self._depth.set(len(rest))
            self._fanin.observe(len(batch))
        return batch


def run_worker(
    queue: RequestQueue,
    execute: Callable[[Sequence[object]], None],
    stop: threading.Event,
) -> None:
    """Worker-thread loop: take coalesced batches until stopped/closed.

    ``execute`` failures are contained per batch (the service resolves each
    request's future with a structured error), so one poisoned batch cannot
    kill the worker.
    """
    while not stop.is_set():
        try:
            batch = queue.take_batch(timeout=0.05)
        except QueueClosed:
            return
        if batch:
            execute(batch)
