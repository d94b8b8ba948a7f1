"""FIXTURE (ok): the deferred eviction takes the lock itself.

The lambda built under the lock only calls ``_evict``, which acquires
``self._lock`` when it runs.
"""

import threading


class Pool:
    def __init__(self, executor):
        self._lock = threading.Lock()
        self._items = {}
        self._executor = executor

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def evict_later(self, key):
        with self._lock:
            self._executor.submit(lambda: self._evict(key))

    def _evict(self, key):
        with self._lock:
            self._items.pop(key, None)
