"""FIXTURE (bad): a mutation inside a lambda built under the lock.

The lambda runs later, on the executor's thread, after ``with
self._lock:`` has exited: the lock held where it is built does not guard
its body, so the pop is an unguarded write.
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
            self._executor.submit(lambda: self._items.pop(key, None))  # FIRES
