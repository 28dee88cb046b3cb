"""The one cache policy of the package: a bounded map of values built once.

Kernel plans, panel matrices, growth-budget probe values, the operators,
nonlinearities and envelopes that config assembly builds, and the
hypothesis checks that passed are all kept this way: least recently used
out first, each value built under the lock so that threads share one
build, and nothing kept from a build that raises.  The lock is not
reentrant: a build must not look up its own cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

__all__ = ["BoundedCache"]

_MISSING = object()


class BoundedCache:
    """At most ``size`` values by key, least recently used out first.
    Entries whose value ``stale(value)`` finds stale are dropped before
    every lookup."""

    def __init__(self, size: int, stale: Callable | None = None):
        self.size = size
        self._stale = stale
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build: Callable, fits: Callable | None = None):
        """The value at ``key``; ``build()`` makes it, under the lock, when
        the entry is missing or ``fits(value)`` is false.  A build that
        raises leaves no entry."""
        with self._lock:
            if self._stale is not None:
                for dead in [k for k, v in self._entries.items() if self._stale(v)]:
                    del self._entries[dead]
            value = self._entries.get(key, _MISSING)
            if value is _MISSING or (fits is not None and not fits(value)):
                value = build()
                self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)
            return value
