"""The one cache policy of the package: a bounded map of values built once.

Panel matrices, growth-budget probe values, operators, their derived
envelopes and expression trees are kept this way, each for the traffic
README lists: least recently used out first, each value built under the
lock so that threads share one build, and nothing kept from a build that
raises.  The lock is not reentrant: a build must not look up its own cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

__all__ = ["BoundedCache"]

_MISSING = object()


class BoundedCache:
    """At most ``size`` values by key, least recently used out first."""

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build: Callable):
        """The value at ``key``; ``build()`` makes it, under the lock, when
        the entry is missing.  A build that raises leaves no entry."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                value = build()
                self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)
            return value
