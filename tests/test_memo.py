import importlib
import pkgutil
import sys
import threading

import pytest

import radialphi
from radialphi._memo import BoundedCache


def counting(value, log):
    def build():
        log.append(value)
        return value
    return build


class TestBoundedCache:
    def test_least_recently_used_out_first(self):
        cache, built = BoundedCache(2), []
        cache.get("a", counting(1, built))
        cache.get("b", counting(2, built))
        assert cache.get("a", counting(-1, built)) == 1  # a is now the newest
        cache.get("c", counting(3, built))
        assert list(cache._entries) == ["a", "c"]
        assert cache.get("b", counting(4, built)) == 4
        assert built == [1, 2, 3, 4] and list(cache._entries) == ["c", "b"]

    def test_failed_build_leaves_no_entry_and_frees_the_lock(self):
        cache = BoundedCache(2)

        def broken():
            raise RuntimeError("refused")

        with pytest.raises(RuntimeError, match="refused"):
            cache.get("a", broken)
        assert "a" not in cache._entries
        assert cache._lock.acquire(blocking=False)
        cache._lock.release()
        built = []
        assert cache.get("a", counting(5, built)) == 5 and built == [5]

    def test_threads_share_one_build(self):
        cache, built = BoundedCache(2), []
        barrier = threading.Barrier(4)
        got = [None] * 4

        def build():
            built.append(threading.get_ident())
            return object()

        def work(i):
            barrier.wait(timeout=10)
            got[i] = cache.get("key", build)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1 and all(g is got[0] for g in got)


def test_cache_inventory():
    # each kept cache earns its place by measured traffic; a new one is
    # named here, in README and in CHANGES.md with the lookups it serves
    found = []
    for info in pkgutil.iter_modules(radialphi.__path__):
        module = importlib.import_module(f"radialphi.{info.name}")
        found += [(info.name, name, value.size) for name, value in vars(module).items()
                  if isinstance(value, BoundedCache)]
    assert sorted(found) == [
        ("criteria", "_BUDGETS", 8),
        ("exprlang", "_TREES", 64),
        ("model", "_ENVELOPES", 2),
        ("model", "_OPERATORS", 2),
        ("quadrature", "_PANEL_MATRICES", 16),
    ]
