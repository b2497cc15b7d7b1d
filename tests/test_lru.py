"""The shared fingerprint-keyed LRU (:mod:`repro.lru`).

The three caches built on it (graph plans, packed graph plans, packed
sim plans) are exercised through their own public functions elsewhere;
this pins the class's own contract.
"""

import threading

import pytest

from repro.lru import CacheInfo, FingerprintLRU


def test_hit_miss_eviction_counters_and_recency():
    lru = FingerprintLRU(2, "toy cache")
    assert lru.get("a") is None
    assert lru.insert("a", 1) == 1
    assert lru.insert("b", 2) == 2
    assert lru.get("a") == 1  # refreshes "a"; "b" is now oldest
    assert lru.insert("c", 3) == 3
    assert lru.get("b") is None
    assert lru.info() == CacheInfo(hits=1, misses=2, evictions=1, size=2, maxsize=2)
    lru.clear()
    assert lru.info() == CacheInfo(hits=0, misses=0, evictions=0, size=0, maxsize=2)


def test_insert_keeps_the_first_published_entry():
    lru = FingerprintLRU(4, "toy cache")
    first, second = object(), object()
    assert lru.insert(("k",), first) is first
    assert lru.insert(("k",), second) is first
    assert lru.info().size == 1


def test_configure_shrinks_and_validates():
    lru = FingerprintLRU(4, "toy cache")
    for k in range(4):
        lru.insert(k, str(k))
    lru.configure(1)
    assert lru.info() == CacheInfo(hits=0, misses=0, evictions=3, size=1, maxsize=1)
    assert lru.get(3) == "3"
    with pytest.raises(ValueError, match="toy cache needs room for at least one"):
        lru.configure(0)


def test_concurrent_builders_share_one_entry():
    lru = FingerprintLRU(8, "toy cache")
    barrier = threading.Barrier(8)
    seen = []

    def build():
        barrier.wait()
        if lru.get("key") is None:
            seen.append(lru.insert("key", object()))
        else:
            seen.append(lru.get("key"))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 8 and all(v is seen[0] for v in seen)
