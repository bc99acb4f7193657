"""Unit tests for the radix-tree prefix cache: sharing, pinning, eviction."""

import pytest

from repro.kvcache import KVCachePool, PoolExhaustedError, RadixCache, Segment, new_segment


def make_cache(capacity_tokens: int = 4096, sharing: bool = True) -> RadixCache:
    pool = KVCachePool(capacity_tokens * 10.0, kv_bytes_per_token=10.0, page_tokens=16)
    return RadixCache(pool, enable_prefix_sharing=sharing)


class TestInsertAndMatch:
    def test_insert_then_match(self):
        cache = make_cache()
        seg = new_segment(100)
        lease = cache.acquire([seg])
        cache.insert(lease, [seg])
        assert cache.match([seg]) == 100

    def test_match_empty_cache(self):
        cache = make_cache()
        assert cache.match([new_segment(10)]) == 0

    def test_prefix_match_is_longest_prefix(self):
        cache = make_cache()
        a, b, c = new_segment(10), new_segment(20), new_segment(30)
        lease = cache.acquire([a, b])
        cache.insert(lease, [a, b])
        cache.release(lease)
        assert cache.match([a]) == 10
        assert cache.match([a, b]) == 30
        assert cache.match([a, b, c]) == 30
        assert cache.match([b]) == 0  # not a prefix

    def test_acquire_pins_and_counts_stats(self):
        cache = make_cache()
        a = new_segment(64)
        lease = cache.acquire([a])
        cache.insert(lease, [a])
        cache.release(lease)
        second = cache.acquire([a])
        assert second.cached_tokens == 64
        assert cache.stats.tokens_hit == 64
        assert cache.stats.tokens_requested == 128  # both acquires counted

    def test_sharing_disabled_never_matches(self):
        cache = make_cache(sharing=False)
        a = new_segment(100)
        lease = cache.acquire([a])
        cache.insert(lease, [a])
        cache.release(lease)
        assert cache.match([a]) == 0
        assert cache.acquire([a]).cached_tokens == 0

    def test_insert_shared_segment_pins_existing_node(self):
        cache = make_cache()
        shared = new_segment(50)
        first = cache.acquire([shared])
        cache.insert(first, [shared])
        second = cache.acquire([])
        cache.insert(second, [shared])
        used_before = cache.pool.used_pages
        # No double allocation for the shared node.
        assert used_before == cache.pool.pages_for(50)


class TestExtend:
    def test_extend_grows_tail(self):
        cache = make_cache()
        out = new_segment(0)
        lease = cache.acquire([])
        cache.insert(lease, [Segment(uid=out.uid, tokens=0)])
        for _ in range(20):
            cache.extend(lease, 1)
        assert cache.match([Segment(uid=out.uid, tokens=0)]) == 20

    def test_extend_allocates_pages_lazily(self):
        cache = make_cache()
        lease = cache.acquire([])
        cache.insert(lease, [Segment(uid=new_segment(0).uid, tokens=0)])
        before = cache.pool.used_pages
        cache.extend(lease, 1)
        assert cache.pool.used_pages == before + 1
        cache.extend(lease, 15)  # fills up the page: no new allocation
        assert cache.pool.used_pages == before + 1

    def test_extend_without_insert_raises(self):
        cache = make_cache()
        lease = cache.acquire([])
        with pytest.raises(ValueError):
            cache.extend(lease, 1)

    def test_extend_after_release_raises(self):
        cache = make_cache()
        seg = new_segment(10)
        lease = cache.acquire([seg])
        cache.insert(lease, [seg])
        cache.release(lease)
        with pytest.raises(ValueError):
            cache.extend(lease, 1)


class TestEviction:
    def test_lru_eviction_frees_space(self):
        cache = make_cache(capacity_tokens=160)  # 10 pages
        cache.touch(1.0)
        old = new_segment(80)
        lease = cache.acquire([old])
        cache.insert(lease, [old])
        cache.release(lease)
        cache.touch(2.0)
        new = new_segment(160)
        lease2 = cache.acquire([new])
        cache.insert(lease2, [new])  # must evict `old`
        assert cache.match([old]) == 0
        assert cache.stats.evictions >= 1

    def test_pinned_entries_survive_eviction_pressure(self):
        cache = make_cache(capacity_tokens=160)
        pinned = new_segment(80)
        lease = cache.acquire([pinned])
        cache.insert(lease, [pinned])  # stays pinned
        big = new_segment(160)
        lease2 = cache.acquire([big])
        with pytest.raises(PoolExhaustedError):
            cache.insert(lease2, [big])
        assert cache.match([pinned]) == 80

    def test_lru_order_evicts_least_recent_first(self):
        cache = make_cache(capacity_tokens=160)
        a, b = new_segment(64), new_segment(64)
        cache.touch(1.0)
        la = cache.acquire([a])
        cache.insert(la, [a])
        cache.release(la)
        cache.touch(2.0)
        lb = cache.acquire([b])
        cache.insert(lb, [b])
        cache.release(lb)
        cache.touch(3.0)
        c = new_segment(64)
        lc = cache.acquire([c])
        cache.insert(lc, [c])
        assert cache.match([a]) == 0  # oldest evicted
        assert cache.match([b]) == 64

    def test_lru_tie_goes_to_the_newest_branch(self):
        # Equal last_access: the victim is the first leaf of a preorder walk
        # that visits children newest first — b2 (under the newer top-level
        # node b1), even though a2 was created after b2.
        cache = make_cache(capacity_tokens=160)
        a1, b1, b2, a2 = (new_segment(16) for _ in range(4))
        cache.touch(1.0)
        leases = []
        for path in ([a1], [b1], [b1, b2], [a1, a2]):
            lease = cache.acquire(path)
            cache.insert(lease, path[lease.depth :])
            leases.append(lease)
        for lease in leases:
            cache.release(lease)
        cache.touch(2.0)
        big = new_segment(112)
        lease = cache.acquire([big])
        cache.insert(lease, [big])  # one page short: evicts exactly one leaf
        assert cache.stats.evictions == 1
        assert cache.match([b1, b2]) == 16
        assert cache.match([a1, a2]) == 32

    def test_stale_candidates_do_not_accumulate(self):
        cache = make_cache()
        shared = new_segment(16)
        for step in range(1000):
            cache.touch(float(step))
            lease = cache.acquire([shared])
            cache.insert(lease, [shared])
            cache.release(lease)
            tail = new_segment(16)
            lease = cache.acquire([shared, tail])
            cache.insert(lease, [tail])
            cache.release(lease, keep_cached=False)
        # 2000 releases and 1000 drops, no eviction to pop the heap.
        assert cache.stats.evictions == 0
        assert len(cache._heap) <= 2 * len(list(cache._iter_nodes())) + 64

    def test_release_without_keep_drops_immediately(self):
        cache = make_cache()
        seg = new_segment(100)
        lease = cache.acquire([seg])
        cache.insert(lease, [seg])
        cache.release(lease, keep_cached=False)
        assert cache.match([seg]) == 0
        assert cache.pool.used_pages == 0

    def test_release_without_keep_preserves_shared_parents(self):
        cache = make_cache()
        shared, tail = new_segment(50), new_segment(50)
        l1 = cache.acquire([shared])
        cache.insert(l1, [shared])
        l2 = cache.acquire([shared])
        cache.insert(l2, [tail])
        cache.release(l2, keep_cached=False)  # drops tail only (shared pinned)
        assert cache.match([shared]) == 50
        assert cache.match([shared, tail]) == 50

    def test_double_release_is_idempotent(self):
        cache = make_cache()
        seg = new_segment(10)
        lease = cache.acquire([seg])
        cache.insert(lease, [seg])
        cache.release(lease)
        cache.release(lease)
        assert cache.pool.used_pages == cache.pool.pages_for(10)

    def test_evictable_pages_excludes_pinned_subtrees(self):
        cache = make_cache()
        parent, child = new_segment(32), new_segment(32)
        lease = cache.acquire([parent])
        cache.insert(lease, [parent, child])
        assert cache.evictable_pages() == 0  # whole path pinned
        cache.release(lease)
        assert cache.evictable_pages() == cache.pool.pages_for(32) * 2


class TestCanFit:
    def test_can_fit_counts_free_plus_evictable(self):
        cache = make_cache(capacity_tokens=160)
        seg = new_segment(80)
        lease = cache.acquire([seg])
        cache.insert(lease, [seg])
        cache.release(lease)
        assert cache.can_fit(160)  # evicting the 80 frees enough

    def test_can_fit_false_when_pinned(self):
        cache = make_cache(capacity_tokens=160)
        seg = new_segment(160)
        lease = cache.acquire([seg])
        cache.insert(lease, [seg])
        assert not cache.can_fit(16)

    def test_cached_tokens_accounting(self):
        cache = make_cache()
        a, b = new_segment(10), new_segment(20)
        lease = cache.acquire([a, b])
        cache.insert(lease, [a, b])
        assert cache.cached_tokens() == 30
