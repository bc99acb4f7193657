"""Differential property: RadixCache's incremental eviction state vs full scans.

``RadixCache`` picks eviction victims from a lazy heap and keeps evictable
pages as a running total.  The reference oracles below are the full-tree
scans those structures replace: a preorder walk that visits children newest
first and keeps the first leaf with the strictly smallest ``last_access``,
and a recursive walk summing the pages of subtrees that hold no pin.  Random
operation sequences — with repeated clock values, so ties are common — must
never make the two disagree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache import KVCachePool, PoolExhaustedError, RadixCache, Segment

PAGE = 16


def preorder(cache: RadixCache):
    stack = list(cache._root.children.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def scan_victim(cache: RadixCache):
    best = None
    for node in preorder(cache):
        if node.ref_count > 0 or node.children:
            continue
        if best is None or node.last_access < best.last_access:
            best = node
    return best


def walk_evictable(cache: RadixCache, extra_pinned=()) -> int:
    pinned = {id(node) for node in extra_pinned}
    total = 0

    def walk(node) -> bool:
        nonlocal total
        free = node.ref_count == 0 and id(node) not in pinned
        for child in node.children.values():
            free = walk(child) and free
        if free:
            total += node.pages
        return free

    for child in cache._root.children.values():
        walk(child)
    return total


def cached_chain(cache: RadixCache, path: list[Segment]) -> list:
    node, chain = cache._root, []
    for segment in path:
        node = node.children.get(segment.uid)
        if node is None:
            break
        chain.append(node)
    return chain


#: Paths as uid lists over a tiny alphabet, so the same path recurs (a
#: session's next turn) and paths share prefixes and branch often.
paths = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3)

ops = st.one_of(
    st.tuples(st.just("touch"), st.sampled_from([0.0, 0.0, 1.0])),
    st.tuples(st.just("acquire"), paths, st.booleans()),
    st.tuples(st.just("extend"), st.integers(0, 7), st.integers(0, 24)),
    st.tuples(st.just("release"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("seed"), paths, st.integers(0, 3)),
    st.tuples(st.just("evict_path"), paths),
)


class TestIncrementalEvictionMatchesScan:
    @given(
        capacity_pages=st.integers(min_value=2, max_value=16),
        steps=st.lists(ops, min_size=10, max_size=80),
        probes=st.lists(paths, min_size=1, max_size=3),
        sizes=st.lists(st.integers(min_value=1, max_value=24), min_size=3, max_size=3),
    )
    @settings(max_examples=1000, deadline=None)
    def test_victim_and_evictable_pages_match_full_scan(
        self, capacity_pages, steps, probes, sizes
    ):
        def segments(uids: list[int]) -> list[Segment]:
            return [Segment(uid=uid, tokens=sizes[uid]) for uid in uids]

        pool = KVCachePool(capacity_pages * PAGE * 1.0, kv_bytes_per_token=1.0, page_tokens=PAGE)
        cache = RadixCache(pool)
        clock = 0.0
        leases = []
        for op, *args in steps:
            if op == "touch":
                clock += args[0]
                cache.touch(clock)
            elif op == "acquire":
                path, insert = segments(args[0]), args[1]
                lease = cache.acquire(path)
                leases.append(lease)
                if insert:
                    try:
                        cache.insert(lease, path[lease.depth :])
                    except PoolExhaustedError:
                        pass
            elif op == "extend":
                live = [lease for lease in leases if not lease.released and lease.depth]
                if live:
                    try:
                        cache.extend(live[args[0] % len(live)], args[1])
                    except PoolExhaustedError:
                        pass
            elif op == "release":
                if leases:
                    cache.release(leases.pop(args[0] % len(leases)), keep_cached=args[1])
            elif op == "seed":
                cache.seed(segments(args[0]), require_cached=args[1])
            else:
                cache.evict_path(segments(args[0]))

            assert cache._pick_victim() is scan_victim(cache)
            assert cache.evictable_pages() == walk_evictable(cache)
            for probe in probes:
                chain = cached_chain(cache, segments(probe))
                assert cache._evictable_leaf_pages(chain) == walk_evictable(cache, chain)
            assert cache._tree_pages == sum(node.pages for node in preorder(cache))
            assert cache._tree_pages == pool.used_pages
