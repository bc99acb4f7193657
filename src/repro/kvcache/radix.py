"""Radix-tree prefix cache over the paged KV pool (SGLang-style).

Contexts are sequences of :class:`Segment` objects — a segment is a
contiguous run of tokens with a stable identity (a user message, a model
reply, a shared system prompt).  Multi-turn sessions grow linear chains of
segments; workloads with a shared system prompt branch below a common node.

The cache supports:

* ``match`` / ``acquire`` — longest-prefix lookup, pinning matched nodes
  against eviction (the reused context of the paper's Table 1);
* ``insert`` — append newly computed segments, allocating pool pages;
* ``extend`` — grow the tail segment as decode generates tokens;
* LRU eviction of unpinned subtrees when the pool runs out of pages.

Hit statistics feed the paper's Fig. 5 (hit rate vs. pool capacity).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.kvcache.pool import KVCachePool, PoolExhaustedError
from repro.trace.tracer import CAT_CACHE

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

_segment_uids = itertools.count()


@dataclass(frozen=True)
class Segment:
    """A contiguous, identity-carrying run of context tokens."""

    uid: int
    tokens: int

    def __post_init__(self) -> None:
        if self.tokens < 0:
            raise ValueError("segment token count must be non-negative")


def new_segment(tokens: int) -> Segment:
    """Create a segment with a fresh globally unique identity."""
    return Segment(uid=next(_segment_uids), tokens=tokens)


class _Node:
    """One cached segment in the radix tree."""

    __slots__ = (
        "segment_uid",
        "tokens",
        "pages",
        "parent",
        "children",
        "ref_count",
        "last_access",
        "birth",
        "locks",
        "alive",
    )

    def __init__(
        self, segment_uid: int, tokens: int, pages: int, parent: "_Node | None", birth: int = -1
    ) -> None:
        self.segment_uid = segment_uid
        self.tokens = tokens
        self.pages = pages
        self.parent = parent
        self.children: dict[int, _Node] = {}
        self.ref_count = 0
        self.last_access = 0.0
        #: Creation counter; sibling order in ``children`` is birth order.
        self.birth = birth
        #: ``(ref_count > 0)`` plus the number of locked children; the node
        #: is locked (its subtree holds a pin) while this is nonzero.
        self.locks = 0
        #: Cleared when the node leaves the tree.
        self.alive = True


def _current(entry: tuple[float, tuple[int, ...], int, _Node]) -> bool:
    """True while a candidate-heap entry still describes its node."""
    node = entry[3]
    return (
        node.alive
        and node.ref_count == 0
        and not node.children
        and node.last_access == entry[0]
    )


class Lease:
    """A pinned path in the radix tree held by one in-flight request.

    While a lease holds nodes, they cannot be evicted.  The lease also owns
    the request's growing output segment.
    """

    def __init__(self, cache: "RadixCache", nodes: list[_Node]) -> None:
        self._cache = cache
        self._nodes = nodes
        self.released = False

    @property
    def cached_tokens(self) -> int:
        """Tokens covered by the pinned path (the reused context length)."""
        return sum(node.tokens for node in self._nodes)

    @property
    def depth(self) -> int:
        """Number of pinned segments."""
        return len(self._nodes)


@dataclass
class CacheStats:
    """Aggregate hit statistics for Fig. 5."""

    lookups: int = 0
    tokens_requested: int = 0
    tokens_hit: int = 0
    evicted_tokens: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Token-weighted cache hit rate."""
        if self.tokens_requested == 0:
            return 0.0
        return self.tokens_hit / self.tokens_requested


class RadixCache:
    """Prefix cache mapping segment paths onto pooled KV pages."""

    def __init__(
        self,
        pool: KVCachePool,
        enable_prefix_sharing: bool = True,
        tracer: "Tracer | None" = None,
        name: str = "kvcache",
    ) -> None:
        self.pool = pool
        self.enable_prefix_sharing = enable_prefix_sharing
        self._root = _Node(segment_uid=-1, tokens=0, pages=0, parent=None)
        self._clock = 0.0
        self.stats = CacheStats()
        #: Optional tracing sink (timestamps come from the LRU clock, which
        #: callers advance with :meth:`touch` before mutating the cache).
        self.tracer = tracer
        self.trace_track = f"kvcache/{name}"
        #: Optional demotion hook, called as ``spill(path_uids, tokens,
        #: clock)`` for every node evicted *for capacity* (not for nodes
        #: dropped by ``release(keep_cached=False)``, which were never
        #: meant to be reusable).  Wired to
        #: :meth:`repro.kvcache.tiers.TieredKVStore.demote`; None (the
        #: default) keeps the eviction path byte-identical to the
        #: pre-tier code.
        self.spill: Callable[[tuple[int, ...], int, float], None] | None = None
        self._births = itertools.count()
        #: Lazy min-heap of eviction candidates (unpinned leaves), entries
        #: ``(last_access, path_key, seq, node)``; see :meth:`_pick_victim`.
        self._heap: list[tuple[float, tuple[int, ...], int, _Node]] = []
        self._heap_seq = itertools.count()
        self._node_count = 0
        #: Pages of every node in the tree, and of the locked ones;
        #: their difference is :meth:`evictable_pages`.
        self._tree_pages = 0
        self._locked_pages = 0

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def touch(self, time: float) -> None:
        """Advance the LRU clock (call with the simulation time)."""
        if time > self._clock:
            self._clock = time

    def match(self, segments: list[Segment]) -> int:
        """Tokens of ``segments`` covered by the cached prefix (no pinning)."""
        if not self.enable_prefix_sharing:
            return 0
        node = self._root
        covered = 0
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            covered += child.tokens
            node = child
        return covered

    def match_chain(self, segments: list[Segment]) -> list[int]:
        """Per-node token counts along the longest cached prefix.

        ``match_chain(p) == [n1, n2]`` means the first two segments of
        ``p`` are cached, holding ``n1`` and ``n2`` tokens (the tail node
        may cover fewer tokens than its segment while decode is growing
        it).  No pinning, no statistics — this is the donor-side probe of
        the cross-replica transfer path.
        """
        if not self.enable_prefix_sharing:
            return []
        node = self._root
        chain: list[int] = []
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            chain.append(child.tokens)
            node = child
        return chain

    def match_depth(self, segments: list[Segment]) -> int:
        """Number of leading segments of ``segments`` cached here."""
        return len(self.match_chain(segments))

    def prefix_affinity(self, segments: list[Segment]) -> float:
        """Fraction of ``segments``' tokens already cached here (no pinning).

        Routing hook for cache-aware fleet policies: scores how much of a
        request's context this replica could reuse right now.  Unlike
        :meth:`acquire`, it records no statistics — a scoring pass over N
        replicas must not count as N-1 misses.
        """
        total = sum(segment.tokens for segment in segments)
        if total == 0:
            return 0.0
        return self.match(segments) / total

    def acquire(self, segments: list[Segment]) -> Lease:
        """Pin the longest cached prefix of ``segments`` and record stats."""
        requested = sum(s.tokens for s in segments)
        nodes: list[_Node] = []
        if self.enable_prefix_sharing:
            node = self._root
            for segment in segments:
                child = node.children.get(segment.uid)
                if child is None:
                    break
                nodes.append(child)
                node = child
        for node in nodes:
            self._pin(node)
            node.last_access = self._clock
        lease = Lease(self, nodes)
        self.stats.lookups += 1
        self.stats.tokens_requested += requested
        self.stats.tokens_hit += lease.cached_tokens
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                self.trace_track,
                "hit" if lease.cached_tokens else "miss",
                CAT_CACHE,
                self._clock,
                {"requested": requested, "hit": lease.cached_tokens},
            )
        return lease

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #

    def insert(self, lease: Lease, segments: list[Segment]) -> None:
        """Append ``segments`` below the lease's pinned path.

        Allocates pool pages for every token, evicting LRU subtrees when
        necessary; raises :class:`PoolExhaustedError` if pinned data leaves
        no room.
        """
        if lease.released:
            raise ValueError("lease already released")
        parent = lease._nodes[-1] if lease._nodes else self._root
        for segment in segments:
            existing = parent.children.get(segment.uid)
            if existing is not None:
                self._pin(existing)
                existing.last_access = self._clock
                lease._nodes.append(existing)
                parent = existing
                continue
            pages = self.pool.pages_for(segment.tokens)
            self._ensure_free_pages(pages)
            self.pool.allocate(segment.tokens)
            node = self._attach(segment, pages, parent)
            self._pin(node)
            lease._nodes.append(node)
            parent = node

    def extend(self, lease: Lease, tokens: int) -> None:
        """Grow the lease's tail segment by ``tokens`` decode outputs."""
        if lease.released:
            raise ValueError("lease already released")
        if not lease._nodes:
            raise ValueError("cannot extend an empty lease; insert first")
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        tail = lease._nodes[-1]
        new_total = tail.tokens + tokens
        # Most decode steps stay within the tail's last page:
        # ceil(new_total / page) > pages  <=>  new_total > pages * page,
        # so the boundary test needs no division on the common path.
        if new_total > tail.pages * self.pool.page_tokens:
            extra_pages = self.pool.pages_for(new_total) - tail.pages
            self._ensure_free_pages(extra_pages)
            self.pool.allocate(extra_pages * self.pool.page_tokens)
            tail.pages += extra_pages
            # The tail is pinned, so its new pages are locked too.
            self._tree_pages += extra_pages
            self._locked_pages += extra_pages
        tail.tokens = new_total
        tail.last_access = self._clock

    def release(self, lease: Lease, keep_cached: bool = True) -> None:
        """Unpin the lease's path.

        With ``keep_cached=False`` (LoongServe-style, no cross-request
        reuse) the unpinned tail segments are freed immediately.
        """
        if lease.released:
            return
        lease.released = True
        for node in lease._nodes:
            node.last_access = self._clock
            self._unpin(node)
        if not keep_cached:
            for node in reversed(lease._nodes):
                if node.ref_count == 0 and not node.children:
                    self._drop(node)

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #

    def evictable_pages(self) -> int:
        """Pages reclaimable by eviction (whole subtrees with no pins)."""
        return self._evictable_leaf_pages()

    def can_fit(self, tokens: int) -> bool:
        """True if ``tokens`` can be stored, evicting unpinned data if needed."""
        needed = self.pool.pages_for(tokens)
        return needed <= self.pool.free_pages + self._evictable_leaf_pages()

    def can_fit_path(self, segments: list[Segment]) -> bool:
        """True if inserting ``segments`` (full context path) cannot fail.

        The segment-aware twin of :meth:`can_fit`, mirroring what
        acquire+insert will actually do: segments already cached cost
        nothing but become *pinned* (so their pages stop being evictable),
        and each missing segment pays its own page ceiling (the sum of
        per-segment ceilings, not one ceiling over the total).
        """
        node = self._root
        chain: list[_Node] = []
        index = 0
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            chain.append(child)
            node = child
            index += 1
        needed = sum(self.pool.pages_for(s.tokens) for s in segments[index:])
        if needed <= self.pool.free_pages:
            return True
        return needed <= self.pool.free_pages + self._evictable_leaf_pages(chain)

    def seed(self, segments: list[Segment], require_cached: int = 0) -> int:
        """Insert ``segments`` without a lease, pinning nothing.

        The promotion path of the tier store: restored segments re-enter
        the tree as ordinary unpinned cached data.  The first
        ``require_cached`` segments must already be cached — they are the
        HBM anchor the fetch was planned against; if any is missing
        (evicted while the fetch was in flight) seeding stops rather than
        attach segments below a hole.  Stops early (returning what was
        added so far) if the pool cannot fit a segment even after
        eviction.  Returns the number of newly added tokens.
        """
        node = self._root
        added = 0
        for index, segment in enumerate(segments):
            child = node.children.get(segment.uid)
            if child is not None:
                child.last_access = self._clock
                if child.ref_count == 0 and not child.children:
                    self._push(child)
                node = child
                continue
            if index < require_cached:
                return added
            pages = self.pool.pages_for(segment.tokens)
            # Guard-pin the attach parent: eviction inside
            # _ensure_free_pages must not pick a just-seeded, still
            # unpinned ancestor while making room for its child.
            self._pin(node)
            try:
                self._ensure_free_pages(pages)
            except PoolExhaustedError:
                return added
            finally:
                self._unpin(node)
            self.pool.allocate(segment.tokens)
            node = self._attach(segment, pages, node)
            self._push(node)
            added += segment.tokens
        return added

    def evict_path(self, segments: list[Segment]) -> int:
        """Drop the cached tail of ``segments`` without spilling (migrate).

        Used when a cross-replica transfer *moves* a prefix: the donor
        frees its copy deepest-first, stopping at the first pinned or
        branching node.  Returns the number of tokens dropped.
        """
        node = self._root
        chain: list[_Node] = []
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            chain.append(child)
            node = child
        dropped = 0
        for victim in reversed(chain):
            if victim.ref_count > 0 or victim.children:
                break
            self._drop(victim)
            dropped += victim.tokens
        return dropped

    def _ensure_free_pages(self, pages: int) -> None:
        spill = self.spill
        while self.pool.free_pages < pages:
            victim = self._pick_victim()
            if victim is None:
                raise PoolExhaustedError(
                    f"need {pages} pages, {self.pool.free_pages} free and "
                    "nothing evictable"
                )
            if spill is not None:
                key: list[int] = []
                node = victim
                while node.parent is not None:
                    key.append(node.segment_uid)
                    node = node.parent
                key.reverse()
                spill(tuple(key), victim.tokens, self._clock)
            self._drop(victim)
            self.stats.evictions += 1
            self.stats.evicted_tokens += victim.tokens
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.instant(
                    self.trace_track,
                    "evict",
                    CAT_CACHE,
                    self._clock,
                    {"tokens": victim.tokens, "pages": victim.pages},
                )

    def _pick_victim(self) -> _Node | None:
        """The LRU unpinned leaf, left in place on top of the heap.

        Entries go stale instead of being removed: one is valid while its
        node is still attached, unpinned, childless and carries the
        entry's ``last_access``.  Every candidate has a valid entry (see
        :meth:`_push`), so the first valid top is the minimum.  Ties on
        ``last_access`` go to the leaf whose root path has the
        lexicographically largest birth sequence, via ``path_key``: the
        first leaf a preorder walk meets when it visits children newest
        first.
        """
        heap = self._heap
        while heap and not _current(heap[0]):
            heapq.heappop(heap)
        return heap[0][3] if heap else None

    def _push(self, node: _Node) -> None:
        """Record ``node`` as an eviction candidate at its ``last_access``.

        Called whenever a node may have become an unpinned leaf, or its
        ``last_access`` changed while it is one.
        """
        path: list[int] = []
        walk = node
        while walk.parent is not None:
            path.append(-walk.birth)
            walk = walk.parent
        path.reverse()
        heap = self._heap
        heapq.heappush(heap, (node.last_access, tuple(path), next(self._heap_seq), node))
        if len(heap) > 2 * self._node_count + 64:
            self._compact()

    def _compact(self) -> None:
        """Drop stale and duplicate heap entries (they outnumber live ones)."""
        live = {id(entry[3]): entry for entry in self._heap if _current(entry)}
        self._heap = list(live.values())
        heapq.heapify(self._heap)

    def _pin(self, node: _Node) -> None:
        node.ref_count += 1
        if node.ref_count == 1:
            # Lock upward until an ancestor that was already locked.
            while node.parent is not None:
                node.locks += 1
                if node.locks != 1:
                    break
                self._locked_pages += node.pages
                node = node.parent

    def _unpin(self, node: _Node) -> None:
        node.ref_count -= 1
        if node.ref_count == 0:
            if node.parent is not None and not node.children:
                self._push(node)
            while node.parent is not None:
                node.locks -= 1
                if node.locks != 0:
                    break
                self._locked_pages -= node.pages
                node = node.parent

    def _attach(self, segment: Segment, pages: int, parent: _Node) -> _Node:
        node = _Node(segment.uid, segment.tokens, pages, parent, next(self._births))
        node.last_access = self._clock
        parent.children[segment.uid] = node
        self._node_count += 1
        self._tree_pages += pages
        return node

    def _drop(self, node: _Node) -> None:
        parent = node.parent
        if parent is not None:
            parent.children.pop(node.segment_uid, None)
            if parent.parent is not None and parent.ref_count == 0 and not parent.children:
                self._push(parent)
        node.alive = False
        self._node_count -= 1
        self._tree_pages -= node.pages
        self.pool.release_pages(node.pages)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def cached_tokens(self) -> int:
        """Total tokens resident in the cache (pinned and unpinned)."""
        return sum(node.tokens for node in self._iter_nodes())

    def _iter_nodes(self):
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def _evictable_leaf_pages(self, extra_pinned: Iterable[_Node] = ()) -> int:
        """Pages in subtrees containing no pinned node (freeable leaf-first).

        Nodes in ``extra_pinned`` are treated as if they held a reference:
        :meth:`can_fit_path` passes the existing prefix chain a pending
        insert is about to pin, so its pages are not double-counted as
        reclaimable.  The chain is a path from the root, so pinning it
        locks exactly its nodes that are not locked already.
        """
        total = self._tree_pages - self._locked_pages
        for node in extra_pinned:
            if not node.locks:
                total -= node.pages
        return total
