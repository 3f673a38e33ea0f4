"""Capped neighbor-set management.

A node's overlay links are the thing the paper's maintenance-overhead
metric counts ("the number of links a node must maintain in the
overlays"), so this module keeps the accounting explicit: every add and
remove is visible, insertion order is preserved (useful for oldest-first
eviction), and capacity is enforced at the data-structure level.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Iterator, List, Optional


class LinkSet:
    """An ordered set of neighbor ids with a soft capacity.

    ``add`` refuses new links beyond capacity unless ``evict=True``, in
    which case the oldest link is dropped to make room -- the repair
    behaviour of an unstructured overlay absorbing a newcomer when all
    its members are full.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._links: Dict[int, None] = {}

    def __len__(self) -> int:
        return len(self._links)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._links

    def __iter__(self) -> Iterator[int]:
        return iter(self._links)

    @property
    def is_full(self) -> bool:
        return len(self._links) >= self.capacity

    def members(self) -> List[int]:
        """Neighbors in insertion order (a copy, safe to mutate)."""
        return list(self._links)

    def add(self, node_id: int, evict: bool = False) -> Optional[int]:
        """Add a neighbor.

        Returns the evicted neighbor id when eviction occurred, None
        otherwise.  Raises :class:`OverflowError` when full and
        ``evict`` is False; adding an existing neighbor is a no-op.
        """
        if node_id in self._links:
            return None
        evicted: Optional[int] = None
        if self.is_full:
            if not evict:
                raise OverflowError("link set full")
            evicted = next(iter(self._links))
            del self._links[evicted]
        self._links[node_id] = None
        return evicted

    def try_add(self, node_id: int) -> bool:
        """Add if capacity allows; True on success (or already linked)."""
        if node_id in self._links:
            return True
        if self.is_full:
            return False
        self._links[node_id] = None
        return True

    def remove(self, node_id: int) -> bool:
        """Drop a neighbor; True if it was present."""
        if node_id in self._links:
            del self._links[node_id]
            return True
        return False

    def clear(self) -> None:
        self._links.clear()

    def random_member(self, rng: Random) -> Optional[int]:
        if not self._links:
            return None
        return rng.choice(list(self._links))


class LinkTable:
    """Per-node :class:`LinkSet` registry for one overlay level.

    Links are kept *symmetric*: ``connect`` records the link on both
    endpoints (each against its own capacity) and ``disconnect`` removes
    both directions, so a node's ``len`` is exactly the number of links
    it maintains -- the Fig 15 / Fig 18 quantity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._table: Dict[int, LinkSet] = {}

    def links_of(self, node_id: int) -> LinkSet:
        links = self._table.get(node_id)
        if links is None:
            links = LinkSet(self.capacity)
            self._table[node_id] = links
        return links

    def nodes(self) -> List[int]:
        """Every node id with a registered link set, in sorted order.

        Sorted so that whole-table sweeps (metrics, invariant checks)
        visit nodes in a deterministic order.
        """
        return sorted(self._table)

    def degree(self, node_id: int) -> int:
        links = self._table.get(node_id)
        return len(links) if links is not None else 0

    def neighbors(self, node_id: int) -> List[int]:
        links = self._table.get(node_id)
        return links.members() if links is not None else []

    def connected(self, a: int, b: int) -> bool:
        return b in self.links_of(a)

    def connect(self, a: int, b: int, evict: bool = False) -> bool:
        """Create the undirected link a--b.

        Without ``evict`` the link forms only if *both* endpoints have
        spare capacity.  With ``evict`` a full endpoint drops its oldest
        link (symmetrically) to make room.  Returns True when the link
        exists afterwards.
        """
        if a == b:
            raise ValueError("a node cannot link to itself")
        la, lb = self.links_of(a), self.links_of(b)
        if b in la:
            return True
        if not evict and (la.is_full or lb.is_full):
            return False
        evicted_a = la.add(b, evict=evict)
        if evicted_a is not None:
            self.links_of(evicted_a).remove(a)
        evicted_b = lb.add(a, evict=evict)
        if evicted_b is not None:
            self.links_of(evicted_b).remove(b)
        return True

    def disconnect(self, a: int, b: int) -> None:
        self.links_of(a).remove(b)
        self.links_of(b).remove(a)

    def drop_all(self, node_id: int) -> None:
        """Remove every link of ``node_id`` (graceful departure notifies
        all neighbors, Section IV-A)."""
        for neighbor in self.links_of(node_id).members():
            self.links_of(neighbor).remove(node_id)
        self.links_of(node_id).clear()

    def total_links(self) -> int:
        """Number of undirected links in the whole table."""
        return sum(len(ls) for ls in self._table.values()) // 2
