"""The interest-based per-community two-level overlay (Section IV-A).

Lower level: the subscribers/viewers currently engaged with a channel
form that channel's overlay; a node keeps at most ``N_l`` *inner-links*
there.  Higher level: nodes watching channels of the same interest
category are clustered; a node keeps at most ``N_h`` *inter-links* to
nodes in *other* channels of its current category.

Following the paper's example (Fig 14): a node is "in" one channel at a
time (the channel it is currently watching); when it moves to a channel
in the same category its inter-links persist, and when it moves to a
different category it maintains "no links to users outside of his/her
channel or category", so stale inter-links are dropped.

Joining (Section IV-A): the server hands the newcomer one random member
of the channel overlay plus one random member of each other channel in
the category; further links accrete from successful searches ("u9
connects to the video provider ... until the number reaches N_l").
"""

from __future__ import annotations

from random import Random
from typing import Callable, Dict, List, Optional, Set

from repro.net.server import CentralServer
from repro.overlay.links import LinkTable
from repro.trace.dataset import TraceDataset


class HierarchicalStructure:
    """Manages inner/inter link state for every SocialTube node."""

    def __init__(
        self,
        dataset: TraceDataset,
        server: CentralServer,
        rng: Random,
        inner_link_limit: int = 5,
        inter_link_limit: int = 10,
        bootstrap_inner_links: int = 3,
        bootstrap_inter_links: Optional[int] = None,
    ):
        if inner_link_limit < 1 or inter_link_limit < 1:
            raise ValueError("link limits must be >= 1")
        if bootstrap_inter_links is None:
            # The join procedure hands the newcomer "a node in each
            # channel in this channel's higher-level overlay", i.e. the
            # category level is populated up to N_h right away.
            bootstrap_inter_links = inter_link_limit
        if bootstrap_inner_links < 0 or bootstrap_inter_links < 0:
            raise ValueError("bootstrap link counts must be >= 0")
        self.dataset = dataset
        self.server = server
        self.rng = rng
        self.inner_link_limit = inner_link_limit
        self.inter_link_limit = inter_link_limit
        self.bootstrap_inner_links = min(bootstrap_inner_links, inner_link_limit)
        self.bootstrap_inter_links = min(bootstrap_inter_links, inter_link_limit)
        self.inner = LinkTable(inner_link_limit)
        self.inter = LinkTable(inter_link_limit)
        #: The channel overlay each node currently belongs to.
        self.channel_of: Dict[int, Optional[int]] = {}
        #: Remembered neighbors for reconnection after an off period
        #: ("The next time when the node logs in, it first tries to
        #: connect to its previous neighbors").
        self._previous_inner: Dict[int, List[int]] = {}
        self._previous_inter: Dict[int, List[int]] = {}
        #: Nodes that crashed abruptly and whose dangling links await
        #: the crash-repair sweep.  The invariant checker tolerates
        #: violations involving these nodes (an in-flight repair is not
        #: a corrupted structure); see repro.lint.invariants.
        self.pending_repairs: Set[int] = set()

    # -- queries -----------------------------------------------------------

    def current_channel(self, node_id: int) -> Optional[int]:
        return self.channel_of.get(node_id)

    def current_category(self, node_id: int) -> Optional[int]:
        channel = self.channel_of.get(node_id)
        if channel is None:
            return None
        return self.dataset.category_of_channel(channel)

    def inner_neighbors(self, node_id: int) -> List[int]:
        return self.inner.neighbors(node_id)

    def inter_neighbors(self, node_id: int) -> List[int]:
        return self.inter.neighbors(node_id)

    def link_count(self, node_id: int) -> int:
        """Total links the node maintains (the Fig 18 metric)."""
        return self.inner.degree(node_id) + self.inter.degree(node_id)

    # -- joining / leaving ------------------------------------------------------

    def enter_channel(
        self,
        node_id: int,
        channel_id: int,
        is_alive: Callable[[int], bool],
    ) -> None:
        """Move a node into a channel overlay (join or channel switch).

        Switching within the same category *demotes* the old inner-links
        to inter-links instead of dropping them: the old neighbors are
        now nodes in a different channel of the node's category, exactly
        what inter-links are (this is how Fig 18's SocialTube curve
        stays ~constant at N_l + N_h after the initial phase).  Moving
        to a different category drops everything -- "u9 maintains no
        links to users outside of his/her channel or category".

        ``is_alive`` filters remembered neighbors that are no longer
        online (lazy failure detection).  Re-entering the current
        channel is a no-op.
        """
        previous = self.channel_of.get(node_id)
        if previous == channel_id:
            return
        new_category = self.dataset.category_of_channel(channel_id)
        if previous is not None:
            if self.dataset.category_of_channel(previous) == new_category:
                self._demote_inner_links(node_id, is_alive)
                self.server.unregister_channel_member(previous, node_id)
            else:
                self._leave_channel_level(node_id)
                self._leave_category_level(node_id)
        self.channel_of[node_id] = channel_id
        self._register(node_id, channel_id)
        self._bootstrap_inner(node_id, channel_id, is_alive)
        self._bootstrap_inter(node_id, channel_id, new_category, is_alive)

    def _demote_inner_links(
        self, node_id: int, is_alive: Callable[[int], bool]
    ) -> None:
        """Turn the node's inner-links into inter-links (same category)."""
        for neighbor in self.inner.neighbors(node_id):
            self.inner.disconnect(node_id, neighbor)
            if not is_alive(neighbor):
                continue
            if self.inter.degree(node_id) < self.inter_link_limit:
                self.inter.connect(node_id, neighbor, evict=True)

    def leave(self, node_id: int) -> None:
        """Graceful departure: notify and drop all links, remember them."""
        self._previous_inner[node_id] = self.inner.neighbors(node_id)
        self._previous_inter[node_id] = self.inter.neighbors(node_id)
        channel = self.channel_of.get(node_id)
        if channel is not None:
            self.server.unregister_channel_member(channel, node_id)
        self.inner.drop_all(node_id)
        self.inter.drop_all(node_id)
        self.channel_of[node_id] = None

    def crash(self, node_id: int) -> None:
        """Abrupt departure: the node vanishes *without* notifying anyone.

        Unlike :meth:`leave`, the link tables are left intact -- every
        surviving neighbor still holds a link to the dead node (the
        dangling-link state the paper's probe cycle detects).  The
        tracker forgets the node immediately (its lease lapses via
        ``server.node_offline``, handled by the protocol), but peer link
        state heals only when :meth:`repair_crashed` runs at the end of
        the repair window.  Previous-neighbor memory is still recorded
        so the node can attempt reconnection on its next session.
        """
        self._previous_inner[node_id] = self.inner.neighbors(node_id)
        self._previous_inter[node_id] = self.inter.neighbors(node_id)
        channel = self.channel_of.get(node_id)
        if channel is not None:
            self.server.unregister_channel_member(channel, node_id)
        self.channel_of[node_id] = None
        self.pending_repairs.add(node_id)

    def repair_crashed(
        self, node_id: int, is_alive: Callable[[int], bool]
    ) -> int:
        """Crash-repair sweep: survivors shed the dead link and re-link.

        Runs one repair window after :meth:`crash`.  Every surviving
        neighbor drops its link to the dead node and tops its budget
        back up through the regular maintenance path (which respects
        the ``N_l``/``N_h`` bounds by construction).  The dead node's
        own rows are cleared last.  Returns the number of surviving
        neighbors repaired; idempotent, and a no-op for nodes that
        were never crashed (or already repaired).
        """
        if node_id not in self.pending_repairs:
            return 0  # never crashed, already repaired, or rejoined since
        repaired = 0
        for table in (self.inner, self.inter):
            for neighbor in table.neighbors(node_id):
                table.disconnect(node_id, neighbor)
                if is_alive(neighbor):
                    self.maintain(neighbor, is_alive)
                    repaired += 1
        self.inner.drop_all(node_id)
        self.inter.drop_all(node_id)
        self.pending_repairs.discard(node_id)
        return repaired

    def rejoin(
        self,
        node_id: int,
        channel_id: int,
        is_alive: Callable[[int], bool],
    ) -> bool:
        """Reconnect after an off period.

        Tries previous neighbors first; falls back to a server-assisted
        join when none survive.  Returns True when at least one previous
        neighbor was still alive (no server bootstrap was needed).
        """
        alive_inner = [
            n
            for n in self._previous_inner.get(node_id, [])
            if is_alive(n) and self.channel_of.get(n) == channel_id
        ]
        category = self.dataset.category_of_channel(channel_id)
        alive_inter = [
            n
            for n in self._previous_inter.get(node_id, [])
            if is_alive(n)
            and self.current_category(n) == category
            and self.channel_of.get(n) != channel_id
        ]
        if not alive_inner and not alive_inter:
            self.enter_channel(node_id, channel_id, is_alive)
            return False
        self.channel_of[node_id] = channel_id
        self._register(node_id, channel_id)
        for neighbor in alive_inner:
            if self.inner.degree(node_id) >= self.inner_link_limit:
                break
            self.inner.connect(node_id, neighbor, evict=True)
        for neighbor in alive_inter:
            if self.inter.degree(node_id) >= self.inter_link_limit:
                break
            self.inter.connect(node_id, neighbor, evict=True)
        # Top up whatever the surviving neighbors did not cover.
        self._bootstrap_inner(node_id, channel_id, is_alive)
        self._bootstrap_inter(node_id, channel_id, category, is_alive)
        return True

    # -- link accretion from successful searches ----------------------------------

    def adopt_inner_provider(self, node_id: int, provider_id: int) -> bool:
        """Connect to a provider found in the channel overlay.

        "u9 connects to the video provider and ... builds its links to
        other nodes in the lower-level channel overlay until the number
        reaches N_l."
        """
        if provider_id == node_id:
            return False
        if self.inner.degree(node_id) >= self.inner_link_limit:
            return False
        return self.inner.connect(node_id, provider_id, evict=True)

    def adopt_inter_provider(self, node_id: int, provider_id: int) -> bool:
        """Connect to a provider found through the category cluster.

        "u9 connects to u5 if the number of its inter-links is less
        than N_h."
        """
        if provider_id == node_id:
            return False
        if self.inter.degree(node_id) >= self.inter_link_limit:
            return False
        return self.inter.connect(node_id, provider_id, evict=True)

    # -- failure handling -----------------------------------------------------------

    def drop_dead_neighbor(self, node_id: int, neighbor_id: int) -> None:
        """Remove links to a neighbor found dead (lazy probe detection)."""
        self.inner.disconnect(node_id, neighbor_id)
        self.inter.disconnect(node_id, neighbor_id)

    # -- invariants --------------------------------------------------------------

    def check_invariants(self) -> List["InvariantViolation"]:
        """Validate the paper's structural invariants on the live overlay.

        Delegates to :func:`repro.lint.invariants.check_overlay`:
        ``N_l``/``N_h`` capacity bounds, link symmetry, no self-links,
        and no links held by or pointing at departed nodes.  Returns the
        violations (empty on a healthy structure); see
        :func:`repro.lint.invariants.install_invariant_hook` for the
        periodic in-sim variant that fails fast.
        """
        # Imported here so the core layer has no import-time dependency
        # on the lint tooling.
        from repro.lint.invariants import InvariantViolation, check_overlay

        return check_overlay(self)

    def assert_invariants(self) -> None:
        """Raise :class:`OverlayInvariantError` if any invariant is broken."""
        from repro.lint.invariants import OverlayInvariantError

        violations = self.check_invariants()
        if violations:
            raise OverlayInvariantError(violations)

    # -- internals ----------------------------------------------------------------------

    def _register(self, node_id: int, channel_id: int) -> None:
        self.server.register_channel_member(channel_id, node_id)
        # A crashed node that comes back before its repair window
        # elapsed is whole again: its old links are live links now, so
        # the pending sweep (keyed on this set) must become a no-op.
        self.pending_repairs.discard(node_id)

    def _leave_channel_level(self, node_id: int) -> None:
        channel = self.channel_of.get(node_id)
        if channel is not None:
            self.server.unregister_channel_member(channel, node_id)
        self.inner.drop_all(node_id)

    def _leave_category_level(self, node_id: int) -> None:
        self.inter.drop_all(node_id)

    def maintain(self, node_id: int, is_alive: Callable[[int], bool]) -> None:
        """Periodic neighbor maintenance (Section IV-A).

        "Each node periodically probes its neighbors.  If a node finds
        that its neighbors have left the system abruptly or have failed,
        it removes its links to these neighbors and adds more neighbors
        as described previously."  Probe *traffic* is modelled
        analytically (DESIGN.md section 5); this performs the repair:
        drop dead links, then top both levels back up.
        """
        channel_id = self.channel_of.get(node_id)
        if channel_id is None:
            return
        for neighbor in self.inner.neighbors(node_id):
            if not is_alive(neighbor):
                self.inner.disconnect(node_id, neighbor)
        for neighbor in self.inter.neighbors(node_id):
            if not is_alive(neighbor):
                self.inter.disconnect(node_id, neighbor)
        # Repair builds toward the full budgets ("u9 builds its links
        # ... until the number reaches N_l"), unlike the initial join
        # which starts from the server's few recommendations.
        self._bootstrap_inner(
            node_id, channel_id, is_alive, target=self.inner_link_limit
        )
        self._bootstrap_inter(
            node_id,
            channel_id,
            self.dataset.category_of_channel(channel_id),
            is_alive,
        )

    def _bootstrap_inner(
        self,
        node_id: int,
        channel_id: int,
        is_alive: Callable[[int], bool],
        target: Optional[int] = None,
    ) -> None:
        """Server-assisted inner links, retried past dead entries.

        The paper's join hands out one member and lets searches accrete
        the rest up to N_l; we bootstrap a few so the channel overlay is
        searchable immediately at sub-paper scales, and the maintenance
        cycle passes ``target=N_l`` to keep building.  Targets with
        spare capacity are preferred; eviction is the last resort
        (stealing a full node's oldest link shrinks the overlay's total
        edge count).
        """
        goal = self.bootstrap_inner_links if target is None else target
        goal = min(goal, self.inner_link_limit)
        want = goal - self.inner.degree(node_id)
        attempts = 0
        full_targets: List[int] = []
        while want > 0 and attempts < 4 * goal:
            attempts += 1
            pick = self.server.random_channel_member(channel_id, exclude=node_id)
            if pick is None:
                break
            if not is_alive(pick):
                self.server.unregister_channel_member(channel_id, pick)
                continue
            if self.inner.connect(node_id, pick, evict=False):
                want -= 1
            else:
                full_targets.append(pick)
        for pick in full_targets:
            if want <= 0:
                break
            if self.inner.connect(node_id, pick, evict=True):
                want -= 1

    def _bootstrap_inter(
        self,
        node_id: int,
        channel_id: int,
        category_id: int,
        is_alive: Callable[[int], bool],
    ) -> None:
        """Server-assisted inter links into other channels of the category."""
        budget = min(
            self.bootstrap_inter_links,
            self.inter_link_limit - self.inter.degree(node_id),
        )
        if budget <= 0:
            return
        picks = self.server.random_members_per_channel_in_category(
            category_id, exclude=node_id, limit=3 * budget
        )
        added = 0
        full_targets: List[int] = []
        for pick in picks:
            if added >= budget:
                break
            if pick == node_id or not is_alive(pick):
                continue
            if self.channel_of.get(pick) == channel_id:
                continue  # inter-links go to *other* channels
            if self.inter.connect(node_id, pick, evict=False):
                added += 1
            else:
                full_targets.append(pick)
        for pick in full_targets:
            if added >= budget:
                break
            if self.inter.connect(node_id, pick, evict=True):
                added += 1
