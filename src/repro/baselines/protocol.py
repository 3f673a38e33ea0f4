"""The VoD protocol interface and common per-peer state.

All three systems -- SocialTube, NetTube, PA-VoD -- implement
:class:`VodProtocol`; the experiment runner drives them identically and
only the overlay/search/prefetch logic differs.  This mirrors the
paper's evaluation: same workload, same churn, same network, three
protocol stacks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random
from typing import Callable, Dict, List, Optional

from repro.core.cache import PrefetchStore, PrefetchedChunk, VideoCache
from repro.net.bandwidth import SharedUploadLink
from repro.net.message import ChunkSource, LookupResult
from repro.net.server import CentralServer
from repro.obs.tracer import NULL_TRACER
from repro.trace.dataset import TraceDataset


class PeerState:
    """Per-peer state common to every protocol.

    * ``cache`` -- full videos the peer can serve (Section IV: "users
      maintain a cache of all videos watched"; persisted across
      sessions per Section V: "Nodes store their cached videos for
      their next session").  PA-VoD disables it.
    * ``prefetched`` -- first chunks fetched ahead of demand, bounded
      ("The value of M is determined by each node's cache size").
    * ``uplink`` -- the peer's shared upload link.
    """

    def __init__(
        self,
        user_id: int,
        upload_capacity_bps: float,
        prefetch_capacity: int = 50,
        cache_capacity: Optional[int] = None,
    ):
        self.user_id = user_id
        self.online = False
        self.cache = VideoCache(max_videos=cache_capacity)
        self.prefetched = PrefetchStore(capacity=prefetch_capacity)
        self.uplink = SharedUploadLink(upload_capacity_bps, owner_id=user_id)
        self.current_video: Optional[int] = None
        self.videos_watched_total = 0
        self.sessions_completed = 0

    def cache_video(self, video_id: int) -> None:
        self.cache.add(video_id)
        # A full copy supersedes a prefetched first chunk.
        self.prefetched.discard(video_id)

    def store_prefetch(self, video_id: int, source: ChunkSource, now: float) -> None:
        """Insert a prefetched first chunk unless the full video is cached."""
        if video_id in self.cache:
            return
        self.prefetched.store(video_id, source, now)

    def take_prefetch(self, video_id: int) -> Optional[PrefetchedChunk]:
        """Consume the prefetched first chunk for ``video_id`` if present."""
        return self.prefetched.take(video_id)

    def has_video(self, video_id: int) -> bool:
        """Whether this peer can serve a full copy of ``video_id``."""
        return video_id in self.cache


class VodProtocol(ABC):
    """Interface between the experiment runner and a protocol stack."""

    #: Human-readable system name, used in reports.
    name: str = "abstract"
    #: Whether peers keep watched videos for later serving.
    uses_cache: bool = True

    def __init__(self, dataset: TraceDataset, server: CentralServer, rng: Random):
        self.dataset = dataset
        self.server = server
        self.rng = rng
        self.peers: Dict[int, PeerState] = {}
        #: Virtual-clock accessor, wired to the event scheduler by the
        #: runner; protocols needing time (e.g. PA-VoD's download
        #: progress) call ``self.now_fn()``.
        self.now_fn = lambda: 0.0
        #: repro.obs tracer, wired by the runner (same pattern as
        #: ``now_fn``).  Defaults to the falsy NULL_TRACER so protocol
        #: code can guard hot paths with ``if self.tracer:``.
        self.tracer = NULL_TRACER
        #: Network-partition reachability predicate, set by the fault recovery
        #: only *during* a partition window (None otherwise, so the
        #: fault-free hot path pays one identity check).  When set,
        #: ``partition_guard(a, b)`` is False for peers on opposite
        #: sides of the severed bisection: searches and maintenance
        #: must skip -- not drop -- unreachable neighbors, because the
        #: links come back when the partition heals.
        self.partition_guard: Optional[Callable[[int, int], bool]] = None

    def can_reach(self, a: int, b: int) -> bool:
        """Whether peers ``a`` and ``b`` can talk right now.

        True outside partition windows; during one, both must be on
        the same side of the bisection.  The server is always
        reachable (it is not a peer and has no side).
        """
        guard = self.partition_guard
        return guard is None or guard(a, b)

    # -- peer registry -------------------------------------------------------

    def register_peer(self, state: PeerState) -> None:
        """Called once per user by the runner before the simulation starts."""
        self.peers[state.user_id] = state

    def state(self, user_id: int) -> PeerState:
        return self.peers[user_id]

    def is_online_holder(self, user_id: int, video_id: int) -> bool:
        """Holder predicate used by flooding searches."""
        peer = self.peers.get(user_id)
        return peer is not None and peer.online and peer.has_video(video_id)

    # -- lifecycle hooks -------------------------------------------------------

    @abstractmethod
    def on_session_start(self, user_id: int) -> None:
        """The user logged in; join overlays / contact the tracker."""

    @abstractmethod
    def on_session_end(self, user_id: int) -> None:
        """The user logged off; leave overlays gracefully."""

    def on_crash(self, user_id: int) -> None:
        """The node died abruptly (crash-churn, see repro.faults).

        Default: identical to a graceful logoff -- correct for
        protocols without standing links (PA-VoD).  Protocols with
        overlay link state override this to leave the dead node's links
        *dangling* until :meth:`repair_after_crash` runs, which is the
        failure mode the paper's probe cycle exists to repair.
        """
        self.on_session_end(user_id)

    def repair_after_crash(self, user_id: int) -> int:
        """Crash-repair sweep, one repair window after ``user_id`` died.

        Survivors drop their links to the dead node and re-link within
        their budget.  Returns the number of surviving neighbors
        repaired (0 by default -- no link state to heal).
        """
        return 0

    @abstractmethod
    def locate(self, user_id: int, video_id: int) -> LookupResult:
        """Find a provider for ``video_id`` (Algorithm 1 or equivalent)."""

    def relocate(self, user_id: int, video_id: int) -> LookupResult:
        """Re-search for a *replacement* provider after an interruption.

        Identical to :meth:`locate` except the requester's own copy is
        masked for the duration of the search: the consumer cached the
        video at watch start (the download-completes-early assumption),
        but a crashed provider means the local copy is incomplete, so a
        cache hit must not satisfy the failover.  Only ever called on
        fault-injected runs.
        """
        peer = self.state(user_id)
        had_copy = video_id in peer.cache
        if had_copy:
            peer.cache.discard(video_id)
        try:
            return self.locate(user_id, video_id)
        finally:
            if had_copy:
                peer.cache.add(video_id)

    def on_watch_started(self, user_id: int, video_id: int) -> None:
        """Playback began; default marks the current video and caches it.

        Caching at watch start models the paper's assumption that the
        download completes well before playback ends (download bandwidth
        at least twice the bitrate, Section IV-B), so a watching node is
        already a provider -- which is also what makes PA-VoD's
        "currently watching" providers workable.
        """
        peer = self.state(user_id)
        peer.current_video = video_id
        if self.uses_cache:
            peer.cache_video(video_id)

    def on_watch_finished(self, user_id: int, video_id: int) -> None:
        """Playback ended; default just clears the current video."""
        peer = self.state(user_id)
        peer.current_video = None
        peer.videos_watched_total += 1

    def on_maintenance(self, user_id: int) -> None:
        """Periodic neighbor maintenance (probe cycle).

        The runner invokes this once per watched video -- comparable
        cadence to the paper's 10-minute probes given ~3.5-minute
        videos.  Default: nothing (PA-VoD keeps no links).
        """

    def reannounce(self, user_id: int) -> int:
        """Re-register this peer's tracker state after a tracker outage.

        The tracker came back *empty* (its state died with it), so
        every online peer pushes its view back up: presence here, plus
        whatever protocol-specific registrations the subclass re-files
        (channel membership, per-video overlays, current watches).
        Returns the number of re-registration reports filed, presence
        included.  Only ever called on fault-injected runs.
        """
        peer = self.peers.get(user_id)
        if peer is None or not peer.online:
            return 0
        self.server.node_online(user_id)
        return 1

    # -- prefetching --------------------------------------------------------------

    def select_prefetch(self, user_id: int, video_id: int, count: int) -> List[int]:
        """Videos whose first chunk to prefetch while watching ``video_id``.

        Default: no prefetching (PA-VoD).
        """
        return []

    def prefetch_source(self, user_id: int, video_id: int) -> ChunkSource:
        """Where a prefetched first chunk would come from.

        Default: the server (protocols with overlays check neighbors).
        """
        return ChunkSource.PREFETCH_SERVER

    # -- metrics ---------------------------------------------------------------------

    @abstractmethod
    def link_count(self, user_id: int) -> int:
        """Number of overlay links the node currently maintains."""
