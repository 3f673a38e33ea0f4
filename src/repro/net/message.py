"""Message and result records exchanged between peers, server and harness."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class ChunkSource(enum.Enum):
    """Where a video chunk was obtained from.

    The normalized-peer-bandwidth metric (Fig. 16) is the fraction of
    chunks whose source is :attr:`PEER` (or a peer-sourced
    :attr:`PREFETCH`) out of all chunks received.
    """

    SERVER = "server"
    PEER = "peer"
    CACHE = "cache"
    PREFETCH_PEER = "prefetch_peer"
    PREFETCH_SERVER = "prefetch_server"

    @property
    def is_peer(self) -> bool:
        """True when the bytes were uploaded by another peer."""
        return self in (ChunkSource.PEER, ChunkSource.PREFETCH_PEER)

    @property
    def counts_for_bandwidth(self) -> bool:
        """Chunks replayed from the local cache consumed nobody's uplink."""
        return self is not ChunkSource.CACHE


@dataclass
class VideoRequest:
    """A user's request to watch one video."""

    user_id: int
    video_id: int
    time: float


@dataclass
class LookupResult:
    """Outcome of a provider lookup for one video request.

    ``provider_id`` is None when the request must be served by the
    central server (``from_server=True``) or was satisfied locally
    (``from_cache=True``).  ``hops`` counts overlay forwarding hops the
    query travelled before a provider answered; ``peers_contacted``
    counts distinct peers that processed the query (search overhead).
    """

    video_id: int
    provider_id: Optional[int] = None
    from_server: bool = False
    from_cache: bool = False
    hops: int = 0
    peers_contacted: int = 0
    via_inter_link: bool = False
    query_path: List[int] = field(default_factory=list)

    @property
    def from_peer(self) -> bool:
        """True when a peer (not the server, not the local cache) serves."""
        return self.provider_id is not None and not self.from_server and not self.from_cache

    def server_fallback(self) -> "LookupResult":
        """The same search, ending in a server serve: its chosen peer
        failed or never replied."""
        return LookupResult(
            video_id=self.video_id,
            from_server=True,
            hops=self.hops,
            peers_contacted=self.peers_contacted,
        )

    def describe(self) -> str:
        """Human-readable one-liner, used by example scripts."""
        if self.from_cache:
            return f"video {self.video_id}: local cache"
        if self.from_server:
            return f"video {self.video_id}: server fallback after contacting {self.peers_contacted} peers"
        level = "inter-link" if self.via_inter_link else "inner-link"
        return (
            f"video {self.video_id}: peer {self.provider_id} via {level} "
            f"({self.hops} hops, {self.peers_contacted} peers contacted)"
        )
