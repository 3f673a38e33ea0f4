"""Channel-facilitated popularity-based prefetching (Section IV-B).

While a node watches a fully downloaded video, it prefetches the first
chunks of the ``M`` most popular videos of the channel it is watching
(popularity published periodically by the server, which tracks per-video
view counts).  Because within-channel popularity is ~Zipf(s=1), a small
``M`` captures a large probability mass: the paper computes 26.2% for a
single prefetch in a 25-video channel and 54.6% for 3-4 prefetches (see
:func:`repro.core.model.prefetch_accuracy`).
"""

from __future__ import annotations

from typing import List, Set

from repro.net.server import CentralServer
from repro.trace.dataset import TraceDataset


class ChannelPrefetcher:
    """Ranks prefetch candidates for SocialTube nodes."""

    def __init__(self, dataset: TraceDataset, server: CentralServer, window: int = 3):
        """``window`` is M, the number of first chunks fetched per watch.

        "users prefetch the first chunks of 3 top popular videos within
        the channel it currently is watching" (Section V-B).
        """
        if window < 0:
            raise ValueError("window must be >= 0")
        self.dataset = dataset
        self.server = server
        self.window = window

    def candidates(
        self,
        channel_id: int,
        already_have: Set[int],
        currently_watching: int,
        count: int = None,
    ) -> List[int]:
        """Top-popularity videos of the channel worth prefetching.

        Skips the video being watched and anything already cached or
        prefetched; asks the server's popularity feed for a few extra
        entries so skips do not shrink the result below ``count``.
        """
        want = self.window if count is None else count
        if want <= 0:
            return []
        # Over-fetch to survive the skips.
        feed = self.server.top_videos_of_channel(
            channel_id, want + len(already_have) + 1
        )
        picks: List[int] = []
        for video_id in feed:
            if video_id == currently_watching or video_id in already_have:
                continue
            picks.append(video_id)
            if len(picks) >= want:
                break
        return picks

    def ranked_channel_videos(self, channel_id: int) -> List[int]:
        """Full popularity ranking of a channel (most viewed first)."""
        return self.server.top_videos_of_channel(
            channel_id, len(self.dataset.videos_of_channel(channel_id))
        )
