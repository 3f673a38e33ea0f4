"""Unit tests for message/result records."""

from repro.net.message import ChunkSource, LookupResult


class TestChunkSource:
    def test_peer_sources(self):
        assert ChunkSource.PEER.is_peer
        assert ChunkSource.PREFETCH_PEER.is_peer

    def test_non_peer_sources(self):
        assert not ChunkSource.SERVER.is_peer
        assert not ChunkSource.PREFETCH_SERVER.is_peer
        assert not ChunkSource.CACHE.is_peer

    def test_cache_excluded_from_bandwidth(self):
        assert not ChunkSource.CACHE.counts_for_bandwidth
        assert ChunkSource.PEER.counts_for_bandwidth
        assert ChunkSource.SERVER.counts_for_bandwidth


class TestLookupResult:
    def test_peer_result(self):
        result = LookupResult(video_id=1, provider_id=42, hops=2)
        assert result.from_peer
        assert not result.from_server
        assert not result.from_cache

    def test_server_result(self):
        result = LookupResult(video_id=1, from_server=True)
        assert not result.from_peer

    def test_cache_result(self):
        result = LookupResult(video_id=1, from_cache=True)
        assert not result.from_peer
