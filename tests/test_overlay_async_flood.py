"""Tests for the event-driven flood and its agreement with the
synchronous traversal (the DESIGN.md §5 approximation validation)."""

import random

import pytest

from async_flood import AsyncFloodSearch
from repro.net.latency import UniformLatencyModel
from repro.overlay.flood import ttl_flood
from repro.sim.engine import EventScheduler


def _line_graph(n):
    adjacency = {i: [] for i in range(n)}
    for i in range(n - 1):
        adjacency[i].append(i + 1)
        adjacency[i + 1].append(i)
    return adjacency


def _run_async(adjacency, requester, holders, ttl, timeout=10.0, latency=None):
    scheduler = EventScheduler()
    latency = latency or UniformLatencyModel(random.Random(1), low=0.05, high=0.05)
    search = AsyncFloodSearch(
        scheduler,
        latency,
        neighbors_of=adjacency.__getitem__,
        is_holder=lambda n: n in holders,
    )
    outcomes = []
    search.search(requester, adjacency[requester], ttl, outcomes.append,
                  timeout=timeout)
    scheduler.run()
    assert len(outcomes) == 1  # completion fires exactly once
    return outcomes[0]


class TestAsyncFlood:
    def test_invalid_parameters_rejected(self):
        scheduler = EventScheduler()
        latency = UniformLatencyModel(random.Random(1))
        search = AsyncFloodSearch(scheduler, latency, lambda n: [], lambda n: False)
        with pytest.raises(ValueError):
            search.search(0, [], ttl=0, on_complete=lambda o: None)
        with pytest.raises(ValueError):
            search.search(0, [], ttl=1, on_complete=lambda o: None, timeout=0)

    def test_direct_neighbor_found(self):
        adj = _line_graph(3)
        outcome = _run_async(adj, 0, {1}, ttl=2)
        assert outcome.result.found == 1
        assert outcome.result.hops == 1
        # Fixed 50ms one-way latency: request + response = 100ms.
        assert outcome.response_delay == pytest.approx(0.10)

    def test_two_hop_delay_is_path_sum(self):
        adj = _line_graph(4)
        outcome = _run_async(adj, 0, {2}, ttl=2)
        assert outcome.result.found == 2
        # Two forwarding hops + one response hop at 50ms each.
        assert outcome.response_delay == pytest.approx(0.15)

    def test_failure_times_out(self):
        adj = _line_graph(6)
        outcome = _run_async(adj, 0, {5}, ttl=2, timeout=1.0)
        assert not outcome.result.success
        assert outcome.response_delay is None

    def test_timeout_cancelled_on_success(self):
        adj = _line_graph(3)
        scheduler = EventScheduler()
        latency = UniformLatencyModel(random.Random(1), low=0.01, high=0.01)
        search = AsyncFloodSearch(
            scheduler, latency, adj.__getitem__, lambda n: n == 1
        )
        outcomes = []
        search.search(0, adj[0], 2, outcomes.append, timeout=100.0)
        scheduler.run()
        assert len(outcomes) == 1
        # The heap drained: the timeout did not linger until t=100.
        assert scheduler.now < 1.0

    def test_messages_counted(self):
        adj = {0: [1, 2], 1: [0], 2: [0]}
        outcome = _run_async(adj, 0, set(), ttl=2, timeout=1.0)
        assert outcome.messages_sent == 2


class TestAgreementWithSyncTraversal:
    """On static graphs with homogeneous latency, async == sync."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graph_agreement(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        adjacency = {i: set() for i in range(n)}
        for _ in range(3 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        adjacency = {k: sorted(v) for k, v in adjacency.items()}
        holders = {i for i in range(n) if rng.random() < 0.25}
        requester = rng.randrange(n)
        ttl = rng.randint(1, 3)

        sync = ttl_flood(
            requester,
            adjacency[requester],
            adjacency.__getitem__,
            lambda node: node in holders,
            ttl=ttl,
        )
        outcome = _run_async(adjacency, requester, holders, ttl=ttl)

        assert sync.success == outcome.result.success
        if sync.success:
            # Homogeneous latency: earliest response = fewest hops.
            assert outcome.result.hops == sync.hops
            assert outcome.result.found in holders
            expected_delay = 0.05 * (sync.hops + 1)
            assert outcome.response_delay == pytest.approx(expected_delay)
