"""Message-level (event-driven) TTL flooding.

DESIGN.md §5 documents that the harness resolves Algorithm 1's floods
by synchronous graph traversal and prices latency separately.  This
module is the *un-approximated* version: every query forwarding is a
scheduled message on the event engine, holders answer with a response
message, and the requester takes the first response to arrive.

It exists to validate the approximation (see
tests/test_overlay_async_flood.py: on a static overlay the two
implementations find a holder in agreement, and the async delay equals
the per-hop latency sum along the winning path) and as the building
block for anyone extending the reproduction toward full message-level
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

from repro.net.latency import LatencyModel
from repro.overlay.flood import FloodResult
from repro.sim.scheduler import Scheduler


@dataclass
class AsyncFloodOutcome:
    """Result of one event-driven flood."""

    result: FloodResult
    #: Wall-clock (virtual) time from query issue to the first response
    #: arriving back at the requester; None when the flood failed.
    response_delay: Optional[float] = None
    #: Total query messages sent (forwarding fan-out).
    messages_sent: int = 0


class AsyncFloodSearch:
    """Event-driven TTL flood over an overlay graph.

    The overlay adjacency and holder predicate are sampled *at message
    delivery time*, so concurrent churn is honoured -- unlike the
    synchronous traversal, which snapshots the graph.  On a static
    graph both produce the same provider at the same hop count
    (BFS-by-delay vs BFS-by-hops may differ when latencies are wildly
    heterogeneous; with homogeneous per-hop latency they agree).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel,
        neighbors_of: Callable[[int], Iterable[int]],
        is_holder: Callable[[int], bool],
        tracer=None,
    ):
        self.scheduler = scheduler
        self.latency = latency
        self.neighbors_of = neighbors_of
        self.is_holder = is_holder
        #: Optional repro.obs tracer: when truthy, every query issue /
        #: message delivery / response / timeout emits a trace event
        #: stamped with the scheduler's virtual clock.
        self.tracer = tracer

    def search(
        self,
        requester: int,
        start_neighbors: Iterable[int],
        ttl: int,
        on_complete: Callable[[AsyncFloodOutcome], None],
        timeout: float = 10.0,
    ) -> None:
        """Issue the query; ``on_complete`` fires exactly once.

        Completion happens at the first holder response, or at
        ``timeout`` seconds after issue when no response arrived (the
        requester then falls back to the server, as in Algorithm 1).
        """
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        state = _FloodState(
            requester=requester,
            issued_at=self.scheduler.now,
            on_complete=on_complete,
        )
        state.visited[requester] = None
        if self.tracer:
            state.span = self.tracer.begin_detached(
                "flood.async", node=requester, ttl=ttl
            )
        for neighbor in start_neighbors:
            self._forward(state, sender=requester, receiver=neighbor, depth=1, ttl=ttl)
        # Failure timer: fires unless a response completed the flood.
        state.timeout_event = self.scheduler.schedule(
            timeout, self._timed_out, state
        )

    # -- internals ----------------------------------------------------------

    def _forward(self, state: "_FloodState", sender: int, receiver: int,
                 depth: int, ttl: int) -> None:
        if receiver in state.visited:
            return
        state.visited[receiver] = sender
        state.messages_sent += 1
        delay = self.latency.sample(sender, receiver)
        if self.tracer:
            self.tracer.event(
                "flood.msg.forward", node=sender, receiver=receiver, depth=depth
            )
        self.scheduler.schedule(
            delay, self._deliver, state, receiver, depth, ttl
        )

    def _deliver(self, state: "_FloodState", node: int, depth: int, ttl: int) -> None:
        if state.done:
            return  # a response already won; drop stale traffic
        state.contacted += 1
        if self.is_holder(node):
            response_delay = self.latency.sample(node, state.requester)
            self.scheduler.schedule(
                response_delay, self._respond, state, node, depth
            )
            return
        if depth >= ttl:
            return
        for neighbor in self.neighbors_of(node):
            self._forward(state, sender=node, receiver=neighbor,
                          depth=depth + 1, ttl=ttl)

    def _respond(self, state: "_FloodState", holder: int, depth: int) -> None:
        if state.done:
            return
        state.done = True
        if state.timeout_event is not None:
            state.timeout_event.cancel()
        path = [holder]
        parent = state.visited.get(holder)
        while parent is not None:
            path.append(parent)
            parent = state.visited.get(parent)
        path.reverse()
        outcome = AsyncFloodOutcome(
            result=FloodResult(
                found=holder,
                hops=depth,
                contacted=state.contacted,
                path=path,
            ),
            response_delay=self.scheduler.now - state.issued_at,
            messages_sent=state.messages_sent,
        )
        if self.tracer:
            self.tracer.end(state.span, holder=holder, depth=depth)
        state.on_complete(outcome)

    def _timed_out(self, state: "_FloodState") -> None:
        if state.done:
            return
        state.done = True
        outcome = AsyncFloodOutcome(
            result=FloodResult(found=None, hops=0, contacted=state.contacted),
            response_delay=None,
            messages_sent=state.messages_sent,
        )
        if self.tracer:
            self.tracer.event(
                "flood.timeout", node=state.requester, contacted=state.contacted
            )
            self.tracer.end(state.span)
        state.on_complete(outcome)


@dataclass
class _FloodState:
    requester: int
    issued_at: float
    on_complete: Callable[[AsyncFloodOutcome], None]
    visited: Dict[int, Optional[int]] = field(default_factory=dict)
    contacted: int = 0
    messages_sent: int = 0
    done: bool = False
    timeout_event: Optional[object] = None
    #: Detached tracer span id covering issue -> response/timeout.
    span: Optional[int] = None
