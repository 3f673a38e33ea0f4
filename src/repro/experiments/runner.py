"""Drives one :class:`ExperimentSpec` end to end.

The runner wires together every substrate: the synthesized trace, the
event engine, the latency/bandwidth models, the central server, one
protocol stack (resolved through the typed registry), the 75/15/10
workload, churned sessions, and the metrics collectors.  The per-user
lifecycle is::

    join (staggered) -> session: [select video -> locate -> startup ->
    watch -> prefetch -> sample overhead] x videos_per_session ->
    graceful leave -> Poisson off time -> next session -> ...

Entry point: :func:`run_spec` -- the canonical call: one frozen
:class:`ExperimentSpec` in, one :class:`ExperimentResult` out.  This is
also what sweep workers execute (see :mod:`repro.experiments.parallel`).

Delay model (documented in DESIGN.md section 5):

* peer provider found by flooding: one one-way latency per hop along
  the actual query path, plus the provider's one-way response, plus the
  startup-buffer transfer at the provider's granted upload share;
* tracker referral: a server round trip plus the provider round trip;
* server fallback: the failed flood phases (2 x TTL one-way samples
  each), a server round trip, and the buffer transfer at the server's
  granted share -- which is where saturation turns into seconds;
* prefetched first chunk or cached video: playback starts locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.protocol import PeerState
from repro.experiments.config import Environment, environment_by_name
from repro.experiments.registry import create_protocol
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.metrics.collectors import ExperimentMetrics, MetricsCollector
from repro.net.latency import SERVER_NODE_ID
from repro.net.message import ChunkSource, LookupResult
from repro.net.streaming import simulate_playback, simulate_resume
from repro.net.server import CentralServer, ServerOverloadError
from repro.obs.tracer import NULL_TRACER
from repro.overlay.maintenance import record_link_sample, record_repair_sweep
from repro.sim.churn import ChurnModel, SessionPlan
from repro.sim.engine import EventScheduler
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.trace.dataset import TraceDataset, primary_interest
from repro.workload.selection import VideoSelector
from repro.workload.session import SessionTracker


@dataclass
class _ActiveWatch:
    """One in-flight watch, tracked only on fault-injected runs.

    ``offset`` is the number of chunks already local when the *current*
    transfer began (1 after a prefetch hit, ``chunks_done`` after a
    failover resume), so the interruption handler can convert elapsed
    transfer time into delivered chunks.  ``transfer_start_t`` is
    approximated by the request instant -- chunk-granularity slack the
    failover model absorbs.
    """

    video_id: int
    provider_id: Optional[int]  # None for server- or cache-sourced watches
    grant: object  # TransferGrant, or None on a cache hit
    rate_bps: float  # effective (possibly fault-degraded) transfer rate
    request_t: float
    startup_s: float
    chunks: int
    offset: int
    transfer_start_t: float
    span_id: object
    finish_event: object


@dataclass
class _FailoverState:
    """One consumer between losing its provider and resuming."""

    watch: _ActiveWatch
    interrupted_at: float
    chunks_done: int
    attempt: int = 0


@dataclass
class ExperimentResult:
    """Everything a bench needs from one run."""

    metrics: ExperimentMetrics
    server_requests: int
    tracker_lookups: int
    events_processed: int
    sim_duration_s: float
    prefetch_hit_rate: float

    def render_rows(self):
        rows = list(self.metrics.render_rows())
        rows.append(
            f"  server: {self.server_requests} direct serves, "
            f"{self.tracker_lookups} tracker lookups; "
            f"{self.events_processed} events over {self.sim_duration_s/3600.0:.1f} sim hours"
        )
        return rows


class ExperimentRunner:
    """Builds and runs the experiment one spec describes.

    ``dataset`` short-circuits trace synthesis with a pre-built corpus
    (the shared trace cache, a worker's deserialized snapshot);
    ``environment`` overrides the spec's named environment with a
    custom :class:`Environment` instance (testbed emulations).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        dataset: Optional[TraceDataset] = None,
        environment: Optional[Environment] = None,
        tracer=None,
    ):
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                "ExperimentRunner takes an ExperimentSpec; build one "
                "(see ExperimentSpec.with_params/with_seed) and call run_spec"
            )
        self.spec = spec
        config = spec.config
        self.config = config
        self.environment = environment or environment_by_name(spec.environment)
        self.protocol_name = spec.protocol
        self.params = spec.resolved_params()

        # Each run owns an independent stream family rooted at its
        # spec's seed -- the contract that makes parallel sweeps
        # byte-identical to serial execution (see RngStreams.for_run).
        streams = RngStreams.for_run(config.seed)
        self._rng_workload = streams.stream("workload")
        self._rng_churn = streams.stream("churn")
        self._rng_latency = streams.stream("latency")
        self._rng_protocol = streams.stream("protocol")
        self._rng_capacity = streams.stream("peer-capacity")
        self._rng_failures = streams.stream("failures")

        # Fault injection (repro.faults).  The injector draws from its
        # own "faults.*" substreams, so a zero plan leaves every other
        # stream's sequence untouched; NULL_INJECTOR is falsy, so every
        # fault hook below reduces to one truthiness check when off.
        plan = spec.resolved_faults()
        self.fault_plan = plan
        self.faults = FaultInjector(plan, streams) if plan else NULL_INJECTOR
        self._crash_events: Dict[int, object] = {}  # user -> pending crash
        self._watches: Dict[int, _ActiveWatch] = {}
        #: provider -> ordered set of consumers mid-transfer from it.
        self._consumers: Dict[int, Dict[int, None]] = {}
        self._failovers: Dict[int, _FailoverState] = {}
        self._serve_ctx = None  # (provider_id, rate_bps) of the last serve
        #: True only while retrying a request past the shed budget: the
        #: server must admit it even under flash-crowd admission control.
        self._serve_forced = False
        #: node -> partition side, populated lazily while a network
        #: partition is active (None otherwise).
        self._partition_sides: Optional[Dict[int, int]] = None

        self.dataset = dataset or shared_trace_cache.dataset_for(config.trace)
        if config.num_nodes > self.dataset.num_users:
            raise ValueError("config.num_nodes exceeds dataset population")

        self.latency = self.environment.latency_factory(self._rng_latency)
        self.scheduler: Scheduler = EventScheduler()
        # One tracer flows through every substrate; it reads the
        # scheduler's virtual clock so traces are a pure function of the
        # spec (byte-identical across serial and parallel execution).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self.scheduler.now)
        self.scheduler.tracer = self.tracer
        # Time-series runs ask for periodic engine.tick gauge rows; the
        # period rides on the tracer so one object configures the whole
        # observation pipeline (see repro.obs.timeseries).
        tick_every = getattr(self.tracer, "tick_every_s", None)
        if tick_every:
            self.scheduler.enable_ticks(tick_every)
        self.server = CentralServer(
            self.dataset,
            capacity_bps=config.effective_server_bandwidth_bps,
            rng=streams.stream("server"),
        )
        self.protocol = create_protocol(
            spec.protocol,
            self.dataset,
            self.server,
            self._rng_protocol,
            params=self.params,
        )
        self.protocol.now_fn = lambda: self.scheduler.now
        self.protocol.tracer = self.tracer
        self.server.tracer = self.tracer
        self.server.uplink.tracer = self.tracer
        self.selector = VideoSelector(self.dataset, self._rng_workload)
        self.sessions = SessionTracker(
            config.sessions_per_user,
            config.videos_per_session,
            tracer=self.tracer,
        )
        self.churn = ChurnModel(
            SessionPlan(
                sessions_per_user=config.sessions_per_user,
                videos_per_session=config.videos_per_session,
                mean_off_time=config.mean_off_time_s,
            ),
            self._rng_churn,
            tracer=self.tracer,
        )
        self.metrics = MetricsCollector(
            protocol=self.protocol.name, environment=self.environment.name
        )
        self._node_ids = list(range(config.num_nodes))
        for node_id in self._node_ids:
            state = PeerState(
                user_id=node_id,
                upload_capacity_bps=self._rng_capacity.uniform(
                    config.peer_upload_min_bps, config.peer_upload_max_bps
                ),
                prefetch_capacity=config.prefetch_store_capacity,
            )
            if self.tracer:
                state.uplink.tracer = self.tracer
            self.protocol.register_peer(state)

    # -- delay model ----------------------------------------------------------

    def _path_delay(self, path) -> float:
        """One-way forwarding along the query path + provider response."""
        total = 0.0
        for src, dst in zip(path, path[1:]):
            total += self.latency.sample(src, dst)
        if path:
            total += self.latency.sample(path[-1], path[0])
        return total

    def _failed_flood_delay(self, requester: int, hops: int) -> float:
        """Cost of exhausting a flood before falling back (per DESIGN.md:
        per-hop latency approximated by requester<->server samples)."""
        total = 0.0
        for _ in range(max(1, hops)):
            total += 2.0 * self.latency.sample(requester, SERVER_NODE_ID)
        return total

    def _server_rtt(self, requester: int) -> float:
        return (
            self.latency.rtt(requester, SERVER_NODE_ID)
            + self.environment.server_processing_delay
        )

    # -- request handling ---------------------------------------------------------

    def _serve_request(self, user_id: int, video_id: int):
        """Resolve one video request; returns (startup_delay_s, grant,
        lookup, prefetch_hit, stall_s).

        The span carries ``cluster`` -- the requested video's interest
        category, i.e. the paper's per-community unit -- so the
        time-series layer can attribute request load per cluster
        without a dataset in hand at replay time.
        """
        with self.tracer.span(
            "request.serve",
            node=user_id,
            video=video_id,
            cluster=self.dataset.category_of_video(video_id),
        ):
            return self._serve_request_inner(user_id, video_id)

    def _serve_request_inner(self, user_id: int, video_id: int):
        cfg = self.config
        peer = self.protocol.state(user_id)
        lookup = self.protocol.locate(user_id, video_id)

        if lookup.from_cache:
            self.metrics.record_chunks(user_id, ChunkSource.CACHE, cfg.chunks_per_video)
            self.metrics.record_playback(user_id, 1.0, 0.0)
            if self.tracer:
                self.tracer.event(
                    "transfer.chunks",
                    node=user_id,
                    video=video_id,
                    source="cache",
                    chunks=cfg.chunks_per_video,
                )
            if self.faults:
                self._serve_ctx = (None, 0.0)
            return cfg.local_playback_delay_s, None, lookup, False, 0.0

        # Transient WAN failure: the chosen peer connection breaks and
        # the request falls back to the server.
        if (
            lookup.from_peer
            and self.environment.peer_failure_prob > 0
            and self._rng_failures.random() < self.environment.peer_failure_prob
        ):
            self.metrics.record_peer_transfer_failure(user_id)
            if self.tracer:
                self.tracer.event(
                    "request.peer_failure",
                    node=user_id,
                    provider=lookup.provider_id,
                )
            lookup = LookupResult(
                video_id=video_id,
                from_server=True,
                hops=lookup.hops,
                peers_contacted=lookup.peers_contacted,
            )

        # Lost query messages (repro.faults): the reply from the chosen
        # provider never arrives, so the requester re-floods after a
        # backoff; past the retry budget the server serves the video.
        retry_delay = 0.0
        if self.faults and lookup.from_peer:
            lost_retries = 0
            while lookup.from_peer and self.faults.query_lost():
                if self.tracer:
                    self.tracer.event(
                        "failover.query_lost", node=user_id, video=video_id
                    )
                if lost_retries >= self.faults.retry.max_retries:
                    lookup = LookupResult(
                        video_id=video_id,
                        from_server=True,
                        hops=lookup.hops,
                        peers_contacted=lookup.peers_contacted,
                    )
                    break
                retry_delay += self.faults.retry.backoff_delay(lost_retries)
                lost_retries += 1
                lookup = self.protocol.locate(user_id, video_id)
            if lost_retries:
                self.metrics.record_query_retry(user_id, lost_retries)

        prefetch_entry = peer.take_prefetch(video_id)
        if self.tracer:
            self.tracer.event(
                "prefetch.lookup",
                node=user_id,
                video=video_id,
                hit=prefetch_entry is not None,
            )
        video_bits = cfg.video_bits(self.dataset.video_length(video_id))
        buffer_bits = cfg.startup_buffer_bits()

        if lookup.from_peer:
            provider = self.protocol.state(lookup.provider_id)
            grant = provider.uplink.admit(video_bits)
            # A slow-peer episode degrades the granted share; with
            # faults off the effective rate IS the granted rate, so the
            # arithmetic below is bit-identical to the pre-fault path.
            rate_bps = (
                self.faults.peer_rate(grant.rate_bps)
                if self.faults
                else grant.rate_bps
            )
            if lookup.query_path:
                query_delay = self._path_delay(lookup.query_path)
            else:
                query_delay = self._server_rtt(user_id) + self.latency.rtt(
                    user_id, lookup.provider_id
                )
            chunk_source = ChunkSource.PEER
        else:
            grant = self.server.serve(video_bits, force=self._serve_forced)
            rate_bps = (
                self.faults.server_rate(grant.rate_bps, self.scheduler.now)
                if self.faults
                else grant.rate_bps
            )
            query_delay = self._failed_flood_delay(user_id, lookup.hops)
            query_delay += self._server_rtt(user_id)
            chunk_source = ChunkSource.SERVER
        if retry_delay:
            query_delay += retry_delay

        prefetch_hit = prefetch_entry is not None
        if prefetch_hit:
            # The first chunk is already local; playback starts now and
            # the provider is fetched in the background.
            startup = cfg.local_playback_delay_s
            self.metrics.record_chunks(user_id, prefetch_entry.source, 1)
            self.metrics.record_chunks(
                user_id, chunk_source, cfg.chunks_per_video - 1
            )
        else:
            startup = (
                query_delay
                + buffer_bits / rate_bps
                + cfg.local_playback_delay_s
            )
            self.metrics.record_chunks(user_id, chunk_source, cfg.chunks_per_video)

        if self.tracer:
            self.tracer.event(
                "transfer.chunks",
                node=user_id,
                video=video_id,
                source=chunk_source.value,
                chunks=cfg.chunks_per_video - (1 if prefetch_hit else 0),
                rate_bps=rate_bps,
            )

        # Chunk-level playback: stalls occur when the effective rate
        # falls below the bitrate (e.g. a saturated server share).
        playback = simulate_playback(
            video_length_s=self.dataset.video_length(video_id),
            bitrate_bps=cfg.video_bitrate_bps,
            transfer_rate_bps=rate_bps,
            chunks=cfg.chunks_per_video,
            startup_buffer_s=cfg.startup_buffer_s,
            prefetched_first_chunk=prefetch_hit,
            tracer=self.tracer,
            node=user_id,
            video=video_id,
        )
        self.metrics.record_playback(
            user_id, playback.continuity_index, playback.total_stall_s
        )
        if self.faults:
            self._serve_ctx = (
                lookup.provider_id if lookup.from_peer else None,
                rate_bps,
            )
        return startup, grant, lookup, prefetch_hit, playback.total_stall_s

    def _do_prefetch(self, user_id: int, video_id: int) -> None:
        """Prefetch first chunks while watching (Section IV-B)."""
        if not self.config.enable_prefetch:
            return
        peer = self.protocol.state(user_id)
        candidates = self.protocol.select_prefetch(
            user_id, video_id, self.config.prefetch_window
        )
        if self.tracer and candidates:
            self.tracer.event(
                "prefetch.select",
                node=user_id,
                watching=video_id,
                count=len(candidates),
            )
        for candidate in candidates:
            source = self.protocol.prefetch_source(user_id, candidate)
            peer.store_prefetch(candidate, source, self.scheduler.now)
            if self.tracer:
                self.tracer.event(
                    "prefetch.store",
                    node=user_id,
                    video=candidate,
                    source=source.value,
                )
            # First chunks are ~15 KB (Section V): "the prefetching
            # cost can be negligible", so no bandwidth is charged.

    # -- user lifecycle ---------------------------------------------------------------

    def _start_session(self, user_id: int) -> None:
        if self.tracer:
            self.tracer.event("churn.join", node=user_id)
        self.sessions.begin_session(user_id)
        self.protocol.on_session_start(user_id)
        self.selector.start_session(user_id)
        if self.faults:
            delay = self.faults.crash_delay()
            if delay is not None:
                self._crash_events[user_id] = self.scheduler.schedule(
                    delay, self._crash_node, user_id
                )
        self._request_next_video(user_id)

    def _request_next_video(
        self, user_id: int, video_id: Optional[int] = None, shed_attempts: int = 0
    ) -> None:
        if shed_attempts and not self.protocol.state(user_id).online:
            return  # the requester crashed during its shed backoff
        if video_id is None:
            video_id = self.selector.next_video(user_id)
        # Past the shed budget the client's retry is marked degraded:
        # the server admits it regardless of admission control, so a
        # flash crowd delays sessions but never strands one.
        self._serve_forced = bool(
            self.faults and shed_attempts > self.faults.retry.max_retries
        )
        try:
            startup, grant, lookup, prefetch_hit, stall_s = self._serve_request(
                user_id, video_id
            )
        except ServerOverloadError:
            # Admission control shed the request (flash crowd).  The
            # client backs off under the shared RetryPolicy and retries
            # the *same* video.
            self.metrics.record_shed_retry(user_id)
            self.scheduler.schedule(
                self.faults.retry.backoff_delay(shed_attempts),
                self._request_next_video,
                user_id,
                video_id,
                shed_attempts + 1,
            )
            return
        finally:
            self._serve_forced = False
        self.metrics.record_request(
            user_id=user_id,
            startup_delay_s=startup,
            from_server=lookup.from_server,
            from_cache=lookup.from_cache,
            hops=lookup.hops,
            peers_contacted=lookup.peers_contacted,
            prefetch_hit=prefetch_hit,
        )
        self.protocol.on_watch_started(user_id, video_id)
        self._do_prefetch(user_id, video_id)
        watch_time = startup + self.dataset.video_length(video_id) + stall_s
        span_id = None
        if self.tracer:
            if lookup.from_cache:
                source = "cache"
            elif lookup.from_server:
                source = "server"
            else:
                source = "peer"
            # Detached: the stream outlives this callback and ends in
            # _finish_video, a different scheduler event.
            span_id = self.tracer.begin_detached(
                "request.stream", node=user_id, video=video_id, source=source
            )
        finish_event = self.scheduler.schedule(
            watch_time, self._finish_video, user_id, video_id, grant, span_id
        )
        if self.faults:
            provider_id, rate_bps = self._serve_ctx
            watch = _ActiveWatch(
                video_id=video_id,
                provider_id=provider_id,
                grant=grant,
                rate_bps=rate_bps,
                request_t=self.scheduler.now,
                startup_s=startup,
                chunks=self.config.chunks_per_video,
                offset=1 if prefetch_hit else 0,
                transfer_start_t=self.scheduler.now,
                span_id=span_id,
                finish_event=finish_event,
            )
            self._watches[user_id] = watch
            if provider_id is not None:
                self._consumers.setdefault(provider_id, {})[user_id] = None

    def _finish_video(
        self, user_id: int, video_id: int, grant, span_id=None
    ) -> None:
        if self.faults:
            self._drop_watch(user_id)
        if grant is not None:
            grant.release()
        self.tracer.end(span_id)
        self.protocol.on_watch_finished(user_id, video_id)
        self.protocol.on_maintenance(user_id)
        video_index = self.sessions.record_video(user_id)
        links = self.protocol.link_count(user_id)
        self.metrics.record_overhead(user_id, video_index, links)
        record_link_sample(self.tracer, user_id, links, video_index)
        if self.sessions.session_finished(user_id):
            self._end_session(user_id)
        else:
            self._request_next_video(user_id)

    def _end_session(self, user_id: int) -> None:
        if self.faults:
            crash_event = self._crash_events.pop(user_id, None)
            if crash_event is not None:
                crash_event.cancel()  # the session ended before the crash
        if self.tracer:
            self.tracer.event("churn.leave", node=user_id)
        self.protocol.on_session_end(user_id)
        self.sessions.end_session(user_id)
        if not self.sessions.all_sessions_done(user_id):
            self.scheduler.schedule(
                self.churn.off_duration(), self._start_session, user_id
            )

    # -- fault handling (repro.faults) ------------------------------------------------------

    def _drop_watch(self, user_id: int) -> None:
        """Forget a tracked watch (finished, interrupted, or crashed)."""
        watch = self._watches.pop(user_id, None)
        if watch is None or watch.provider_id is None:
            return
        consumers = self._consumers.get(watch.provider_id)
        if consumers is not None:
            consumers.pop(user_id, None)
            if not consumers:
                del self._consumers[watch.provider_id]

    def _crash_node(self, user_id: int) -> None:
        """Kill a node abruptly mid-session (crash-churn).

        Unlike a graceful leave: the node's own watch dies on the spot,
        every consumer streaming *from* it is interrupted into failover,
        the protocol leaves the dead node's overlay links dangling, and
        a repair sweep is scheduled one repair window out.  The crashed
        session still counts against the session plan, so the run
        terminates; the node returns after a normal off period.
        """
        self._crash_events.pop(user_id, None)
        self.metrics.record_crash(user_id)
        if self.tracer:
            self.tracer.event("churn.crash", node=user_id)
        watch = self._watches.get(user_id)
        if watch is not None:
            watch.finish_event.cancel()
            if watch.grant is not None:
                watch.grant.release()
            self.tracer.end(watch.span_id)
            self._drop_watch(user_id)
        else:
            state = self._failovers.pop(user_id, None)
            if state is not None:
                self.tracer.end(state.watch.span_id)
        consumers = self._consumers.pop(user_id, None)
        if consumers:
            for consumer in list(consumers):
                self._interrupt_transfer(consumer, provider_id=user_id)
        self.protocol.on_crash(user_id)
        self.scheduler.schedule(
            self.fault_plan.repair_window_s, self._repair_after_crash, user_id
        )
        self.sessions.end_session(user_id)
        if not self.sessions.all_sessions_done(user_id):
            self.scheduler.schedule(
                self.churn.off_duration(), self._start_session, user_id
            )

    def _repair_after_crash(self, user_id: int) -> None:
        """The repair window elapsed; survivors heal their link tables."""
        repaired = self.protocol.repair_after_crash(user_id)
        if repaired:
            self.metrics.note_recovery_action(self.scheduler.now)
        record_repair_sweep(self.tracer, user_id, repaired)

    def _interrupt_transfer(self, user_id: int, provider_id: int) -> None:
        """``user_id``'s provider died mid-transfer; start failover.

        Chunks delivered before the crash stay local (resume-from-last-
        chunk); if the whole video already arrived, playback proceeds
        untouched and only the bookkeeping is dropped.
        """
        watch = self._watches.get(user_id)
        if watch is None or watch.provider_id != provider_id:
            return
        now = self.scheduler.now
        chunk_bits = (
            self.config.video_bits(self.dataset.video_length(watch.video_id))
            / watch.chunks
        )
        delivered = int((now - watch.transfer_start_t) * watch.rate_bps / chunk_bits)
        chunks_done = min(watch.chunks, watch.offset + delivered)
        if chunks_done >= watch.chunks:
            # The whole video already arrived: playback proceeds, so the
            # watch stays tracked (its finish event must die if this
            # consumer later crashes) -- only the provider link drops.
            self._drop_watch(user_id)
            watch.provider_id = None
            self._watches[user_id] = watch
            return
        watch.finish_event.cancel()
        if watch.grant is not None:
            watch.grant.release()
        self._drop_watch(user_id)
        self.metrics.record_interruption(user_id)
        if self.tracer:
            self.tracer.event(
                "failover.interrupted",
                node=user_id,
                video=watch.video_id,
                provider=provider_id,
                chunk=chunks_done,
            )
        state = _FailoverState(
            watch=watch, interrupted_at=now, chunks_done=chunks_done
        )
        self._failovers[user_id] = state
        self.scheduler.schedule(
            self.faults.retry.detection_timeout_s,
            self._attempt_failover,
            user_id,
            state,
        )

    def _remaining_bits(self, state: _FailoverState) -> float:
        watch = state.watch
        video_bits = self.config.video_bits(self.dataset.video_length(watch.video_id))
        return video_bits * (watch.chunks - state.chunks_done) / watch.chunks

    def _attempt_failover(self, user_id: int, state: _FailoverState) -> None:
        """Re-search for a replacement provider (retry/timeout/backoff).

        Each attempt re-floods the overlay; a found provider resumes the
        transfer from the last delivered chunk, a miss (or a lost reply)
        backs off exponentially, and past the retry budget the server
        finishes the transfer -- a degraded serve, not a lost session.
        """
        if self._failovers.get(user_id) is not state:
            return  # resolved already, or the consumer itself crashed
        watch = state.watch
        lookup = self.protocol.relocate(user_id, watch.video_id)
        if lookup.from_peer and not self.faults.query_lost():
            provider = self.protocol.state(lookup.provider_id)
            grant = provider.uplink.admit(self._remaining_bits(state))
            rate_bps = self.faults.peer_rate(grant.rate_bps)
            self._resume_watch(
                user_id, state, grant, rate_bps, lookup.provider_id, to_peer=True
            )
            return
        if state.attempt < self.faults.retry.max_retries:
            delay = self.faults.retry.backoff_delay(state.attempt)
            state.attempt += 1
            if self.tracer:
                self.tracer.event(
                    "failover.retry",
                    node=user_id,
                    video=watch.video_id,
                    attempt=state.attempt,
                )
            self.scheduler.schedule(delay, self._attempt_failover, user_id, state)
            return
        # Failover fallback bypasses admission control (force=True): the
        # consumer already absorbed an interruption plus the full retry
        # ladder; shedding it again would strand the session.
        grant = self.server.serve(self._remaining_bits(state), force=True)
        rate_bps = self.faults.server_rate(grant.rate_bps, self.scheduler.now)
        self._resume_watch(user_id, state, grant, rate_bps, None, to_peer=False)

    def _resume_watch(
        self,
        user_id: int,
        state: _FailoverState,
        grant,
        rate_bps: float,
        provider_id: Optional[int],
        to_peer: bool,
    ) -> None:
        """Restart the interrupted transfer from its new source.

        The segmented playback model replays the viewer from the chunk
        under the playhead at the interruption (pre-crash stalls are
        chunk-granularity slack) and yields the wall-clock completion,
        which reschedules the watch's finish event.
        """
        del self._failovers[user_id]
        watch = state.watch
        now = self.scheduler.now
        latency = now - state.interrupted_at
        video_length = self.dataset.video_length(watch.video_id)
        playback_start = watch.request_t + watch.startup_s
        position = min(
            max(state.interrupted_at - playback_start, 0.0), video_length
        )
        resume = simulate_resume(
            video_length_s=video_length,
            bitrate_bps=self.config.video_bitrate_bps,
            transfer_rate_bps=rate_bps,
            chunks=watch.chunks,
            chunks_done=state.chunks_done,
            playback_position_s=position,
            resume_gap_s=latency,
            tracer=self.tracer,
            node=user_id,
            video=watch.video_id,
        )
        self.metrics.record_failover(
            user_id, latency_s=latency, retries=state.attempt, to_peer=to_peer
        )
        self.metrics.note_recovery_action(now)
        if self.tracer:
            self.tracer.event(
                "failover.resume" if to_peer else "failover.server",
                node=user_id,
                video=watch.video_id,
                provider=provider_id,
                latency_s=latency,
                retries=state.attempt,
                chunk=state.chunks_done,
            )
        watch.provider_id = provider_id
        watch.grant = grant
        watch.rate_bps = rate_bps
        watch.transfer_start_t = now
        watch.offset = state.chunks_done
        # completion_s counts from the interruption; `latency` of it has
        # already elapsed, and the remainder is strictly positive.  The
        # finish event was cancelled at the interruption; one reschedule
        # revives the same handle with the refreshed grant/span args.
        watch.finish_event.reschedule(
            resume.completion_s - latency,
            user_id,
            watch.video_id,
            grant,
            watch.span_id,
        )
        self._watches[user_id] = watch
        if to_peer:
            self._consumers.setdefault(provider_id, {})[user_id] = None

    # -- infrastructure faults (repro.faults v2) -----------------------------------------

    def _schedule_infra_faults(self) -> None:
        """Arm the correlated/infrastructure fault families.

        With no family armed this schedules nothing, so fault-free runs
        are untouched.
        """
        if not self.faults:
            return
        plan = self.fault_plan
        if self.faults.community_crash_armed:
            self.scheduler.schedule(plan.community_crash_at_s, self._community_crash)
        if self.faults.tracker_outage_armed:
            self.scheduler.schedule(
                plan.tracker_outage_at_s, self._tracker_outage_begin
            )
            self.scheduler.schedule(
                plan.tracker_outage_at_s + plan.tracker_outage_duration_s,
                self._tracker_outage_end,
            )
        if self.faults.partition_armed:
            self.scheduler.schedule(plan.partition_at_s, self._partition_begin)
            self.scheduler.schedule(
                plan.partition_at_s + plan.partition_duration_s, self._partition_end
            )
        if self.faults.flash_crowd_armed:
            self.scheduler.schedule(plan.flash_crowd_at_s, self._flash_crowd_begin)
            self.scheduler.schedule(
                plan.flash_crowd_at_s + plan.flash_crowd_duration_s,
                self._flash_crowd_end,
            )

    def _fault_onset_time(self) -> float:
        """Instant the first armed infrastructure fault strikes.

        The degradation scorecard measures recovery *from this point*:
        ``recovery_time_s`` is the gap between the first window opening
        and the last recovery action (failover resume, repair sweep,
        re-registration sweep, partition heal) -- total time until the
        system is whole again.  Zero when no windowed family is armed,
        which keeps pre-v2 plans reporting zero.
        """
        if not self.faults:
            return 0.0
        plan = self.fault_plan
        onsets = []
        if self.faults.community_crash_armed:
            onsets.append(plan.community_crash_at_s)
        if self.faults.tracker_outage_armed:
            onsets.append(plan.tracker_outage_at_s)
        if self.faults.partition_armed:
            onsets.append(plan.partition_at_s)
        if self.faults.flash_crowd_armed:
            onsets.append(plan.flash_crowd_at_s)
        return min(onsets) if onsets else 0.0

    def _community_crash(self) -> None:
        """Correlated burst: kill part of one interest community at once.

        The injector draws the cluster from its own ``faults.community``
        substream, restricted to communities of at least average size
        (a correlated failure taking out a three-node fringe cluster
        measures nothing); the burst then takes the highest-capacity
        members first -- the worst case for the overlay, since those
        nodes carry the most transfers and the densest link tables.
        Victims already offline are skipped (a burst cannot kill a node
        twice); each kill runs the ordinary crash path, so consumers
        fail over and a repair sweep lands one repair window out.
        """
        by_cluster: Dict[int, list] = {}
        for node in self._node_ids:
            by_cluster.setdefault(primary_interest(self.dataset, node), []).append(
                node
            )
        mean_size = len(self._node_ids) / len(by_cluster)
        eligible = sorted(
            c for c, nodes in by_cluster.items() if len(nodes) >= mean_size
        )
        if not eligible:
            eligible = sorted(by_cluster)
        cluster = self.faults.community_crash_cluster(eligible)
        members = by_cluster[cluster]
        count = math.ceil(
            self.fault_plan.community_crash_fraction * len(members)
        )
        members.sort(
            key=lambda node: (-self.protocol.state(node).uplink.capacity_bps, node)
        )
        killed = 0
        for victim in members[:count]:
            if not self.protocol.state(victim).online:
                continue
            pending = self._crash_events.pop(victim, None)
            if pending is not None:
                pending.cancel()  # the burst preempts the churn crash
            self._crash_node(victim)
            killed += 1
        self.metrics.record_burst(killed)
        if self.tracer:
            self.tracer.event(
                "fault.community_crash",
                cluster=cluster,
                planned=min(count, len(members)),
                victims=killed,
            )

    def _tracker_outage_begin(self) -> None:
        self.server.tracker_outage_begin()

    def _tracker_outage_end(self) -> None:
        """Tracker recovery: every online node re-files its state.

        The outage wiped the tracker's soft state, so lookups between
        recovery and a node's next report would miss it.  Deterministic
        sweep in node-id order; each protocol re-registers exactly the
        tracker state it maintains (presence, channel membership,
        overlay memberships, current watches).
        """
        self.server.tracker_outage_end()
        reports = 0
        for node_id in self._node_ids:
            reports += self.protocol.reannounce(node_id)
        self.metrics.record_reregistrations(reports)
        self.metrics.note_recovery_action(self.scheduler.now)
        if self.tracer:
            self.tracer.event("tracker.reregister", count=reports)

    def _partition_side_of(self, node_id: int) -> int:
        """Which half of the severed network a node sits in.

        Sides follow interest communities (``primary_interest % 2``) --
        the paper's per-community structure makes a community-aligned
        cut the interesting one: intra-community links mostly survive,
        inter-community (inter-link) traffic is what the cut severs.
        Unaffiliated nodes (cluster -1) land on side 1.
        """
        sides = self._partition_sides
        assert sides is not None
        side = sides.get(node_id)
        if side is None:
            side = primary_interest(self.dataset, node_id) % 2
            sides[node_id] = side
        return side

    def _partition_reach(self, a: int, b: int) -> bool:
        return self._partition_side_of(a) == self._partition_side_of(b)

    def _partition_begin(self) -> None:
        """Sever cross-community links; cut transfers fail over.

        The reachability guard makes every protocol skip (not drop)
        unreachable neighbors and referrals; the server stays reachable
        from both sides, so lookups degrade to server fallbacks rather
        than failures.  In-flight transfers crossing the cut are
        interrupted into the standard failover ladder.
        """
        self._partition_sides = {}
        self.protocol.partition_guard = self._partition_reach
        if self.tracer:
            self.tracer.event("partition.transition", phase="begin")
        interrupted = 0
        for consumer in sorted(self._watches):
            watch = self._watches.get(consumer)
            if watch is None or watch.provider_id is None:
                continue
            if not self._partition_reach(consumer, watch.provider_id):
                self._interrupt_transfer(consumer, provider_id=watch.provider_id)
                if consumer in self._failovers:
                    interrupted += 1
        self.metrics.record_partition_interrupts(interrupted)

    def _partition_end(self) -> None:
        """Heal the partition: restore reachability, re-probe overlays.

        Clearing the guard restores every skipped link instantly; the
        heal sweep then runs one maintenance probe per online node (in
        node-id order) so link tables refill across the healed cut
        without waiting for each node's next natural probe.
        """
        self.protocol.partition_guard = None
        self._partition_sides = None
        if self.tracer:
            self.tracer.event("partition.transition", phase="end")
        healed = 0
        for node_id in self._node_ids:
            if self.protocol.state(node_id).online:
                self.protocol.on_maintenance(node_id)
                healed += 1
        self.metrics.record_heal(healed)
        self.metrics.note_recovery_action(self.scheduler.now)
        if self.tracer:
            self.tracer.event("partition.healed", nodes=healed)

    def _flash_crowd_begin(self) -> None:
        self.server.admission_limit = self.fault_plan.flash_crowd_admission_limit
        if self.tracer:
            self.tracer.event(
                "server.flash_crowd",
                phase="begin",
                limit=self.server.admission_limit,
            )

    def _flash_crowd_end(self) -> None:
        self.server.admission_limit = 0
        self.metrics.note_recovery_action(self.scheduler.now)
        if self.tracer:
            self.tracer.event("server.flash_crowd", phase="end")

    # -- run --------------------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Execute the full experiment; returns the summarised result."""
        for node_id in self._node_ids:
            self.scheduler.schedule(
                self.churn.initial_join_delay(), self._start_session, node_id
            )
        self._schedule_infra_faults()
        self.metrics.fault_onset_t = self._fault_onset_time()
        self.scheduler.run()
        # Server-side fault counters live on the server; fold them into
        # the collector so the summary (and the regress gate) sees them.
        self.metrics.tracker_lookup_failures = self.server.tracker_lookup_failures
        self.metrics.server_sheds = self.server.requests_shed
        return ExperimentResult(
            metrics=self.metrics.summarize(),
            server_requests=self.server.requests_served,
            tracker_lookups=self.server.tracker_lookups,
            events_processed=self.scheduler.events_processed,
            sim_duration_s=self.scheduler.now,
            prefetch_hit_rate=(
                self.metrics.prefetch_hits
                / max(1, self.metrics.prefetch_hits + self.metrics.prefetch_misses)
            ),
        )


def run_spec(
    spec: ExperimentSpec,
    dataset: Optional[TraceDataset] = None,
    environment: Optional[Environment] = None,
    tracer=None,
) -> ExperimentResult:
    """Execute one spec; the canonical single-run entry point.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) records the run as
    a deterministic trace; the default NULL_TRACER keeps every hook a
    no-op.  See :mod:`repro.obs.export` for turning a traced run into
    JSONL + a profile summary.
    """
    return ExperimentRunner(
        spec, dataset=dataset, environment=environment, tracer=tracer
    ).run()
