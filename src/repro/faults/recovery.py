"""Fault handling for one run: crashes, the failover ladder, fault windows.

:class:`FaultRecovery` is the experiment runner's fault collaborator,
built only for a nonzero :class:`FaultPlan`: a fault-free run never
reaches this module, and its request path is the paper's Algorithm 1
plus channel prefetch with one guarded call per fault hook.

The recovery reaches the injector, protocol, server, metrics and
scheduler through their instances at call time and never caches their
bound methods, so wrappers installed on those instances (the per-layer
spans of ``perfbench/layers.py``) see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.message import LookupResult
from repro.net.streaming import simulate_resume
from repro.sim.engine import Event
from repro.trace.dataset import primary_interest


@dataclass
class _ActiveWatch:
    """One in-flight watch.

    ``chunks_done`` counts the chunks already local when the current
    transfer began (1 after a prefetch hit), so an interruption can turn
    elapsed transfer time into delivered chunks; an interruption then
    sets it to the chunks delivered so far, and a resume restarts the
    transfer from there.  ``interrupted_at`` is set while the watch is
    in failover (its finish event cancelled, its grant released) and
    ``attempt`` counts that failover's backoffs.  ``transfer_start_t``
    starts at the request instant, not at playback start --
    chunk-granularity slack the failover model absorbs.
    """

    video_id: int
    provider_id: Optional[int]  # None for server- or cache-sourced watches
    grant: object  # TransferGrant; None on a cache hit and in failover
    rate_bps: float  # effective (possibly fault-degraded) transfer rate
    playback_start: float
    chunks: int
    chunks_done: int
    transfer_start_t: float
    span_id: object
    finish_event: Event
    interrupted_at: Optional[float] = None
    attempt: int = 0


def _cancel(pending: Dict[int, Event], user_id: int) -> None:
    """Cancel and forget ``user_id``'s entry in a pending-event table."""
    event = pending.pop(user_id, None)
    if event is not None:
        event.cancel()


class FaultRecovery:
    """Applies one run's fault plan and recovers from what it breaks.

    Building one arms the plan's fault windows, so the runner builds it
    once the initial joins are scheduled.  The runner calls the public
    hooks; everything else runs as scheduler events.
    """

    def __init__(self, runner) -> None:
        self.runner = runner
        self.faults = runner.faults
        self.plan = runner.faults.plan
        self.protocol = runner.protocol
        self.server = runner.server
        self.metrics = runner.metrics
        self.scheduler = runner.scheduler
        self.tracer = runner.tracer
        self.dataset = runner.dataset
        self.config = runner.config
        self._node_ids = runner._node_ids
        # Ledgers: user -> in-flight watch (streaming, playing out a
        # finished download, or in failover); provider -> ordered set of
        # users streaming from it; user -> pending crash / shed retry.
        self._watches: Dict[int, _ActiveWatch] = {}
        self._consumers: Dict[int, Dict[int, None]] = {}
        self._crash_events: Dict[int, Event] = {}
        self._shed_retries: Dict[int, Event] = {}
        self._arm_windows()

    # -- hooks the runner calls -------------------------------------------------

    def session_started(self, user_id: int) -> None:
        """Arm the new session's crash (crash-churn), if one is drawn."""
        delay = self.faults.crash_delay()
        if delay is not None:
            self._crash_events[user_id] = self.scheduler.schedule(
                delay, self._crash_node, user_id
            )

    def session_ended(self, user_id: int) -> None:
        """The session ended gracefully before its crash."""
        _cancel(self._crash_events, user_id)

    def requery(
        self, user_id: int, video_id: int, lookup: LookupResult
    ) -> Tuple[LookupResult, float]:
        """Lost query messages: the reply from the chosen provider never
        arrives, so the requester re-floods after a backoff; past the
        retry budget the server serves the video.

        Returns the final lookup and the backoff time the retries cost.
        """
        retry = self.faults.retry
        retry_delay = 0.0
        lost_retries = 0
        while lookup.from_peer and self.faults.query_lost():
            if self.tracer:
                self.tracer.event("failover.query_lost", node=user_id, video=video_id)
            if lost_retries >= retry.max_retries:
                lookup = lookup.server_fallback()
                break
            retry_delay += retry.backoff_delay(lost_retries)
            lost_retries += 1
            lookup = self.protocol.locate(user_id, video_id)
        if lost_retries:
            self.metrics.record_query_retry(user_id, lost_retries)
        return lookup, retry_delay

    def rate(self, grant, lookup: LookupResult) -> float:
        """The effective rate of ``grant``: a slow-peer episode degrades a
        peer's share, a brownout the server's."""
        if lookup.from_peer:
            return self.faults.peer_rate(grant.rate_bps)
        return self.faults.server_rate(grant.rate_bps, self.scheduler.now)

    def shed(self, user_id: int, video_id: int, attempts: int) -> None:
        """Admission control shed the request (flash crowd): the client
        backs off under the shared RetryPolicy and retries the *same*
        video."""
        self.metrics.record_shed_retry(user_id)
        delay = self.faults.retry.backoff_delay(attempts)
        self._shed_retries[user_id] = self.scheduler.schedule(
            delay, self._retry_shed, user_id, video_id, attempts + 1
        )

    def track_watch(
        self,
        user_id: int,
        video_id: int,
        lookup: LookupResult,
        grant,
        rate_bps: float,
        startup_s: float,
        prefetch_hit: bool,
        watch_time: float,
        span_id,
    ) -> None:
        """Schedule a started watch's finish and enter it in the ledgers."""
        finish_event = self.scheduler.schedule(watch_time, self._finish_watch, user_id)
        now = self.scheduler.now
        provider_id = lookup.provider_id if lookup.from_peer else None
        self._watches[user_id] = _ActiveWatch(
            video_id=video_id,
            provider_id=provider_id,
            grant=grant,
            rate_bps=rate_bps,
            playback_start=now + startup_s,
            chunks=self.config.chunks_per_video,
            chunks_done=1 if prefetch_hit else 0,
            transfer_start_t=now,
            span_id=span_id,
            finish_event=finish_event,
        )
        if provider_id is not None:
            self._consumers.setdefault(provider_id, {})[user_id] = None

    # -- watch ledger -------------------------------------------------------------

    def _finish_watch(self, user_id: int) -> None:
        # The event carries only the user, not the watch that holds the
        # event: a watch <-> event cycle would outlive both until the
        # cyclic garbage collector ran.
        watch = self._watches.pop(user_id)
        self._unlink(user_id, watch)
        self.runner._finish_video(user_id, watch.video_id, watch.grant, watch.span_id)

    def _retry_shed(self, user_id: int, video_id: int, attempts: int) -> None:
        del self._shed_retries[user_id]
        # Past the shed budget the client's retry is marked degraded:
        # the server admits it regardless of admission control, so a
        # flash crowd delays sessions but never strands one.
        force = attempts > self.faults.retry.max_retries
        self.runner._request_video(user_id, video_id, attempts, force)

    def _unlink(self, user_id: int, watch: _ActiveWatch) -> None:
        """Remove ``user_id`` from its provider's consumer set."""
        consumers = self._consumers.get(watch.provider_id)
        if consumers is not None:
            consumers.pop(user_id, None)
            if not consumers:
                del self._consumers[watch.provider_id]

    # -- crash path and failover ladder ---------------------------------------

    def _crash_node(self, user_id: int) -> None:
        """Kill a node abruptly mid-session (crash-churn).

        Unlike a graceful leave: the node's own watch dies on the spot,
        every consumer streaming *from* it is interrupted into failover,
        the protocol leaves the dead node's overlay links dangling, and
        a repair sweep is scheduled one repair window out.  The crashed
        session still counts against the session plan, so the run
        terminates; the node returns after a normal off period.
        """
        _cancel(self._crash_events, user_id)  # a burst preempts the churn crash
        _cancel(self._shed_retries, user_id)  # the crash ends any shed backoff
        self.metrics.record_crash(user_id)
        if self.tracer:
            self.tracer.event("churn.crash", node=user_id)
        watch = self._watches.pop(user_id, None)
        if watch is not None:
            watch.finish_event.cancel()  # a no-op in failover
            if watch.grant is not None:
                watch.grant.release()
            self.tracer.end(watch.span_id)
            self._unlink(user_id, watch)
        for consumer in list(self._consumers.pop(user_id, {})):
            self._interrupt_transfer(consumer, provider_id=user_id)
        self.protocol.on_crash(user_id)
        self.scheduler.schedule(
            self.plan.repair_window_s, self._repair_after_crash, user_id
        )
        self.runner._close_session(user_id)

    def _repair_after_crash(self, user_id: int) -> None:
        """The repair window elapsed; survivors heal their link tables."""
        repaired = self.protocol.repair_after_crash(user_id)
        if repaired:
            self.metrics.note_recovery_action(self.scheduler.now)
        if self.tracer:  # the survivors whose link tables were healed
            self.tracer.event("overlay.repair", node=user_id, links=repaired)

    def _interrupt_transfer(self, user_id: int, provider_id: int) -> bool:
        """``user_id``'s provider died mid-transfer; start failover.

        Chunks delivered before the crash stay local (resume-from-last-
        chunk); if the whole video already arrived, playback proceeds
        untouched and only the provider link drops.  Returns whether
        the watch went into failover.
        """
        watch = self._watches.get(user_id)
        if watch is None or watch.provider_id != provider_id:
            return False
        now = self.scheduler.now
        chunk_bits = (
            self.config.video_bits(self.dataset.video_length(watch.video_id))
            / watch.chunks
        )
        delivered = int((now - watch.transfer_start_t) * watch.rate_bps / chunk_bits)
        chunks_done = min(watch.chunks, watch.chunks_done + delivered)
        self._unlink(user_id, watch)
        watch.provider_id = None
        if chunks_done >= watch.chunks:
            # The watch stays tracked: its finish event must die if
            # this consumer later crashes.
            return False
        watch.finish_event.cancel()
        watch.grant.release()
        watch.grant = None
        watch.interrupted_at = now
        watch.chunks_done = chunks_done
        watch.attempt = 0
        self.metrics.record_interruption(user_id)
        if self.tracer:
            self.tracer.event(
                "failover.interrupted",
                node=user_id,
                video=watch.video_id,
                provider=provider_id,
                chunk=chunks_done,
            )
        timeout = self.faults.retry.detection_timeout_s
        self.scheduler.schedule(timeout, self._attempt_failover, user_id, watch)
        return True

    def _attempt_failover(self, user_id: int, watch: _ActiveWatch) -> None:
        """Re-search for a replacement provider (retry/timeout/backoff).

        Each attempt re-floods the overlay; a found provider resumes the
        transfer from the last delivered chunk, a miss (or a lost reply)
        backs off exponentially, and past the retry budget the server
        finishes the transfer -- a degraded serve, not a lost session.
        """
        if self._watches.get(user_id) is not watch:
            return  # the consumer itself crashed
        video_bits = self.config.video_bits(self.dataset.video_length(watch.video_id))
        remaining_bits = video_bits * (watch.chunks - watch.chunks_done) / watch.chunks
        lookup = self.protocol.relocate(user_id, watch.video_id)
        if lookup.from_peer and not self.faults.query_lost():
            provider = self.protocol.state(lookup.provider_id)
            grant = provider.uplink.admit(remaining_bits)
            rate_bps = self.faults.peer_rate(grant.rate_bps)
            self._resume_watch(user_id, watch, grant, rate_bps, lookup.provider_id)
            return
        if watch.attempt < self.faults.retry.max_retries:
            delay = self.faults.retry.backoff_delay(watch.attempt)
            watch.attempt += 1
            if self.tracer:
                self.tracer.event(
                    "failover.retry",
                    node=user_id,
                    video=watch.video_id,
                    attempt=watch.attempt,
                )
            self.scheduler.schedule(delay, self._attempt_failover, user_id, watch)
            return
        # Failover fallback bypasses admission control (force=True): the
        # consumer already absorbed an interruption plus the full retry
        # ladder; shedding it again would strand the session.
        grant = self.server.serve(remaining_bits, force=True)
        rate_bps = self.faults.server_rate(grant.rate_bps, self.scheduler.now)
        self._resume_watch(user_id, watch, grant, rate_bps, None)

    def _resume_watch(
        self,
        user_id: int,
        watch: _ActiveWatch,
        grant,
        rate_bps: float,
        provider_id: Optional[int],
    ) -> None:
        """Restart the interrupted transfer from its new source (a peer
        ``provider_id``, or the server when None).

        The segmented playback model replays the viewer from the chunk
        under the playhead at the interruption (pre-crash stalls are
        chunk-granularity slack) and yields the wall-clock completion,
        which reschedules the watch's finish event.
        """
        to_peer = provider_id is not None
        now = self.scheduler.now
        interrupted_at = watch.interrupted_at
        latency = now - interrupted_at
        video_length = self.dataset.video_length(watch.video_id)
        position = min(max(interrupted_at - watch.playback_start, 0.0), video_length)
        resume = simulate_resume(
            video_length_s=video_length,
            bitrate_bps=self.config.video_bitrate_bps,
            transfer_rate_bps=rate_bps,
            chunks=watch.chunks,
            chunks_done=watch.chunks_done,
            playback_position_s=position,
            resume_gap_s=latency,
            tracer=self.tracer,
            node=user_id,
            video=watch.video_id,
        )
        self.metrics.record_failover(
            user_id, latency_s=latency, retries=watch.attempt, to_peer=to_peer
        )
        self.metrics.note_recovery_action(now)
        if self.tracer:
            self.tracer.event(
                "failover.resume" if to_peer else "failover.server",
                node=user_id,
                video=watch.video_id,
                provider=provider_id,
                latency_s=latency,
                retries=watch.attempt,
                chunk=watch.chunks_done,
            )
        watch.provider_id = provider_id
        watch.grant = grant
        watch.rate_bps = rate_bps
        watch.transfer_start_t = now
        watch.interrupted_at = None
        # completion_s counts from the interruption; `latency` of it has
        # already elapsed, and the remainder is strictly positive.  The
        # finish event was cancelled at the interruption; rescheduling
        # revives the same handle.
        watch.finish_event.reschedule(resume.completion_s - latency)
        if to_peer:
            self._consumers.setdefault(provider_id, {})[user_id] = None

    # -- fault windows ------------------------------------------------------------

    def _arm_windows(self) -> None:
        """Schedule each armed window family and record the fault onset.

        The degradation scorecard measures recovery from the onset:
        ``recovery_time_s`` is the gap between the first window opening
        and the last recovery action (failover resume, repair sweep,
        re-registration sweep, partition heal) -- total time until the
        system is whole again.  With no window armed the onset stays
        zero, which keeps pre-window plans reporting zero.
        """
        p, f = self.plan, self.faults
        # One row per family: (armed, at_s, duration_s, begin, end).
        windows = (
            (f.community_crash_armed, p.community_crash_at_s, 0.0,
                self._community_crash, None),
            (f.tracker_outage_armed, p.tracker_outage_at_s, p.tracker_outage_duration_s,
                self._tracker_outage_begin, self._tracker_outage_end),
            (f.partition_armed, p.partition_at_s, p.partition_duration_s,
                self._partition_begin, self._partition_end),
            (f.flash_crowd_armed, p.flash_crowd_at_s, p.flash_crowd_duration_s,
                self._flash_crowd_begin, self._flash_crowd_end),
        )
        onsets: List[float] = []
        for armed, at_s, duration_s, begin, end in windows:
            if not armed:
                continue
            onsets.append(at_s)
            self.scheduler.schedule(at_s, begin)
            if end is not None:
                self.scheduler.schedule(at_s + duration_s, end)
        self.metrics.fault_onset_t = min(onsets, default=0.0)

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
            interest = primary_interest(self.dataset, node)
            by_cluster.setdefault(interest, []).append(node)
        mean_size = len(self._node_ids) / len(by_cluster)
        eligible = sorted(
            c for c, nodes in by_cluster.items() if len(nodes) >= mean_size
        )
        if not eligible:
            eligible = sorted(by_cluster)
        cluster = self.faults.community_crash_cluster(eligible)
        members = by_cluster[cluster]
        count = math.ceil(self.plan.community_crash_fraction * len(members))
        members.sort(
            key=lambda node: (-self.protocol.state(node).uplink.capacity_bps, node)
        )
        killed = 0
        for victim in members[:count]:
            if not self.protocol.state(victim).online:
                continue
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

    def _partition_begin(self) -> None:
        """Sever cross-community links; cut transfers fail over.

        Sides follow interest communities (``primary_interest % 2``) --
        the paper's per-community structure makes a community-aligned
        cut the interesting one: intra-community links mostly survive,
        inter-community (inter-link) traffic is what the cut severs.
        Unaffiliated nodes (cluster -1) land on side 1.

        The reachability guard makes every protocol skip (not drop)
        unreachable neighbors and referrals; the server stays reachable
        from both sides, so lookups degrade to server fallbacks rather
        than failures.  In-flight transfers crossing the cut are
        interrupted into the standard failover ladder.
        """
        side = [primary_interest(self.dataset, node) % 2 for node in self._node_ids]
        self.protocol.partition_guard = lambda a, b: side[a] == side[b]
        if self.tracer:
            self.tracer.event("partition.transition", phase="begin")
        interrupted = 0
        for consumer, watch in sorted(self._watches.items()):
            provider_id = watch.provider_id
            if provider_id is not None and side[consumer] != side[provider_id]:
                interrupted += self._interrupt_transfer(consumer, provider_id)
        self.metrics.record_partition_interrupts(interrupted)

    def _partition_end(self) -> None:
        """Heal the partition: restore reachability, re-probe overlays.

        Clearing the guard restores every skipped link instantly; the
        heal sweep then runs one maintenance probe per online node (in
        node-id order) so link tables refill across the healed cut
        without waiting for each node's next natural probe.
        """
        self.protocol.partition_guard = None
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
        self.server.admission_limit = self.plan.flash_crowd_admission_limit
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
