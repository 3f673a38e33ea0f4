"""Metric collection for experiment runs.

Definitions follow Section V verbatim:

* **Startup delay** -- "the time period a user must wait after (s)he
  selects a video before the video playback starts, including the time
  it takes to query peers or the server."
* **Normalized peer bandwidth** -- "the percent of video chunks
  provided by peers out of the total video chunks provided."  Computed
  per node, then summarised at the 1st/50th/99th percentiles as in
  Fig 16.  Chunks replayed from the local cache consumed nobody's
  uplink and are excluded.
* **Maintenance overhead** -- "the number of links a node must maintain
  in the overlays", sampled after each video against the within-session
  video index (Fig 18's x-axis).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import mean, percentile
from repro.net.message import ChunkSource


@dataclass
class ExperimentMetrics:
    """Summary of one experiment run (one protocol, one environment)."""

    protocol: str
    environment: str
    num_requests: int
    # Startup delay (milliseconds).
    startup_delay_ms_mean: float
    startup_delay_ms_p50: float
    startup_delay_ms_p99: float
    # Normalized peer bandwidth percentiles across nodes (Fig 16).
    peer_bandwidth_p1: float
    peer_bandwidth_p50: float
    peer_bandwidth_p99: float
    # Maintenance overhead by within-session video index (Fig 18).
    overhead_by_video_index: Dict[int, float]
    # Playback continuity (chunk-level streaming model).
    mean_continuity_index: float
    stall_fraction: float
    mean_stall_ms: float
    # Supporting counters.
    server_fallback_fraction: float
    cache_hit_fraction: float
    prefetch_hit_fraction: float
    mean_search_hops: float
    mean_peers_contacted: float
    # Fault recovery (repro.faults; all zero on fault-free runs).
    crashes: int = 0
    interrupted_transfers: int = 0
    failover_peer_resumes: int = 0
    failover_server_fallbacks: int = 0
    failover_latency_ms_mean: float = 0.0
    retries_per_serve: float = 0.0
    degraded_serve_fraction: float = 0.0
    # Correlated & infrastructure faults (repro.faults v2; all zero on
    # fault-free runs *and* on pre-v2 plans, so summaries and baselines
    # captured before these families existed keep their bytes).
    burst_crashes: int = 0
    tracker_lookup_failures: int = 0
    reregistrations: int = 0
    partition_interrupts: int = 0
    healed_nodes: int = 0
    server_sheds: int = 0
    shed_retries: int = 0
    recovery_time_s: float = 0.0

    def overhead_series(self) -> List[Tuple[int, float]]:
        """Fig 18 series: (videos watched, mean links maintained).

        Returns ``(video_index, mean_links)`` pairs sorted by the
        1-based within-session video index, ready to plot::

            >>> m = ExperimentMetrics(..., overhead_by_video_index={2: 8.0, 1: 6.0}, ...)
            ... # doctest: +SKIP
            >>> m.overhead_series()  # doctest: +SKIP
            [(1, 6.0), (2, 8.0)]
        """
        return sorted(self.overhead_by_video_index.items())

    def render_rows(self) -> List[str]:
        """Paper-style text summary, one line per metric family.

        Returns a list of indented strings (suitable for ``print`` or a
        report file): a header line with protocol/environment/request
        count, then startup delay, peer bandwidth, request-outcome
        fractions, search cost, playback continuity, and the Fig 18
        maintenance-overhead series.  Used by the ``trace`` and
        ``compare`` CLI commands.
        """
        rows = [
            f"{self.protocol} on {self.environment} ({self.num_requests} requests)",
            (
                "  startup delay ms: "
                f"mean={self.startup_delay_ms_mean:.1f} "
                f"p50={self.startup_delay_ms_p50:.1f} "
                f"p99={self.startup_delay_ms_p99:.1f}"
            ),
            (
                "  normalized peer bandwidth: "
                f"p1={self.peer_bandwidth_p1:.3f} "
                f"p50={self.peer_bandwidth_p50:.3f} "
                f"p99={self.peer_bandwidth_p99:.3f}"
            ),
            (
                "  fractions: "
                f"server={self.server_fallback_fraction:.3f} "
                f"cache={self.cache_hit_fraction:.3f} "
                f"prefetch_hit={self.prefetch_hit_fraction:.3f}"
            ),
            (
                "  search: "
                f"hops={self.mean_search_hops:.2f} "
                f"contacted={self.mean_peers_contacted:.2f}"
            ),
            (
                "  playback: "
                f"continuity={self.mean_continuity_index:.4f} "
                f"stalled_watches={self.stall_fraction:.3f} "
                f"mean_stall_ms={self.mean_stall_ms:.1f}"
            ),
        ]
        overhead = ", ".join(
            f"{idx}:{links:.1f}" for idx, links in self.overhead_series()
        )
        rows.append(f"  maintenance overhead by video index: {overhead}")
        if self.crashes or self.interrupted_transfers:
            rows.append(
                "  faults: "
                f"crashes={self.crashes} "
                f"interrupted={self.interrupted_transfers} "
                f"peer_resumes={self.failover_peer_resumes} "
                f"server_failovers={self.failover_server_fallbacks} "
                f"failover_ms={self.failover_latency_ms_mean:.1f} "
                f"retries/serve={self.retries_per_serve:.4f} "
                f"degraded={self.degraded_serve_fraction:.3f}"
            )
        if (
            self.burst_crashes
            or self.tracker_lookup_failures
            or self.reregistrations
            or self.partition_interrupts
            or self.healed_nodes
            or self.server_sheds
            or self.shed_retries
            or self.recovery_time_s
        ):
            rows.append(
                "  infra: "
                f"burst={self.burst_crashes} "
                f"lookup_failures={self.tracker_lookup_failures} "
                f"reregistered={self.reregistrations} "
                f"partition_cuts={self.partition_interrupts} "
                f"healed={self.healed_nodes} "
                f"sheds={self.server_sheds} "
                f"shed_retries={self.shed_retries} "
                f"recovery_s={self.recovery_time_s:.1f}"
            )
        return rows


class MetricsCollector:
    """Accumulates raw observations during a run."""

    def __init__(self, protocol: str, environment: str):
        self.protocol = protocol
        self.environment = environment
        self._startup_delays_ms: List[float] = []
        self._peer_chunks: Dict[int, int] = defaultdict(int)
        self._server_chunks: Dict[int, int] = defaultdict(int)
        self._cache_chunks: Dict[int, int] = defaultdict(int)
        self._overhead: Dict[int, List[int]] = defaultdict(list)
        self._hops: List[int] = []
        self._contacted: List[int] = []
        self.requests = 0
        self.server_fallbacks = 0
        self.cache_hits = 0
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        self.peer_transfer_failures = 0
        self._peer_failures_by_user: Dict[int, int] = defaultdict(int)
        self._continuity: List[float] = []
        self._stall_ms: List[float] = []
        self.stalled_watches = 0
        # Fault recovery (repro.faults): crash-churn + failover ledger.
        self.crashes = 0
        self.interrupted_transfers = 0
        self.failover_peer_resumes = 0
        self.failover_server_fallbacks = 0
        self.failover_retries = 0
        self._failover_latencies_ms: List[float] = []
        # Infrastructure faults (repro.faults v2).  The server-side
        # counters (lookup failures, sheds) are copied onto the
        # collector by the runner after the event loop drains.
        self.burst_crashes = 0
        self.tracker_lookup_failures = 0
        self.reregistrations = 0
        self.partition_interrupts = 0
        self.healed_nodes = 0
        self.server_sheds = 0
        self.shed_retries = 0
        #: Instant the first armed infrastructure fault strikes (set by
        #: the fault recovery); 0.0 disables recovery-time measurement.
        self.fault_onset_t = 0.0
        self._last_recovery_t: Optional[float] = None

    # -- recording -----------------------------------------------------------

    def record_request(
        self,
        user_id: int,
        startup_delay_s: float,
        from_server: bool,
        from_cache: bool,
        hops: int,
        peers_contacted: int,
        prefetch_hit: bool,
    ) -> None:
        self.requests += 1
        self._startup_delays_ms.append(startup_delay_s * 1000.0)
        if from_server:
            self.server_fallbacks += 1
        if from_cache:
            self.cache_hits += 1
        if prefetch_hit:
            self.prefetch_hits += 1
        else:
            self.prefetch_misses += 1
        self._hops.append(hops)
        self._contacted.append(peers_contacted)

    def record_chunks(self, user_id: int, source: ChunkSource, count: int) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        if source is ChunkSource.CACHE:
            self._cache_chunks[user_id] += count
        elif source.is_peer:
            self._peer_chunks[user_id] += count
        else:
            self._server_chunks[user_id] += count

    def record_overhead(self, user_id: int, video_index: int, links: int) -> None:
        self._overhead[video_index].append(links)

    def record_peer_transfer_failure(self, user_id: int) -> None:
        """Count one peer-transfer failure, attributed to ``user_id``.

        The per-user attribution keeps the metrics ledger in agreement
        with the obs trace's ``request.peer_failure`` events (both key
        failures by the *requesting* node).
        """
        self.peer_transfer_failures += 1
        self._peer_failures_by_user[user_id] += 1

    def peer_transfer_failures_by_user(self) -> Dict[int, int]:
        """Per-requester failure counts; sum equals
        :attr:`peer_transfer_failures`."""
        return dict(self._peer_failures_by_user)

    def record_crash(self, user_id: int) -> None:
        """Count one crash-churn event (the node died mid-session)."""
        self.crashes += 1

    def record_interruption(self, user_id: int) -> None:
        """Count one mid-transfer interruption (provider crashed)."""
        self.interrupted_transfers += 1

    def record_query_retry(self, user_id: int, retries: int) -> None:
        """Count lost-query retries spent on one serve."""
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.failover_retries += retries

    def record_failover(
        self, user_id: int, latency_s: float, retries: int, to_peer: bool
    ) -> None:
        """Record one resolved failover: latency, retries, destination.

        ``to_peer`` distinguishes a resume from a fresh provider (the
        paper's self-healing path) from the server fallback taken after
        the retry budget -- a *degraded* serve, not a lost session.
        """
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if to_peer:
            self.failover_peer_resumes += 1
        else:
            self.failover_server_fallbacks += 1
        self.failover_retries += retries
        self._failover_latencies_ms.append(latency_s * 1000.0)

    def record_burst(self, victims: int) -> None:
        """Record one correlated community-crash burst."""
        if victims < 0:
            raise ValueError("victims must be >= 0")
        self.burst_crashes += victims

    def record_reregistrations(self, reports: int) -> None:
        """Record the tracker-recovery re-registration sweep."""
        if reports < 0:
            raise ValueError("reports must be >= 0")
        self.reregistrations += reports

    def record_partition_interrupts(self, count: int) -> None:
        """Record transfers severed when a partition began."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.partition_interrupts += count

    def record_heal(self, nodes: int) -> None:
        """Record the heal sweep run when a partition ended."""
        if nodes < 0:
            raise ValueError("nodes must be >= 0")
        self.healed_nodes += nodes

    def record_shed_retry(self, user_id: int) -> None:
        """Count one client-side backoff after an admission-control shed."""
        self.shed_retries += 1

    def note_recovery_action(self, now: float) -> None:
        """Timestamp a recovery action (resume, repair, reannounce, heal).

        ``recovery_time_s`` is the gap between the first armed fault
        striking and the *last* such action -- how long until the system
        was whole again, including the post-heal repair tail.
        """
        self._last_recovery_t = now

    def record_playback(
        self, user_id: int, continuity_index: float, total_stall_s: float
    ) -> None:
        """Record the chunk-level playback outcome of one watch."""
        if not 0.0 <= continuity_index <= 1.0:
            raise ValueError("continuity index must be in [0, 1]")
        if total_stall_s < 0:
            raise ValueError("stall time must be non-negative")
        self._continuity.append(continuity_index)
        self._stall_ms.append(total_stall_s * 1000.0)
        if total_stall_s > 0:
            self.stalled_watches += 1

    # -- summaries --------------------------------------------------------------

    def node_peer_bandwidth(self) -> List[float]:
        """Per-node normalized peer bandwidth (the Fig 16 population)."""
        nodes = set(self._peer_chunks) | set(self._server_chunks)
        fractions = []
        # Sorted: the fractions feed mean(), and float summation order
        # must not depend on set hash order.
        for node in sorted(nodes):
            peer = self._peer_chunks[node]
            server = self._server_chunks[node]
            total = peer + server
            if total > 0:
                fractions.append(peer / total)
        return fractions

    def summarize(self) -> ExperimentMetrics:
        if self.requests == 0:
            raise RuntimeError("no requests recorded")
        delays = self._startup_delays_ms
        bandwidth = self.node_peer_bandwidth() or [0.0]
        overhead = {
            idx: mean([float(v) for v in values])
            for idx, values in self._overhead.items()
        }
        prefetch_total = self.prefetch_hits + self.prefetch_misses
        continuity = self._continuity or [1.0]
        stall_ms = self._stall_ms or [0.0]
        return ExperimentMetrics(
            protocol=self.protocol,
            environment=self.environment,
            num_requests=self.requests,
            startup_delay_ms_mean=mean(delays),
            startup_delay_ms_p50=percentile(delays, 50),
            startup_delay_ms_p99=percentile(delays, 99),
            peer_bandwidth_p1=percentile(bandwidth, 1),
            peer_bandwidth_p50=percentile(bandwidth, 50),
            peer_bandwidth_p99=percentile(bandwidth, 99),
            overhead_by_video_index=overhead,
            mean_continuity_index=mean(continuity),
            stall_fraction=(
                self.stalled_watches / len(self._continuity)
                if self._continuity
                else 0.0
            ),
            mean_stall_ms=mean(stall_ms),
            server_fallback_fraction=self.server_fallbacks / self.requests,
            cache_hit_fraction=self.cache_hits / self.requests,
            prefetch_hit_fraction=(
                self.prefetch_hits / prefetch_total if prefetch_total else 0.0
            ),
            mean_search_hops=mean([float(h) for h in self._hops]),
            mean_peers_contacted=mean([float(c) for c in self._contacted]),
            crashes=self.crashes,
            interrupted_transfers=self.interrupted_transfers,
            failover_peer_resumes=self.failover_peer_resumes,
            failover_server_fallbacks=self.failover_server_fallbacks,
            failover_latency_ms_mean=(
                mean(self._failover_latencies_ms)
                if self._failover_latencies_ms
                else 0.0
            ),
            retries_per_serve=self.failover_retries / self.requests,
            degraded_serve_fraction=(
                self.failover_server_fallbacks / self.requests
            ),
            burst_crashes=self.burst_crashes,
            tracker_lookup_failures=self.tracker_lookup_failures,
            reregistrations=self.reregistrations,
            partition_interrupts=self.partition_interrupts,
            healed_nodes=self.healed_nodes,
            server_sheds=self.server_sheds,
            shed_retries=self.shed_retries,
            recovery_time_s=(
                max(0.0, self._last_recovery_t - self.fault_onset_t)
                if self.fault_onset_t > 0 and self._last_recovery_t is not None
                else 0.0
            ),
        )
