"""Deterministic sim-clock-windowed time series over trace rows.

The paper's evaluation is about *trends*: server load relief as the
overlays warm up (Figs 9-11), startup-delay behaviour under churn
(Figs 12-13), maintenance overhead as sessions progress (Fig 18).  The
end-of-run aggregates of :mod:`repro.metrics` cannot show a trend; this
module folds the deterministic trace-row stream of
:class:`repro.obs.tracer.Tracer` into fixed-width virtual-time windows:

* **counters** per window -- requests, chunk transfers by source,
  server fallbacks, tracker lookups, churn arrivals/departures, TTL
  exhaustions, playback stalls, per-cluster (interest-category) request
  load;
* **rates** per window -- server chunk share, stall rate, mean search
  hops, mean startup delay;
* **gauges** sampled at window close -- active sessions, total overlay
  links, engine heap depth and events processed (via ``engine.tick``).

Two feeding paths, asserted byte-identical
(``tests/test_obs_timeseries.py``):

1. **Live** -- :func:`run_with_timeseries` installs a
   :class:`TimeSeriesCollector` as the tracer's row sink, so windows
   accumulate while the simulation runs;
2. **Replay** -- :func:`series_from_trace` re-feeds an exported JSONL
   artifact through the same collector.

Identity holds because every input is a trace row: rows are emitted in
virtual-time order, canonical JSON round-trips ints and floats exactly,
and the collector consumes nothing else -- no wall clock, no RNG, no
dataset.  A series is therefore a pure function of the
:class:`repro.experiments.spec.ExperimentSpec` that produced the trace,
for ``jobs=1`` and ``jobs=N`` alike.

Example::

    run = run_with_timeseries(spec, window_s=600.0)
    replayed = series_from_trace(run.jsonl, window_s=600.0)
    assert run.table.to_canonical_json() == replayed.to_canonical_json()
    run.table.series("server_share")     # [0.91, 0.54, 0.22, ...]
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.runner import ExperimentResult, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.obs.export import parse_jsonl_bytes, trace_header, trace_to_jsonl_bytes
from repro.obs.tracer import Tracer

#: Bumped whenever the per-window record shape changes, mirroring the
#: trace/spec schema-version discipline so stale series artifacts and
#: baselines can never be misread by newer tooling.
TIMESERIES_SCHEMA_VERSION = 1

#: Default window width in virtual seconds -- the paper's 10-minute
#: probe period (Section V), a natural sampling cadence for overlay
#: health.
DEFAULT_WINDOW_S = 600.0

#: ``transfer.chunks`` sources that consumed a peer uplink.
_PEER_SOURCES = frozenset(("peer", "prefetch_peer"))
#: ``transfer.chunks`` sources that consumed the server uplink.
_SERVER_SOURCES = frozenset(("server", "prefetch_server"))

#: Shared empty-attrs dict for rows without attributes (read-only).
_NO_ATTRS: Dict[str, Any] = {}


@dataclass
class TimeSeriesTable:
    """The windowed series of one run: a list of per-window records.

    ``windows[i]`` is a plain dict (see docs/tracing.md for the field
    catalogue) covering virtual time ``[i * window_s, (i+1) *
    window_s)``; ``content_hash`` keys the table to the spec that
    produced the underlying trace.  The canonical JSON form is the
    byte-identity and baseline-digest surface.
    """

    window_s: float
    content_hash: str
    windows: List[Dict[str, Any]] = field(default_factory=list)
    schema: int = TIMESERIES_SCHEMA_VERSION

    @property
    def num_windows(self) -> int:
        """Number of windows covered (last event's window + 1)."""
        return len(self.windows)

    def series(self, name: str) -> List[Any]:
        """One named per-window field as a list, e.g. ``series("requests")``.

        Example::

            table.series("active_sessions")   # [104, 118, 97, ...]
        """
        return [record[name] for record in self.windows]

    def cluster_ids(self) -> List[str]:
        """Every cluster key appearing in any window, sorted numerically."""
        seen = set()
        for record in self.windows:
            seen.update(record["cluster_requests"])
        return sorted(seen, key=int)

    def cluster_series(self, cluster_id: str) -> List[int]:
        """Per-window request count for one cluster (0 where absent)."""
        return [
            record["cluster_requests"].get(cluster_id, 0)
            for record in self.windows
        ]

    def to_canonical_json(self) -> bytes:
        """Canonical JSON bytes (sorted keys, compact separators).

        Two tables built from the same spec -- live or by replay, on
        any worker layout -- serialize to identical bytes; this is the
        surface the determinism tests and baseline digests hash.
        """
        payload = {
            "schema": self.schema,
            "window_s": self.window_s,
            "content_hash": self.content_hash,
            "windows": self.windows,
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_canonical_json` (baseline key)."""
        return hashlib.sha256(self.to_canonical_json()).hexdigest()


#: Name -> dispatch code for :meth:`TimeSeriesCollector.observe_row`.
#: A single dict probe decides whether a row carries a windowed metric
#: at all -- rows outside this map (``prefetch.store``, span ends, counter
#: footers, ...) exit after two comparisons, which is what holds the
#: streaming sink under the <5%-of-run overhead bar asserted in
#: ``tests/test_obs_timeseries.py``.  Codes are ordered by observed row
#: frequency so the dispatch chain stays shallow for the hot names.
_ROW_CODES: Dict[str, int] = {
    "server.lookup": 1,
    "transfer.chunks": 2,
    "playback.report": 3,
    "request.serve": 4,
    "overlay.links": 5,
    "flood.found": 6,
    "playback.stall": 7,
    "server.request": 8,
    "session.begin": 9,
    "session.end": 10,
    "flood.ttl_exhausted": 11,
    "engine.tick": 12,
}

#: Extra dispatch codes merged in only when the collector is built with
#: ``include_faults`` (the run carried a nonzero FaultPlan).  Kept out
#: of :data:`_ROW_CODES` so fault-free tables -- and the committed
#: baseline digests keyed on their bytes -- are untouched by the fault
#: subsystem's existence.
_FAULT_ROW_CODES: Dict[str, int] = {
    "churn.crash": 13,
    "failover.interrupted": 14,
    "failover.retry": 15,
    "failover.resume": 16,
    "failover.server": 17,
    "overlay.repair": 18,
    # Correlated & infrastructure families (repro.faults v2).
    "fault.community_crash": 19,
    "tracker.outage": 20,
    "tracker.lookup_failed": 21,
    "tracker.reregister": 22,
    "partition.transition": 23,
    "partition.healed": 24,
    "server.shed": 25,
    "server.flash_crowd": 26,
}


class TimeSeriesCollector:
    """Folds a time-ordered trace-row stream into fixed windows.

    Feed it rows via :meth:`observe_row` -- either live (installed as a
    :meth:`repro.obs.tracer.Tracer.set_sink` sink) or replayed from a
    parsed JSONL artifact -- then :meth:`finalize`.  The collector
    consumes only row contents, so the two paths are byte-identical by
    construction.

    Example::

        collector = TimeSeriesCollector(window_s=600.0)
        for row in parse_jsonl_bytes(payload):
            collector.observe_row(row)
        table = collector.finalize(content_hash=spec.content_hash())
    """

    def __init__(
        self, window_s: float = DEFAULT_WINDOW_S, include_faults: bool = False
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        #: Fault-recovery columns appear only when the run was fault-
        #: injected; the per-instance dispatch map keeps the hot path
        #: identical either way (one dict probe).
        self._include_faults = bool(include_faults)
        self._codes = dict(_ROW_CODES)
        if self._include_faults:
            self._codes.update(_FAULT_ROW_CODES)
        self._records: List[Dict[str, Any]] = []
        self._index = 0
        self._window_end = self.window_s
        # Gauges: survive window flushes (carried forward).
        self._active_sessions = 0
        self._overlay_links = 0
        self._links_by_node: Dict[int, int] = {}
        self._pending_events = 0
        self._events_processed = 0
        self._reset_window()

    def _reset_window(self) -> None:
        """Zero the per-window counters (gauges are left alone)."""
        self._rows = 0
        self._requests = 0
        self._cluster_requests: Dict[int, int] = {}
        self._server_chunks = 0
        self._peer_chunks = 0
        self._cache_chunks = 0
        self._server_requests = 0
        self._tracker_lookups = 0
        self._joins = 0
        self._leaves = 0
        self._ttl_exhausted = 0
        self._hops_sum = 0
        self._hops_count = 0
        self._startup_sum_s = 0.0
        self._startup_count = 0
        self._stall_events = 0
        self._reports = 0
        self._stalled_reports = 0
        # Fault-recovery counters (recorded only under include_faults).
        self._crashes = 0
        self._interrupted = 0
        self._failover_retries = 0
        self._failover_resumes = 0
        self._failover_server = 0
        self._failover_latency_sum_s = 0.0
        self._repaired_links = 0
        # Infrastructure-fault counters (repro.faults v2).
        self._burst_crashes = 0
        self._infra_transitions = 0
        self._lookup_failures = 0
        self._reregistrations = 0
        self._healed_nodes = 0
        self._server_sheds = 0

    def _flush_window(self) -> None:
        """Close the current window into a record and start the next."""
        total_shared = self._server_chunks + self._peer_chunks
        record: Dict[str, Any] = {
            "window": self._index,
            "t0": self._index * self.window_s,
            "rows": self._rows,
            "requests": self._requests,
            "cluster_requests": {
                str(cluster): count
                for cluster, count in sorted(self._cluster_requests.items())
            },
            "server_chunks": self._server_chunks,
            "peer_chunks": self._peer_chunks,
            "cache_chunks": self._cache_chunks,
            "server_share": (
                self._server_chunks / total_shared if total_shared else 0.0
            ),
            "server_requests": self._server_requests,
            "tracker_lookups": self._tracker_lookups,
            "joins": self._joins,
            "leaves": self._leaves,
            "ttl_exhausted": self._ttl_exhausted,
            "search_hops_mean": (
                self._hops_sum / self._hops_count if self._hops_count else 0.0
            ),
            "startup_ms_mean": (
                1000.0 * self._startup_sum_s / self._startup_count
                if self._startup_count
                else 0.0
            ),
            "stall_events": self._stall_events,
            "reports": self._reports,
            "stalled_reports": self._stalled_reports,
            "stall_rate": (
                self._stalled_reports / self._reports if self._reports else 0.0
            ),
            "active_sessions": self._active_sessions,
            "overlay_links": self._overlay_links,
            "pending_events": self._pending_events,
            "events_processed": self._events_processed,
        }
        if self._include_faults:
            failovers = self._failover_resumes + self._failover_server
            record["crashes"] = self._crashes
            record["interrupted"] = self._interrupted
            record["failover_retries"] = self._failover_retries
            record["failover_resumes"] = self._failover_resumes
            record["failover_server"] = self._failover_server
            record["failover_latency_ms_mean"] = (
                1000.0 * self._failover_latency_sum_s / failovers
                if failovers
                else 0.0
            )
            record["repaired_links"] = self._repaired_links
            record["burst_crashes"] = self._burst_crashes
            record["infra_transitions"] = self._infra_transitions
            record["lookup_failures"] = self._lookup_failures
            record["reregistrations"] = self._reregistrations
            record["healed_nodes"] = self._healed_nodes
            record["server_sheds"] = self._server_sheds
        self._records.append(record)
        self._index += 1
        self._window_end = (self._index + 1) * self.window_s
        self._reset_window()

    def observe_row(self, row: Dict[str, Any]) -> None:
        """Consume one trace row (rows without a windowed metric are ignored).

        Rows must arrive in non-decreasing ``t`` order -- the order the
        tracer emits and the JSONL artifact stores.  This is the live
        sink's hot path: two comparisons and one dict probe decide
        whether the row contributes at all, and the metric bodies are
        inlined behind integer codes (a bound-method call per row costs
        more than most of the bodies).  Both feeding paths run exactly
        this code, which is what makes them byte-identical.
        """
        kind = row["kind"]
        if kind != "event" and kind != "span_begin":
            return
        code = self._codes.get(row["name"])
        if code is None:
            return
        if row["t"] >= self._window_end:
            window = row["t"] // self.window_s
            while window > self._index:
                self._flush_window()
        self._rows += 1
        if code == 1:  # server.lookup: one tracker-state query
            self._tracker_lookups += 1
            return
        attrs = row.get("attrs") or _NO_ATTRS
        if code == 2:  # transfer.chunks: bucket by supply side
            source = attrs.get("source")
            chunks = attrs.get("chunks", 0)
            if source in _PEER_SOURCES:
                self._peer_chunks += chunks
            elif source in _SERVER_SOURCES:
                self._server_chunks += chunks
            elif source == "cache":
                self._cache_chunks += chunks
        elif code == 3:  # playback.report: startup mean + stalled-watch rate
            self._reports += 1
            self._startup_sum_s += attrs.get("startup_s", 0.0)
            self._startup_count += 1
            if attrs.get("stalls", 0) > 0:
                self._stalled_reports += 1
        elif code == 4:  # request.serve span: total + per-cluster counts
            self._requests += 1
            cluster = attrs.get("cluster")
            if cluster is not None:
                self._cluster_requests[cluster] = (
                    self._cluster_requests.get(cluster, 0) + 1
                )
        elif code == 5:  # overlay.links: fold sample into the link total
            node = attrs.get("node")
            links = attrs.get("links", 0)
            self._overlay_links += links - self._links_by_node.get(node, 0)
            self._links_by_node[node] = links
        elif code == 6:  # flood.found: search depth for the hop mean
            self._hops_sum += attrs.get("depth", 0)
            self._hops_count += 1
        elif code == 7:  # playback.stall: one mid-watch buffer underrun
            self._stall_events += 1
        elif code == 8:  # server.request: one fallback admission
            self._server_requests += 1
        elif code == 9:  # session.begin: arrival + active gauge
            self._active_sessions = attrs.get("active", self._active_sessions)
            self._joins += 1
        elif code == 10:  # session.end: departure + active gauge
            self._active_sessions = attrs.get("active", self._active_sessions)
            self._leaves += 1
        elif code == 11:  # flood.ttl_exhausted: one failed search
            self._ttl_exhausted += 1
        elif code == 12:  # engine.tick: scheduler gauges
            self._pending_events = attrs.get("pending", self._pending_events)
            self._events_processed = attrs.get("events", self._events_processed)
        # Fault-recovery rows (codes mapped only under include_faults).
        elif code == 13:  # churn.crash: one abrupt mid-session death
            self._crashes += 1
        elif code == 14:  # failover.interrupted: one severed transfer
            self._interrupted += 1
        elif code == 15:  # failover.retry: one backed-off re-search
            self._failover_retries += 1
        elif code == 16:  # failover.resume: resumed from a new peer
            self._failover_resumes += 1
            self._failover_latency_sum_s += attrs.get("latency_s", 0.0)
        elif code == 17:  # failover.server: degraded server finish
            self._failover_server += 1
            self._failover_latency_sum_s += attrs.get("latency_s", 0.0)
        elif code == 18:  # overlay.repair: crash-repair sweep outcome
            self._repaired_links += attrs.get("links", 0)
        elif code == 19:  # fault.community_crash: one correlated burst
            self._burst_crashes += attrs.get("victims", 0)
        elif code == 21:  # tracker.lookup_failed: query hit a dark tracker
            self._lookup_failures += 1
        elif code == 22:  # tracker.reregister: recovery reports re-filed
            self._reregistrations += attrs.get("count", 0)
        elif code == 24:  # partition.healed: heal-sweep size at re-link
            self._healed_nodes += attrs.get("nodes", 0)
        elif code == 25:  # server.shed: one admission-control rejection
            self._server_sheds += 1
        else:  # codes 20/23/26: outage / partition / flash-crowd edges
            self._infra_transitions += 1

    def finalize(self, content_hash: str = "") -> TimeSeriesTable:
        """Close the trailing window and return the finished table.

        The final window is the one containing the last observed
        metric-bearing row (partial windows are kept -- their ``t0``
        says how far they reach).  A rowless stream yields an empty
        table.
        """
        if self._rows or self._records:
            self._flush_window()
        return TimeSeriesTable(
            window_s=self.window_s,
            content_hash=content_hash,
            windows=self._records,
        )


@dataclass
class TimeseriesRun:
    """One live-collected run: result, exportable trace, and the table."""

    spec: ExperimentSpec
    result: ExperimentResult
    jsonl: bytes
    table: TimeSeriesTable


def run_with_timeseries(
    spec: ExperimentSpec, window_s: float = DEFAULT_WINDOW_S
) -> TimeseriesRun:
    """Execute one spec with live windowed collection attached.

    The tracer streams every row into a :class:`TimeSeriesCollector`
    as it is emitted and asks the engine for one ``engine.tick`` gauge
    row per window; the returned :class:`TimeseriesRun` carries the
    run result, the canonical JSONL trace (so the replay path can be
    cross-checked), and the finished table.

    Example::

        run = run_with_timeseries(spec)
        print(run.table.series("server_share"))
    """
    tracer = Tracer(tick_every_s=window_s)
    collector = TimeSeriesCollector(
        window_s=window_s, include_faults=spec.has_faults()
    )
    tracer.set_sink(collector.observe_row)
    result = run_spec(spec, tracer=tracer)
    jsonl = trace_to_jsonl_bytes(
        trace_header(spec), tracer.rows(), tracer.counters(), tracer.histograms()
    )
    table = collector.finalize(content_hash=spec.content_hash())
    return TimeseriesRun(spec=spec, result=result, jsonl=jsonl, table=table)


def series_from_trace(
    payload: bytes, window_s: float = DEFAULT_WINDOW_S
) -> TimeSeriesTable:
    """Rebuild the windowed series by replaying an exported JSONL trace.

    Byte-identical to the live path for the same spec and window: the
    collector sees the same rows in the same order, and canonical JSON
    round-trips every number exactly.  The table's ``content_hash`` is
    read from the trace header.

    Example::

        table = series_from_trace(open(path, "rb").read())
        assert table.to_canonical_json() == live_table.to_canonical_json()
    """
    collector: Optional[TimeSeriesCollector] = None
    content_hash = ""
    for row in parse_jsonl_bytes(payload):
        if row.get("kind") == "header":
            # The header's "faults" marker decides whether the replayed
            # table carries the fault-recovery columns, matching what
            # the live collector saw for the same spec.
            content_hash = row.get("content_hash", "")
            collector = TimeSeriesCollector(
                window_s=window_s, include_faults=bool(row.get("faults"))
            )
            continue
        if collector is None:
            collector = TimeSeriesCollector(window_s=window_s)
        collector.observe_row(row)
    if collector is None:
        collector = TimeSeriesCollector(window_s=window_s)
    return collector.finalize(content_hash=content_hash)
