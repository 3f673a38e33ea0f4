"""Per-layer spans for the traced benchmark run.

Nothing in ``src/`` is changed: :func:`instrument` wraps the public
entry points of each layer on one constructed ``ExperimentRunner``'s own
instances (``runner.protocol``, ``runner.server``, ``runner.selector``,
``runner.metrics``, ``runner.faults``, ``runner.scheduler``) plus the
``simulate_playback``/``simulate_resume`` names the runner module
imports.  Each call records a span -- function, start, end, parent --
in flat arrays held in memory; :meth:`SpanRecorder.write` dumps them
once the run is over.

A layer's self time is the sum of its spans' durations minus the time
their child spans cover.  The run itself is a ``sim`` span, so the
engine and runner glue that no other span covers lands in ``sim``'s
self time, together with ``schedule`` calls.  The work the ratio
counters do is recorded under the pseudo-layer ``bench`` so that it is
charged to no layer of the program.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.experiments.runner as runner_module

#: The layers reported, named after the program's modules.
LAYERS: Tuple[str, ...] = (
    "workload",
    "overlay.search",
    "overlay.maintenance",
    "overlay.membership",
    "core.prefetch",
    "net.server.tracker_read",
    "net.server.tracker_write",
    "net.server.popularity",
    "net.server.serve",
    "net.streaming",
    "metrics",
    "faults",
    "trace",
    "sim",
)

#: Counter overhead; never reported as a layer of the program.
BENCH = "bench"

PROTOCOL_LAYERS: Dict[str, str] = {
    "locate": "overlay.search",
    "relocate": "overlay.search",
    "on_maintenance": "overlay.maintenance",
    "on_session_start": "overlay.membership",
    "on_session_end": "overlay.membership",
    "on_crash": "overlay.membership",
    "repair_after_crash": "overlay.membership",
    "on_watch_started": "overlay.membership",
    "on_watch_finished": "overlay.membership",
    "reannounce": "overlay.membership",
    "select_prefetch": "core.prefetch",
    "prefetch_source": "core.prefetch",
}

SERVER_LAYERS: Dict[str, str] = {
    "is_online": "net.server.tracker_read",
    "channel_members": "net.server.tracker_read",
    "random_channel_member": "net.server.tracker_read",
    "random_members_per_channel_in_category": "net.server.tracker_read",
    "find_holder_in_category": "net.server.tracker_read",
    "video_overlay_members": "net.server.tracker_read",
    "random_video_overlay_members": "net.server.tracker_read",
    "current_watchers": "net.server.tracker_read",
    "node_online": "net.server.tracker_write",
    "node_offline": "net.server.tracker_write",
    "register_channel_member": "net.server.tracker_write",
    "unregister_channel_member": "net.server.tracker_write",
    "register_video_overlay_member": "net.server.tracker_write",
    "unregister_video_overlay_member": "net.server.tracker_write",
    "watch_started": "net.server.tracker_write",
    "watch_finished": "net.server.tracker_write",
    "tracker_outage_begin": "net.server.tracker_write",
    "tracker_outage_end": "net.server.tracker_write",
    "top_videos_of_channel": "net.server.popularity",
    "serve": "net.server.serve",
}

FAULT_METHODS: Tuple[str, ...] = (
    "crash_delay",
    "query_lost",
    "peer_rate",
    "in_brownout",
    "server_rate",
    "community_crash_cluster",
    "tracker_down",
    "in_partition",
    "in_flash_crowd",
)

STREAMING_FUNCTIONS: Tuple[str, ...] = ("simulate_playback", "simulate_resume")

Observer = Callable[[tuple, dict, object], None]


class SpanRecorder:
    """In-memory span store: one row per call, parents by row index."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Function table: code -> (layer, qualified name).
        self.functions: List[Tuple[str, str]] = []
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._bench = self._function(BENCH, "counters")

    def _function(self, layer: str, name: str) -> int:
        self.functions.append((layer, name))
        return len(self.functions) - 1

    def wrap(
        self, layer: str, name: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` recording one span per call (and its counters)."""
        code = self._function(layer, name)
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack, clock, bench = self._stack, self.clock, self._bench

        def spanned(*args, **kwargs):
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                row = len(codes)
                codes.append(bench)
                parents.append(stack[-1])
                starts.append(clock())
                ends.append(0.0)
                observe(args, kwargs, result)
                ends[row] = clock()
            return result

        spanned.__wrapped__ = fn
        return spanned

    def __len__(self) -> int:
        return len(self.code)

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Self seconds and call counts per layer, and self seconds per function."""
        n = len(self.code)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_code = [0.0] * len(self.functions)
        count = [0] * len(self.functions)
        for i in range(n):
            by_code[self.code[i]] += self.end[i] - self.start[i] - child[i]
            count[self.code[i]] += 1
        self_s: Dict[str, float] = Counter()
        calls: Dict[str, int] = Counter()
        by_function: Dict[str, float] = Counter()
        for code, (layer, name) in enumerate(self.functions):
            self_s[layer] += by_code[code]
            calls[layer] += count[code]
            by_function[name] += by_code[code]
        return self_s, calls, by_function

    def write(self, path: str) -> None:
        """Dump every span as gzipped TSV (times in microseconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tlayer\tfunction\tstart_us\tend_us\n")
            origin = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.code)):
                layer, name = self.functions[self.code[i]]
                out.write(
                    f"{i}\t{self.parent[i]}\t{layer}\t{name}\t"
                    f"{(self.start[i] - origin) * 1e6:.3f}\t"
                    f"{(self.end[i] - origin) * 1e6:.3f}\n"
                )


# -- ratio counters ------------------------------------------------------------


def _observe_locate(counters: Counter) -> Observer:
    def observe(args, kwargs, lookup):
        counters["search.locates"] += 1
        counters["search.contacted"] += lookup.peers_contacted
        if not lookup.from_cache:
            counters["search.non_cache"] += 1
            counters["search.peer"] += bool(lookup.from_peer)

    return observe


def _observe_prefetch(counters: Counter) -> Observer:
    def observe(args, kwargs, candidates):
        counters["prefetch.stored"] += len(candidates)

    return observe


def _observe_popularity(counters: Counter, catalog) -> Observer:
    def observe(args, kwargs, returned):
        counters["popularity.ranked"] += len(catalog.videos_of_channel(args[0]))
        counters["popularity.returned"] += len(returned)

    return observe


def _observe_channel_read(counters: Counter, server, members_of: Callable) -> Observer:
    """Members visible to a channel-member read vs members it returned.

    ``members_of(args)`` names the channels the call can see; their
    sizes are read through ``channel_members()`` (reads never change
    membership, so reading after the call sees what the call saw).
    """
    members = server.channel_members  # the unwrapped bound method

    def observe(args, kwargs, returned):
        counters["tracker.visible"] += sum(len(members(c)) for c in members_of(args))
        if isinstance(returned, list):
            counters["tracker.picked"] += len(returned)
        elif returned is not None:
            counters["tracker.picked"] += 1

    return observe


def instrument(runner, recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point of ``runner``; returns the undo.

    Instance attributes shadow the class methods, so every caller that
    reaches the objects through ``runner`` -- including the overlay
    structure and prefetcher, which hold the same server -- goes through
    the spans.  The module-level streaming functions are restored by
    the returned callable.
    """
    counters = recorder.counters
    wrap = recorder.wrap
    protocol, server = runner.protocol, runner.server
    catalog = server.catalog

    def category_channels(args):
        return catalog.channels_of_category(args[0])

    observers = {
        "locate": _observe_locate(counters),
        "select_prefetch": _observe_prefetch(counters),
        "top_videos_of_channel": _observe_popularity(counters, catalog),
        "random_channel_member": _observe_channel_read(counters, server, lambda a: (a[0],)),
        "random_members_per_channel_in_category": _observe_channel_read(
            counters, server, category_channels
        ),
        "find_holder_in_category": _observe_channel_read(counters, server, category_channels),
    }
    kind = type(protocol).__name__
    for method, layer in PROTOCOL_LAYERS.items():
        setattr(protocol, method, wrap(layer, f"{kind}.{method}", getattr(protocol, method), observers.get(method)))
    for method, layer in SERVER_LAYERS.items():
        setattr(server, method, wrap(layer, f"CentralServer.{method}", getattr(server, method), observers.get(method)))
    for method in ("start_session", "next_video"):
        setattr(runner.selector, method, wrap("workload", f"VideoSelector.{method}", getattr(runner.selector, method)))
    collector = runner.metrics
    for method in dir(type(collector)):
        if method.startswith(("record_", "note_")) or method == "summarize":
            setattr(collector, method, wrap("metrics", f"MetricsCollector.{method}", getattr(collector, method)))
    if runner.faults:
        for method in FAULT_METHODS:
            setattr(runner.faults, method, wrap("faults", f"FaultInjector.{method}", getattr(runner.faults, method)))
    runner.scheduler.schedule = wrap("sim", "EventScheduler.schedule", runner.scheduler.schedule)
    runner.run = wrap("sim", "ExperimentRunner.run", runner.run)

    originals = {name: getattr(runner_module, name) for name in STREAMING_FUNCTIONS}
    for name, fn in originals.items():
        setattr(runner_module, name, wrap("net.streaming", name, fn))

    def undo() -> None:
        for name, fn in originals.items():
            setattr(runner_module, name, fn)

    return undo


def layer_metrics(
    recorder: SpanRecorder,
    self_s: Dict[str, float],
    calls: Dict[str, int],
    requests: int,
    traced_wall_s: float,
    prefetch_hits: int,
    server_serves: int,
    events: int,
    tracing_overhead: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit).

    ``self_s``/``calls`` come from :meth:`SpanRecorder.self_times`;
    ``share`` is a layer's self time over the traced set-up plus run.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        seconds = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.us_per_request"] = (seconds * 1e6 / requests, "us")
        out[f"{layer}.share"] = (seconds / traced_wall_s, "fraction")
    c = recorder.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["core.prefetch.hit_ratio"] = (ratio(prefetch_hits, c["prefetch.stored"]), "ratio")
    out["overlay.search.peer_ratio"] = (ratio(c["search.peer"], c["search.non_cache"]), "ratio")
    out["overlay.search.peers_contacted_per_call"] = (
        ratio(c["search.contacted"], c["search.locates"]),
        "count",
    )
    out["net.server.tracker_read.members_scanned_per_pick"] = (
        ratio(c["tracker.visible"], c["tracker.picked"]),
        "ratio",
    )
    out["net.server.popularity.videos_ranked_per_returned"] = (
        ratio(c["popularity.ranked"], c["popularity.returned"]),
        "ratio",
    )
    out["net.server.serve.per_request"] = (ratio(server_serves, requests), "ratio")
    out["sim.events_per_request"] = (ratio(events, requests), "ratio")
    out["trace.tracing_overhead"] = (tracing_overhead, "ratio")
    return out
