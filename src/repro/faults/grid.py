"""The resilience grid: protocols x fault families -> degradation scorecard.

``python -m repro chaos --grid`` runs every paper protocol under each
of the four infrastructure fault families (repro.faults v2) and emits a
*degradation scorecard*: how gracefully each system absorbs the same
blow.  The scorecard columns are the graceful-degradation contract:

* **continuity** -- mean playback continuity across every watch; the
  user-facing outcome a fault must not destroy.
* **failover latency** -- mean time an interrupted consumer spent
  between losing its source and resuming; the cost of self-healing.
* **server fallback fraction** -- requests the server had to serve;
  degradation is supposed to shift load *here*, not to failures.
* **recovery time** -- first fault onset to the last recovery action
  (failover resume, repair sweep, re-registration sweep, partition
  heal); how long until the system was whole again.
* **fault events** -- the family's own blast counter (burst kills,
  failed lookups, severed transfers, admission sheds), proving the
  scenario actually fired.

Every cell replays one :class:`ExperimentSpec` under one family's demo
plan, so the whole grid is a pure function of ``(seed, scale)``: the
canonical JSON is byte-identical across ``--jobs``, which is exactly
what the CI chaos-grid job diffs.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import FaultPlan

#: Grid schema version, bumped when the scorecard layout changes.
GRID_SCHEMA_VERSION = 1

#: Row order of the scorecard (the paper's three evaluated systems).
GRID_PROTOCOLS: Tuple[str, ...] = ("socialtube", "nettube", "pavod")

#: Column order: one scenario per v2 fault family.
GRID_FAMILIES: Tuple[str, ...] = (
    "community_crash",
    "tracker_outage",
    "partition",
    "flash_crowd",
)


def family_plan(family: str) -> FaultPlan:
    """The canonical demo plan of one fault family (or ``infra`` for all).

    Raises ``ValueError`` for an unknown family name, listing the known
    ones -- the CLI surfaces this verbatim.
    """
    factories: Dict[str, Callable[[], FaultPlan]] = {
        "community_crash": FaultPlan.community_crash_demo,
        "tracker_outage": FaultPlan.tracker_outage_demo,
        "partition": FaultPlan.partition_demo,
        "flash_crowd": FaultPlan.flash_crowd_demo,
        "infra": FaultPlan.infra_demo,
    }
    factory = factories.get(family)
    if factory is None:
        known = ", ".join(GRID_FAMILIES + ("infra",))
        raise ValueError(f"unknown fault family {family!r} (known: {known})")
    return factory()


@dataclass(frozen=True)
class GridCell:
    """One (protocol, family) scorecard entry."""

    protocol: str
    family: str
    continuity: float
    failover_latency_ms: float
    server_fallback_fraction: float
    recovery_time_s: float
    fault_events: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "family": self.family,
            "continuity": round(self.continuity, 6),
            "failover_latency_ms": round(self.failover_latency_ms, 3),
            "server_fallback_fraction": round(self.server_fallback_fraction, 6),
            "recovery_time_s": round(self.recovery_time_s, 3),
            "fault_events": self.fault_events,
        }


def _family_events(family: str, metrics: Any) -> int:
    """The family's own blast counter, proving the scenario fired."""
    if family == "community_crash":
        return int(metrics.burst_crashes)
    if family == "tracker_outage":
        return int(metrics.tracker_lookup_failures)
    if family == "partition":
        return int(metrics.partition_interrupts)
    return int(metrics.server_sheds)  # flash_crowd


def grid_specs(
    seed: int = 2014,
    scale: str = "smoke",
    protocols: Optional[Tuple[str, ...]] = None,
) -> List[Tuple[str, str, ExperimentSpec]]:
    """Every ``(protocol, family, spec)`` cell, protocol-major order."""
    factory = (
        SimulationConfig.smoke_scale
        if scale == "smoke"
        else SimulationConfig.default_scale
    )
    cells = []
    for protocol in protocols or GRID_PROTOCOLS:
        for family in GRID_FAMILIES:
            spec = ExperimentSpec(
                protocol=protocol, config=factory(seed=seed)
            ).with_faults(family_plan(family))
            cells.append((protocol, family, spec))
    return cells


def _cell_worker(task: Tuple[str, str, ExperimentSpec]) -> GridCell:
    """Pool worker: one grid cell -> its scorecard entry."""
    from repro.experiments.runner import run_spec
    from repro.experiments.trace_cache import shared_trace_cache

    protocol, family, spec = task
    result = run_spec(
        spec, dataset=shared_trace_cache.dataset_for(spec.config.trace)
    )
    metrics = result.metrics
    return GridCell(
        protocol=protocol,
        family=family,
        continuity=metrics.mean_continuity_index,
        failover_latency_ms=metrics.failover_latency_ms_mean,
        server_fallback_fraction=metrics.server_fallback_fraction,
        recovery_time_s=metrics.recovery_time_s,
        fault_events=_family_events(family, metrics),
    )


def run_grid(
    seed: int = 2014,
    scale: str = "smoke",
    jobs: int = 1,
    protocols: Optional[Tuple[str, ...]] = None,
) -> List[GridCell]:
    """Run the full grid; cells come back in protocol-major order.

    ``jobs > 1`` fans cells out over worker processes; cell order (and
    therefore the canonical JSON) is identical for any job count.
    """
    tasks = grid_specs(seed=seed, scale=scale, protocols=protocols)
    if jobs > 1:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            return pool.map(_cell_worker, tasks, chunksize=1)
    return [_cell_worker(task) for task in tasks]


def grid_to_json_bytes(
    cells: List[GridCell], seed: int, scale: str
) -> bytes:
    """Canonical scorecard JSON: sorted keys, fixed cell order.

    The bytes are the grid's parity surface: CI diffs this output
    across ``--jobs``.
    """
    payload = {
        "schema": GRID_SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "protocols": list(dict.fromkeys(cell.protocol for cell in cells)),
        "families": list(GRID_FAMILIES),
        "cells": [cell.to_dict() for cell in cells],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def render_grid(cells: List[GridCell]) -> str:
    """The scorecard as an aligned text table (one line per cell)."""
    header = (
        f"{'protocol':<12} {'family':<16} {'continuity':>10} "
        f"{'failover_ms':>11} {'server_frac':>11} {'recovery_s':>10} {'events':>6}"
    )
    lines = ["resilience grid (degradation scorecard)", header]
    for cell in cells:
        lines.append(
            f"{cell.protocol:<12} {cell.family:<16} {cell.continuity:>10.4f} "
            f"{cell.failover_latency_ms:>11.1f} "
            f"{cell.server_fallback_fraction:>11.3f} "
            f"{cell.recovery_time_s:>10.1f} {cell.fault_events:>6d}"
        )
    return "\n".join(lines)
