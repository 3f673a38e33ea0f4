"""The benchmark's workloads and the output check each run must pass.

A workload is a closed batch: one or more :class:`ExperimentSpec` built
from a :class:`SimulationConfig` and the benchmark seed.  The program's
own workload model (churned sessions, the 75/15/10 video selection)
generates every request from them; the benchmark only sizes the batch.

The seed is the *run* seed (``ExperimentSpec.with_seed``): the trace
corpus keeps the config's own recipe, exactly like the repository's
seed sweeps, so every seed replays randomized trials over one corpus.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.obs.baseline import DEFAULT_TOLERANCES

#: The seed the committed reference was recorded at (the repo default).
REFERENCE_SEED = 2014

#: Paper metrics compared against the reference at ``REFERENCE_SEED``.
HEADLINE_METRICS: Tuple[str, ...] = (
    "startup_delay_ms_mean",
    "startup_delay_ms_p50",
    "startup_delay_ms_p99",
    "server_fallback_fraction",
    "prefetch_hit_fraction",
    "mean_continuity_index",
    "peer_bandwidth_p1",
    "peer_bandwidth_p50",
    "peer_bandwidth_p99",
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    """One named batch of experiment runs, executed in order."""

    name: str
    protocols: Tuple[str, ...]
    config: SimulationConfig
    faults: Optional[FaultPlan] = None

    def specs(self, seed: int) -> List[ExperimentSpec]:
        """The specs of one batch: single process, one shard, one worker."""
        return [
            ExperimentSpec(
                protocol=protocol, config=self.config, faults=self.faults
            ).with_seed(seed)
            for protocol in self.protocols
        ]

    @property
    def fault_free(self) -> bool:
        return self.faults is None

    @property
    def planned_requests(self) -> int:
        """Requests one protocol run completes when no session is cut short."""
        cfg = self.config
        return cfg.num_nodes * cfg.sessions_per_user * cfg.videos_per_session


def _churn_config(base: SimulationConfig) -> SimulationConfig:
    return dataclasses.replace(
        base, sessions_per_user=10, videos_per_session=2, mean_off_time_s=60.0
    )


def _workloads(smoke: bool) -> Dict[str, Workload]:
    if smoke:
        small = SimulationConfig.smoke_scale()
        # Ten sessions: NetTube's lead over PA-VoD (Fig 16) needs them.
        one_k = small.scaled_sessions(10)
        ten_k = dataclasses.replace(small, sessions_per_user=1, videos_per_session=1)
        churn = dataclasses.replace(
            _churn_config(small), sessions_per_user=3
        )
    else:
        one_k = SimulationConfig.default_scale().scaled_sessions(2)
        # Table I population and corpus; one video per session keeps a
        # run inside the benchmark's time budget (10 videos ~85 s).
        ten_k = dataclasses.replace(
            SimulationConfig.paper_scale(), sessions_per_user=1, videos_per_session=1
        )
        churn = _churn_config(SimulationConfig.default_scale())
    return {
        "socialtube_1k": Workload("socialtube_1k", ("socialtube",), one_k),
        "socialtube_10k": Workload("socialtube_10k", ("socialtube",), ten_k),
        "baselines_1k": Workload("baselines_1k", ("nettube", "pavod"), one_k),
        "churn_faults_1k": Workload(
            "churn_faults_1k", ("socialtube",), churn, FaultPlan.demo()
        ),
    }


WORKLOADS = _workloads(smoke=False)
SMOKE_WORKLOADS = _workloads(smoke=True)


def workload(name: str, smoke: bool = False) -> Workload:
    table = SMOKE_WORKLOADS if smoke else WORKLOADS
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


# -- output check ---------------------------------------------------------------


def summary(result: ExperimentResult) -> Dict[str, float]:
    """The counts and paper metrics the check reads from one run."""
    metrics = result.metrics
    values = {name: float(getattr(metrics, name)) for name in HEADLINE_METRICS}
    values["num_requests"] = metrics.num_requests
    values["events_processed"] = result.events_processed
    values["crashes"] = metrics.crashes
    return values


def fingerprint(results: Sequence[ExperimentResult]) -> str:
    """Digest of a batch's rendered output; equal seeds give equal digests."""
    digest = hashlib.sha256()
    for result in results:
        for row in result.render_rows():
            digest.update(row.encode("utf-8"))
    return digest.hexdigest()


def reference_key(name: str, smoke: bool) -> str:
    return f"{name}@{'smoke' if smoke else 'full'}"


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, Dict[str, Dict[str, float]]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check(
    load: Workload,
    seed: int,
    results: Sequence[ExperimentResult],
    reference: Optional[Dict[str, Dict[str, float]]],
) -> List[str]:
    """Every way the batch's output is wrong (empty when correct).

    On any seed: request and event counts follow from the config (crash
    churn may only cut sessions short), and on ``baselines_1k`` NetTube
    beats PA-VoD on Fig 16 (median peer bandwidth) and Fig 17 (mean
    startup delay).  At ``REFERENCE_SEED``, ``reference`` (protocol ->
    summary) also pins the counts exactly and the paper metrics within
    the regression gate's ``DEFAULT_TOLERANCES`` bands.
    """
    problems: List[str] = []
    runs = {spec.protocol: summary(result) for spec, result in zip(load.specs(seed), results)}
    sessions = load.config.num_nodes * load.config.sessions_per_user
    for protocol, values in runs.items():
        requests, events = values["num_requests"], values["events_processed"]
        if load.fault_free:
            if requests != load.planned_requests:
                problems.append(f"{protocol}: {requests} requests, planned {load.planned_requests}")
            if events != load.planned_requests + sessions:
                problems.append(f"{protocol}: {events} events, planned {load.planned_requests + sessions}")
        else:
            if not 0 < requests <= load.planned_requests:
                problems.append(f"{protocol}: {requests} requests outside (0, {load.planned_requests}]")
            if events < requests + sessions:
                problems.append(f"{protocol}: {events} events < requests + sessions")
            if values["crashes"] <= 0:
                problems.append(f"{protocol}: the fault plan crashed no node")
        if seed == REFERENCE_SEED and reference is not None:
            expected = reference.get(protocol)
            if expected is None:
                problems.append(f"{protocol}: no reference recorded")
                continue
            for name in ("num_requests", "events_processed"):
                if values[name] != expected[name]:
                    problems.append(f"{protocol}: {name} {values[name]} != reference {expected[name]}")
            for name in HEADLINE_METRICS:
                abs_tol, rel_tol = DEFAULT_TOLERANCES[name]
                allowed = abs_tol + rel_tol * abs(expected[name])
                if abs(values[name] - expected[name]) > allowed:
                    problems.append(
                        f"{protocol}: {name} {values[name]:.6g} outside "
                        f"{expected[name]:.6g} +/- {allowed:.6g}"
                    )
    if load.protocols == ("nettube", "pavod"):
        nettube, pavod = runs["nettube"], runs["pavod"]
        if not nettube["peer_bandwidth_p50"] > pavod["peer_bandwidth_p50"]:
            problems.append("fig16: NetTube median peer bandwidth does not beat PA-VoD")
        if not nettube["startup_delay_ms_mean"] < pavod["startup_delay_ms_mean"]:
            problems.append("fig17: NetTube mean startup delay does not beat PA-VoD")
    return problems
