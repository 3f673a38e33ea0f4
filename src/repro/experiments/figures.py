"""Regenerates every evaluation figure of Section V.

The three measurement figures (16, 17, 18) all derive from the same
five experiment runs per environment -- PA-VoD, SocialTube and NetTube
with their prefetching, plus SocialTube and NetTube without it -- so
:class:`EvaluationSuite` runs each (variant, environment) pair once and
caches the result; the ``figNN_*`` methods then just reshape the data
into the rows the paper plots.

Fig 15 and the prefetch-accuracy numbers are analytical
(:mod:`repro.core.model`) and need no simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.model import fig15_series, overhead_crossover, prefetch_accuracy
from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import (
    AggregatedResult,
    aggregate_runs,
    run_sweep,
)
from repro.experiments.registry import resolve_params
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.trace.dataset import TraceDataset

#: The five systems of Fig 17 (Fig 16/18 use the with-prefetch three).
VARIANTS: List[Tuple[str, str, Dict]] = [
    ("PA-VoD", "pavod", {}),
    ("SocialTube w/ PF", "socialtube", {"enable_prefetch": True}),
    ("SocialTube w/o PF", "socialtube", {"enable_prefetch": False}),
    ("NetTube w/ PF", "nettube", {"enable_prefetch": True}),
    ("NetTube w/o PF", "nettube", {"enable_prefetch": False}),
]


@dataclass
class FigureRow:
    """One printable row of an evaluation figure."""

    label: str
    values: Dict[str, float]

    def render(self) -> str:
        body = "  ".join(f"{k}={v:.4g}" for k, v in self.values.items())
        return f"  {self.label:24s} {body}"


@dataclass
class EvaluationFigure:
    """A regenerated table/figure: rows plus free-form notes."""

    figure: str
    title: str
    rows: List[FigureRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render_rows(self) -> List[str]:
        out = [f"{self.figure}: {self.title}"]
        out.extend(row.render() for row in self.rows)
        out.extend(f"  note: {n}" for n in self.notes)
        return out


#: A single run or a multi-seed aggregate; both expose ``.metrics``.
SuiteResult = Union[ExperimentResult, AggregatedResult]


class EvaluationSuite:
    """Runs and caches the Section V experiment grid.

    ``seeds``/``jobs`` widen every (variant, environment) cell from one
    run into a seed sweep executed through the parallel orchestrator;
    :meth:`result` then returns an :class:`AggregatedResult` (means +
    95% CIs) instead of a single :class:`ExperimentResult`.  Both shapes
    expose ``.metrics``, so the ``figNN_*`` methods are agnostic.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        planetlab_config: Optional[SimulationConfig] = None,
        seeds: Optional[Sequence[int]] = None,
        jobs: int = 1,
    ):
        self.config = config or SimulationConfig.default_scale()
        self.planetlab_config = planetlab_config or SimulationConfig.planetlab_scale()
        self.seeds = tuple(int(s) for s in seeds) if seeds else None
        self.jobs = max(1, int(jobs))
        self._results: Dict[Tuple[str, str], SuiteResult] = {}

    def _config_for(self, environment: str) -> SimulationConfig:
        return self.planetlab_config if environment == "planetlab" else self.config

    def _dataset_for(self, environment: str) -> TraceDataset:
        """The trace corpus for one environment, via the shared cache.

        Content-hash keying means two environments (or two suites) with
        the same ``TraceConfig`` share one synthesized corpus instead of
        rebuilding it per environment.
        """
        return shared_trace_cache.dataset_for(self._config_for(environment).trace)

    def _specs_for(
        self, variant_label: str, environment: str
    ) -> List[ExperimentSpec]:
        variant = next((v for v in VARIANTS if v[0] == variant_label), None)
        if variant is None:
            raise KeyError(f"unknown variant {variant_label!r}")
        _label, protocol_name, overrides = variant
        cfg = self._config_for(environment)
        base = ExperimentSpec(
            protocol=protocol_name,
            config=cfg,
            environment=environment,
            params=resolve_params(protocol_name, cfg, overrides or None),
        )
        seeds = self.seeds or (cfg.seed,)
        return [base.with_seed(seed) for seed in seeds]

    def _store(self, key: Tuple[str, str], specs, results) -> None:
        if len(results) == 1:
            self._results[key] = results[0]
        else:
            self._results[key] = aggregate_runs(specs, results)

    def warm(
        self,
        variant_labels: Optional[Sequence[str]] = None,
        environments: Sequence[str] = ("peersim",),
    ) -> None:
        """Run every uncached (variant, environment, seed) cell in one
        sweep, so ``jobs > 1`` parallelizes across the whole grid rather
        than one cell at a time."""
        labels = list(variant_labels) if variant_labels is not None else [
            label for label, _name, _overrides in VARIANTS
        ]
        pending: List[Tuple[Tuple[str, str], List[ExperimentSpec]]] = []
        flat: List[ExperimentSpec] = []
        for environment in environments:
            for label in labels:
                key = (label, environment)
                if key in self._results:
                    continue
                specs = self._specs_for(label, environment)
                pending.append((key, specs))
                flat.extend(specs)
        if not pending:
            return
        results = run_sweep(flat, jobs=self.jobs)
        cursor = 0
        for key, specs in pending:
            chunk = results[cursor:cursor + len(specs)]
            cursor += len(specs)
            self._store(key, specs, chunk)

    def result(self, variant_label: str, environment: str = "peersim") -> SuiteResult:
        """The cached outcome for one (variant, environment) pair.

        One seed -> an :class:`ExperimentResult`; several seeds -> an
        :class:`AggregatedResult` of means and confidence intervals.
        """
        key = (variant_label, environment)
        if key not in self._results:
            specs = self._specs_for(variant_label, environment)
            results = run_sweep(specs, jobs=self.jobs)
            self._store(key, specs, results)
        return self._results[key]

    # -- Fig 15 (analytical) --------------------------------------------------

    def fig15_maintenance_model(self, max_videos: int = 50) -> EvaluationFigure:
        """Analytical overhead: SocialTube constant vs NetTube m*log(u)."""
        socialtube, nettube = fig15_series(max_videos_watched=max_videos)
        figure = EvaluationFigure(
            figure="Fig 15",
            title="Analytical overlay maintenance overhead vs videos watched",
        )
        for m in (1, 2, 5, 10, 20, 50):
            if m > max_videos:
                continue
            figure.rows.append(
                FigureRow(
                    label=f"m={m}",
                    values={
                        "SocialTube": socialtube[m - 1][1],
                        "NetTube": nettube[m - 1][1],
                    },
                )
            )
        figure.notes.append(
            f"crossover at m={overhead_crossover():.2f} "
            "(NetTube cheaper below, costlier above)"
        )
        figure.notes.append(
            "paper prefetch accuracy check: "
            f"M=1,N=25 -> {prefetch_accuracy(25, 1):.3f} (paper 0.262), "
            f"M=4,N=25 -> {prefetch_accuracy(25, 4):.3f} (paper 0.546)"
        )
        return figure

    # -- Fig 16 ------------------------------------------------------------------

    def fig16_peer_bandwidth(self, environment: str = "peersim") -> EvaluationFigure:
        """1st/50th/99th percentile normalized peer bandwidth per system."""
        figure = EvaluationFigure(
            figure="Fig 16" + ("a" if environment == "peersim" else "b"),
            title=f"Normalized peer bandwidth percentiles ({environment})",
        )
        for label in ("PA-VoD", "SocialTube w/ PF", "NetTube w/ PF"):
            metrics = self.result(label, environment).metrics
            figure.rows.append(
                FigureRow(
                    label=label.replace(" w/ PF", ""),
                    values={
                        "p1": metrics.peer_bandwidth_p1,
                        "p50": metrics.peer_bandwidth_p50,
                        "p99": metrics.peer_bandwidth_p99,
                    },
                )
            )
        return figure

    # -- Fig 17 --------------------------------------------------------------------

    def fig17_startup_delay(self, environment: str = "peersim") -> EvaluationFigure:
        """Startup delay for the five systems of the paper's bar chart."""
        figure = EvaluationFigure(
            figure="Fig 17" + ("a" if environment == "peersim" else "b"),
            title=f"Startup delay, with and without prefetching ({environment})",
        )
        for label, _name, _overrides in VARIANTS:
            metrics = self.result(label, environment).metrics
            figure.rows.append(
                FigureRow(
                    label=label,
                    values={
                        "mean_ms": metrics.startup_delay_ms_mean,
                        "p50_ms": metrics.startup_delay_ms_p50,
                        "p99_ms": metrics.startup_delay_ms_p99,
                    },
                )
            )
        return figure

    # -- Fig 18 ----------------------------------------------------------------------

    def fig18_maintenance_overhead(self, environment: str = "peersim") -> EvaluationFigure:
        """Mean maintained links vs videos watched in a session."""
        figure = EvaluationFigure(
            figure="Fig 18" + ("a" if environment == "peersim" else "b"),
            title=f"Overlay maintenance overhead over a session ({environment})",
        )
        for label in ("SocialTube w/ PF", "NetTube w/ PF"):
            metrics = self.result(label, environment).metrics
            series = metrics.overhead_series()
            figure.rows.append(
                FigureRow(
                    label=label.replace(" w/ PF", ""),
                    values={f"v{idx}": links for idx, links in series},
                )
            )
        return figure

    # -- Table I -----------------------------------------------------------------------

    def table1_parameters(self) -> EvaluationFigure:
        """The experiment's default parameters (paper's Table I)."""
        cfg = self.config
        figure = EvaluationFigure(
            figure="Table I", title="Experiment default parameters"
        )
        paper = SimulationConfig.paper_scale()
        rows = [
            ("Number of nodes", cfg.num_nodes, paper.num_nodes),
            ("Number of videos", cfg.trace.num_videos, paper.trace.num_videos),
            ("Number of channels", cfg.trace.num_channels, paper.trace.num_channels),
            ("Sessions per user", cfg.sessions_per_user, paper.sessions_per_user),
            ("Videos per session", cfg.videos_per_session, paper.videos_per_session),
            ("Mean off time (s)", cfg.mean_off_time_s, paper.mean_off_time_s),
            ("Chunks per video", cfg.chunks_per_video, paper.chunks_per_video),
            ("Video bitrate (kbps)", cfg.video_bitrate_bps / 1000,
             paper.video_bitrate_bps / 1000),
            ("Server bandwidth (Mbps)", cfg.effective_server_bandwidth_bps / 1e6,
             paper.effective_server_bandwidth_bps / 1e6),
            ("Inner links / inter links", cfg.inner_links * 100 + cfg.inter_links,
             paper.inner_links * 100 + paper.inter_links),
            ("TTL", cfg.ttl, paper.ttl),
        ]
        for label, ours, papers in rows:
            figure.rows.append(
                FigureRow(label=label, values={"this_run": float(ours), "paper": float(papers)})
            )
        figure.notes.append(
            "inner/inter links encoded as inner*100+inter (5/10 -> 510)"
        )
        return figure

    # -- everything ------------------------------------------------------------------------

    def all_figures(self, environments=("peersim", "planetlab")) -> List[EvaluationFigure]:
        figures = [self.fig15_maintenance_model(), self.table1_parameters()]
        for environment in environments:
            figures.append(self.fig16_peer_bandwidth(environment))
            figures.append(self.fig17_startup_delay(environment))
            figures.append(self.fig18_maintenance_overhead(environment))
        return figures
