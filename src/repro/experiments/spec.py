"""The frozen, hashable description of one experiment run.

An :class:`ExperimentSpec` is the unit of work of the whole evaluation
layer: the CLI, :class:`repro.experiments.figures.EvaluationSuite`, the
ablation sweeps and the process-pool orchestrator all construct specs,
and a spec is everything a worker process needs to reproduce a run
bit-for-bit -- protocol *name* (resolved through the typed registry, so
specs pickle without dragging classes along), full
:class:`SimulationConfig` (including the run seed and the trace
recipe), environment *name*, and a typed params value.

Two hashes matter:

* :meth:`content_hash` -- SHA-256 over the canonical JSON of the fully
  resolved spec.  Equal hashes mean byte-identical runs; the sweep
  layer uses it to deduplicate work and key result caches.
* :meth:`trace_hash` -- the same digest over only ``config.trace``.
  Runs whose specs share a trace hash watch the *same* synthesized
  corpus, which is what lets the trace cache synthesize once and ship
  one serialized snapshot to every worker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.registry import get_protocol, resolve_params
from repro.faults.plan import FaultPlan

#: Bumped when the canonical serialization changes shape, so stale
#: on-disk caches keyed by content_hash can never alias a new layout.
_SPEC_SCHEMA_VERSION = 1


def canonical_json(value: Any) -> str:
    """Deterministic JSON for dataclasses/dicts/scalars (sorted keys).

    Example::

        >>> canonical_json({"b": 2, "a": 1})
        '{"a":1,"b":2}'
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`.

    Example::

        >>> content_digest({"a": 1}) == content_digest({"a": 1})
        True
    """
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines one ``(protocol, seed, environment)`` run.

    ``params=None`` means "derive the protocol's defaults from
    ``config``"; the resolution is deterministic, so a None-params spec
    and its explicitly resolved twin share a :meth:`content_hash` (and
    therefore a cache slot) even though ``==`` distinguishes them.

    ``environment`` is a *name* (see
    ``repro.experiments.config.ENVIRONMENT_FACTORIES``) because
    :class:`Environment` carries latency-model closures that do not
    pickle; the runner resolves the name on whichever process executes
    the spec.

    Example::

        spec = ExperimentSpec(
            protocol="socialtube",
            config=SimulationConfig.smoke_scale(seed=2014),
        )
        result = run_spec(spec)              # repro.experiments.runner
        cache_key = spec.content_hash()
    """

    protocol: str
    config: SimulationConfig
    environment: str = "peersim"
    params: Optional[Any] = None
    #: Optional fault model (see repro.faults).  ``None`` and an
    #: all-zero plan are hash-equivalent: both are omitted from the
    #: canonical payload, so fault-free specs keep their pre-fault
    #: content hashes (and the committed baselines keyed by them).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        entry = get_protocol(self.protocol)  # raises ValueError when unknown
        if self.params is not None and not isinstance(
            self.params, entry.params_type
        ):
            raise TypeError(
                f"protocol {self.protocol!r} expects params of type "
                f"{entry.params_type.__name__}, "
                f"got {type(self.params).__name__}"
            )
        if not isinstance(self.config, SimulationConfig):
            raise TypeError("config must be a SimulationConfig")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan or None")

    # -- derived views -------------------------------------------------------

    @property
    def seed(self) -> int:
        """The run seed (the RngStreams root of this run)."""
        return self.config.seed

    def resolved_params(self) -> Any:
        """The typed params this run will use (defaults filled in)."""
        if self.params is not None:
            return self.params
        return resolve_params(self.protocol, self.config)

    def has_faults(self) -> bool:
        """True when a nonzero :class:`FaultPlan` governs this run."""
        return self.faults is not None and not self.faults.is_zero()

    def resolved_faults(self) -> Optional[FaultPlan]:
        """The effective fault plan: ``None`` unless nonzero faults apply."""
        return self.faults if self.has_faults() else None

    def canonical_payload(self) -> Dict[str, Any]:
        """The fully resolved, JSON-ready description of this run.

        A nonzero fault plan contributes a ``"faults"`` key; ``None``
        and all-zero plans contribute nothing, so their specs hash
        identically to specs predating fault injection.
        """
        payload = {
            "version": _SPEC_SCHEMA_VERSION,
            "protocol": self.protocol,
            "environment": self.environment,
            "config": dataclasses.asdict(self.config),
            "params": dataclasses.asdict(self.resolved_params()),
        }
        if self.has_faults():
            payload["faults"] = self.faults.to_dict()
        return payload

    def content_hash(self) -> str:
        """SHA-256 hex digest identifying this run's full behaviour."""
        return content_digest(self.canonical_payload())

    def trace_hash(self) -> str:
        """Digest of the trace recipe alone (the trace-cache key)."""
        return content_digest(self.config.trace)

    # -- builders ------------------------------------------------------------

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """Same run under a different RNG seed (same trace corpus).

        Only ``config.seed`` changes: the trace recipe keeps its own
        seed, so a seed sweep replays the paper's methodology --
        repeated randomized trials over one corpus -- and every spec in
        the sweep shares a :meth:`trace_hash`.
        """
        return replace(self, config=replace(self.config, seed=seed))

    def with_params(self, **overrides: Any) -> "ExperimentSpec":
        """Copy with typed parameter overrides applied over the defaults.

        Unknown field names raise TypeError -- the typo-safety the old
        free-form ``**protocol_overrides`` never had.
        """
        params = dataclasses.replace(self.resolved_params(), **overrides)
        return replace(self, params=params)

    def with_faults(self, faults: Optional[FaultPlan]) -> "ExperimentSpec":
        """Copy with a fault plan attached (or removed with ``None``).

        Example::

            chaos = spec.with_faults(FaultPlan.demo())
            assert chaos.content_hash() != spec.content_hash()
            assert spec.with_faults(FaultPlan()).content_hash() == spec.content_hash()
        """
        return replace(self, faults=faults)

    def label(self) -> str:
        """Compact human-readable identity for logs and progress rows."""
        return f"{self.protocol}/{self.environment}/seed={self.seed}"

    def __hash__(self) -> int:
        return int(self.content_hash()[:16], 16)


def seed_sweep(
    spec: ExperimentSpec, seeds: Iterable[int]
) -> Tuple[ExperimentSpec, ...]:
    """One spec per seed, in the given order (duplicates preserved).

    Example::

        specs = seed_sweep(base_spec, [1, 2, 3])
        assert [s.seed for s in specs] == [1, 2, 3]
        assert len({s.trace_hash() for s in specs}) == 1  # same corpus
    """
    return tuple(spec.with_seed(int(seed)) for seed in seeds)
