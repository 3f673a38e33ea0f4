"""Typed protocol registry: the one sanctioned way to build a stack.

The experiment layer used to hold a raw ``{name: class}`` dict and pass
free-form ``**protocol_overrides`` straight into constructors, which
made specs unpicklable (classes travel badly), overrides untypable, and
the set of runnable systems invisible to tooling.  This module replaces
that with:

* one frozen *parameter dataclass* per protocol, whose field names are
  exactly the keyword arguments of the protocol constructor, so a
  params value is a complete, hashable, picklable description of a
  stack's tuning;
* a :class:`ProtocolEntry` binding name -> (factory, params type,
  defaults-from-config), registered via :func:`register_protocol`;
* :func:`create_protocol`, the only call site that instantiates a
  ``*Protocol`` class (enforced by the ``direct-protocol-instantiation``
  lint rule).

``repro.experiments.spec.ExperimentSpec`` stores the protocol *name*
plus a params value; workers re-resolve the factory through this
registry, so specs pickle cleanly across process boundaries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Dict, List, Optional, Type

from repro.baselines.gridcast import GridCastProtocol
from repro.baselines.nettube import NetTubeProtocol
from repro.baselines.pavod import PaVodProtocol
from repro.baselines.protocol import VodProtocol
from repro.core.socialtube import SocialTubeProtocol
from repro.experiments.config import SimulationConfig
from repro.net.server import CentralServer
from repro.trace.dataset import TraceDataset

# ---------------------------------------------------------------------------
# per-protocol parameter dataclasses
#
# Field names match the protocol constructors verbatim: a params value
# expands to constructor kwargs via dataclasses.asdict().


@dataclass(frozen=True)
class SocialTubeParams:
    """SocialTube tuning (Section IV / Section V defaults)."""

    inner_link_limit: int = 5
    inter_link_limit: int = 10
    ttl: int = 2
    prefetch_window: int = 3
    enable_prefetch: bool = True


@dataclass(frozen=True)
class NetTubeParams:
    """NetTube tuning (per-video overlays)."""

    links_per_overlay: int = 5
    search_hops: int = 2
    prefetch_window: int = 3
    enable_prefetch: bool = True


@dataclass(frozen=True)
class PaVodParams:
    """PA-VoD tuning (server-directed peer assistance)."""

    watchers_per_referral: int = 3
    download_speedup: float = 2.0


@dataclass(frozen=True)
class GridCastParams:
    """GridCast tuning (tracker-directed multi-video caching)."""

    replicas_per_referral: int = 3


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ProtocolEntry:
    """One runnable protocol stack: its factory and its typed knobs."""

    name: str
    factory: Callable[..., VodProtocol]
    params_type: Type[Any]
    #: Derives the protocol's default params from a SimulationConfig,
    #: so Table-I-style config fields (inner_links, ttl...) keep
    #: steering the stacks they always steered.
    defaults_from_config: Callable[[SimulationConfig], Any]


_REGISTRY: Dict[str, ProtocolEntry] = {}


def register_protocol(
    name: str,
    factory: Callable[..., VodProtocol],
    params_type: Type[Any],
    defaults_from_config: Optional[Callable[[SimulationConfig], Any]] = None,
) -> ProtocolEntry:
    """Register a protocol stack under ``name``; returns its entry.

    ``params_type`` must be a frozen dataclass whose fields mirror the
    factory's keyword arguments.  Re-registering a name replaces the
    entry (tests register throwaway stacks).

    Example::

        register_protocol("mystack", MyStackProtocol, MyStackParams)
        protocol = create_protocol("mystack", dataset, server, rng)
    """
    if not dataclasses.is_dataclass(params_type):
        raise TypeError(f"params_type for {name!r} must be a dataclass")
    entry = ProtocolEntry(
        name=name,
        factory=factory,
        params_type=params_type,
        defaults_from_config=defaults_from_config or (lambda _config: params_type()),
    )
    _REGISTRY[name] = entry
    return entry


def unregister_protocol(name: str) -> None:
    """Remove a registered stack (test cleanup for throwaway entries)."""
    _REGISTRY.pop(name, None)


def get_protocol(name: str) -> ProtocolEntry:
    """The registry entry for ``name``; raises ValueError when unknown."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {protocol_names()}"
        )
    return entry


def protocol_names() -> List[str]:
    """Sorted names of every registered stack."""
    return sorted(_REGISTRY)


def default_params(name: str, config: SimulationConfig) -> Any:
    """The typed default params of ``name`` under ``config``."""
    return get_protocol(name).defaults_from_config(config)


def resolve_params(
    name: str, config: SimulationConfig, overrides: Optional[Dict[str, Any]] = None
) -> Any:
    """Defaults-from-config with field overrides applied and type-checked.

    Raises TypeError on an override key the params dataclass does not
    declare -- the typo-safety the old ``**protocol_overrides`` lacked.

    Example::

        params = resolve_params("socialtube", config, {"ttl": 3})
        assert params.ttl == 3        # other fields keep config defaults
    """
    params = default_params(name, config)
    if overrides:
        try:
            params = dataclasses.replace(params, **overrides)
        except TypeError as exc:
            raise TypeError(
                f"invalid parameter for protocol {name!r}: {exc}; "
                f"valid fields are "
                f"{[f.name for f in dataclasses.fields(params)]}"
            ) from None
    return params


def create_protocol(
    name: str,
    dataset: TraceDataset,
    server: CentralServer,
    rng: Random,
    params: Optional[Any] = None,
) -> VodProtocol:
    """Instantiate the stack registered under ``name``.

    ``params`` defaults to the entry's params defaults (not derived
    from any SimulationConfig); pass :func:`resolve_params` output to
    honour config-level knobs.

    Example::

        protocol = create_protocol(
            "socialtube", dataset, server, rng,
            params=resolve_params("socialtube", config),
        )
    """
    entry = get_protocol(name)
    if params is None:
        params = entry.params_type()
    if not isinstance(params, entry.params_type):
        raise TypeError(
            f"protocol {name!r} expects params of type "
            f"{entry.params_type.__name__}, got {type(params).__name__}"
        )
    return entry.factory(dataset, server, rng, **dataclasses.asdict(params))


# ---------------------------------------------------------------------------
# the built-in stacks


def _socialtube_defaults(config: SimulationConfig) -> SocialTubeParams:
    return SocialTubeParams(
        inner_link_limit=config.inner_links,
        inter_link_limit=config.inter_links,
        ttl=config.ttl,
        prefetch_window=config.prefetch_window,
        enable_prefetch=config.enable_prefetch,
    )


def _nettube_defaults(config: SimulationConfig) -> NetTubeParams:
    return NetTubeParams(
        links_per_overlay=config.nettube_links_per_overlay,
        search_hops=config.nettube_search_hops,
        prefetch_window=config.prefetch_window,
        enable_prefetch=config.enable_prefetch,
    )


register_protocol(
    "socialtube", SocialTubeProtocol, SocialTubeParams, _socialtube_defaults
)
register_protocol("nettube", NetTubeProtocol, NetTubeParams, _nettube_defaults)
register_protocol("pavod", PaVodProtocol, PaVodParams)
register_protocol("gridcast", GridCastProtocol, GridCastParams)
