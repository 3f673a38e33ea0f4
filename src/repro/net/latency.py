"""Pairwise latency models.

One-way latencies drive two delays the paper measures:

* query forwarding: each overlay hop of Algorithm 1 costs one one-way
  latency (request) -- the provider's answer costs another;
* the first-byte delay of a chunk transfer.

The simulator environment embeds nodes in a unit square (a standard
PeerSim-style synthetic topology): latency is a base propagation term
proportional to distance plus lognormal jitter.  The WAN model used by
the PlanetLab emulation draws inter-node distances from wider,
continent-scale scales and adds heavy jitter and congestion episodes,
matching the "unstable network environment" the paper observed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from random import Random
from typing import Dict, Sequence, Tuple

#: Node id reserved for the central server in latency computations.
SERVER_NODE_ID = -1


class LatencyModel(ABC):
    """Interface: sample the one-way latency between two endpoints."""

    @abstractmethod
    def sample(self, src: int, dst: int) -> float:
        """One-way latency in seconds from ``src`` to ``dst``."""

    def rtt(self, src: int, dst: int) -> float:
        """Round-trip latency (two independent one-way samples)."""
        return self.sample(src, dst) + self.sample(dst, src)


class UniformLatencyModel(LatencyModel):
    """Latency uniform in ``[low, high]``; handy for unit tests."""

    def __init__(self, rng: Random, low: float = 0.02, high: float = 0.08):
        if low < 0 or high < low:
            raise ValueError("need 0 <= low <= high")
        self._rng = rng
        self.low = low
        self.high = high

    def sample(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self._rng.uniform(self.low, self.high)


class PlanarLatencyModel(LatencyModel):
    """Planar-embedding latency: base + distance * scale + jitter.

    Each node is assigned a uniform random coordinate in the unit square
    on first sight (the server sits at the centre).  Latency between two
    nodes is::

        base + euclidean_distance * distance_scale + Lognormal jitter

    With the defaults, same-continent pairs land in the 20-90 ms range
    typical of broadband paths.
    """

    def __init__(
        self,
        rng: Random,
        base: float = 0.010,
        distance_scale: float = 0.080,
        jitter_sigma: float = 0.25,
    ):
        if base < 0 or distance_scale < 0 or jitter_sigma < 0:
            raise ValueError("latency parameters must be non-negative")
        self._rng = rng
        self.base = base
        self.distance_scale = distance_scale
        self.jitter_sigma = jitter_sigma
        self._coords: Dict[int, Tuple[float, float]] = {
            SERVER_NODE_ID: (0.5, 0.5),
        }

    def _coord(self, node: int) -> Tuple[float, float]:
        coord = self._coords.get(node)
        if coord is None:
            coord = (self._rng.random(), self._rng.random())
            self._coords[node] = coord
        return coord

    def distance(self, src: int, dst: int) -> float:
        """Euclidean distance between the two nodes' embeddings."""
        (x1, y1), (x2, y2) = self._coord(src), self._coord(dst)
        return math.hypot(x1 - x2, y1 - y2)

    def sample(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        propagation = self.base + self.distance(src, dst) * self.distance_scale
        jitter = self._rng.lognormvariate(0.0, self.jitter_sigma)
        return propagation * jitter


class WanLatencyModel(LatencyModel):
    """Wide-area (PlanetLab-like) latency with congestion episodes.

    Nodes are scattered over a handful of *sites* (continents); the
    inter-site latency matrix spans 30-250 ms.  On top of propagation:

    * per-sample lognormal jitter with a heavy sigma, and
    * congestion episodes: with probability ``congestion_prob`` a sample
      is inflated by ``congestion_factor`` (queueing at a loaded
      PlanetLab node or transit link).

    The emulated testbed (:mod:`repro.planetlab`) additionally injects
    connection *failures*; this class only shapes delay.
    """

    #: Representative one-way inter-site latencies in seconds (symmetric).
    #: Frozen (tuple-of-tuples): the class attribute is shared by every
    #: instance, so a mutable matrix here would let one model's edit
    #: leak into all others.
    DEFAULT_SITE_LATENCY: Tuple[Tuple[float, ...], ...] = (
        (0.015, 0.045, 0.120, 0.150, 0.220, 0.180),
        (0.045, 0.018, 0.100, 0.130, 0.250, 0.200),
        (0.120, 0.100, 0.020, 0.060, 0.160, 0.140),
        (0.150, 0.130, 0.060, 0.022, 0.180, 0.120),
        (0.220, 0.250, 0.160, 0.180, 0.025, 0.090),
        (0.180, 0.200, 0.140, 0.120, 0.090, 0.020),
    )

    def __init__(
        self,
        rng: Random,
        jitter_sigma: float = 0.45,
        congestion_prob: float = 0.05,
        congestion_factor: float = 6.0,
        site_latency: Sequence[Sequence[float]] = None,
    ):
        if not 0 <= congestion_prob <= 1:
            raise ValueError("congestion_prob must be in [0, 1]")
        if congestion_factor < 1:
            raise ValueError("congestion_factor must be >= 1")
        self._rng = rng
        self.jitter_sigma = jitter_sigma
        self.congestion_prob = congestion_prob
        self.congestion_factor = congestion_factor
        self.site_latency = site_latency or self.DEFAULT_SITE_LATENCY
        self._sites: Dict[int, int] = {SERVER_NODE_ID: 0}

    @property
    def num_sites(self) -> int:
        return len(self.site_latency)

    def site_of(self, node: int) -> int:
        """The site a node lives at (assigned uniformly on first sight)."""
        site = self._sites.get(node)
        if site is None:
            site = self._rng.randrange(self.num_sites)
            self._sites[node] = site
        return site

    def sample(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        base = self.site_latency[self.site_of(src)][self.site_of(dst)]
        jitter = self._rng.lognormvariate(0.0, self.jitter_sigma)
        latency = base * jitter
        if self._rng.random() < self.congestion_prob:
            latency *= self.congestion_factor
        return latency
