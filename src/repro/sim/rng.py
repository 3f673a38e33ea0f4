"""Deterministic, named random-number streams.

A reproduction must be bit-for-bit repeatable from a single seed, yet a
simulation has many independent consumers of randomness (workload
selection, latency sampling, churn, failure injection...).  Giving each
consumer its own :class:`random.Random` derived deterministically from a
master seed keeps streams decoupled: adding one extra draw in the latency
model does not perturb the workload sequence.

``RngStreams`` hands out per-name streams; the same ``(seed, name)`` pair
always yields the same sequence.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses SHA-256 so that child seeds are uncorrelated even for adjacent
    master seeds or similar names (``"latency"`` vs ``"latency2"``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* object, so a
        stream's state advances across call sites that share a name.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngStreams":
        """Create a child ``RngStreams`` rooted at a derived seed.

        Useful to give each node its own family of streams:
        ``streams.fork(f"node:{node_id}")``.
        """
        return RngStreams(derive_seed(self.master_seed, name))

    @classmethod
    def for_run(cls, master_seed: int, *qualifiers: str) -> "RngStreams":
        """The stream family owned by one experiment run.

        This is the parallel-determinism contract of the fan-out
        harness (see :mod:`repro.experiments.parallel`): every run
        constructs its *own* ``RngStreams`` rooted only at its spec's
        seed (plus optional ``qualifiers``, folded in one
        :func:`derive_seed` step at a time), and no stream object is
        ever shared between runs.  Because a run's draws depend on
        nothing but this root, executing runs across N worker
        processes, in any order, yields byte-identical results to
        executing them serially.

        With no qualifiers this is exactly ``RngStreams(master_seed)``,
        so adopting it changed no existing output.
        """
        seed = int(master_seed)
        for qualifier in qualifiers:
            seed = derive_seed(seed, qualifier)
        return cls(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.master_seed}, streams={sorted(self._streams)})"
