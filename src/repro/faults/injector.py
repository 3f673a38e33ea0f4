"""Seeded fault draws, isolated from every other RNG stream.

The injector is the only component that consumes randomness for fault
decisions, and it draws exclusively from its own named ``RngStreams``
substreams (``faults.crash`` / ``faults.query-loss`` /
``faults.slow-peer``).  Stream derivation is name-based, so creating
these streams never perturbs the workload/churn/latency/protocol
sequences -- which is what keeps a zero-plan run byte-identical to a
build without fault injection, and a fault-injected run byte-identical
between ``--jobs 1`` and ``--jobs N``.

A fault-free run builds no injector at all (the runner's ``faults`` is
None), so every fault hook on its hot path costs one truthiness check.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.sim.rng import RngStreams


class FaultInjector:
    """Draws every fault decision for one run from dedicated streams.

    Draw order is fixed by the (deterministic) event order of the
    simulation: one crash draw per session start, one loss draw per
    peer lookup, one slow-peer draw per peer admission.  Brownouts are
    a pure function of the virtual clock and consume no randomness.
    """

    def __init__(self, plan: FaultPlan, streams: RngStreams):
        if plan.is_zero():
            raise ValueError("FaultInjector requires a nonzero FaultPlan")
        self.plan = plan
        self.retry = plan.retry
        self._rng_crash = streams.stream("faults.crash")
        self._rng_query = streams.stream("faults.query-loss")
        self._rng_slow = streams.stream("faults.slow-peer")
        self._rng_community = streams.stream("faults.community")
        # Armed flags cached so the clock-window predicates cost one
        # attribute read + compare on the hot path (the <3% armed-inert
        # bar in BENCH_faults.json covers these).
        self.community_crash_armed = plan.has_community_crash()
        self.tracker_outage_armed = plan.has_tracker_outage()
        self.partition_armed = plan.has_partition()
        self.flash_crowd_armed = plan.has_flash_crowd()

    def crash_delay(self) -> Optional[float]:
        """Seconds until this session's crash, or None when crash-free.

        Drawn once per session start; the recovery cancels the scheduled
        crash if the session ends gracefully first.
        """
        rate = self.plan.crash_rate_per_hour
        if rate <= 0:
            return None
        return self._rng_crash.expovariate(rate / 3600.0)

    def query_lost(self) -> bool:
        """One loss draw for a peer lookup (True = the reply never came)."""
        prob = self.plan.query_loss_prob
        return prob > 0 and self._rng_query.random() < prob

    def peer_rate(self, rate_bps: float) -> float:
        """Granted peer rate after a possible slow-peer episode."""
        prob = self.plan.slow_peer_prob
        if prob > 0 and self._rng_slow.random() < prob:
            return rate_bps * self.plan.slow_peer_factor
        return rate_bps

    def in_brownout(self, now: float) -> bool:
        """Whether virtual time ``now`` falls inside a brownout window."""
        period = self.plan.brownout_period_s
        if period <= 0 or self.plan.brownout_duty <= 0:
            return False
        return now % period < self.plan.brownout_duty * period

    def server_rate(self, rate_bps: float, now: float) -> float:
        """Granted server rate after a possible brownout (clock-driven)."""
        if self.in_brownout(now):
            return rate_bps * self.plan.brownout_factor
        return rate_bps

    # -- v2 correlated & infrastructure families -----------------------

    def community_crash_cluster(self, clusters: Sequence[int]) -> int:
        """Pick the interest cluster the correlated burst takes down.

        The *only* random draw in the community-crash family (one
        ``faults.community`` draw per run); the victim set inside the
        cluster is chosen deterministically by the recovery (highest
        upload capacity first, node id as the tiebreak).
        """
        if not clusters:
            raise ValueError("community_crash_cluster needs a nonempty cluster list")
        return clusters[self._rng_community.randrange(len(clusters))]

    def tracker_down(self, now: float) -> bool:
        """Whether ``now`` falls inside the tracker-outage window."""
        if not self.tracker_outage_armed:
            return False
        start = self.plan.tracker_outage_at_s
        return start <= now < start + self.plan.tracker_outage_duration_s

    def in_partition(self, now: float) -> bool:
        """Whether ``now`` falls inside the network-partition window."""
        if not self.partition_armed:
            return False
        start = self.plan.partition_at_s
        return start <= now < start + self.plan.partition_duration_s

    def in_flash_crowd(self, now: float) -> bool:
        """Whether ``now`` falls inside the flash-crowd window."""
        if not self.flash_crowd_armed:
            return False
        start = self.plan.flash_crowd_at_s
        return start <= now < start + self.plan.flash_crowd_duration_s
