"""The declarative fault model: what goes wrong, how often, how hard.

The paper's PlanetLab deployment (Section VI) exists to show SocialTube
survives a hostile network -- peers vanish mid-transfer, queries are
lost, uplinks degrade, the server browns out under load.  The PeerSim
evaluation only exercises *graceful* churn, so this module describes the
adversity explicitly: a :class:`FaultPlan` is a frozen, all-zero-by-
default bundle of fault rates that rides on
:class:`repro.experiments.spec.ExperimentSpec` and is content-hash
aware -- an all-zero plan serializes to *nothing*, so fault-free specs
keep their pre-fault hashes and baselines.

Determinism contract: the plan holds only *parameters*.  Every random
draw happens in :class:`repro.faults.injector.FaultInjector` from
dedicated ``RngStreams`` substreams, so enabling faults never perturbs
the workload/churn/latency streams and ``--jobs N`` stays byte-identical
to serial execution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple


@dataclass(frozen=True)
class RetryPolicy:
    """Failover retry/timeout/backoff knobs (DESIGN.md section 9).

    After a provider crash is detected (``detection_timeout_s`` after
    the crash), the consumer re-searches the overlay; each miss waits
    ``backoff_base_s * backoff_factor**attempt`` (capped at
    ``backoff_max_s``) before the next attempt, and after
    ``max_retries`` misses the server finishes the transfer (a
    *degraded* serve, not a lost session).
    """

    max_retries: int = 2
    detection_timeout_s: float = 2.0
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.detection_timeout_s < 0:
            raise ValueError("detection_timeout_s must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based), capped.

        Example::

            >>> RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0).backoff_delay(2)
            4.0
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        if self.backoff_base_s == 0.0:
            return 0.0
        try:
            delay = self.backoff_base_s * self.backoff_factor**attempt
        except OverflowError:
            # factor**attempt left float range, so the cap has long won.
            return self.backoff_max_s
        return min(self.backoff_max_s, delay)


#: Field groups for the v2 fault families -- a family's fields travel
#: together through :meth:`FaultPlan.to_dict` (omitted when disarmed).
_COMMUNITY_CRASH_FIELDS: Tuple[str, ...] = (
    "community_crash_at_s",
    "community_crash_fraction",
)
_TRACKER_OUTAGE_FIELDS: Tuple[str, ...] = (
    "tracker_outage_at_s",
    "tracker_outage_duration_s",
)
_PARTITION_FIELDS: Tuple[str, ...] = (
    "partition_at_s",
    "partition_duration_s",
)
_FLASH_CROWD_FIELDS: Tuple[str, ...] = (
    "flash_crowd_at_s",
    "flash_crowd_duration_s",
    "flash_crowd_admission_limit",
)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seeded description of every injected fault class.

    * **crash-churn** -- while a node is in session, it crashes after an
      exponential delay with rate ``crash_rate_per_hour`` (0 disables).
      A crash kills the node mid-session/mid-transfer: no graceful
      leave, overlay links dangle until crash-repair.
    * **query loss** -- each peer lookup is lost with
      ``query_loss_prob``; the requester retries under ``retry`` and
      falls back to the server past the budget.
    * **slow peer** -- a peer transfer is degraded to
      ``slow_peer_factor`` of its granted rate with ``slow_peer_prob``
      (a congested uplink episode).
    * **server brownout** -- during the first ``brownout_duty`` fraction
      of every ``brownout_period_s`` window of virtual time, server
      serves run at ``brownout_factor`` of the granted rate.  Purely
      clock-driven: no RNG draw.
    * **crash-repair** -- surviving neighbors detect and re-link
      ``repair_window_s`` after a crash (the overlay self-healing
      window).

    The v2 *correlated & infrastructure* families (each disarmed at its
    zero default, each a scheduled window rather than a rate):

    * **community crash** -- at ``community_crash_at_s`` a seeded burst
      takes down ``community_crash_fraction`` of one interest cluster
      at once, highest-capacity members first (the upper-layer nodes go
      too).  The cluster pick is the only random draw
      (``faults.community``); the victim set within it is
      deterministic.
    * **tracker outage** -- between ``tracker_outage_at_s`` and
      ``+ tracker_outage_duration_s`` the tracker is down *and its
      state is lost*: lookups fail (peers fall back to overlay flooding
      or raw server serves) and at recovery every online peer
      re-registers its state in node-id order.
    * **network partition** -- between ``partition_at_s`` and
      ``+ partition_duration_s`` links crossing the interest-community
      bisection (``primary_interest(node) % 2``) are severed; in-flight
      cross-side transfers are interrupted into the failover path, and
      at heal time a maintenance sweep re-links the overlay.
    * **flash crowd** -- between ``flash_crowd_at_s`` and
      ``+ flash_crowd_duration_s`` the server applies explicit
      admission control: at most ``flash_crowd_admission_limit``
      concurrent server transfers; excess requests are *shed* and the
      requester retries under ``retry`` (forced degraded admit past the
      budget) instead of the silent brownout rate cut.

    The all-default plan is *zero*: :meth:`is_zero` is True and the plan
    is omitted from the spec's canonical payload, keeping fault-free
    content hashes, traces, and baselines byte-identical to a build
    without this module.  :meth:`to_dict` likewise omits every
    *disarmed* v2 family, so pre-v2 plans (and their baselines) keep
    their content hashes.
    """

    crash_rate_per_hour: float = 0.0
    query_loss_prob: float = 0.0
    slow_peer_prob: float = 0.0
    slow_peer_factor: float = 0.25
    brownout_period_s: float = 0.0
    brownout_duty: float = 0.0
    brownout_factor: float = 0.5
    repair_window_s: float = 60.0
    retry: RetryPolicy = RetryPolicy()
    community_crash_at_s: float = 0.0
    community_crash_fraction: float = 0.0
    tracker_outage_at_s: float = 0.0
    tracker_outage_duration_s: float = 0.0
    partition_at_s: float = 0.0
    partition_duration_s: float = 0.0
    flash_crowd_at_s: float = 0.0
    flash_crowd_duration_s: float = 0.0
    flash_crowd_admission_limit: int = 0

    def __post_init__(self) -> None:
        if self.crash_rate_per_hour < 0:
            raise ValueError("crash_rate_per_hour must be >= 0")
        for name in ("query_loss_prob", "slow_peer_prob", "brownout_duty"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("slow_peer_factor", "brownout_factor"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.brownout_period_s < 0:
            raise ValueError("brownout_period_s must be >= 0")
        if self.repair_window_s <= 0:
            raise ValueError("repair_window_s must be positive")
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy")
        for name in (
            "community_crash_at_s",
            "tracker_outage_at_s",
            "tracker_outage_duration_s",
            "partition_at_s",
            "partition_duration_s",
            "flash_crowd_at_s",
            "flash_crowd_duration_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.community_crash_fraction <= 1.0:
            raise ValueError("community_crash_fraction must be in [0, 1]")
        if self.flash_crowd_admission_limit < 0:
            raise ValueError("flash_crowd_admission_limit must be >= 0")

    # -- per-family armed predicates -----------------------------------

    def has_community_crash(self) -> bool:
        """Whether the correlated community-crash burst is armed."""
        return self.community_crash_at_s > 0 and self.community_crash_fraction > 0

    def has_tracker_outage(self) -> bool:
        """Whether a tracker-outage window is armed."""
        return self.tracker_outage_at_s > 0 and self.tracker_outage_duration_s > 0

    def has_partition(self) -> bool:
        """Whether a network-partition window is armed."""
        return self.partition_at_s > 0 and self.partition_duration_s > 0

    def has_flash_crowd(self) -> bool:
        """Whether a flash-crowd admission-control window is armed."""
        return (
            self.flash_crowd_at_s > 0
            and self.flash_crowd_duration_s > 0
            and self.flash_crowd_admission_limit > 0
        )

    def is_zero(self) -> bool:
        """True when no fault class can ever fire under this plan."""
        return (
            self.crash_rate_per_hour == 0.0
            and self.query_loss_prob == 0.0
            and self.slow_peer_prob == 0.0
            and not (self.brownout_period_s > 0 and self.brownout_duty > 0)
            and not self.has_community_crash()
            and not self.has_tracker_outage()
            and not self.has_partition()
            and not self.has_flash_crowd()
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested dict (the spec's canonical-payload form).

        Every *disarmed* v2 family is omitted wholesale, the same move
        that keeps an all-zero plan out of the canonical payload: a
        pre-v2 plan (or a v2 plan that arms nothing new) serializes to
        exactly its pre-v2 dict, so existing content hashes and chaos
        baselines survive the schema growth.
        """
        payload = dataclasses.asdict(self)
        for armed, fields in (
            (self.has_community_crash(), _COMMUNITY_CRASH_FIELDS),
            (self.has_tracker_outage(), _TRACKER_OUTAGE_FIELDS),
            (self.has_partition(), _PARTITION_FIELDS),
            (self.has_flash_crowd(), _FLASH_CROWD_FIELDS),
        ):
            if not armed:
                for name in fields:
                    del payload[name]
        return payload

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, Any]]) -> Optional["FaultPlan"]:
        """Rebuild a plan from :meth:`to_dict` output; None passes through.

        Used by the baseline gate to reconstruct fault-injected specs
        from committed baseline files.  Unknown keys are rejected with
        an error naming the key (a typo in a hand-edited baseline must
        not silently become a default-valued plan), and unknown retry
        sub-keys get the same treatment.  Keys a family omitted load
        back as their disarmed defaults.
        """
        if payload is None:
            return None
        known = {field.name for field in dataclasses.fields(cls)}
        for key in payload:
            if key not in known:
                raise ValueError(
                    f"FaultPlan.from_dict: unknown key {key!r} "
                    f"(known keys: {', '.join(sorted(known))})"
                )
        fields = dict(payload)
        retry = fields.pop("retry", None)
        if retry is not None:
            known_retry = {field.name for field in dataclasses.fields(RetryPolicy)}
            for key in retry:
                if key not in known_retry:
                    raise ValueError(
                        f"FaultPlan.from_dict: unknown retry key {key!r} "
                        f"(known keys: {', '.join(sorted(known_retry))})"
                    )
            fields["retry"] = RetryPolicy(**retry)
        return cls(**fields)

    @classmethod
    def demo(cls) -> "FaultPlan":
        """The canonical nonzero plan: CLI default, chaos baselines, CI.

        Aggressive enough that every fault path fires at smoke scale
        (crashes mid-transfer, lost queries, slow peers, brownouts)
        while leaving most sessions able to complete normally.
        """
        return cls(
            crash_rate_per_hour=4.0,
            query_loss_prob=0.05,
            slow_peer_prob=0.10,
            slow_peer_factor=0.30,
            brownout_period_s=1200.0,
            brownout_duty=0.25,
            brownout_factor=0.5,
            repair_window_s=60.0,
            retry=RetryPolicy(),
        )

    # -- canonical v2 family scenarios (the resilience grid's rows) ----

    @classmethod
    def community_crash_demo(cls) -> "FaultPlan":
        """Grid scenario: half of one interest cluster dies at t=600s."""
        return cls(community_crash_at_s=600.0, community_crash_fraction=0.5)

    @classmethod
    def tracker_outage_demo(cls) -> "FaultPlan":
        """Grid scenario: tracker down (state lost) for t in [600, 900)."""
        return cls(tracker_outage_at_s=600.0, tracker_outage_duration_s=300.0)

    @classmethod
    def partition_demo(cls) -> "FaultPlan":
        """Grid scenario: cross-community links severed for t in [600, 1000)."""
        return cls(partition_at_s=600.0, partition_duration_s=400.0)

    @classmethod
    def flash_crowd_demo(cls) -> "FaultPlan":
        """Grid scenario: server sheds past 2 concurrent serves, t in [600, 900)."""
        return cls(
            flash_crowd_at_s=600.0,
            flash_crowd_duration_s=300.0,
            flash_crowd_admission_limit=2,
        )

    @classmethod
    def infra_demo(cls) -> "FaultPlan":
        """Every v2 family armed at once, staggered so each phase shows.

        The canonical plan behind the ``_chaos_infra`` baselines: the
        community burst lands first, the tracker drops during the
        partition, and the flash crowd hits a healed-but-rattled
        overlay.
        """
        return cls(
            community_crash_at_s=400.0,
            community_crash_fraction=0.4,
            tracker_outage_at_s=800.0,
            tracker_outage_duration_s=200.0,
            partition_at_s=700.0,
            partition_duration_s=400.0,
            flash_crowd_at_s=1300.0,
            flash_crowd_duration_s=300.0,
            flash_crowd_admission_limit=2,
        )
