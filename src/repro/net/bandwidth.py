"""Processor-sharing upload links.

Every video source -- the central server and each peer -- owns one
:class:`SharedUploadLink`.  When a link with capacity ``C`` bits/s is
carrying ``k`` concurrent transfers, each transfer receives ``C / k``.

To keep the event count tractable at 10,000-node scale we use the
standard *admission-time share* approximation: a transfer's rate is
fixed when it is admitted (capacity divided by the number of transfers
then active, including itself) rather than continuously re-balanced.
Under the paper's workloads the approximation errs in the conservative
direction for an overloaded server: once many transfers pile up, every
newcomer sees a tiny share and a long delay, which is exactly the
overload signal Fig. 17 relies on.

A grant also exposes :meth:`TransferGrant.time_for_bits` so the harness
can price both the startup buffer (what the user waits for) and the
remainder of the video (which occupies the link until completion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class BandwidthError(ValueError):
    """Raised for invalid link configurations or grant misuse."""


@dataclass
class TransferGrant:
    """One admitted transfer on a :class:`SharedUploadLink`."""

    link: "SharedUploadLink"
    rate_bps: float
    released: bool = field(default=False)

    def time_for_bits(self, bits: float) -> float:
        """Seconds needed to move ``bits`` at this grant's rate."""
        if bits < 0:
            raise BandwidthError("bits must be non-negative")
        if self.rate_bps <= 0:
            raise BandwidthError("grant has no rate; link capacity exhausted")
        return bits / self.rate_bps

    def release(self) -> None:
        """Return the slot to the link.  Idempotent."""
        if not self.released:
            self.released = True
            self.link._active -= 1
            if self.link.tracer:
                self.link.tracer.event(
                    "bandwidth.release",
                    owner=self.link.owner_id,
                    active=self.link._active,
                )


class SharedUploadLink:
    """An upload link shared equally among its active transfers."""

    def __init__(self, capacity_bps: float, owner_id: Optional[int] = None):
        if capacity_bps <= 0:
            raise BandwidthError("capacity_bps must be positive")
        self.capacity_bps = float(capacity_bps)
        self.owner_id = owner_id
        self._active = 0
        self.total_admitted = 0
        self.total_bits_served = 0.0
        #: Optional repro.obs tracer (set by the experiment runner).
        #: When truthy, admissions and releases emit trace events with
        #: the grant's fixed share -- the raw series behind chunk-source
        #: attribution and server-saturation analysis.
        self.tracer = None

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently holding a slot."""
        return self._active

    @property
    def current_share_bps(self) -> float:
        """Rate the *next* admitted transfer would receive."""
        return self.capacity_bps / (self._active + 1)

    def admit(self, bits: float = 0.0) -> TransferGrant:
        """Admit a transfer, fixing its rate at the current share.

        ``bits`` is only used for accounting (total bytes served by this
        source); pass the transfer size when known.
        """
        if bits < 0:
            raise BandwidthError("bits must be non-negative")
        self._active += 1
        self.total_admitted += 1
        self.total_bits_served += bits
        rate = self.capacity_bps / self._active
        if self.tracer:
            self.tracer.event(
                "bandwidth.admit",
                owner=self.owner_id,
                rate_bps=rate,
                active=self._active,
                bits=bits,
            )
        return TransferGrant(link=self, rate_bps=rate)

    def utilization_hint(self) -> float:
        """Rough load indicator: active transfers per unit capacity share.

        1.0 means one active transfer; higher values mean each transfer
        gets a proportionally smaller slice.
        """
        return float(self._active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = "server" if self.owner_id is None else f"peer {self.owner_id}"
        return (
            f"SharedUploadLink({who}, {self.capacity_bps/1e6:.1f} Mbps, "
            f"active={self._active})"
        )
