"""Analytic bus-traffic plans, audited against the device meter.

A :class:`TrafficPlan` lists every transfer an operation is expected to
make, once each, by name and bytes, per direction: host-to-device,
device-to-host and peer-to-peer.  Byte totals and transfer counts derive
from that list.  :meth:`TrafficPlan.matches` compares the plan with the
meter (:meth:`~repro.cuda.device.Device.transfer_stats`) over the audited
window, so an operation that grows a transfer its plan does not list, or
drops one it does, fails the audit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the meter's directions, as its ``bytes_<dir>`` / ``n_<dir>`` keys name them
DIRECTIONS = ("h2d", "d2h", "p2p")


@dataclass(frozen=True)
class TrafficPlan:
    """The transfers one operation is planned to move.

    Each direction is a tuple of ``(name, nbytes)`` pairs, one per
    transfer, in the order they happen.
    """

    h2d: tuple = ()
    d2h: tuple = ()
    p2p: tuple = ()

    def nbytes(self, direction: str) -> int:
        """Planned bytes in one direction."""
        return sum(b for _, b in getattr(self, direction))

    def count(self, direction: str) -> int:
        """Planned transfers in one direction."""
        return len(getattr(self, direction))

    def matches(self, meter0: dict, meter1: dict) -> bool:
        """Whether the meter moved from ``meter0`` to ``meter1`` exactly as
        planned: bytes and transfer count, in every direction."""
        return all(
            meter1[f"bytes_{d}"] - meter0[f"bytes_{d}"] == self.nbytes(d)
            and meter1[f"n_{d}"] - meter0[f"n_{d}"] == self.count(d)
            for d in DIRECTIONS
        )
