"""Streams on the simulated timeline.

The paper's pipeline is serialized on the default stream (each eigensolver
iteration must round-trip the PCIe bus), so a job's work is recorded
straight onto the device timeline.  A :class:`Stream` is an in-order
*lane* with a known horizon: :meth:`Stream.reserve` books a span of
simulated work onto the stream, starting no earlier than both the caller's
ready time and the stream's previous work — exactly the FIFO semantics of
a real CUDA stream.  The serving scheduler multiplexes jobs over several
streams per device (and several devices) by reserving spans and taking the
earliest-available lane; the copy engines of the pipeline queue their
asynchronous H2D and peer copies the same way.
"""

from __future__ import annotations

from repro.cuda.device import Device
from repro.errors import StreamError


class Stream:
    """An in-order work queue (the simulation executes synchronously).

    Parameters
    ----------
    device:
        Owning device.
    name:
        Optional label; lanes created by the serving scheduler are named
        ``"dev<i>/s<j>"`` so schedule exports are readable.
    """

    def __init__(self, device: Device, name: str = "") -> None:
        self.device = device
        self.name = name
        #: simulated time at which all work queued so far has completed
        self.free_at = 0.0

    # ------------------------------------------------------------------
    # lane scheduling (serving layer)
    # ------------------------------------------------------------------
    def available_at(self, ready_at: float = 0.0) -> float:
        """Earliest simulated time work ready at ``ready_at`` could start."""
        return max(self.free_at, ready_at)

    def reserve(self, ready_at: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` seconds of in-order work onto this stream.

        The work starts at ``max(ready_at, free_at)`` (FIFO within the
        stream, dependency-honoring across streams) and pushes the
        stream's horizon to its end.  Returns ``(start, end)``.
        """
        if duration < 0:
            raise StreamError(f"negative duration: {duration}")
        if ready_at < 0:
            raise StreamError(f"negative ready_at: {ready_at}")
        start = self.available_at(ready_at)
        end = start + duration
        self.free_at = end
        return start, end

    # ------------------------------------------------------------------
    # copy-engine lane (async transfers overlapping compute)
    # ------------------------------------------------------------------
    def enqueue_h2d(self, nbytes: int, ready_at: float = 0.0) -> tuple[float, float]:
        """Queue ``cudaMemcpyAsync`` H2D from pinned memory on this stream.

        The copy starts no earlier than ``ready_at`` and the stream's
        previous work (FIFO), and is laid onto the device timeline with
        ``record_at`` so it can overlap kernels already recorded on the
        default stream — the classic copy-engine/compute overlap.  Returns
        the ``(start, end)`` simulated span.
        """
        start = self.available_at(ready_at)
        dt = self.device._record_h2d_at(nbytes, start)
        self.free_at = start + dt
        return start, self.free_at

    def enqueue_p2p(
        self,
        nbytes: int,
        ready_at: float = 0.0,
        peer: str = "",
        src: int | None = None,
    ) -> tuple[float, float]:
        """Queue ``cudaMemcpyPeerAsync`` *into* this stream's device.

        Successive peer copies on the same stream serialize (they share
        the destination device's PCIe link), which is exactly the FIFO
        behavior modeled by the lane horizon (see :meth:`enqueue_h2d`).
        ``src`` names the source device slot so a topology-aware cost
        model can price the actual link the pair crosses.
        """
        start = self.available_at(ready_at)
        dt = self.device._record_p2p_at(nbytes, start, peer=peer, src=src)
        self.free_at = start + dt
        return start, self.free_at

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Stream{label} on {self.device.spec.name!r} free_at={self.free_at:.6f}>"
