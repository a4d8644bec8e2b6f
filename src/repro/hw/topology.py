"""NUMA/PCIe topology: per-pair peer-link model for multi-GPU platforms.

The single-link :class:`~repro.hw.spec.PCIeSpec` prices every transfer the
same way, which is right for one GPU but wrong for four: on a dual-socket
node two devices behind the same PCIe switch exchange peer DMA at nearly
the host-link law, while a pair split across host bridges (one hop over
QPI on the paper-era platforms) pays extra latency and loses bandwidth to
the bridge staging.  :class:`PCIeTopology` captures exactly that
distinction — a switch id per device slot plus two link laws — so the halo
exchange of a sharded solve and the serving scheduler price the link a
byte actually crosses instead of a platform average.

The model deliberately stays two-tier (direct vs. host-bridged); adding
NVLink-class links later is a third :class:`~repro.hw.spec.PCIeSpec`, not
a new mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hw.spec import PCIE_X16_GEN2, PCIeSpec

#: bandwidth efficiency multiplier for a peer copy staged across the host
#: bridge (QPI hop): the DMA is forwarded through host memory, roughly
#: halving the achievable fraction of the link peak.
BRIDGE_EFFICIENCY_FACTOR = 0.55

#: latency multiplier for a host-bridged peer copy (two DMA setups plus
#: the QPI hop instead of one switch forward).
BRIDGE_LATENCY_FACTOR = 2.5

#: devices sharing one PCIe switch on the modeled node (two x16 slots per
#: switch, the common dual-socket layout of the paper era).
DEVICES_PER_SWITCH = 2


@dataclass(frozen=True)
class PCIeTopology:
    """Per-pair peer-link topology over a set of device slots.

    ``switch_of[d]`` names the PCIe switch device slot ``d`` hangs off;
    peers on the same switch use the ``direct`` link law, peers on
    different switches use the ``bridged`` law (staged across the host
    bridge).  Both laws are plain :class:`~repro.hw.spec.PCIeSpec`
    latency + bandwidth models, so pricing composes with everything that
    already consumes ``transfer_time``.
    """

    name: str
    #: PCIe switch id per device slot (index = device index)
    switch_of: tuple[int, ...]
    #: same-switch peer link (switch forwards the DMA; host never touched)
    direct: PCIeSpec
    #: cross-bridge peer link (staged through the host bridge / QPI)
    bridged: PCIeSpec

    def __post_init__(self) -> None:
        if not self.switch_of:
            raise ValueError("topology needs at least one device slot")

    @property
    def n_devices(self) -> int:
        return len(self.switch_of)

    def _check(self, index: int) -> int:
        if not 0 <= index < len(self.switch_of):
            raise ValueError(
                f"device index {index} outside topology "
                f"(0..{len(self.switch_of) - 1})"
            )
        return index

    def is_direct(self, src: int, dst: int) -> bool:
        """True iff ``src`` and ``dst`` share a PCIe switch."""
        return self.switch_of[self._check(src)] == self.switch_of[self._check(dst)]

    def link(self, src: int, dst: int) -> PCIeSpec:
        """The link law a ``src -> dst`` peer copy follows."""
        return self.direct if self.is_direct(src, dst) else self.bridged

    def p2p_time(self, nbytes: int, src: int, dst: int) -> float:
        """Seconds for a ``cudaMemcpyPeerAsync`` of ``nbytes`` on the pair."""
        return self.link(src, dst).transfer_time(nbytes)

    def pair_table(self) -> dict[tuple[int, int], str]:
        """Human-readable link class per ordered pair (debug/trace aid)."""
        out: dict[tuple[int, int], str] = {}
        for s in range(self.n_devices):
            for d in range(self.n_devices):
                if s != d:
                    out[(s, d)] = "direct" if self.is_direct(s, d) else "bridged"
        return out


def paper_topology(
    n_devices: int,
    pcie: PCIeSpec = PCIE_X16_GEN2,
    devices_per_switch: int = DEVICES_PER_SWITCH,
) -> PCIeTopology:
    """The modeled multi-GPU node: ``devices_per_switch`` slots per PCIe
    switch, switches split across the two host bridges.

    With the default layout a 2-device solve keeps both GPUs on one
    switch — every peer pair is direct, so pricing is identical to the
    single-link model — while 3+ devices start paying the bridged law on
    cross-switch pairs, which is exactly the cliff real 4-GPU nodes show.
    """
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    if devices_per_switch < 1:
        raise ValueError(
            f"devices_per_switch must be >= 1, got {devices_per_switch}"
        )
    bridged = replace(
        pcie,
        name=f"{pcie.name} (host-bridged)",
        efficiency=pcie.efficiency * BRIDGE_EFFICIENCY_FACTOR,
        latency_s=pcie.latency_s * BRIDGE_LATENCY_FACTOR,
    )
    return PCIeTopology(
        name=f"{pcie.name} x{n_devices} ({devices_per_switch}/switch)",
        switch_of=tuple(d // devices_per_switch for d in range(n_devices)),
        direct=pcie,
        bridged=bridged,
    )
