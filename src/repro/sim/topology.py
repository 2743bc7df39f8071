"""Machine specification: devices, interconnect, and host-side costs.

The defaults model the paper's testbed class (Kepler K80s behind PCIe 3.0 in
a dual-socket Supermicro host; Section 9) and are the calibration surface
for the benchmark harness. Absolute values are documented estimates — the
reproduction targets the *shape* of the paper's results, so what matters is
the ratio between compute throughput, interconnect bandwidth, and per-call
host overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import CalibrationError

__all__ = ["Route", "MachineSpec"]


@dataclass(frozen=True)
class Route:
    """How one copy travels through the machine.

    ``host`` endpoints and direct peer-to-peer copies bypass staging; a
    device-to-device copy without P2P is staged through host memory, which
    inflates its byte count on the lanes (``lane_factor``), occupies the
    shared host bus for ``bus_factor`` times the payload, and pays the
    two-hop staging setup latency.

    A ``network`` route (cluster topologies, :mod:`repro.cluster`) adds a
    network hop: device -> host -> NIC -> fabric -> NIC -> host -> device.
    The payload crosses each endpoint's host bus (``bus_factor`` per side)
    and the NIC/fabric tier ``net_factor`` times.
    """

    kind: str  # "host" | "p2p" | "staged" | "network"
    lane_factor: float
    bus_factor: float
    extra_latency: float
    #: Byte inflation on the NIC/fabric tier; zero for intra-node routes.
    net_factor: float = 0.0

    @property
    def staged(self) -> bool:
        return self.kind == "staged"

    @property
    def network(self) -> bool:
        return self.kind == "network"


@dataclass(frozen=True)
class MachineSpec:
    """Calibration constants for the simulated multi-GPU node."""

    n_gpus: int = 16
    #: Sustained per-GPU arithmetic throughput (FLOP/s). A K80 GPU (one GK210
    #: die) sustains roughly 2.8 TFLOP/s single precision at boost.
    flops_per_gpu: float = 2.4e12
    #: Sustained per-GPU global-memory bandwidth (B/s); K80: ~240 GB/s peak,
    #: ~170 GB/s sustained.
    mem_bw_per_gpu: float = 1.7e11
    #: Practical PCIe 3.0 x16 bandwidth per device lane (B/s).
    pcie_bw: float = 1.0e10
    #: Aggregate host-memory staging bandwidth shared by all concurrent
    #: transfers (dual-socket node; staged device-to-device traffic crosses
    #: it twice via the staging factor).
    host_bus_bw: float = 1.2e10
    #: One-way transfer setup latency (s).
    pcie_latency: float = 12e-6
    #: Extra per-copy setup paid by staged device-to-device copies on the
    #: host bus (two DMA hops, two contexts, event synchronization).
    staging_latency: float = 120e-6
    #: Whether peer-to-peer DMA is available between all device pairs. The
    #: paper's testbed spans two sockets, so cross-board copies are staged
    #: through host memory; modelled as a bandwidth inflation factor below.
    p2p_enabled: bool = False
    #: Effective byte inflation for device-to-device copies without P2P
    #: (device -> host -> device moves the bytes twice).
    staging_factor: float = 2.0
    #: Effective reuse of global-memory loads issued inside loops (models
    #: shared-memory tiling / L2 hits of the paper's tiled kernels; loads in
    #: straight-line code — e.g. stencils — pay full traffic).
    cache_reuse_factor: float = 64.0
    #: Host-side cost of issuing an asynchronous CUDA call (launch, memcpy).
    issue_overhead: float = 6e-6
    #: Fixed cost of one generated-enumerator invocation (function call,
    #: argument marshalling).
    enumerator_call_cost: float = 1.5e-6
    #: Cost per element range emitted by an enumerator (callback + interval
    #: arithmetic in the runtime).
    per_range_cost: float = 0.25e-6
    #: Cost per segment-tracker query or update (one operation on the
    #: paper's B-tree map, charged per operation, not per node).
    tracker_op_cost: float = 0.35e-6
    #: Fixed host cost for each kernel-launch replacement iteration
    #: (partition computation, argument rewriting; Figure 4's loop bodies).
    partition_setup_cost: float = 2.0e-6
    #: Host cost of a device synchronization call.
    sync_overhead: float = 8e-6

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise CalibrationError("machine needs at least one GPU")
        for name in (
            "flops_per_gpu",
            "mem_bw_per_gpu",
            "pcie_bw",
            "host_bus_bw",
            "staging_factor",
        ):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        for name in ("pcie_latency", "staging_latency", "issue_overhead", "sync_overhead"):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} must be non-negative")

    def with_gpus(self, n: int) -> "MachineSpec":
        """The same machine limited/extended to ``n`` GPUs."""
        return replace(self, n_gpus=n)

    def route(self, src: int, dst: int, *, p2p: Optional[bool] = None) -> Route:
        """The route one copy takes between two endpoints.

        ``src``/``dst`` are device ids, or ``HOST`` (-1) for host memory.
        ``p2p`` overrides the machine-wide ``p2p_enabled`` flag for this copy
        (the scheduler's ``overlap+p2p`` policy enables peer access the way
        ``cudaDeviceEnablePeerAccess`` would, without recalibrating the spec).
        """
        if src < 0 or dst < 0:
            return Route("host", 1.0, 1.0, 0.0)
        use_p2p = self.p2p_enabled if p2p is None else p2p
        if use_p2p:
            # Direct DMA between the peers: the bytes never cross host
            # memory, so the staging bus is not occupied at all.
            return Route("p2p", 1.0, 0.0, 0.0)
        return Route("staged", self.staging_factor, self.staging_factor, self.staging_latency)

    def transfer_time(self, src: int, dst: int, nbytes: int, *, p2p: Optional[bool] = None) -> float:
        """Modelled duration of one copy between endpoints.

        Device-to-device copies without P2P pay the staging factor.
        """
        r = self.route(src, dst, p2p=p2p)
        return self.pcie_latency + float(nbytes) * r.lane_factor / self.pcie_bw
