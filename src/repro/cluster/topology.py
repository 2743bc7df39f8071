"""Cluster specification: N nodes behind a network fabric.

A :class:`ClusterSpec` composes ``n_nodes`` identical single-node
:class:`~repro.sim.topology.MachineSpec` machines with a network tier:
per-node NICs (bandwidth, lane count) behind a shared switch fabric with a
per-message latency. Devices keep *global* ids ``0 .. total_gpus-1``; the
spec owns the global-device <-> (node, local GPU) mapping.

A cross-node copy takes the route

    device -> host memory -> NIC -> fabric -> NIC -> host memory -> device

so it occupies the source and destination PCIe lanes, both nodes' host
staging buses, one NIC lane on each side, and the shared fabric — the
congestible resources :class:`~repro.cluster.engine.ClusterSimMachine`
schedules. Host memory (``HOST`` endpoints) lives on the *head node*
(node 0): the orchestrating process and its staging buffers are there, so
H2D/D2H traffic to devices of other nodes crosses the network too.

The default network constants model the FDR-InfiniBand generation that
matched the paper's K80 testbed era: ~56 Gb/s per NIC (~6.8 GB/s sustained),
a few microseconds of wire latency plus host-side rendezvous, and a switch
that sustains a handful of concurrent streams at full rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import CalibrationError
from repro.sim.topology import MachineSpec, Route

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """Calibration constants for a simulated multi-node cluster."""

    #: Number of simulated nodes (gang members).
    n_nodes: int = 2
    #: The per-node machine (``node.n_gpus`` GPUs each).
    node: MachineSpec = MachineSpec()
    #: Sustained per-NIC bandwidth (B/s). FDR InfiniBand: 56 Gb/s line rate,
    #: ~6.8 GB/s sustained payload.
    nic_bw: float = 6.8e9
    #: NIC lanes (rails) per node; a copy occupies one lane end to end.
    nic_lanes: int = 1
    #: Aggregate switch-fabric bandwidth shared by *all* concurrent
    #: cross-node traffic — the congestible resource that throttles
    #: all-to-all redistributions.
    fabric_bw: float = 2.5e10
    #: Per-message network latency (wire + rendezvous handshake), paid once
    #: per cross-node copy on top of the host-staging setup.
    net_latency: float = 30e-6
    #: Node whose host memory holds the application's staging buffers
    #: (``HOST`` transfer endpoints resolve to this node).
    head_node: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise CalibrationError("cluster needs at least one node")
        if self.nic_lanes < 1:
            raise CalibrationError("cluster needs at least one NIC lane per node")
        for name in ("nic_bw", "fabric_bw"):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        if self.net_latency < 0:
            raise CalibrationError("net_latency must be non-negative")
        if not (0 <= self.head_node < self.n_nodes):
            raise CalibrationError(
                f"head_node {self.head_node} out of range (n_nodes={self.n_nodes})"
            )

    @classmethod
    def single_node(cls, n_gpus: int) -> "ClusterSpec":
        """One node of ``n_gpus`` GPUs: the topology of a flat machine.

        Built from the GPU count alone — only the shape and the device
        mapping mean anything on one node, where no copy takes the network.
        """
        return cls(n_nodes=1, node=MachineSpec(n_gpus=n_gpus))

    # -- shape ----------------------------------------------------------------

    @property
    def gpus_per_node(self) -> int:
        return self.node.n_gpus

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.node.n_gpus

    def with_shape(self, n_nodes: int, gpus_per_node: int) -> "ClusterSpec":
        """The same cluster reshaped to ``n_nodes`` x ``gpus_per_node``."""
        return replace(self, n_nodes=n_nodes, node=self.node.with_gpus(gpus_per_node))

    # -- global-device <-> (node, local GPU) mapping --------------------------

    def node_of(self, dev: int) -> int:
        """The node owning global device ``dev``."""
        if not (0 <= dev < self.total_gpus):
            raise CalibrationError(
                f"device id {dev} out of range (total_gpus={self.total_gpus})"
            )
        return dev // self.node.n_gpus

    def local_of(self, dev: int) -> int:
        """``dev``'s local index within its node."""
        self.node_of(dev)  # range check
        return dev % self.node.n_gpus

    def global_device(self, node: int, local: int) -> int:
        """Global device id of ``(node, local GPU)``."""
        if not (0 <= node < self.n_nodes):
            raise CalibrationError(f"node id {node} out of range (n_nodes={self.n_nodes})")
        if not (0 <= local < self.node.n_gpus):
            raise CalibrationError(
                f"local GPU {local} out of range (gpus_per_node={self.node.n_gpus})"
            )
        return node * self.node.n_gpus + local

    def devices_of(self, node: int) -> Tuple[int, ...]:
        """Global device ids of one node, in order."""
        if not (0 <= node < self.n_nodes):
            raise CalibrationError(f"node id {node} out of range (n_nodes={self.n_nodes})")
        base = node * self.node.n_gpus
        return tuple(range(base, base + self.node.n_gpus))

    def endpoint_node(self, endpoint: int) -> int:
        """Node of a transfer endpoint (``HOST`` resolves to the head node)."""
        if endpoint < 0:
            return self.head_node
        return self.node_of(endpoint)

    def same_node(self, a: int, b: int) -> bool:
        return self.endpoint_node(a) == self.endpoint_node(b)

    # -- routing --------------------------------------------------------------

    def route(self, src: int, dst: int, *, p2p: Optional[bool] = None) -> Route:
        """The route one copy takes, network hop included.

        Same-node copies delegate to the node spec (host / p2p / staged);
        cross-node copies take the ``network`` route: staged through both
        hosts (``bus_factor`` per side) and across the NIC/fabric tier once.
        ``p2p`` only affects same-node device pairs — there is no peer DMA
        across the network.
        """
        if self.same_node(src, dst):
            return self.node.route(src, dst, p2p=p2p)
        return Route(
            "network",
            lane_factor=1.0,
            bus_factor=self.node.staging_factor,
            extra_latency=self.node.staging_latency + self.net_latency,
            net_factor=1.0,
        )

    def network_transfer_time(self, nbytes: int) -> float:
        """End-to-end duration of one cross-node copy (uncongested).

        The pipeline is store-and-forward through host memory on both
        sides; the slowest link (PCIe lane vs NIC) bounds the streaming
        rate, and the copy pays PCIe setup, staging setup, and the network
        round latency once.
        """
        bw = min(self.node.pcie_bw, self.nic_bw)
        return (
            self.node.pcie_latency
            + self.node.staging_latency
            + self.net_latency
            + float(nbytes) / bw
        )
