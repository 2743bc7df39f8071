"""The cluster machine: N simulated nodes behind a shared network fabric.

:class:`ClusterSimMachine` extends :class:`~repro.sim.engine.SimMachine`
with the cluster's resource set:

* devices keep global ids — compute queues and PCIe lanes are inherited
  unchanged from the flat base machine;
* each node gets its *own* host staging bus (staged intra-node copies of
  different nodes no longer contend);
* each node gets ``nic_lanes`` NIC lanes, and all cross-node traffic shares
  one *fabric* lane — the congestible network resource.

A cross-node copy (device -> host -> NIC -> fabric -> NIC -> host ->
device) occupies both endpoint PCIe lanes, both nodes' staging buses, one
NIC lane per side, and the fabric; its trace interval is recorded on the
``net`` resource, which is what
:meth:`~repro.sim.trace.Trace.transfer_exposure_by_tier` uses to split
exposed transfer time into intra-node vs inter-node buckets.

With ``n_nodes=1`` every copy takes the inherited single-node path against
the same resource set, so a 1-node cluster is *identical* — functionally
and in simulated time — to the plain :class:`SimMachine` the single-node
pipeline uses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.topology import ClusterSpec
from repro.constants import HOST
from repro.sim.engine import RouteLanes, SimMachine, _Lane
from repro.sim.trace import Trace

__all__ = ["ClusterSimMachine"]


class ClusterSimMachine(SimMachine):
    """Simulated clock and resources for one cluster run."""

    def __init__(self, cluster: ClusterSpec, *, trace: Optional[Trace] = None) -> None:
        super().__init__(cluster.node.with_gpus(cluster.total_gpus), trace=trace)
        self.cluster = cluster

        def lane() -> int:
            self._lanes.append(_Lane())
            return len(self._lanes) - 1

        #: Lane indices of the per-node host staging buses; node 0's is the
        #: inherited bus so the 1-node cluster runs byte-identically to the
        #: base machine.
        self._node_buses = [cluster.total_gpus] + [lane() for _ in range(cluster.n_nodes - 1)]
        #: Per node, the lane indices of its NIC lanes.
        self._nics: List[Tuple[int, ...]] = [
            tuple(lane() for _ in range(cluster.nic_lanes)) for _ in range(cluster.n_nodes)
        ]
        self._fabric = lane()

    def node_resource_avail(self, node: int) -> float:
        """Drain time of one node's own resources (a gang barrier's floor).

        Covers the node's device compute queues, their PCIe lanes, the
        node's staging bus and its NIC lanes — everything the node owns
        exclusively. Deliberately excludes the shared fabric: a gang
        barrier on one node must not wait out other nodes' in-flight
        fabric traffic; copies that *do* touch this node are accounted via
        their completion events by the caller.
        """
        c = self.cluster
        lanes = self._lanes
        t = self.host_time
        for dev in c.devices_of(node):
            t = max(t, self._dev_avail[dev], lanes[dev].avail)
        t = max(t, lanes[self._node_buses[node]].avail)
        for i in self._nics[node]:
            t = max(t, lanes[i].avail)
        return t

    def _copy_resources(
        self, src: int, dst: int, nbytes: int, p2p: Optional[bool]
    ) -> Tuple[float, RouteLanes, str]:
        c = self.cluster
        src_node = c.endpoint_node(src)
        dst_node = c.endpoint_node(dst)
        if src_node == dst_node:
            # Intra-node: the inherited route against this node's bus.
            return self._local_copy_resources(
                src, dst, nbytes, p2p, self._node_buses[src_node]
            )

        route = c.route(src, dst)
        spec = self.spec
        duration = c.network_transfer_time(nbytes)
        lanes: List[Tuple[object, float]] = []
        lane_time = spec.pcie_latency + nbytes * route.lane_factor / spec.pcie_bw
        if src != HOST:
            lanes.append((src, lane_time))
        if dst != HOST:
            lanes.append((dst, lane_time))
        # Staging through host memory on both sides (DMA in + NIC drain).
        bus_time = nbytes * route.bus_factor / spec.host_bus_bw
        lanes.append((self._node_buses[src_node], bus_time))
        lanes.append((self._node_buses[dst_node], bus_time))
        # The network tier: one NIC lane per side (the route names the
        # node's group: the choice is made on lane state), plus the fabric.
        nic_time = nbytes * route.net_factor / c.nic_bw
        lanes.append((self._nics[src_node], nic_time))
        lanes.append((self._nics[dst_node], nic_time))
        lanes.append((self._fabric, nbytes * route.net_factor / c.fabric_bw))
        return duration, tuple(lanes), "net"
