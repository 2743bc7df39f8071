"""The halo-first tiering as the gang projection computed it (test oracle).

:func:`repro.sched.executor.halo_first_order` computes the cluster's
halo-first copy order in one pass over a plan's copies. Before that it was
derived from a projection of the plan onto the cluster — one DAG per node
plus cross-node halos — and the tiers read off that projection. That code
lives on here verbatim (less the projection's structural ``validate``) as
the oracle the one-pass helper is compared with in
``tests/cluster/test_halo_order_oracle.py``.

``HOST`` endpoints live on the cluster's head node, so H2D traffic into a
remote node's GPUs is a halo too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.topology import ClusterSpec
from repro.sched.graph import (
    KernelTask,
    LaunchPlan,
    ReadSync,
    TransferTask,
    merge_event_ranges,
)

__all__ = [
    "NodePlan",
    "GangPlan",
    "HALO_MAJORITY_RATIO",
    "build_gang_plan",
    "halo_first_order",
    "transfer_priority_tiers",
]


@dataclass
class NodePlan:
    """One node's share of a launch plan."""

    node: int
    kernels: List[KernelTask] = field(default_factory=list)
    #: Transfers whose endpoints both live on this node.
    local_transfers: List[TransferTask] = field(default_factory=list)
    #: Cross-node transfers arriving at this node's GPUs.
    halo_in: List[TransferTask] = field(default_factory=list)
    #: Cross-node transfers leaving this node (sourced from its GPUs, or
    #: from host memory when this is the head node).
    halo_out: List[TransferTask] = field(default_factory=list)


@dataclass
class GangPlan:
    """A launch plan projected onto the cluster's gang structure."""

    cluster: ClusterSpec
    plan: LaunchPlan
    nodes: List[NodePlan]

    @property
    def halo_transfers(self) -> List[TransferTask]:
        """All cross-node transfers, by destination node then plan order."""
        return [t for np in self.nodes for t in np.halo_in]

    @property
    def halo_bytes(self) -> int:
        return sum(t.nbytes for t in self.halo_transfers)

    def halo_intervals(self) -> Dict[int, List[Tuple[int, int]]]:
        """Merged byte intervals per virtual buffer that cross the network.

        The interval-keyed view of the halo exchange: for each buffer, the
        coalesced ``[lo, hi)`` runs whose copies leave their node. With
        shared-copy tracking these shrink launch over launch — a segment a
        remote sharer already holds produces no halo transfer at all.
        """
        by_vb: Dict[int, List[Tuple[int, int]]] = {}
        for t in self.halo_transfers:
            by_vb.setdefault(t.vb.vb_id, []).append((t.start, t.end))
        return {
            vb_id: merge_event_ranges(sorted(ranges))
            for vb_id, ranges in by_vb.items()
        }


def transfer_priority_tiers(plan: LaunchPlan, cluster: ClusterSpec) -> Dict[int, int]:
    """Issue priority per transfer node id: lower tiers go to the lanes first.

    The tiers of :func:`halo_first_order`:

    * tier 0 — inter-node halo copies (they occupy the scarce NIC/fabric
      tier, and a seam partition of the *next* launch blocks on them);
    * tier 1 — node-seam feeders: intra-node copies whose byte interval
      overlaps this launch's :meth:`GangPlan.halo_intervals` (the same
      buffer regions that cross the network — e.g. the intra-node leg of a
      seam exchange);
    * tier 2 — interior copies, which only ever feed their own node's
      partitions and can backfill any remaining lane gaps.

    Within a tier :func:`halo_first_order` preserves plan order, so a
    halo-free launch degenerates to the plan's issue order exactly.
    """
    gang = build_gang_plan(plan, cluster)
    halo_nodes = {t.node for t in gang.halo_transfers}
    intervals = gang.halo_intervals()
    tiers: Dict[int, int] = {}
    for t in plan.transfers:
        if t.node in halo_nodes:
            tiers[t.node] = 0
        elif any(
            lo < t.end and hi > t.start
            for lo, hi in intervals.get(t.vb.vb_id, ())
        ):
            tiers[t.node] = 1
        else:
            tiers[t.node] = 2
    return tiers


#: Halo-first reordering applies only when the node-crossing copies are a
#: *minority* of the plan's transfer bytes. The priority targets seam
#: exchanges (a thin halo ahead of a fat interior); when most traffic
#: crosses nodes anyway — e.g. an all-to-all broadcast — there is no
#: interior worth backfilling and hoisting the whole network leg only
#: delays the intra-node copies it was meant to overlap with.
HALO_MAJORITY_RATIO = 0.5


def halo_first_order(
    plan: LaunchPlan, cluster: ClusterSpec
) -> Optional[List[Tuple[ReadSync, TransferTask]]]:
    """The plan's (read sync, copy) pairs in tier order, or None for plan order.

    None when every copy sits in one tier or when the halo tier carries at
    least :data:`HALO_MAJORITY_RATIO` of the plan's transfer bytes.
    """
    tiers = transfer_priority_tiers(plan, cluster)
    if len(set(tiers.values())) <= 1:
        return None
    total = sum(t.nbytes for t in plan.transfers)
    halo = sum(t.nbytes for t in plan.transfers if tiers[t.node] == 0)
    if total == 0 or halo >= HALO_MAJORITY_RATIO * total:
        return None
    pairs = [(rs, t) for syncs in plan.reads for rs in syncs for t in rs.transfers]
    # Stable sort: within a tier the plan order is preserved.
    return sorted(pairs, key=lambda pair: tiers[pair[1].node])


def build_gang_plan(plan: LaunchPlan, cluster: ClusterSpec) -> GangPlan:
    """Project ``plan`` onto the cluster: per-node DAGs + halo exchange."""
    nodes = [NodePlan(n) for n in range(cluster.n_nodes)]
    for t in plan.transfers:
        dst = cluster.endpoint_node(t.gpu)
        src = cluster.endpoint_node(t.owner)
        if src == dst:
            nodes[dst].local_transfers.append(t)
        else:
            nodes[src].halo_out.append(t)
            nodes[dst].halo_in.append(t)
    for k in plan.kernels:
        nodes[cluster.node_of(k.gpu)].kernels.append(k)
    return GangPlan(cluster, plan, nodes)
