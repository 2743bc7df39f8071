"""Multi-node cluster simulation: hierarchical partitioning + gang execution.

Composes the single-node machinery into an N-node cluster behind a network
fabric: :class:`~repro.cluster.topology.ClusterSpec` (shape, NIC/fabric
tier, global-device <-> (node, GPU) mapping),
:class:`~repro.cluster.engine.ClusterSimMachine` (per-node buses, NIC lanes
and a shared fabric as congestible resources),
:func:`~repro.cluster.partition.hierarchical_partitions` (node intervals
first, then per-GPU ranges), and
:func:`~repro.cluster.gang.build_gang_plan` (per-node DAGs + cross-node
halo transfers).
"""

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.gang import GangPlan, NodePlan, build_gang_plan
from repro.cluster.partition import (
    balanced_intervals,
    hierarchical_partitions,
    node_intervals,
)
from repro.cluster.topology import ClusterSpec

__all__ = [
    "ClusterSpec",
    "ClusterSimMachine",
    "GangPlan",
    "NodePlan",
    "build_gang_plan",
    "balanced_intervals",
    "hierarchical_partitions",
    "node_intervals",
]
