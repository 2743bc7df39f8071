"""Multi-node cluster simulation: hierarchical partitioning + gang execution.

Composes the single-node machinery into an N-node cluster behind a network
fabric: :class:`~repro.cluster.topology.ClusterSpec` (shape, NIC/fabric
tier, global-device <-> (node, GPU) mapping),
:class:`~repro.cluster.engine.ClusterSimMachine` (per-node buses, NIC lanes
and a shared fabric as congestible resources), and
:func:`~repro.cluster.partition.hierarchical_partitions` (node intervals
first, then per-GPU ranges). A launch plan runs on the cluster unchanged:
the executor routes each copy, gang-schedules the per-node barrier and,
with ``pipeline_window > 1``, lowers the copies halo-first
(:func:`repro.sched.executor.halo_first_order`).
"""

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.partition import (
    balanced_intervals,
    hierarchical_partitions,
    node_intervals,
)
from repro.cluster.topology import ClusterSpec

__all__ = [
    "ClusterSpec",
    "ClusterSimMachine",
    "balanced_intervals",
    "hierarchical_partitions",
    "node_intervals",
]
