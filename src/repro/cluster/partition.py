"""Hierarchical two-level grid partitioning.

The grid is split along the strategy's axis *twice*: first into
``n_nodes`` node intervals, then each node interval into
``gpus_per_node`` per-GPU ranges, both with
:func:`~repro.compiler.strategy.balanced_intervals`. So

* partitions stay contiguous along the axis — neighbouring GPUs of one
  node share intra-node halos, and only the two GPUs at each node-interval
  seam exchange data across the network;
* a flat node is the 1-node cluster, whose node level is the identity
  interval: its split is exactly ``strategy.partitions(grid, G)``. Every
  runtime splits this way (its topology is always a
  :class:`~repro.cluster.topology.ClusterSpec`).

The result is ordered by global device id — index ``i`` of the returned
list is global GPU ``i`` = (node ``i // G``, local ``i % G``) — matching
what :func:`repro.sched.graph.build_launch_plan` expects.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.topology import ClusterSpec
from repro.compiler.strategy import Partition, PartitionStrategy, balanced_intervals
from repro.cuda.dim3 import Dim3

__all__ = ["balanced_intervals", "node_intervals", "hierarchical_partitions"]


def node_intervals(
    strategy: PartitionStrategy, grid: Dim3, cluster: ClusterSpec
) -> List[Tuple[int, int]]:
    """The top-level per-node block intervals along the split axis."""
    return balanced_intervals(0, grid.axis(strategy.axis), cluster.n_nodes)


def hierarchical_partitions(
    strategy: PartitionStrategy, grid: Dim3, cluster: ClusterSpec
) -> List[Partition]:
    """Two-level split of ``grid`` over the cluster, in global-device order.

    Equals ``strategy.partitions(grid, G)`` exactly when ``n_nodes == 1``.
    """
    return [
        strategy.along(grid, r)
        for node_lo, node_hi in node_intervals(strategy, grid, cluster)
        for r in balanced_intervals(node_lo, node_hi, cluster.gpus_per_node)
    ]
