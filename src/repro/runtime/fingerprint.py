"""The launch fingerprint: one identity shared by every memoization site.

A *launch fingerprint* captures everything the tracker-independent half of
plan construction depends on: the kernel's IR identity, the launch
configuration, the scalar arguments (which determine the resolved buffer
shapes; element dtypes are part of the kernel signature itself), the
planning-relevant slice of :class:`~repro.runtime.config.RuntimeConfig`,
the device-placement rotation, and the cluster topology. Two launches with
equal fingerprints produce identical partition lists, enumerated access
ranges and DAG shapes — only the tracker-dependent residual (which stale
segments need copying) may differ.

Virtual-buffer identities are deliberately *excluded*: an iterative stencil
ping-ponging between two buffers converges to one steady-state fingerprint
per parity, which is exactly what lets the plan cache hit every iteration.

This module replaces the ad-hoc ``plan_fingerprint`` hashing that used to
live in ``repro.sched.policy`` so the plan and residual caches can never
disagree about what "the same launch" means.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.pipeline import CompiledKernel
    from repro.cuda.dim3 import Dim3
    from repro.runtime.api import MultiGpuApi
    from repro.runtime.config import RuntimeConfig

__all__ = [
    "PLANNING_CONFIG_FIELDS",
    "config_plan_key",
    "launch_fingerprint",
    "residual_key",
]

#: RuntimeConfig fields that influence plan construction (partitioning,
#: which scans run, how copies are trimmed). Toggling any of these between
#: otherwise-identical launches changes the fingerprint, so a cached plan
#: can never leak across a knob flip. ``pipeline_window`` is in because
#: values > 1 issue cluster copies halo-first and a plan memoizes its
#: lowered issue order. ``debug_audit`` (which only re-checks what the
#: memos serve) stays out: it does not change what a plan contains.
PLANNING_CONFIG_FIELDS = (
    "n_gpus",
    "transfers_enabled",
    "tracking_enabled",
    "shared_copies",
    "schedule",
    "pipeline_window",
    "irredundant_transfers",
)


def config_plan_key(config: "RuntimeConfig") -> tuple:
    """The planning-relevant slice of a runtime config, as a hashable tuple."""
    return tuple(getattr(config, name) for name in PLANNING_CONFIG_FIELDS)


def launch_fingerprint(
    api: "MultiGpuApi",
    ck: "CompiledKernel",
    grid: "Dim3",
    block: "Dim3",
    scalars: Mapping[str, int],
    shapes: Mapping[str, Sequence[int]],
) -> tuple:
    """The hashable identity of one launch's tracker-independent plan."""
    return (
        ck.kernel.name,
        (grid.x, grid.y, grid.z),
        (block.x, block.y, block.z),
        tuple(sorted(scalars.items())),
        tuple(sorted((name, tuple(shape)) for name, shape in shapes.items())),
        config_plan_key(api.config),
        api._placement_offset or 0,
        (api.cluster.n_nodes, api.cluster.gpus_per_node),
    )


def residual_key(fingerprint: tuple, digests: tuple) -> tuple:
    """Key under which one launch's materialized residual may be memoized.

    The fingerprint pins everything the tracker-independent skeleton
    depends on; the digest vector — one
    :meth:`~repro.runtime.tracker.SegmentTracker.footprint_digest` per read
    array, computed over the skeleton's per-array read-footprint envelope
    against the *live* trackers — pins the coherence state the residual can
    observe. Equal keys therefore imply identical tracker query results,
    identical stale-copy plans and identical counters, which is the whole
    soundness argument of the replay cache: a stale digest can never be
    served because the digest is recomputed from the current trackers on
    every launch.
    """
    return (fingerprint, digests)
