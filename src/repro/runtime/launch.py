"""The kernel-launch replacement (paper §5, Figure 4).

Replaces a single-GPU launch with four tasks:

1. partition the execution grid for the available GPUs,
2. synchronize all buffers that are read from (via the generated
   enumerators, §8.3),
3. launch each partition of the kernel on its GPU asynchronously
   (partition-local grid per Equation 10),
4. update the buffer trackers for all writes (runs on the host
   concurrently with the asynchronous kernels).

The orchestration itself is delegated to the launch scheduler
(``repro.sched``): :func:`launch_partitioned` compiles the launch into a
per-launch task DAG (one node per segment transfer / kernel partition /
tracker update, edges from the enumerated read/write sets; built by
``repro.sched.graph`` from a cached skeleton plus a live or replayed
residual) and submits it to the one executor
(``repro.sched.executor.submit_plan``), which applies it and issues it
under the configured policy — ``sequential`` reproduces the paper's
barrier-structured loops exactly, ``overlap``/``overlap+p2p`` pipeline
transfers against compute.

Every launch takes that path. A kernel the compiler rejected, or a launch
whose runtime coverage proof fails, runs on one GPU (§4) as a
one-partition whole-buffer plan built by :func:`launch_fallback`.
"""

from __future__ import annotations

from math import prod
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

from repro.compiler.pipeline import CompiledKernel
from repro.compiler.strategy import Partition
from repro.cuda.api import resolve_array_shapes, split_launch_args
from repro.cuda.dim3 import Dim3
from repro.memo import MISS

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi
    from repro.sched.graph import PlanSkeleton

__all__ = ["launch_partitioned", "launch_fallback"]


def launch_partitioned(
    api: "MultiGpuApi", ck: CompiledKernel, grid: Dim3, block: Dim3, args: Sequence[object]
) -> None:
    """The Figure 4 replacement for one kernel launch, in explicit stages.

    1. *fingerprint* — the launch's hashable identity (kernel, launch
       configuration, resolved shapes, planning-relevant config slice);
    2. *skeleton* — partition intervals, enumerated access ranges and DAG
       shape; looked up in the per-api plan cache and built (including the
       unit-axis and runtime-coverage validation, whose outcomes are
       fingerprint-determined) only on a miss — :func:`launch_fallback`'s
       for a kernel that runs unpartitioned;
    3. *residual* — tracker queries and stale-segment copy planning, run
       against live coherence state. A cheap per-array footprint digest of
       the live trackers keys a replay memo of fully materialized
       residuals: a digest recurrence (any converged iteration loop)
       replays the memoized copies and counters without a single tracker
       query, and any tracker change —
       including direct mutations via memcpy/memset/free — changes the
       digest and misses;
    4. *submit* — hand the concrete plan to the executor: the functional
       half applies, then the simulated half issues. Under
       ``schedule="auto"`` the concrete policy is chosen per launch from
       the plan's transfer/compute split.

    Cold, warm and replay paths are bitwise-identical in outputs, traces
    and tracker state; only host wall-clock differs, which ``api.profiler``
    records per (temperature, stage) when attached. Under
    ``RuntimeConfig.debug_audit`` every hit also runs its miss path and
    must reproduce the cached skeleton, residual and plan (repro.memo).
    """
    from repro.runtime.fingerprint import launch_fingerprint, residual_key
    from repro.sched import executor
    from repro.sched.graph import (
        build_plan_skeleton,
        instantiate_plan,
        instantiate_plan_replay,
        replay_query_counts,
    )

    kernel = ck.kernel
    by_name, scalars = split_launch_args(kernel, args)

    prof = api.profiler
    times: Dict[str, float] = {}
    t = perf_counter() if prof else 0.0
    shapes = resolve_array_shapes(kernel, scalars)
    key = launch_fingerprint(api, ck, grid, block, scalars, shapes)
    if prof:
        times["fingerprint"] = perf_counter() - t

    audit = api.config.debug_audit
    cache = api.plan_cache
    skel = cache.get(key)
    warm = skel is not MISS
    if not warm:
        t = perf_counter() if prof else 0.0
        skel = build_plan_skeleton(
            api, ck, grid, block, scalars, fingerprint=key, validate=True,
            stats=api.stats,
        )
        if prof:
            times["skeleton"] = perf_counter() - t
        api.stats.plan_cache_misses += 1
        if cache.put(key, skel):
            api.stats.plan_cache_evictions += 1
    else:
        api.stats.plan_cache_hits += 1
        if audit:
            # Rebuilt without stats: a hit counts no scans.
            fresh = build_plan_skeleton(
                api, ck, grid, block, scalars, fingerprint=key, validate=True
            )
            cache.audit(key, skel, fresh)

    t = perf_counter() if prof else 0.0
    # Digest the live trackers over the skeleton's per-array read envelope.
    # Equal digests imply equal query results (segmentation is canonical),
    # so replaying the memoized residual is exact.
    digests = tuple(
        by_name[array].tracker.footprint_digest(runs)
        for array, runs in skel.read_footprints
    )
    rkey = residual_key(key, digests)
    rcache = api.residual_cache
    record = rcache.get(rkey)
    replay = record is not MISS
    binding = tuple(by_name[p.name].vb_id for p in kernel.array_params)
    if replay:
        api.stats.residual_cache_hits += 1
        plan = record.plans.get(binding)
        if plan is MISS:
            # The miss that planned this residual may have built this plan.
            plan = api.miss_plans.get((rkey, binding))
            if plan is not MISS:
                record.plans.put(binding, plan)
        if audit:
            # The live residual is the miss path of both memos; its tracker
            # queries stand in for the replay's mirrored query counts.
            fresh_plan, fresh_record = instantiate_plan(api, skel, by_name)
            rcache.audit(rkey, record, fresh_record)
            if plan is MISS:
                plan = fresh_plan
                record.plans.put(binding, plan)
            else:
                record.plans.audit(binding, plan, fresh_plan)
        elif plan is MISS:
            plan = instantiate_plan_replay(skel, by_name, record)
            record.plans.put(binding, plan)
        else:
            # Plans are read-only downstream; only the accounting mirror
            # of the skipped tracker queries remains.
            replay_query_counts(skel, by_name)
    else:
        api.stats.residual_cache_misses += 1
        plan, record = instantiate_plan(api, skel, by_name)
        api.miss_plans.put((rkey, binding), plan)
        if rcache.put(rkey, record):
            api.stats.residual_cache_evictions += 1
    if prof:
        times["residual"] = perf_counter() - t
        t = perf_counter()
    executor.submit_plan(api, plan)
    if prof:
        times["submit"] = perf_counter() - t
        temp = "replay" if replay else ("warm" if warm else "cold")
        for stage, duration in times.items():
            prof.add(temp, stage, duration)
        prof.count_launch(temp)


def launch_fallback(
    api: "MultiGpuApi", ck: CompiledKernel, grid: Dim3, block: Dim3,
    scalars: Mapping[str, int], shapes: Mapping[str, Sequence[int]], fingerprint: tuple,
) -> "PlanSkeleton":
    """The skeleton of a launch that runs unpartitioned on device 0.

    One partition, the whole grid. Its read scans cover every array the
    kernel may read (its reads and writes, or every array when the access
    analysis gave up), its write scans every array parameter, each over
    the resolved shape the kernel can address. The scans have no
    enumerator and no exact read set, so no copy is trimmed.
    """
    from repro.sched.graph import PlanSkeleton, ReadScan, SkeletonPartition, WriteScan

    whole = Partition.whole(grid)
    skel = PlanSkeleton(
        fingerprint, ck, grid, block, scalars, shapes, [whole], fallback=True
    )
    synced = set(ck.info.reads) | set(ck.info.writes)
    reads: List[ReadScan] = []
    writes: List[WriteScan] = []
    for p in ck.kernel.array_params:
        if not api.config.tracking_enabled:
            writes.append(WriteScan(None, p.name, None, 0, None))
            continue
        nbytes = p.dtype.size * prod(shapes[p.name])
        ranges = [(0, nbytes)] if nbytes else []
        if p.name in synced or not ck.info.partitionable:
            reads.append(
                ReadScan(None, p.name, p.dtype.size, ranges, len(ranges), ranges)
            )
        writes.append(WriteScan(None, p.name, ranges, len(ranges), ranges))
    skel.partitions.append(
        SkeletonPartition(0, api.devices[0].device_id, whole, reads, writes)
    )
    return skel
