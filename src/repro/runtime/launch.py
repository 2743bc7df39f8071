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
(``repro.sched.executor.PipelineExecutor``), which issues it under the
configured policy — ``sequential`` reproduces the paper's
barrier-structured loops exactly, ``overlap``/``overlap+p2p`` pipeline
transfers against compute.

Kernels the compiler rejected for partitioning take :func:`launch_fallback`:
single-GPU execution on device 0 (whole read buffers synchronized there
first), issued directly with no plan.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Dict, Sequence

from repro.compiler.pipeline import CompiledKernel
from repro.cuda.api import resolve_array_shapes, split_launch_args
from repro.cuda.dim3 import Dim3
from repro.cuda.exec.interpreter import run_kernel
from repro.cuda.ir.kernel import ArrayParam, ScalarParam
from repro.errors import PartitioningError, RuntimeApiError
from repro.memo import MISS
from repro.runtime.sync import plan_stale_copies_tiered, register_sharer
from repro.runtime.vbuffer import VirtualBuffer
from repro.sim.trace import Category

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi

__all__ = ["launch_partitioned", "launch_fallback"]


def _bind_functional_args(
    api: "MultiGpuApi", ck: CompiledKernel, by_name, shapes, gpu: int
) -> Dict[str, object]:
    bound: Dict[str, object] = {}
    for p in ck.kernel.params:
        if isinstance(p, ArrayParam):
            vb = by_name[p.name]
            if not isinstance(vb, VirtualBuffer):
                raise RuntimeApiError(
                    f"array argument {p.name!r} must be a VirtualBuffer, got {type(vb)}"
                )
            bound[p.name] = vb.typed_on(gpu, p.dtype.to_numpy(), shapes[p.name])
        elif isinstance(p, ScalarParam):
            bound[p.name] = by_name[p.name]
    return bound


def launch_partitioned(
    api: "MultiGpuApi", ck: CompiledKernel, grid: Dim3, block: Dim3, args: Sequence[object]
) -> None:
    """The Figure 4 replacement for one kernel launch, in explicit stages.

    1. *fingerprint* — the launch's hashable identity (kernel, launch
       configuration, resolved shapes, planning-relevant config slice);
    2. *skeleton* — partition intervals, enumerated access ranges and DAG
       shape; looked up in the per-api plan cache and built (including the
       unit-axis and runtime-coverage validation, whose outcomes are
       fingerprint-determined) only on a miss;
    3. *residual* — tracker queries and stale-segment copy planning, run
       against live coherence state. A cheap per-array footprint digest of
       the live trackers keys a replay memo of fully materialized
       residuals: a digest recurrence (any converged iteration loop)
       replays the memoized copies and counters without a single tracker
       query, and any tracker change —
       including direct mutations via memcpy/memset/free — changes the
       digest and misses;
    4. *submit* — hand the concrete plan to the pipelined executor: the
       functional half applies immediately, the simulated issue drains when
       the window closes (immediately at ``pipeline_window=1``). Under
       ``schedule="auto"`` the concrete policy is chosen at flush time over
       the fused window's transfer/compute split.

    Cold, warm and replay paths are bitwise-identical in outputs, traces
    and tracker state; only host wall-clock differs, which ``api.profiler``
    records per (temperature, stage) when attached. Under
    ``RuntimeConfig.debug_audit`` every hit also runs its miss path and
    must reproduce the cached skeleton, residual and plan (repro.memo).
    """
    assert ck.partitioned is not None
    from repro.runtime.fingerprint import launch_fingerprint, residual_key
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
            # Rebuilt without stats: a hit counts no scan backends.
            fresh = build_plan_skeleton(
                api, ck, grid, block, scalars, fingerprint=key, validate=True
            )
            cache.audit(key, skel, fresh)

    if skel.fallback:
        # Runtime coverage validation rejected this launch shape (cached
        # along with the skeleton: the outcome is fingerprint-determined).
        launch_fallback(api, ck, grid, block, args)
        return

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
    if replay:
        api.stats.residual_cache_hits += 1
        binding = tuple(by_name[p.name].vb_id for p in kernel.array_params)
        plan = record.plans.get(binding)
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
        if rcache.put(rkey, record):
            api.stats.residual_cache_evictions += 1
    if prof:
        times["residual"] = perf_counter() - t
        t = perf_counter()
    api.pipeline.submit(plan, None if api.auto_schedule else api.policy)
    if prof:
        times["submit"] = perf_counter() - t
        temp = "replay" if replay else ("warm" if warm else "cold")
        for stage, duration in times.items():
            prof.add(temp, stage, duration)
        prof.count_launch(temp)


def _audit_write_scan(api, ck, trace, part, block, grid, scalars, shapes) -> None:
    """Debug audit: scanned write sets must equal the executed writes.

    Runs only under ``RuntimeConfig.debug_audit`` in functional
    mode. An over-claimed cell would mislead the trackers into serving stale
    data from the wrong device; an under-claimed cell would let a newer copy
    go unnoticed — either way, fail loudly at the offending launch.
    """
    for enum in api.app.enumerators.for_kernel(ck.kernel.name, "write"):
        ranges, _ = enum.element_ranges(
            part, block, grid, scalars, shapes[enum.array]
        )
        scanned = set()
        for lo, hi in ranges:
            scanned.update(range(lo, hi))
        actual = trace.writes.get(enum.array, set())
        if scanned != actual:
            extra = sorted(scanned - actual)[:5]
            missing = sorted(actual - scanned)[:5]
            raise PartitioningError(
                f"write-scan audit failed for kernel {ck.kernel.name!r}, "
                f"array {enum.array!r}, partition {part}: "
                f"scanned-but-unwritten {extra}, written-but-unscanned {missing}"
            )


def launch_fallback(
    api: "MultiGpuApi", ck: CompiledKernel, grid: Dim3, block: Dim3, args: Sequence[object]
) -> None:
    """Single-GPU fallback for kernels the compiler could not partition.

    All read buffers are made fully current on device 0, the unmodified
    kernel runs there over the whole grid, and the trackers mark every
    (potentially) written array as owned by device 0.
    """
    # The fallback issues machine work directly (no launch plan), so any
    # pipelined launches ahead of it must drain first to keep issue order.
    api.pipeline.flush()
    kernel = ck.kernel
    by_name, scalars = split_launch_args(kernel, args)
    shapes = resolve_array_shapes(kernel, scalars)
    gpu = api.devices[0].device_id
    launch_index = api._launch_index

    read_names = set(ck.info.reads) | set(ck.info.writes)  # conservative
    if api.config.tracking_enabled:
        for p in kernel.array_params:
            if p.name not in read_names and ck.info.partitionable:
                continue
            vb = by_name[p.name]
            segments = vb.tracker.query(0, vb.nbytes)
            if api.spec:
                api.host_pattern_cost(api.spec.tracker_op_cost * max(1, len(segments)))
            api.stats.tracker_ops += 1
            api.stats.tracker_query_ops += 1
            copies, avoided, avoided_inter = plan_stale_copies_tiered(
                segments, gpu, api.cluster
            )
            api.stats.redundant_bytes_avoided += avoided
            api.stats.redundant_bytes_avoided_inter += avoided_inter
            for seg in copies:
                api.stats.sync_transfers += 1
                api.stats.sync_bytes += seg.nbytes
                if api.config.transfers_enabled:
                    if api.functional:
                        vb.bytes_on(gpu)[seg.start : seg.end] = vb.bytes_on(seg.owner)[
                            seg.start : seg.end
                        ]
                    if api.machine:
                        api.machine.transfer(
                            seg.owner, gpu, seg.nbytes, category=Category.TRANSFERS,
                            label=f"fallback:{p.name}", launch=launch_index,
                        )
                    register_sharer(api, vb, seg.start, seg.end, gpu)
        if api.machine:
            api.machine.synchronize()

    if api.functional:
        bound = _bind_functional_args(api, ck, by_name, shapes, gpu)
        run_kernel(kernel, grid, block, bound)
    if api.machine:
        duration = 0.0
        if api.kernel_cost is not None:
            duration = api.kernel_cost(kernel, grid.volume, block, scalars)
        end = api.machine.launch_kernel(
            gpu, duration, label=kernel.name, launch=launch_index
        )
        if api.policy.overlap:
            # The fallback conservatively reads and writes every array on
            # device 0; later DAG-scheduled copies must order behind it.
            for p in kernel.array_params:
                vb = by_name[p.name]
                if isinstance(vb, VirtualBuffer):
                    api.dataflow.note_read(vb.vb_id, gpu, 0, vb.nbytes, end)
                    api.dataflow.note_write(vb.vb_id, gpu, 0, vb.nbytes, end)
    api.stats.fallback_launches += 1

    if api.config.tracking_enabled:
        for p in kernel.array_params:
            vb = by_name[p.name]
            api.stats.tracker_invalidate_ops += vb.tracker.update(0, vb.nbytes, gpu)
            api.stats.tracker_ops += 1
            api.stats.tracker_update_ops += 1
            if api.spec:
                api.host_pattern_cost(api.spec.tracker_op_cost)
