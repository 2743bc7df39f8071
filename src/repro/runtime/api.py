"""CUDA Runtime replacements with identical prototypes (paper §8.4).

"The CUDA replacement functions have identical prototypes to their CUDA API
counterparts to ease code transformation and provide a stable interface."
A host program written against :class:`repro.cuda.api.CudaApi` runs
unmodified against :class:`MultiGpuApi`:

* memory-related calls dispatch to the virtual-buffer implementation,
* ``cudaGetDeviceCount`` always returns 1,
* ``cudaDeviceSynchronize`` synchronizes all available devices,
* kernel launches expand to the Figure 4 orchestration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.dataflow import ExactReadOracle
from repro.cluster.topology import ClusterSpec
from repro.compiler.costmodel import KernelCostModel
from repro.compiler.pipeline import CompiledApp
from repro.cuda.api import KernelCostFn, MemcpyKind, host_bytes
from repro.cuda.device import Device
from repro.cuda.dim3 import Dim3
from repro.cuda.ir.kernel import Kernel
from repro.errors import RuntimeApiError, UnsupportedMemcpyError
from repro.memo import Memo
from repro.runtime.config import RuntimeConfig
from repro.runtime.launch import launch_partitioned
from repro.runtime.memcpy import d2h_gather, h2d_scatter
from repro.runtime.vbuffer import VirtualBuffer
from repro.sched.executor import DataflowLog
from repro.sched.policy import select_policy
from repro.sim.engine import SimMachine, SimStream
from repro.sim.topology import MachineSpec
from repro.sim.trace import Category

__all__ = ["RunStats", "MultiGpuApi", "HOST_PLANNER_COUNTERS", "host_planner_counters"]

#: Entries of one runtime's skeleton and residual memos (a serve runtime's
#: shared skeleton memo too). Iteration loops use a handful of keys; the
#: bound only matters for streams where every shape is fresh.
SKELETON_CAPACITY = RESIDUAL_CAPACITY = 512

#: Plans of the most recent residual misses, kept for their record's first
#: replay under the same buffer binding (a ping-pong loop needs one). A
#: record keeps the plans it replays; most records of a shape-churning
#: stream never replay, so a miss's plan is not kept on its record.
MISS_PLAN_CAPACITY = 8

#: The staged-planner observability counters: plan-skeleton cache traffic
#: plus the enumerator scan counts. Benchmarks surface exactly this
#: slice, and identity checks between runs with different memo capacities
#: or a shared skeleton memo exclude exactly this slice (a hit skips
#: enumerator requests, so these counters — and only these — may differ
#: between bitwise-identical runs).
HOST_PLANNER_COUNTERS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_evictions",
    "residual_cache_hits",
    "residual_cache_misses",
    "residual_cache_evictions",
    "enumerator_specialized",
    "enumerator_fallback",
)


def host_planner_counters(stats: "RunStats") -> Dict[str, int]:
    """The :data:`HOST_PLANNER_COUNTERS` slice of one stats record."""
    return {name: getattr(stats, name) for name in HOST_PLANNER_COUNTERS}


@dataclass
class RunStats:
    """Counters the tests and the overhead analysis rely on."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    sync_bytes: int = 0
    sync_transfers: int = 0
    enumerator_calls: int = 0
    ranges_emitted: int = 0
    tracker_ops: int = 0
    #: Tracker operations by class (host-cost accounting): interval
    #: queries, ownership updates, sharer registrations, and updates that
    #: discarded at least one sharer copy. ``tracker_ops`` remains the
    #: legacy query+update total; share/invalidate are new classes.
    tracker_query_ops: int = 0
    tracker_update_ops: int = 0
    tracker_share_ops: int = 0
    tracker_invalidate_ops: int = 0
    #: Bytes NOT re-transferred because the destination already held a
    #: valid shared copy (zero unless ``RuntimeConfig.shared_copies``).
    redundant_bytes_avoided: int = 0
    #: Share of ``redundant_bytes_avoided`` whose sole-owner re-transfer
    #: would have crossed the node fabric (zero on one node).
    redundant_bytes_avoided_inter: int = 0
    #: Bounding-range slack trimmed from synchronization copies by the
    #: dataflow analyzer (zero unless ``RuntimeConfig.irredundant_transfers``).
    overapprox_bytes_avoided: int = 0
    #: Share of the trimmed slack that would have crossed the node fabric.
    overapprox_bytes_avoided_inter: int = 0
    partition_launches: int = 0
    fallback_launches: int = 0
    #: Subset of sync transfers whose endpoints live on different cluster
    #: nodes (always zero on one node), tallied when the residual is planned.
    inter_node_transfers: int = 0
    inter_node_bytes: int = 0
    #: Per-launch decisions of ``schedule="auto"``, keyed by policy name.
    auto_choices: Dict[str, int] = field(default_factory=dict)
    #: Plan-skeleton memo (repro.runtime.launch): a hit means the launch
    #: reused cached partition/scan results and only ran the tracker
    #: residual; an eviction means a skeleton fell out of the LRU.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    #: Residual replay cache (the tracker-dependent complement): a hit
    #: means the launch's (fingerprint, footprint digest) recurred and the
    #: memoized residual was replayed without any tracker queries or
    #: stale-copy planning.
    residual_cache_hits: int = 0
    residual_cache_misses: int = 0
    residual_cache_evictions: int = 0
    #: Enumerator scan requests, memo hits included: each ran (or reused)
    #: its enumerator's compiled box program. Every enumerator is one, so
    #: nothing increments ``fallback`` any more; it stays only because the
    #: benchmark ledger still reads it.
    enumerator_specialized: int = 0
    enumerator_fallback: int = 0

    def merge(self, other: "RunStats") -> "RunStats":
        """Combine two stats records into one aggregate.

        Counters sum field by field and per-policy ``auto_choices`` sum key
        by key. The per-tenant accounting of the serving runtime
        (:mod:`repro.serve`) folds tenants' stats with this: merging the
        per-tenant records of a shared run yields exactly the counters one
        whole-run record would have accumulated, because every counted
        event belongs to exactly one tenant.
        """
        from dataclasses import fields

        merged = RunStats()
        for f in fields(RunStats):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "auto_choices":
                combined = dict(a)
                for key, count in b.items():
                    combined[key] = combined.get(key, 0) + count
                merged.auto_choices = combined
            else:
                setattr(merged, f.name, a + b)
        return merged

    @staticmethod
    def merged(stats: Sequence["RunStats"]) -> "RunStats":
        """Fold any number of stats records into one (empty-safe)."""
        out = RunStats()
        for s in stats:
            out = out.merge(s)
        return out


class MultiGpuApi:
    """The runtime library's drop-in replacement for the CUDA API."""

    def __init__(
        self,
        app: CompiledApp,
        config: RuntimeConfig,
        *,
        machine: Optional[SimMachine] = None,
        functional: bool = True,
        kernel_cost: Optional[KernelCostFn] = None,
    ) -> None:
        self.app = app
        self.config = config
        self.machine = machine
        self.functional = functional
        self.devices: List[Device] = [
            Device(i, functional=functional) for i in range(config.n_gpus)
        ]
        if machine is not None and machine.spec.n_gpus < config.n_gpus:
            raise RuntimeApiError(
                f"machine has {machine.spec.n_gpus} GPUs, runtime wants {config.n_gpus}"
            )
        #: The topology the launches are split and routed over: the
        #: ClusterSimMachine's own spec, or else (a flat machine, or none)
        #: the one-node cluster of ``config.n_gpus`` GPUs.
        cluster = getattr(machine, "cluster", None)
        self.cluster: ClusterSpec = cluster or ClusterSpec.single_node(config.n_gpus)
        if self.cluster.total_gpus != config.n_gpus:
            raise RuntimeApiError(
                f"cluster has {self.cluster.total_gpus} GPUs "
                f"({self.cluster.n_nodes}x{self.cluster.gpus_per_node}), "
                f"runtime wants {config.n_gpus}"
            )
        if kernel_cost is None and machine is not None:
            kernel_cost = KernelCostModel(machine.spec)
        self.kernel_cost = kernel_cost
        self.stats = RunStats()
        self._vb_ids = itertools.count(1)
        self._live_buffers: Dict[int, VirtualBuffer] = {}
        #: Adaptive mode: pick a concrete policy per kernel launch from the
        #: plan's transfer/compute estimate (repro.sched.policy).
        self.auto_schedule = config.schedule == "auto"
        #: Launch-scheduler policy (sequential | overlap | overlap+p2p).
        #: Auto runs the non-launch paths (memcpy, memset) under
        #: ``overlap`` so their dataflow events are always recorded.
        self.policy = select_policy("overlap" if self.auto_schedule else config.schedule)
        #: Per-(buffer, device, byte interval) completion events for
        #: cross-launch ordering.
        self.dataflow = DataflowLog()
        self._default_stream: Optional[SimStream] = None
        #: Monotone launch index: tags every simulated op a launch issues.
        self._launch_counter = itertools.count()
        self._launch_index: Optional[int] = None
        #: Device-placement hint of the launch being submitted (task-graph
        #: frontend): rotates the partition->device mapping so partition 0
        #: runs on this device. None keeps the default mapping.
        self._placement_offset: Optional[int] = None
        #: Fingerprint-keyed plan-skeleton memo. Per-api (not per-app) so
        #: two runtimes sharing one compiled app — e.g. the serve path and
        #: its direct-reference twin — count identical hits and misses.
        #: ServeRuntime may swap in one shared instance across tenants.
        self.plan_cache = Memo("skeleton", SKELETON_CAPACITY)
        #: Residual replay memo, keyed by (fingerprint, footprint digest).
        #: Always per-api: residuals encode this runtime's coherence state.
        self.residual_cache = Memo("residual", RESIDUAL_CAPACITY)
        #: The plans those misses built, keyed by (residual key, binding).
        self.miss_plans = Memo("miss_plan", MISS_PLAN_CAPACITY)
        #: Exact read sets of the ``irredundant_transfers`` trimming, one
        #: oracle per kernel of the app.
        self.exact_reads = {name: ExactReadOracle(ck.info) for name, ck in app.kernels.items()}
        #: Host-side stage timing hook (repro.runtime.profiler): when a
        #: LaunchProfiler is attached, the staged launch path records
        #: wall-clock per stage. None (the default) costs nothing.
        self.profiler = None

    # -- internals ----------------------------------------------------------------

    @property
    def spec(self) -> Optional[MachineSpec]:
        return self.machine.spec if self.machine else None

    def host_pattern_cost(self, duration: float) -> None:
        """Account sequential host time for dependency resolution."""
        if self.machine and duration > 0:
            self.machine.host_compute(duration, Category.PATTERNS, "patterns")

    # -- memory management (§8.4) -----------------------------------------------------

    def cudaMalloc(self, nbytes: int) -> VirtualBuffer:
        vb = VirtualBuffer(next(self._vb_ids), nbytes, self.devices)
        self._live_buffers[vb.vb_id] = vb
        return vb

    def cudaFree(self, vb: VirtualBuffer) -> None:
        if not isinstance(vb, VirtualBuffer):
            raise RuntimeApiError(f"cudaFree expects a VirtualBuffer, got {type(vb)}")
        vb.free()
        self._live_buffers.pop(vb.vb_id, None)

    def cudaMemset(self, vb: VirtualBuffer, value: int, nbytes: int) -> None:
        """Memset replacement: each device fills its linear share.

        Like the translated host-to-device memcpy (§8.2), the result is
        distributed in the predefined linear pattern and the trackers are
        updated accordingly; the next kernel's buffer synchronization
        corrects any mismatch with its read pattern.
        """
        if not isinstance(vb, VirtualBuffer):
            raise RuntimeApiError(f"cudaMemset expects a VirtualBuffer, got {type(vb)}")
        if nbytes > vb.nbytes:
            raise RuntimeApiError(f"memset of {nbytes} bytes into {vb.nbytes}-byte buffer")
        from repro.runtime.memcpy import linear_chunks

        for dev_idx, lo, hi in linear_chunks(nbytes, self.config.n_gpus):
            dev_id = self.devices[dev_idx].device_id
            if self.functional:
                vb.bytes_on(dev_id)[lo:hi] = value & 0xFF
            if self.machine:
                duration = (hi - lo) / self.machine.spec.mem_bw_per_gpu
                deps = ()
                if self.policy.overlap:
                    # A copy engine may still read or write the instance
                    # (WAR/WAW); the compute queue does not order those.
                    deps = self.dataflow.instance_free(vb.vb_id, dev_id, lo, hi)
                end = self.machine.launch_kernel(dev_id, duration, label="memset", deps=deps)
                if self.policy.overlap:
                    self.dataflow.note_write(vb.vb_id, dev_id, lo, hi, end)
            if self.config.tracking_enabled:
                self.host_pattern_cost(self.spec.tracker_op_cost if self.spec else 0.0)
                self.stats.tracker_update_ops += 1
                self.stats.tracker_invalidate_ops += vb.tracker.update(lo, hi, dev_id)

    # -- streams ------------------------------------------------------------------------

    def cudaStreamCreate(self) -> Optional[SimStream]:
        """A new in-order copy stream (None in machine-less functional runs)."""
        return self.machine.create_stream() if self.machine else None

    @property
    def default_stream(self) -> Optional[SimStream]:
        if self._default_stream is None and self.machine is not None:
            self._default_stream = self.machine.create_stream("stream0")
        return self._default_stream

    def cudaStreamSynchronize(self, stream: Optional[SimStream] = None) -> None:
        """Host blocks until every operation enqueued on ``stream`` completed.

        With no argument, waits for the default stream — the completion
        point of all ``cudaMemcpyAsync`` calls issued without an explicit
        stream.
        """
        if self.machine is None:
            return
        target = stream if stream is not None else self.default_stream
        self.machine.wait_until(target.avail, label="stream-sync")

    # -- memcpy (§8.2) -------------------------------------------------------------------

    def cudaMemcpy(self, dst, src, nbytes: int, kind: MemcpyKind) -> None:
        self._memcpy(dst, src, nbytes, kind, synchronous=True)

    def cudaMemcpyAsync(
        self, dst, src, nbytes: int, kind: MemcpyKind, stream: Optional[SimStream] = None
    ) -> None:
        """Asynchronous memcpy with real enqueue semantics.

        The translated copies are enqueued on ``stream`` (default stream if
        omitted): the call returns immediately, and the copies' completion
        events are recorded on the stream so ``cudaStreamSynchronize``
        provides the CUDA-style completion point. Under the ``sequential``
        policy the copies themselves are issued exactly as before
        (barrier-coupled DMA); the overlap policies gate them on dataflow
        events instead.
        """
        events = self._memcpy(dst, src, nbytes, kind, synchronous=False)
        if self.machine is not None:
            target = stream if stream is not None else self.default_stream
            for end in events:
                target.record(end)

    def _memcpy(self, dst, src, nbytes, kind, *, synchronous) -> List[float]:
        if kind is MemcpyKind.HostToDevice:
            return h2d_scatter(self, dst, src, nbytes, synchronous=synchronous)
        elif kind is MemcpyKind.DeviceToHost:
            return d2h_gather(self, src, dst, nbytes, synchronous=synchronous)
        elif kind is MemcpyKind.DeviceToDevice:
            raise UnsupportedMemcpyError(
                "device-to-device memcopies are not supported (paper §8.2)"
            )
        elif kind is MemcpyKind.HostToHost:
            if self.functional:
                host_bytes(dst)[:nbytes] = host_bytes(src)[:nbytes]
            return []
        else:
            raise UnsupportedMemcpyError(f"unknown memcpy kind {kind!r}")

    # -- kernel launch (§5, Figure 4) --------------------------------------------------------

    def launch(self, kernel: Kernel, grid, block, args: Sequence[object]) -> None:
        grid = Dim3.of(grid)
        block = Dim3.of(block)
        self._launch_index = next(self._launch_counter)
        launch_partitioned(self, self.app.kernel(kernel.name), grid, block, args)

    # -- misc (§8.4) ------------------------------------------------------------------------------

    def cudaGetDeviceCount(self) -> int:
        """Always 1: the application keeps its single-device world view."""
        return 1

    def cudaDeviceSynchronize(self) -> None:
        """Synchronizes *all* available devices (§8.4)."""
        if self.machine:
            self.machine.synchronize()

    def elapsed(self) -> float:
        """Simulated wall-clock."""
        return self.machine.elapsed() if self.machine else 0.0
