"""Experiment drivers reproducing the paper's evaluation (§9).

All performance runs are *timing-only*: the runtime's orchestration
(partitioning, enumerators, trackers) executes for real, while device work
and transfers are costed on the simulated machine. Correctness is covered
separately by the functional test suite.

The timing studies — Fig. 6's speedups and the schedule, cluster and
``pipeline_window`` studies built on them — are one :func:`timed_sweep`
over (workload, size, cluster shape, schedule, pipeline window) returning
:class:`TimedPoint` rows; the ``repro bench`` registry picks each study's
grid.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.topology import ClusterSpec
from repro.compiler.costmodel import KernelCostModel
from repro.compiler.pipeline import CompiledApp, compile_app
from repro.cuda.api import CudaApi
from repro.cuda.device import Device
from repro.harness.calibration import GPU_COUNTS, K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi, host_planner_counters
from repro.runtime.config import RuntimeConfig
from repro.sim.engine import SimMachine
from repro.sim.trace import Category
from repro.workloads.common import ProblemConfig, Workload, table1_configs
from repro.workloads import ALL_WORKLOADS

__all__ = [
    "TimedPoint",
    "BreakdownRow",
    "RedundancyPoint",
    "compiled",
    "run_timed",
    "reference_time",
    "timed_sweep",
    "figure7",
    "figure8",
    "redundancy_study",
    "percentile",
    "single_gpu_overhead",
    "compile_time_ratio",
    "table1_rows",
]

_APPS: Dict[Tuple[str, int], CompiledApp] = {}

#: Iteration caps for the steady-state extrapolation (see
#: :func:`_extrapolated`): simulate M1 and M2 iterations, derive the exact
#: per-iteration steady-state time from their difference, extrapolate to the
#: configured count. Exact because the simulation is deterministic and every
#: iteration after the first performs identical work.
_EXTRAPOLATE_M1 = 24
_EXTRAPOLATE_M2 = 12


def compiled(workload: Workload) -> CompiledApp:
    """The compiled app of ``workload``, built once per process.

    Kernels bake in the problem size (one build per Table 1 size, like the
    paper's benchmarks), so the key is (workload, size).
    """
    key = (workload.name, workload.cfg.size)
    if key not in _APPS:
        _APPS[key] = compile_app(workload.build_kernels())
    return _APPS[key]


def _extrapolated(cfg: ProblemConfig, run_once) -> Tuple[float, object]:
    """Total simulated time, extrapolating steady-state iterations.

    ``run_once(cfg) -> (elapsed, payload)`` must be deterministic. For
    iteration counts above the cap we run M1 and M2 iterations; since every
    iteration past the first is identical, ``(T(M1) - T(M2)) / (M1 - M2)``
    is the exact steady-state per-iteration time.
    """
    if cfg.iterations <= _EXTRAPOLATE_M1:
        return run_once(cfg)
    t1, payload = run_once(replace(cfg, iterations=_EXTRAPOLATE_M1))
    t2, _ = run_once(replace(cfg, iterations=_EXTRAPOLATE_M2))
    per_iter = (t1 - t2) / (_EXTRAPOLATE_M1 - _EXTRAPOLATE_M2)
    total = t1 + (cfg.iterations - _EXTRAPOLATE_M1) * per_iter
    return total, payload


def reference_time(cfg: ProblemConfig) -> float:
    """Simulated runtime of the single-GPU reference binary (nvcc baseline)."""

    def run_once(c: ProblemConfig):
        workload = ALL_WORKLOADS[c.workload](c)
        machine = SimMachine(K80_NODE_SPEC.with_gpus(1))
        api = CudaApi(
            Device(0, functional=False),
            machine=machine,
            kernel_cost=KernelCostModel(K80_NODE_SPEC),
            functional=False,
        )
        workload.run(api, None)
        return machine.elapsed(), api

    total, _ = _extrapolated(cfg, run_once)
    return total


def run_timed(
    cfg: ProblemConfig, config: RuntimeConfig, cluster: Optional[ClusterSpec] = None
) -> Tuple[float, MultiGpuApi]:
    """Simulated runtime of the partitioned application under ``config``.

    The machine is a :class:`ClusterSimMachine` over ``cluster``
    (hierarchical partitioning, cross-node halos over the NIC/fabric
    tier), by default the flat K80 node of ``config.n_gpus`` GPUs; the
    runtime gets the cluster's GPU count.
    """
    cluster = cluster or k80_cluster(1, config.n_gpus)
    config = replace(config, n_gpus=cluster.total_gpus)

    def run_once(c: ProblemConfig):
        workload = ALL_WORKLOADS[c.workload](c)
        api = MultiGpuApi(
            compiled(workload), config, machine=ClusterSimMachine(cluster), functional=False
        )
        workload.run(api, None)
        return api.elapsed(), api

    return _extrapolated(cfg, run_once)


# ---------------------------------------------------------------------------
# The timing studies: Figure 6, schedules, cluster shapes, pipeline windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimedPoint:
    """One (workload, size, cluster shape, schedule, window) timing sample.

    ``time`` is the extrapolated total; the exposure buckets, the transfer
    busy time and the inter-node counts are of the *sampled* — not
    extrapolated — run, so use their ratios, not their absolute values.
    """

    workload: str
    size_label: str
    n_nodes: int
    gpus_per_node: int
    schedule: str
    pipeline_window: int
    time: float
    reference: float
    #: Coherence-transfer busy time split by interconnect tier and by
    #: whether a kernel ran concurrently (hidden) or not (exposed).
    intra_hidden: float
    intra_exposed: float
    inter_hidden: float
    inter_exposed: float
    #: Total TRANSFERS busy time — the four buckets must sum to exactly
    #: this (α/β/γ accounting identity).
    transfers_busy: float
    #: Sync transfers whose endpoints live on different nodes.
    inter_node_transfers: int
    inter_node_bytes: int
    #: Staged-planner counters (:data:`~repro.runtime.api.
    #: HOST_PLANNER_COUNTERS`): plan/residual cache hit rates witness that
    #: the launch hot path stayed warm across the sweep.
    host_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def n_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def topology(self) -> str:
        """``flat`` on one node, else ``cluster``."""
        return "flat" if self.n_nodes == 1 else "cluster"

    @property
    def speedup(self) -> float:
        return self.reference / self.time

    # Summed in Trace.transfer_exposure's order, so the digits match it.
    @property
    def hidden_transfer_time(self) -> float:
        return self.intra_hidden + self.inter_hidden

    @property
    def exposed_transfer_time(self) -> float:
        return self.intra_exposed + self.inter_exposed

    @property
    def hidden_fraction(self) -> float:
        total = self.hidden_transfer_time + self.exposed_transfer_time
        return self.hidden_transfer_time / total if total > 0 else 0.0

    @property
    def exposure_identity_error(self) -> float:
        """Absolute drift of the tier split from ``busy_time(TRANSFERS)``."""
        split = self.intra_hidden + self.intra_exposed + self.inter_hidden + self.inter_exposed
        return abs(split - self.transfers_busy)


def timed_sweep(
    workloads: Sequence[str],
    sizes: Sequence[str],
    shapes: Sequence[Tuple[int, int]],
    runs: Sequence[Tuple[str, int]],
) -> List[TimedPoint]:
    """Time every workload x size x ``(n_nodes, gpus_per_node)`` shape x
    ``(schedule, pipeline_window)`` run, in that nesting order.

    Each shape runs on the calibrated K80 cluster of that shape
    (:func:`~repro.harness.calibration.k80_cluster`; a ``1xN`` shape is
    the flat node) and each point carries the single-GPU reference time of
    its Table 1 configuration.
    """
    points: List[TimedPoint] = []
    for name, size in itertools.product(workloads, sizes):
        cfg = next(c for c in table1_configs(name) if c.size_label == size)
        ref = reference_time(cfg)
        for (n_nodes, gpn), (schedule, window) in itertools.product(shapes, runs):
            config = RuntimeConfig(schedule=schedule, pipeline_window=window)
            elapsed, api = run_timed(cfg, config, k80_cluster(n_nodes, gpn))
            trace, stats = api.machine.trace, api.stats
            tiers = trace.transfer_exposure_by_tier()
            intra, inter = tiers["intra"], tiers["inter"]
            points.append(
                TimedPoint(
                    name, size, n_nodes, gpn, schedule, window, elapsed, ref,
                    intra["hidden"], intra["exposed"], inter["hidden"], inter["exposed"],
                    trace.busy_time(Category.TRANSFERS),
                    stats.inter_node_transfers, stats.inter_node_bytes,
                    host_planner_counters(stats),
                )
            )
    return points


# ---------------------------------------------------------------------------
# Figure 7: execution-time breakdown via the alpha/beta/gamma scheme (§9.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakdownRow:
    workload: str
    n_gpus: int
    alpha: float
    beta: float
    gamma: float

    @property
    def t_application(self) -> float:
        return self.gamma / self.alpha

    @property
    def t_transfers(self) -> float:
        return (self.alpha - self.beta) / self.alpha

    @property
    def t_patterns(self) -> float:
        return (self.beta - self.gamma) / self.alpha


def measure_breakdown(
    cfg: ProblemConfig, n_gpus: int, schedule: Optional[str] = None
) -> BreakdownRow:
    base = RuntimeConfig(n_gpus=n_gpus, schedule=schedule or "sequential")
    alpha, _ = run_timed(cfg, base.alpha())
    beta, _ = run_timed(cfg, base.beta())
    gamma, _ = run_timed(cfg, base.gamma())
    return BreakdownRow(cfg.workload, n_gpus, alpha, beta, gamma)


#: The GPU counts of the paper's Figure 7: one GPU has no coherence
#: transfers to break down.
FIGURE7_GPU_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16)


def figure7(
    workloads: Sequence[str] = ("hotspot", "matmul", "nbody"),
    gpu_counts: Sequence[int] = FIGURE7_GPU_COUNTS,
    size: str = "medium",
    schedule: Optional[str] = None,
) -> List[BreakdownRow]:
    """Relative Application/Transfers/Patterns times (paper Figure 7)."""
    rows: List[BreakdownRow] = []
    for name in workloads:
        cfg = next(c for c in table1_configs(name) if c.size_label == size)
        for g in gpu_counts:
            rows.append(measure_breakdown(cfg, g, schedule=schedule))
    return rows


# ---------------------------------------------------------------------------
# Redundant-transfer study: shared-copy tracking vs sole-owner (§8.3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedundancyPoint:
    """One (kernel, shared-copies setting, cluster shape) redundancy sample.

    The study runs the same iterative kernel twice — sole-owner trackers
    (the paper's §8.3 behaviour) vs shared-copy trackers — and records the
    coherence traffic per iteration plus a checksum of the final output
    buffer, so redundancy elimination can be asserted *and* shown to be
    bitwise-neutral.
    """

    kernel: str
    shared_copies: bool
    #: Whether the run trimmed bounding-range slack off planned copies
    #: (:attr:`~repro.runtime.config.RuntimeConfig.irredundant_transfers`).
    irredundant: bool
    schedule: str
    n_nodes: int
    gpus_per_node: int
    iterations: int
    #: Coherence bytes of the warm-up (first) and last (steady) iteration.
    first_iter_bytes: int
    steady_bytes: int
    total_sync_bytes: int
    redundant_bytes_avoided: int
    #: Share of ``redundant_bytes_avoided`` whose sole-owner re-transfer
    #: would have crossed the node fabric.
    redundant_bytes_avoided_inter: int
    #: Bounding-range slack bytes the irredundant path trimmed, and the
    #: share that would have crossed the node fabric.
    overapprox_bytes_avoided: int
    overapprox_bytes_avoided_inter: int
    inter_node_bytes: int
    tracker_share_ops: int
    tracker_invalidate_ops: int
    #: SHA-256 over the final output buffer — identical across settings.
    checksum: str


def _redundancy_kernels(n: int):
    """(aligned, broadcast) kernels over an ``n``-element read-only table.

    ``aligned`` reads only the thread's own element (the linear H2D
    distribution matches, so steady-state coherence traffic is zero either
    way); ``broadcast`` reduces over the whole table, the §8.3 worst case a
    sole-owner tracker re-transfers every iteration.
    """
    from repro.cuda import f32
    from repro.cuda.ir import KernelBuilder

    kb = KernelBuilder("aligned")
    table = kb.array("table", f32, (n,))
    out = kb.array("out", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        out[gi,] = out[gi,] + table[gi,]
    aligned = kb.finish()

    kb = KernelBuilder("broadcast")
    table = kb.array("table", f32, (n,))
    out = kb.array("out", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("j", 0, n) as j:
            kb.assign(acc, acc + table[j,])
        out[gi,] = acc
    broadcast = kb.finish()
    return aligned, broadcast


def redundancy_study(
    n: int = 4096,
    iterations: int = 8,
    shapes: Sequence[Tuple[int, int]] = ((1, 4),),
    schedules: Sequence[str] = ("sequential",),
    irredundant: Sequence[bool] = (False,),
    stencil: bool = False,
    stencil_side: int = 64,
) -> List[RedundancyPoint]:
    """Coherence traffic of broadcast vs aligned reads, shared copies on/off.

    Functional runs (bitwise-checkable) on a :class:`ClusterSimMachine` per
    cluster shape, so the inter-node byte reduction of nearest-copy routing
    shows up in the stats of the multi-node shapes.

    ``irredundant`` adds the RP602 remedy as a study dimension (each value
    runs the whole sweep with that ``irredundant_transfers`` setting);
    ``stencil`` adds the decimating-stencil workload
    (:mod:`repro.workloads.dstencil`), whose strided reads give the
    irredundant path actual bounding-range slack to trim.
    """
    import hashlib

    import numpy as np

    from repro.cuda.api import MemcpyKind
    from repro.cuda.dim3 import Dim3

    aligned, broadcast = _redundancy_kernels(n)
    table = np.linspace(0.0, 1.0, n, dtype=np.float32)
    zeros = np.zeros(n, dtype=np.float32)
    # One case per kernel: (kernel, grid, block, host arrays in array-param
    # order — each is H2D'd before the iteration loop — output param index).
    grid1d, block1d = Dim3(n // 128), Dim3(128)
    cases = [
        (aligned, grid1d, block1d, [table, zeros], 1),
        (broadcast, grid1d, block1d, [table, zeros], 1),
    ]
    if stencil:
        from repro.workloads.dstencil import BLOCK, build_dstencil_kernel, src_shape

        rows, cols = src_shape(stencil_side)
        src = np.linspace(0.0, 1.0, rows * cols, dtype=np.float32).reshape(rows, cols)
        blocks = -(-stencil_side // BLOCK.x)
        cases.append(
            (
                build_dstencil_kernel(stencil_side),
                Dim3(x=blocks, y=blocks),
                BLOCK,
                [src, np.zeros((stencil_side, stencil_side), dtype=np.float32)],
                1,
            )
        )
    points: List[RedundancyPoint] = []
    for kernel, grid, block, inputs, out_idx in cases:
        app = compile_app([kernel])
        for (n_nodes, gpn), schedule, shared, irr in itertools.product(
            shapes, schedules, (False, True), irredundant
        ):
            total = n_nodes * gpn
            config = RuntimeConfig(
                n_gpus=total, schedule=schedule, shared_copies=shared, irredundant_transfers=irr
            )
            api = MultiGpuApi(app, config, machine=ClusterSimMachine(k80_cluster(n_nodes, gpn)))
            devs = []
            for host in inputs:
                d = api.cudaMalloc(host.nbytes)
                api.cudaMemcpy(d, host, host.nbytes, MemcpyKind.HostToDevice)
                devs.append(d)
            first = steady = 0
            for it in range(iterations):
                before = api.stats.sync_bytes
                api.launch(kernel, grid, block, devs)
                steady = api.stats.sync_bytes - before
                if it == 0:
                    first = steady
            result = np.zeros_like(inputs[out_idx])
            api.cudaMemcpy(result, devs[out_idx], result.nbytes, MemcpyKind.DeviceToHost)
            st = api.stats
            points.append(
                RedundancyPoint(
                    kernel.name, shared, irr, schedule, n_nodes, gpn, iterations,
                    first, steady, st.sync_bytes,
                    st.redundant_bytes_avoided, st.redundant_bytes_avoided_inter,
                    st.overapprox_bytes_avoided, st.overapprox_bytes_avoided_inter,
                    st.inter_node_bytes, st.tracker_share_ops, st.tracker_invalidate_ops,
                    hashlib.sha256(result.tobytes()).hexdigest(),
                )
            )
    return points


# ---------------------------------------------------------------------------
# Figure 8: distribution of the non-transfer overhead
# ---------------------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between ranks."""
    data = sorted(values)
    if not data:
        return float("nan")
    idx = q * (len(data) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(data) - 1)
    frac = idx - lo
    return data[lo] * (1 - frac) + data[hi] * frac


@dataclass
class OverheadStats:
    n_gpus: int
    fractions: List[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        return statistics.median(self.fractions)

    def percentile(self, q: float) -> float:
        return percentile(self.fractions, q)


def figure8(
    gpu_counts: Sequence[int] = GPU_COUNTS,
    sizes: Sequence[str] = ("small", "medium", "large"),
) -> List[OverheadStats]:
    """Non-transfer overhead fraction (β−γ)/α per GPU count (Figure 8)."""
    out: List[OverheadStats] = []
    for g in gpu_counts:
        stats = OverheadStats(g)
        for cfg in (c for c in table1_configs() if c.size_label in sizes):
            stats.fractions.append(measure_breakdown(cfg, g).t_patterns)
        out.append(stats)
    return out


# ---------------------------------------------------------------------------
# Single-GPU overhead of the partitioned binary (§9.2 opening)
# ---------------------------------------------------------------------------


def single_gpu_overhead(
    sizes: Sequence[str] = ("small", "medium", "large"),
) -> List[Tuple[ProblemConfig, float]]:
    """Slowdown of the partitioned application on one GPU vs the reference.

    The paper reports a median of 2.1 % with p25 = 0.13 % and p75 = 3.1 %.
    """
    out = []
    for cfg in (c for c in table1_configs() if c.size_label in sizes):
        ref = reference_time(cfg)
        part, _ = run_timed(cfg, RuntimeConfig())
        out.append((cfg, part / ref - 1.0))
    return out


# ---------------------------------------------------------------------------
# Compile-time increase (§3)
# ---------------------------------------------------------------------------


def compile_time_ratio(repeats: int = 3) -> Dict[str, float]:
    """Compile-time increase caused by the two-pass pipeline (§3).

    The paper drives gpucc twice — pass 1 exists only to extract the memory
    models, then the rewritten application is compiled for real — and
    reports a 1.9x-2.2x compile-time increase. The measured analogue here is
    the full pipeline's wall time over a hypothetical *single-pass* compiler
    that performed the same final compilation (pass 2, including analysis,
    partitioning and enumerator generation) plus the rewrite, but did not
    repeat pass 1. (Comparing against a bare validate-and-print "compile"
    would be meaningless: this reproduction has no LLVM backend whose cost
    dominates the way it does in gpucc.)
    """
    from repro.workloads.common import functional_config

    ratios: Dict[str, float] = {}
    for name, cls in ALL_WORKLOADS.items():
        workload = cls(functional_config(name))
        kernels = workload.build_kernels()
        host_source = f"{kernels[0].name}<<<grid, block>>>(args);"
        best = None
        for _ in range(repeats):
            app = compile_app(kernels, host_source=host_source)
            single_pass = app.timings.rewrite + app.timings.pass2
            ratio = app.timings.total / single_pass
            if best is None or ratio < best:
                best = ratio
        ratios[name] = best
    return ratios


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1_rows() -> List[Tuple[str, int, int, int, str]]:
    """(benchmark, small, medium, large, iterations) rows of Table 1."""
    from repro.workloads.common import TABLE1

    return [
        (
            name,
            *(sizes[label].size for label in ("small", "medium", "large")),
            "N/A" if name == "matmul" else str(sizes["small"].iterations),
        )
        for name, sizes in TABLE1.items()
    ]
