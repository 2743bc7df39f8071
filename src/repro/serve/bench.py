"""Open-loop saturation benchmark behind ``repro bench serve``.

The study drives N tenants' launch streams at a controlled *offered load*
against one shared (cluster) machine and measures what a serving system
must get right at saturation:

* **throughput** (jobs/sec of simulated time) must *plateau* at the
  machine's capacity as offered load exceeds it — not collapse;
* **queueing delay** (p50/p99 of service start minus arrival) must stay
  bounded for admitted work — bounded queues + shedding, not unbounded
  backlog;
* **backpressure** must engage exactly when needed: zero shed under light
  load, nonzero shed when offered load exceeds capacity.

Arrivals are deterministic (job ``i`` arrives at ``i / rate``, tenants
round-robin), the scheduler is deterministic WDRR, and the clock is the
discrete-event simulator's — runs are exactly reproducible. Offered rates
are expressed as multiples of the measured capacity: a calibration pass
serves a back-to-back batch through one tenant and takes the mean per-job
service time.

The bench's other self-checks are two
:func:`~repro.harness.identity.identity_sweep` matrices: the serve path
against the direct api path (:func:`single_tenant_sweep`) and the shared
skeleton cache against per-tenant caches (:func:`shared_skeleton_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import CompiledApp, compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.errors import ServeError
from repro.harness.calibration import k80_cluster
from repro.harness.identity import Observation, identity_sweep, observe
from repro.runtime.api import MultiGpuApi, RunStats, host_planner_counters
from repro.runtime.config import RuntimeConfig
from repro.serve.runtime import ServeRuntime
from repro.serve.tenant import TenantRuntime

__all__ = [
    "ServePoint",
    "build_serve_kernel",
    "saturation_study",
    "saturation_failures",
    "single_tenant_sweep",
    "shared_skeleton_sweep",
]

#: Problem size of one serve job (elements per launch).
JOB_ELEMS = 1 << 15
_GRID, _BLOCK = Dim3(JOB_ELEMS // 128), Dim3(128)


def build_serve_kernel():
    """The per-job kernel: a partition-aligned elementwise update.

    Reads match the linear distribution, so steady-state coherence traffic
    is zero and the saturation curves measure scheduling and compute
    contention, not transfer artifacts.
    """
    from repro.cuda.dtypes import f32
    from repro.cuda.ir.builder import KernelBuilder

    kb = KernelBuilder("serve_step")
    n = kb.scalar("n")
    x = kb.array("x", f32, (n,))
    y = kb.array("y", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        y[gi,] = y[gi,] + x[gi,] * 0.5
    return kb.finish()


@dataclass(frozen=True)
class ServePoint:
    """One (tenant count, offered load) sample of the saturation sweep."""

    tenants: int
    n_nodes: int
    gpus_per_node: int
    #: Offered load as a multiple of measured capacity (1.0 = arrivals at
    #: exactly the rate one saturated server completes jobs).
    load: float
    #: Arrival rate in jobs per simulated second.
    offered_rate: float
    #: Calibrated mean per-job service time (seconds) the rates are
    #: expressed against.
    service_time: float
    queue_capacity: int
    submitted: int
    completed: int
    shed: int
    #: Simulated seconds from first arrival to full drain.
    wall: float
    #: Completed jobs per simulated second over the serving window.
    throughput: float
    p50_delay: float
    p99_delay: float
    #: Completed-job count per tenant (fairness witness).
    per_tenant_completed: Dict[int, int]
    #: Serviced WDRR cost per tenant.
    serviced_cost: Dict[int, float]
    #: Staged-planner counters (:data:`~repro.runtime.api.
    #: HOST_PLANNER_COUNTERS`) merged across all tenants' runtimes.
    host_counters: Dict[str, int] = field(default_factory=dict)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def _machine(n_nodes: int, gpus_per_node: int) -> ClusterSimMachine:
    return ClusterSimMachine(k80_cluster(n_nodes, gpus_per_node))


def _setup_tenant(api: MultiGpuApi):
    """Upload one job's inputs; returns the ``(x, y)`` device buffers."""
    devs = []
    x = np.linspace(0.0, 1.0, JOB_ELEMS, dtype=np.float32)
    for host in (x, np.zeros(JOB_ELEMS, np.float32)):
        dev = api.cudaMalloc(host.nbytes)
        api.cudaMemcpy(dev, host, host.nbytes, MemcpyKind.HostToDevice)
        devs.append(dev)
    return devs


def _job_work(kernel, devs) -> Callable[[TenantRuntime], None]:
    def work(api: TenantRuntime) -> None:
        # One request-response cycle: launch, then wait for the results to
        # be observable (the response). The device sync is what couples
        # offered load to the machine's actual capacity.
        api.launch(kernel, _GRID, _BLOCK, [JOB_ELEMS, *devs])
        api.cudaDeviceSynchronize()

    return work


def _drive(
    runtime: ServeRuntime,
    arrivals: Sequence[Tuple[float, int]],
    work_of: Dict[int, Callable[[TenantRuntime], None]],
) -> None:
    """Open-loop serve: admit arrivals as simulated time passes them."""
    machine = runtime.machine
    i = 0
    while True:
        now = machine.now
        while i < len(arrivals) and arrivals[i][0] <= now + 1e-12:
            at, tenant = arrivals[i]
            runtime.submit(tenant, work_of[tenant], arrival=at, strict=False)
            i += 1
        if runtime.step() is None:
            if i == len(arrivals):
                break
            machine.wait_until(arrivals[i][0], label="serve-idle", charge=False)
    runtime.drain()


def _calibrate_service_time(app: CompiledApp, config: RuntimeConfig, kernel, machine) -> float:
    """Mean per-job service time of one tenant served back to back."""
    probe_jobs = 8
    runtime = ServeRuntime(app, config, 1, machine=machine, functional=False)
    work = _job_work(kernel, _setup_tenant(runtime.api(0)))
    # One warm-up job absorbs first-launch distribution traffic.
    runtime.submit(0, work)
    runtime.drain()
    start = machine.elapsed()
    for _ in range(probe_jobs):
        runtime.submit(0, work)
    runtime.drain()
    service = (machine.elapsed() - start) / probe_jobs
    if not (service > 0):
        raise ServeError("serve calibration produced a non-positive service time")
    return service


def saturation_study(
    tenants: int = 4,
    loads: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    jobs: int = 48,
    n_nodes: int = 2,
    gpus_per_node: int = 2,
    queue_capacity: int = 8,
) -> List[ServePoint]:
    """Sweep offered load against one shared machine; see module docstring.

    Each load point runs on a fresh machine and serve runtime (points are
    independent samples, not a continuation); ``jobs`` arrivals are offered
    per point, round-robin across ``tenants`` equal-weight tenants.
    """
    total = n_nodes * gpus_per_node
    config = RuntimeConfig(n_gpus=total)
    kernel = build_serve_kernel()
    app = compile_app([kernel])
    service = _calibrate_service_time(app, config, kernel, _machine(n_nodes, gpus_per_node))
    capacity_rate = 1.0 / service

    points: List[ServePoint] = []
    for load in loads:
        rate = load * capacity_rate
        machine = _machine(n_nodes, gpus_per_node)
        runtime = ServeRuntime(
            app, config, tenants, machine=machine, functional=False, queue_capacity=queue_capacity
        )
        ids = sorted(runtime.runtimes)
        work_of = {t: _job_work(kernel, _setup_tenant(runtime.api(t))) for t in ids}
        serve_start = machine.elapsed()
        arrivals = [(serve_start + i / rate, i % tenants) for i in range(jobs)]
        _drive(runtime, arrivals, work_of)
        wall = machine.elapsed() - serve_start
        # Round float-epsilon residue (arrival == service start) to zero.
        delays = sorted(0.0 if abs(d) < 1e-12 else d for d in runtime.queueing_delays())
        per_tenant = {t: 0 for t in ids}
        for job in runtime.completed:
            per_tenant[job.tenant_id] += 1
        points.append(
            ServePoint(
                tenants=tenants,
                n_nodes=n_nodes,
                gpus_per_node=gpus_per_node,
                load=load,
                offered_rate=rate,
                service_time=service,
                queue_capacity=queue_capacity,
                submitted=jobs,
                completed=len(runtime.completed),
                shed=runtime.admission.total_shed,
                wall=wall,
                throughput=len(runtime.completed) / wall if wall > 0 else 0.0,
                p50_delay=_quantile(delays, 0.50),
                p99_delay=_quantile(delays, 0.99),
                per_tenant_completed=per_tenant,
                serviced_cost=dict(runtime.serviced_cost),
                host_counters=host_planner_counters(
                    RunStats.merged([runtime.api(t).stats for t in ids])
                ),
            )
        )
    return points


def saturation_failures(points: Sequence[ServePoint]) -> List[str]:
    """Self-checks proving graceful saturation (empty list = all pass)."""
    failures: List[str] = []
    if not points:
        return ["saturation study produced no points"]
    peak = max(p.throughput for p in points)
    top = max(points, key=lambda p: p.load)
    for p in points:
        if p.completed + p.shed != p.submitted:
            failures.append(
                f"conservation: load {p.load:g}: {p.completed} completed + "
                f"{p.shed} shed != {p.submitted} submitted"
            )
        if any(d < -1e-12 for d in (p.p50_delay, p.p99_delay)):
            failures.append(f"negative queueing delay at load {p.load:g}")
        if p.load <= 0.5 and p.shed:
            failures.append(
                f"backpressure misfire: {p.shed} jobs shed at light load {p.load:g}"
            )
        # Bounded p99 for admitted work: an admitted job waits behind at
        # most its tenant's bounded queue, and WDRR guarantees its tenant
        # at least a 1/tenants service share — so capacity * tenants
        # service times (2x margin for quantization) bounds the delay.
        bound = p.service_time * (p.queue_capacity + 2) * p.tenants * 2.0
        if p.p99_delay > bound:
            failures.append(
                f"unbounded delay: p99 {p.p99_delay:.4f}s exceeds the "
                f"admission-control bound {bound:.4f}s at load {p.load:g}"
            )
    if top.load > 1.0:
        if top.throughput < 0.85 * peak:
            failures.append(
                f"collapse: throughput at load {top.load:g} "
                f"({top.throughput:.2f} jobs/s) fell below 85% of the peak "
                f"({peak:.2f} jobs/s)"
            )
        if top.shed == 0:
            failures.append(
                f"backpressure never engaged: zero shed at overload {top.load:g}"
            )
        fair_share = top.completed / top.tenants
        for tenant, done in sorted(top.per_tenant_completed.items()):
            if done < 0.5 * fair_share:
                failures.append(
                    f"fairness: tenant {tenant} completed {done} jobs at load "
                    f"{top.load:g}, below half the fair share {fair_share:.1f}"
                )
    return failures


def _job_sequence(iterations: int):
    """The serve app and one job's call sequence on it: malloc + H2D,
    ``iterations`` launches, D2H."""
    kernel = build_serve_kernel()

    def sequence(api: MultiGpuApi) -> np.ndarray:
        dx, dy = _setup_tenant(api)
        for _ in range(iterations):
            api.launch(kernel, _GRID, _BLOCK, [JOB_ELEMS, dx, dy])
        out = np.zeros(JOB_ELEMS, np.float32)
        api.cudaMemcpy(out, dy, out.nbytes, MemcpyKind.DeviceToHost)
        return out

    return compile_app([kernel]), sequence


def single_tenant_sweep(
    cells: Sequence[Dict[str, object]] = (
        dict(schedule="sequential", pipeline_window=1, shared_copies=False),
    ),
    n_nodes: int = 2,
    gpus_per_node: int = 2,
    iterations: int = 6,
) -> List[str]:
    """One tenant through the serve path must equal the direct api path.

    Each cell (``schedule``, ``pipeline_window``, ``shared_copies``) runs
    the same call sequence (malloc, H2D, ``iterations`` launches, D2H)
    once on a plain :class:`~repro.runtime.api.MultiGpuApi` and once as a
    serve job of the only tenant, on identically-shaped machines. Output
    bytes, the full trace (modulo the tenant tag), the simulated clock and
    the whole stats record must agree, and every serve interval must carry
    tenant 0's tag. Returns human-readable failures.
    """
    app, sequence = _job_sequence(iterations)

    def run(schedule, pipeline_window, shared_copies) -> Dict[str, Observation]:
        config = RuntimeConfig(
            n_gpus=n_nodes * gpus_per_node,
            schedule=schedule,
            pipeline_window=pipeline_window,
            shared_copies=shared_copies,
        )
        direct = MultiGpuApi(app, config, machine=_machine(n_nodes, gpus_per_node))
        reference = sequence(direct)
        runtime = ServeRuntime(app, config, 1, machine=_machine(n_nodes, gpus_per_node))
        results: Dict[str, np.ndarray] = {}
        runtime.submit(0, lambda api: results.__setitem__("out", sequence(api)))
        runtime.drain()
        return {
            "direct": observe(direct, {"out": reference}),
            "serve": observe(runtime.api(0), results),
        }

    def attribution(cell, runs) -> List[str]:
        if any(iv.tenant != 0 for iv in runs["serve"].trace):
            return [f"attribution: serve trace interval missing tenant tag at {cell}"]
        return []

    return identity_sweep(
        run,
        cells,
        ("outputs", "trace", "clock", "stats"),
        untenanted=True,
        check=attribution,
    )


def shared_skeleton_sweep(
    n_gpus: int = 4,
    schedules: Sequence[str] = ("sequential",),
    tenants: int = 2,
    iterations: int = 6,
) -> List[str]:
    """The shared skeleton cache must be bitwise invisible per tenant.

    Runs the same N-tenant job sequence twice per schedule: once with
    per-tenant skeleton memos, once with one :class:`~repro.memo.Memo`
    shared across all tenants.
    Per-tenant output bytes, the full machine trace (tenant tags included),
    the simulated clock and each tenant's stats outside the planner
    counters must agree. The counters themselves prove the sharing
    engaged: follower tenants must rebuild nothing (zero skeleton misses)
    while their per-tenant hit counters keep counting.
    """
    app, sequence = _job_sequence(iterations)

    def serve(schedule: str, shared: bool) -> Observation:
        config = RuntimeConfig(n_gpus=n_gpus, schedule=schedule)
        runtime = ServeRuntime(
            app, config, tenants, machine=_machine(1, n_gpus), shared_plan_cache=shared
        )
        outs: Dict[str, np.ndarray] = {}
        for t in sorted(runtime.runtimes):
            runtime.submit(t, lambda api, t=t: outs.__setitem__(f"tenant{t}", sequence(api)))
        runtime.drain()
        return observe([runtime.api(t) for t in sorted(runtime.runtimes)], outs)

    def run(schedule) -> Dict[str, Observation]:
        return {"per-tenant": serve(schedule, False), "shared": serve(schedule, True)}

    def attribution(cell, runs) -> List[str]:
        failures = []
        solo, shared = runs["per-tenant"].stats, runs["shared"].stats
        for t, (alone, sharing) in enumerate(zip(solo, shared)):
            if t and sharing["plan_cache_misses"]:
                failures.append(
                    f"sharing: tenant {t} rebuilt {sharing['plan_cache_misses']} "
                    f"skeleton(s) despite the shared cache at {cell}"
                )
            if sharing["plan_cache_hits"] != alone["plan_cache_hits"] + (
                alone["plan_cache_misses"] if t else 0
            ):
                failures.append(
                    f"sharing: tenant {t} per-tenant hit counter lost "
                    f"attribution under the shared cache at {cell}"
                )
        return failures

    cells = [dict(schedule=s) for s in schedules]
    return identity_sweep(
        run,
        cells,
        ("outputs", "trace", "clock", "stats"),
        masked=True,
        check=attribution,
    )
