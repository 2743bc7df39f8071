"""The serving orchestrator: tenants, fair-share scheduling, admission.

:class:`ServeRuntime` wires the package together. Construction builds one
:class:`~repro.serve.tenant.TenantRuntime` per tenant, all sharing one
simulated machine and one tenant-keyed
:class:`~repro.sched.executor.DataflowLog`; ``submit`` runs admission
control and enqueues a :class:`~repro.serve.scheduler.Job`; ``step``
services the next WDRR pick under the submitting tenant's runtime, with
the machine trace stamped by tenant for per-tenant attribution;
``drain`` services everything queued.

Isolation is by construction, not by locking: each tenant's functional
state (buffers, trackers, coherence) lives in its own namespaced runtime,
so interleaving tenants' jobs in *any* order yields bitwise-identical
per-tenant results — only the shared simulated clock and lanes contend.
A property test pins this, and a single tenant through this path
reproduces the direct ``MultiGpuApi`` run exactly (trace included, modulo
the tenant tag — see :func:`untenanted`).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.compiler.pipeline import CompiledApp
from repro.cuda.api import KernelCostFn
from repro.errors import ServeError
from repro.memo import Memo
from repro.runtime.api import SKELETON_CAPACITY, RunStats
from repro.runtime.config import RuntimeConfig
from repro.sched.executor import DataflowLog
from repro.serve.admission import AdmissionController
from repro.serve.scheduler import FairShareScheduler, Job
from repro.serve.tenant import TenantRuntime, TenantSpec
from repro.sim.engine import SimMachine
from repro.sim.trace import Interval

__all__ = ["ServeRuntime", "untenanted"]


def untenanted(intervals: Sequence[Interval]) -> List[Interval]:
    """The same intervals with the tenant tag cleared.

    The serve path records every interval under the serving tenant's id;
    the direct single-job path records None. This normalization is what
    the single-tenant identity tests compare under: serve(tenant 0) and
    ``api.run`` must produce *equal* interval sequences once the tag — the
    only serve-path addition — is removed.
    """
    return [replace(iv, tenant=None) for iv in intervals]


class ServeRuntime:
    """N tenants' launch streams multiplexed onto one shared machine."""

    def __init__(
        self,
        app: CompiledApp,
        config: RuntimeConfig,
        tenants: Union[int, Sequence[TenantSpec]],
        *,
        machine: Optional[SimMachine] = None,
        functional: bool = True,
        kernel_cost: Optional[KernelCostFn] = None,
        quantum: float = 1.0,
        queue_capacity: int = 64,
        shared_plan_cache: bool = False,
    ) -> None:
        if isinstance(tenants, int):
            if tenants < 1:
                raise ServeError(f"need at least one tenant, got {tenants}")
            specs = [TenantSpec(t) for t in range(tenants)]
        else:
            specs = list(tenants)
        if not specs:
            raise ServeError("need at least one tenant")
        ids = [s.tenant_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ServeError(f"duplicate tenant ids: {sorted(ids)}")
        self.machine = machine
        #: One dataflow log shared by every tenant: namespaced buffer ids
        #: keep tenants' (vb_id, dev) key ranges disjoint, so cross-launch
        #: dependency queries never couple two tenants' streams.
        self.dataflow = DataflowLog()
        #: With ``shared_plan_cache``, one skeleton cache serves every
        #: tenant: skeletons are fingerprint-determined and buffer-free,
        #: so N tenants running the same kernels compile, enumerate and
        #: partition once between them (per-tenant hit/miss counters are
        #: unaffected — they live in each tenant's stats). Residual replay
        #: memos remain strictly per-tenant.
        self.plan_cache: Optional[Memo] = (
            Memo("skeleton", SKELETON_CAPACITY) if shared_plan_cache else None
        )
        self.runtimes: Dict[int, TenantRuntime] = {}
        for spec in specs:
            self.runtimes[spec.tenant_id] = TenantRuntime(
                spec.tenant_id,
                app,
                spec.config if spec.config is not None else config,
                machine=machine,
                functional=functional,
                kernel_cost=kernel_cost,
                dataflow=self.dataflow,
                plan_cache=self.plan_cache,
            )
        self.scheduler = FairShareScheduler(
            {s.tenant_id: s.weight for s in specs}, quantum=quantum
        )
        self.admission = AdmissionController(queue_capacity)
        self._job_ids = itertools.count()
        #: Jobs serviced to completion, in service order.
        self.completed: List[Job] = []
        #: Total WDRR cost serviced per tenant (the fairness measure).
        self.serviced_cost: Dict[int, float] = {t: 0.0 for t in self.runtimes}

    # -- introspection ------------------------------------------------------

    def api(self, tenant_id: int) -> TenantRuntime:
        """The namespaced runtime of one tenant (for setup/teardown calls)."""
        try:
            return self.runtimes[tenant_id]
        except KeyError:
            raise ServeError(f"unknown tenant {tenant_id}") from None

    @property
    def now(self) -> float:
        """Current simulated host time (0.0 for machine-less runs)."""
        return self.machine.now if self.machine else 0.0

    def aggregate_stats(self) -> RunStats:
        """All tenants' counters folded into one record via ``merge``."""
        return RunStats.merged(
            [self.runtimes[t].stats for t in sorted(self.runtimes)]
        )

    def queueing_delays(self, tenant_id: Optional[int] = None) -> List[float]:
        """Delays of completed jobs, optionally for one tenant."""
        return [
            job.queueing_delay
            for job in self.completed
            if tenant_id is None or job.tenant_id == tenant_id
        ]

    # -- the serving loop ---------------------------------------------------

    def submit(
        self,
        tenant_id: int,
        work: Callable[[TenantRuntime], None],
        *,
        cost: float = 1.0,
        arrival: Optional[float] = None,
        strict: bool = True,
    ) -> Optional[Job]:
        """Admit and enqueue one job for a tenant.

        ``strict=True`` raises :class:`~repro.errors.AdmissionError`
        (reason ``SERVE_QUEUE_FULL``) when the tenant's bounded queue is
        full; ``strict=False`` sheds the job instead (returns None, the
        shed is counted) — the open-loop benchmark's behaviour, where no
        client is waiting on the exception. ``arrival`` defaults to the
        current simulated time and feeds queueing-delay accounting.
        """
        self.api(tenant_id)  # validates the id
        pending = self.scheduler.pending(tenant_id)
        if strict:
            self.admission.require(tenant_id, pending)
        elif not self.admission.try_admit(tenant_id, pending):
            return None
        job = Job(
            job_id=next(self._job_ids),
            tenant_id=tenant_id,
            work=work,
            cost=cost,
            arrival=self.now if arrival is None else arrival,
        )
        self.scheduler.enqueue(job)
        return job

    def _trace(self):
        return self.machine.trace if self.machine is not None else None

    def step(self) -> Optional[Job]:
        """Service the next WDRR pick; None when every queue is empty."""
        job = self.scheduler.next_job()
        if job is None:
            return None
        api = self.runtimes[job.tenant_id]
        trace = self._trace()
        job.service_start = self.now
        if trace is not None:
            trace.current_tenant = job.tenant_id
        try:
            job.work(api)
        finally:
            if trace is not None:
                trace.current_tenant = None
        job.service_end = self.now
        self.completed.append(job)
        self.serviced_cost[job.tenant_id] += job.cost
        return job

    def drain(self) -> None:
        """Service every queued job."""
        while self.step() is not None:
            pass
