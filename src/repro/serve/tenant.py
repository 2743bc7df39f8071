"""Per-tenant runtimes: namespaced views of one shared machine.

Every tenant gets its own :class:`TenantRuntime` — a full
:class:`~repro.runtime.api.MultiGpuApi` with its own virtual buffers,
trackers, stats and (optionally overridden) config — all issuing
onto the *same* simulated machine. Isolation across tenants reduces to id
namespacing: virtual-buffer ids and launch indices are drawn from
tenant-qualified counters, so the shared
:class:`~repro.sched.executor.DataflowLog` (keyed by ``(vb_id, dev)``) and
the per-launch trace attribution can never alias two tenants' state.

Tenant 0's namespace is *exactly* the default single-job namespace
(``vb_ids`` from 1, launch indices from 0), which is what makes a single
tenant through the serve path bitwise- and trace-identical to the direct
``api.run`` path — the identity the serve tests pin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.compiler.pipeline import CompiledApp
from repro.cuda.api import KernelCostFn
from repro.errors import ServeError
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.memo import Memo
from repro.sched.executor import DataflowLog
from repro.sim.engine import SimMachine

__all__ = ["VB_NAMESPACE", "LAUNCH_NAMESPACE", "TenantSpec", "TenantRuntime"]

#: Stride between tenants' virtual-buffer id ranges. A tenant allocating
#: this many buffers in one run would collide with its neighbour; 2^24
#: buffers is far beyond any workload here (allocation itself would OOM
#: first), and the ids stay comfortably inside an int64.
VB_NAMESPACE = 1 << 24

#: Stride between tenants' launch-index ranges (same reasoning).
LAUNCH_NAMESPACE = 1 << 24


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant in a serving runtime.

    ``weight`` steers the fair-share scheduler: under saturation a tenant
    receives service in proportion to its weight. ``config`` overrides the
    serve runtime's base :class:`~repro.runtime.config.RuntimeConfig` for
    this tenant only (e.g. a different schedule or pipeline window); the
    GPU count must match the shared machine and therefore cannot vary per
    tenant.
    """

    tenant_id: int
    weight: float = 1.0
    config: Optional[RuntimeConfig] = None

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ServeError(f"tenant_id must be non-negative, got {self.tenant_id}")
        if not (self.weight > 0):
            raise ServeError(
                f"tenant {self.tenant_id}: weight must be positive, got {self.weight}"
            )


class TenantRuntime(MultiGpuApi):
    """One tenant's CUDA-replacement API on a shared machine.

    Behaves exactly like :class:`~repro.runtime.api.MultiGpuApi` — same
    orchestration, same stats — except that

    * virtual-buffer ids come from ``tenant_id * VB_NAMESPACE + 1`` up,
    * launch indices come from ``tenant_id * LAUNCH_NAMESPACE`` up,
    * the cross-launch :class:`~repro.sched.executor.DataflowLog` may be a
      *shared* instance handed in by the serve runtime: because its keys
      embed the namespaced buffer ids, tenants' dependency records live in
      disjoint key ranges of one log,
    * the plan-skeleton memo may likewise be a shared
      :class:`~repro.memo.Memo`: skeletons are
      fingerprint-determined and buffer-free, so N tenants running the
      same kernels enumerate and partition once between them. The residual
      replay cache is *never* shared — residuals encode one runtime's
      coherence state.

    For ``tenant_id=0`` both counters degenerate to the defaults, so a
    lone tenant reproduces the single-job runtime exactly.
    """

    def __init__(
        self,
        tenant_id: int,
        app: CompiledApp,
        config: RuntimeConfig,
        *,
        machine: Optional[SimMachine] = None,
        functional: bool = True,
        kernel_cost: Optional[KernelCostFn] = None,
        dataflow: Optional[DataflowLog] = None,
        plan_cache: Optional[Memo] = None,
    ) -> None:
        if tenant_id < 0:
            raise ServeError(f"tenant_id must be non-negative, got {tenant_id}")
        super().__init__(
            app, config, machine=machine, functional=functional, kernel_cost=kernel_cost
        )
        self.tenant_id = tenant_id
        if tenant_id:
            self._vb_ids = itertools.count(tenant_id * VB_NAMESPACE + 1)
            self._launch_counter = itertools.count(tenant_id * LAUNCH_NAMESPACE)
        if dataflow is not None:
            self.dataflow = dataflow
        if plan_cache is not None:
            self.plan_cache = plan_cache
