"""The memos' invisibility sweeps behind ``repro bench overhead``.

``repro bench overhead`` prints the paper's single-GPU slowdown table
(§9.2). It then self-checks that the staged planner's memos
(docs/performance.md) are invisible, through two
:func:`~repro.harness.identity.identity_sweep` matrices whose oracle is a
``RuntimeConfig.debug_audit`` run — every memo hit recomputed and compared
in place: :func:`cache_sweep` (the shipped run against the audit) and
:func:`mutation_sweep` (replay under direct mid-loop buffer mutations,
which must change the footprint digest).

Host time per launch stage is measured by the ledger (``bench/run.py
--traced``) with the machine attached, not here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.pipeline import compile_app
from repro.harness.identity import FACETS, Observation, identity_sweep, observe
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS

__all__ = ["cache_sweep", "mutation_sweep"]


def cache_sweep(
    n_gpus: int = 4,
    windows: Sequence[int] = (1, 4),
    schedules: Optional[Sequence[str]] = None,
    cluster_shape: Optional[Tuple[int, int]] = (2, 2),
) -> List[str]:
    """Prove the memos invisible against the audit; returns failure strings.

    Every ``schedule x shared_copies x pipeline_window`` cell runs
    functional hotspot on a flat simulated node and, by default, on a 2x2
    cluster, twice: under ``debug_audit`` (the oracle) and as shipped. The
    two must agree on every facet, stats unmasked.
    """
    from repro.cluster.engine import ClusterSimMachine
    from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
    from repro.sched.policy import SCHEDULES
    from repro.sim.engine import SimMachine
    from repro.workloads import functional_config

    if schedules is None:
        schedules = list(SCHEDULES) + ["auto"]
    wl = ALL_WORKLOADS["hotspot"](functional_config("hotspot"))
    inputs = wl.make_inputs(seed=0)
    app = compile_app(wl.build_kernels())

    machines = {"flat": lambda: SimMachine(K80_NODE_SPEC.with_gpus(n_gpus))}
    if cluster_shape is not None:
        nodes, gpn = cluster_shape
        if nodes * gpn != n_gpus:
            raise ValueError(f"cluster shape {nodes}x{gpn} must total n_gpus={n_gpus}")
        machines[f"{nodes}x{gpn}"] = lambda: ClusterSimMachine(k80_cluster(nodes, gpn))

    def run(topology, schedule, shared_copies, window) -> Dict[str, Observation]:
        runs = {}
        for mode, audit in (("audit", True), ("cached", False)):
            cfg = RuntimeConfig(
                n_gpus=n_gpus,
                schedule=schedule,
                shared_copies=shared_copies,
                pipeline_window=window,
                debug_audit=audit,
            )
            api = MultiGpuApi(app, cfg, machine=machines[topology]())
            runs[mode] = observe(api, wl.run(api, inputs))
        return runs

    cells = [
        dict(topology=t, schedule=s, shared_copies=sh, window=w)
        for t in machines
        for s in schedules
        for sh in (False, True)
        for w in windows
    ]
    return identity_sweep(run, cells, FACETS)


def _mutated_hotspot_run(
    api: MultiGpuApi, kernel, n: int, iterations: int, temp, mutate: bool
):
    """A hotspot ping-pong loop punctuated with direct tracker mutations.

    When ``mutate`` is set, iteration boundaries inject the three
    operations that bypass the launch path yet change coherence state: a
    device memset of the next input's first half, a host-to-device
    re-upload, and a free + fresh allocation of the next output buffer.
    Each invalidates the footprint digest the replay cache keys on, so a
    replayed residual can never be served across one.
    """
    from repro.cuda.api import MemcpyKind
    from repro.cuda.dim3 import Dim3
    from repro.workloads.hotspot import BLOCK

    nbytes = n * n * 4
    blocks = -(-n // BLOCK.x)
    grid = Dim3(x=blocks, y=blocks)
    d_a = api.cudaMalloc(nbytes)
    d_b = api.cudaMalloc(nbytes)
    api.cudaMemcpy(d_a, temp, nbytes, MemcpyKind.HostToDevice)
    third = max(1, iterations // 4)
    for i in range(iterations):
        api.launch(kernel, grid, BLOCK, [d_a, d_b])
        d_a, d_b = d_b, d_a
        if mutate:
            if i == third:
                api.cudaMemset(d_a, 0, nbytes // 2)
            elif i == 2 * third:
                api.cudaMemcpy(d_a, temp, nbytes, MemcpyKind.HostToDevice)
            elif i == 3 * third:
                api.cudaFree(d_b)
                d_b = api.cudaMalloc(nbytes)
    out = np.empty((n, n), dtype=np.float32)
    api.cudaMemcpy(out, d_a, nbytes, MemcpyKind.DeviceToHost)
    api.cudaDeviceSynchronize()
    return out


def mutation_sweep(
    n_gpus: int = 4,
    size: int = 128,
    iterations: int = 12,
    schedules: Sequence[str] = ("sequential", "overlap"),
) -> List[str]:
    """Adversarial replay soundness: direct mutations must miss, bitwise.

    For each schedule, a hotspot loop interleaved with cudaMemset, H2D
    memcpy and cudaFree/cudaMalloc runs under ``debug_audit`` (the oracle,
    which raises at the first stale replay) and as shipped. The two must
    agree on every facet. The shipped run's counters must also show that
    the mutations *changed the digest*. They must force strictly more
    residual-cache misses than an unmutated loop, while steady-state
    iterations between mutations still replay.
    """
    from repro.harness.calibration import K80_NODE_SPEC
    from repro.sim.engine import SimMachine
    from repro.workloads.hotspot import build_hotspot_kernel

    kernel = build_hotspot_kernel(size)
    app = compile_app([kernel])
    temp = np.random.default_rng(7).random((size, size), dtype=np.float32)

    def loop(schedule: str, audit: bool, mutate: bool) -> Observation:
        cfg = RuntimeConfig(n_gpus=n_gpus, schedule=schedule, debug_audit=audit)
        api = MultiGpuApi(app, cfg, machine=SimMachine(K80_NODE_SPEC.with_gpus(n_gpus)))
        out = _mutated_hotspot_run(api, kernel, size, iterations, temp, mutate)
        return observe(api, {"out": out})

    def run(schedule) -> Dict[str, Observation]:
        return {
            "audit": loop(schedule, True, True),
            "replay": loop(schedule, False, True),
        }

    def digest_misses(cell, runs) -> List[str]:
        (replayed,) = runs["replay"].stats
        (clean,) = loop(cell["schedule"], False, False).stats
        where = f"hotspot-mutated schedule={cell['schedule']}"
        failures = []
        if replayed["residual_cache_misses"] <= clean["residual_cache_misses"]:
            failures.append(
                f"digest: mutations left residual-cache misses at "
                f"{replayed['residual_cache_misses']} (unmutated loop: "
                f"{clean['residual_cache_misses']}) at {where}; every direct "
                "mutation must change the footprint digest"
            )
        if replayed["residual_cache_hits"] == 0:
            failures.append(f"digest: mutated loop never replayed between mutations at {where}")
        return failures

    cells = [dict(schedule=s) for s in schedules]
    return identity_sweep(run, cells, FACETS, check=digest_misses)
