#!/usr/bin/env python3
"""Domain example: the paper's N-Body benchmark end to end.

Runs the direct gravitational simulation (§9.1) functionally on simulated
GPUs — verifying the multi-GPU run is bit-identical to the single-GPU
reference — and then reproduces its speedup curve on the timed K80 node
(the paper's best-scaling workload: 12.4x at 16 GPUs).

Run:  python examples/multi_gpu_nbody.py
"""

import numpy as np

from repro.compiler import compile_app
from repro.cuda.api import CudaApi
from repro.harness.experiments import reference_time, run_timed
from repro.runtime import MultiGpuApi, RuntimeConfig
from repro.workloads.common import ProblemConfig
from repro.workloads.nbody import NBodyWorkload


def main():
    # --- functional validation at a laptop-friendly size -----------------
    cfg = ProblemConfig("nbody", "functional", 256, 4)
    workload = NBodyWorkload(cfg)
    inputs = workload.make_inputs(seed=42)

    print(f"N-Body: {cfg.size} bodies, {cfg.iterations} steps (functional check)")
    reference = workload.run(CudaApi(), inputs)

    app = compile_app(workload.build_kernels())
    ck = app.kernel("nbody")
    print(f"  partition axis: {ck.strategy.axis!r}; "
          f"runtime coverage validation: {ck.model.runtime_coverage}")

    for n_gpus in (2, 4, 8):
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus))
        result = workload.run(api, inputs)
        assert np.array_equal(result["pos"], reference["pos"])
        assert np.array_equal(result["vel"], reference["vel"])
        gathered = api.stats.sync_bytes / 1024
        print(f"  {n_gpus} GPUs: bitwise equal; per-run gathers {gathered:.0f} KiB "
              f"of positions (the per-step all-gather)")

    # --- timed speedup curve at a paper-scale size ------------------------
    print("\nSimulated speedup (paper Figure 6, N-Body):")
    timed_cfg = ProblemConfig("nbody", "medium", 131_072, 96)
    ref = reference_time(timed_cfg)
    print(f"  single-GPU reference: {ref:7.2f} s (simulated)")
    for n_gpus in (2, 4, 8, 16):
        elapsed, _ = run_timed(timed_cfg, RuntimeConfig(n_gpus=n_gpus))
        print(f"  {n_gpus:2d} GPUs: {elapsed:7.2f} s   speedup {ref / elapsed:5.2f}x")
    print("\n(The paper reports up to 12.4x at 16 GPUs for the large problem.)")


if __name__ == "__main__":
    main()
