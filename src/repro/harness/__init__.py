"""``repro.harness`` — experiment drivers for the paper's evaluation (§9)."""

from repro.harness.calibration import K80_NODE_SPEC, GPU_COUNTS
from repro.harness.experiments import (
    run_timed,
    reference_time,
    figure6,
    figure7,
    figure8,
    single_gpu_overhead,
    compile_time_ratio,
    table1_rows,
)
from repro.harness.identity import Observation, identity_sweep, observe

__all__ = [
    "K80_NODE_SPEC",
    "GPU_COUNTS",
    "run_timed",
    "reference_time",
    "figure6",
    "figure7",
    "figure8",
    "single_gpu_overhead",
    "compile_time_ratio",
    "table1_rows",
    "Observation",
    "identity_sweep",
    "observe",
]
