"""The paper's reported numbers, for paper-vs-measured comparisons.

Every value is read off the text or the figures of the paper; figure-derived
values are approximate (the paper prints no tables for Figures 6-8).
"""

from __future__ import annotations

__all__ = [
    "TABLE1",
    "MAX_SPEEDUP",
    "MAX_SPEEDUP_GPUS",
    "OVERHEAD_PERCENTILES",
    "SINGLE_GPU_SLOWDOWN",
    "COMPILE_TIME_RATIO",
    "NON_TRANSFER_OVERHEAD_MAX",
]

#: §9.1 / Table 1: (benchmark, small, medium, large, iterations).
TABLE1 = (
    ("hotspot", 8192, 16384, 36864, "1500"),
    ("nbody", 65536, 131072, 327680, "96"),
    ("matmul", 8192, 16384, 30656, "N/A"),
)

#: §9.1 / Figure 6: maximum speedup per workload (best size).
MAX_SPEEDUP = {"hotspot": 7.1, "nbody": 12.4, "matmul": 6.3}

#: §9.1: GPU count at which the maximum speedup is reached.
MAX_SPEEDUP_GPUS = {"hotspot": 14, "nbody": 16, "matmul": 14}

#: §9.2 / Figure 8: non-transfer overhead fraction percentiles over all
#: measurements (25th, median, 75th).
OVERHEAD_PERCENTILES = {"p25": 0.00001, "median": 0.0051, "p75": 0.035}

#: §9.2: maximum non-transfer overhead over all measurements.
NON_TRANSFER_OVERHEAD_MAX = 0.068

#: §9.2: slowdown of the partitioned binary on a single GPU
#: (25th percentile, median, 75th percentile).
SINGLE_GPU_SLOWDOWN = {"p25": 0.0013, "median": 0.021, "p75": 0.031}

#: §3: compile-time increase of the two-pass pipeline.
COMPILE_TIME_RATIO = (1.9, 2.2)
