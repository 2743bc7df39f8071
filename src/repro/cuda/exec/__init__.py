"""Execution of mini-CUDA kernels as rendered, lane-vectorized numpy programs."""

from repro.cuda.exec.interpreter import AccessTrace, eval_scalar_expr, run_kernel

__all__ = ["run_kernel", "eval_scalar_expr", "AccessTrace"]
