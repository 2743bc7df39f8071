"""The two-pass compilation driver (paper §3).

The paper drives gpucc twice: pass 1 only extracts the memory-behaviour
models (all other results are discarded); after the source-to-source
rewriter runs, pass 2 compiles the transformed application, generates the
communication code (enumerators), creates the partitioned kernel clones and
links against the runtime library. "This repeated invocation of gpucc
introduces redundant work, resulting in a compile time increase from 1.9x -
2.2x for the tested applications" — the compile-time benchmark reproduces
that ratio against :func:`baseline_compile`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.compiler.access_analysis import KernelAccessInfo, analyze_kernel
from repro.compiler.enumerators import EnumeratorTable
from repro.compiler.kernel_partition import partition_kernel
from repro.compiler.legality import check_partitionable
from repro.compiler.model import AppModel, KernelModel
from repro.compiler.rewriter import RewriteResult, rewrite_source
from repro.compiler.strategy import PartitionStrategy, choose_strategy
from repro.cuda.ir.kernel import Kernel
from repro.cuda.ir.printer import kernel_to_cuda
from repro.cuda.ir.validate import validate_kernel
from repro.errors import PartitioningError, format_with_code

__all__ = ["PipelineTimings", "CompiledKernel", "CompiledApp", "compile_app", "baseline_compile"]


@dataclass
class PipelineTimings:
    """Wall-clock seconds of the pipeline stages."""

    pass1: float = 0.0
    rewrite: float = 0.0
    pass2: float = 0.0

    @property
    def total(self) -> float:
        return self.pass1 + self.rewrite + self.pass2


@dataclass
class CompiledKernel:
    """Everything the runtime needs about one kernel."""

    kernel: Kernel
    info: KernelAccessInfo
    model: KernelModel
    strategy: PartitionStrategy
    partitioned: Optional[Kernel]  # None when the kernel was rejected

    @property
    def partitionable(self) -> bool:
        return self.partitioned is not None


@dataclass
class CompiledApp:
    """Result of the full pipeline: the multi-GPU application image."""

    kernels: Dict[str, CompiledKernel]
    model: AppModel
    enumerators: EnumeratorTable
    timings: PipelineTimings
    rewrite_result: Optional[RewriteResult] = None

    def kernel(self, name: str) -> CompiledKernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise PartitioningError(f"application has no kernel {name!r}") from None


def baseline_compile(kernels: Sequence[Kernel]) -> float:
    """Stand-in for a plain (single-GPU) gpucc compile; returns seconds.

    Performs the device-side work a normal compile does in this
    reproduction: IR validation and code emission — but no polyhedral
    analysis, no partitioning, no enumerator generation.
    """
    start = time.perf_counter()
    for k in kernels:
        validate_kernel(k)
        kernel_to_cuda(k)
    return time.perf_counter() - start


def compile_app(
    kernels: Sequence[Kernel],
    *,
    host_source: Optional[str] = None,
    model_path: Optional[Union[str, Path]] = None,
    block_dim: Optional[Tuple[int, int, int]] = None,
    write_annotations: Optional[Dict[str, Dict[str, str]]] = None,
) -> CompiledApp:
    """Run the full two-pass pipeline on an application's kernels.

    Args:
        kernels: the application's kernels (pre-partitioning).
        host_source: optional CUDA-like host source to rewrite (§5); Python
            host programs skip this and bind the runtime API directly.
        model_path: where pass 1 saves the application model JSON.
        block_dim: concrete block size for the injectivity fallback check.
        write_annotations: programmer-supplied write maps in isl notation,
            ``{kernel_name: {array_name: map_text}}`` (paper §11; see
            :mod:`repro.compiler.annotations`).
    """
    from repro.compiler.annotations import apply_annotations

    timings = PipelineTimings()

    def annotate(info: KernelAccessInfo) -> KernelAccessInfo:
        if write_annotations and info.kernel.name in write_annotations:
            apply_annotations(info, write_annotations[info.kernel.name])
        return info

    # ---- pass 1: analysis only; everything else is discarded (§3) ----
    start = time.perf_counter()
    model = AppModel()
    for k in kernels:
        validate_kernel(k)
        kernel_to_cuda(k)  # the discarded device compile work
        info = annotate(analyze_kernel(k))
        strategy = choose_strategy(info)
        partitionable = True
        reason = None
        unit_axes: frozenset = frozenset()
        needs_coverage = False
        try:
            unit_axes, needs_coverage = check_partitionable(info, block_dim=block_dim)
        except PartitioningError as exc:
            partitionable = False
            reason = format_with_code(exc)
        model.add(
            KernelModel.from_analysis(
                info,
                strategy,
                partitionable=partitionable,
                reject_reason=reason,
                unit_axes=tuple(sorted(unit_axes)),
                runtime_coverage=needs_coverage,
            )
        )
    if model_path is not None:
        model.save(model_path)
    timings.pass1 = time.perf_counter() - start

    # ---- source-to-source rewrite (§5) ----
    start = time.perf_counter()
    rewrite_result = None
    if host_source is not None:
        rewrite_result = rewrite_source(
            host_source,
            model_path=str(model_path) if model_path else "app_model.json",
            kernel_names=[k.name for k in kernels],
        )
    timings.rewrite = time.perf_counter() - start

    # ---- pass 2: partitioning, communication codegen, linking (§3) ----
    start = time.perf_counter()
    compiled: Dict[str, CompiledKernel] = {}
    table = EnumeratorTable()
    for k in kernels:
        validate_kernel(k)
        kernel_to_cuda(k)
        info = annotate(analyze_kernel(k))  # the paper's "redundant work"
        km = model.get(k.name)
        strategy = km.strategy()
        partitioned: Optional[Kernel] = None
        if km.partitionable:
            partitioned = partition_kernel(k)
            kernel_table = EnumeratorTable.build(info)
            for key, enum in kernel_table._table.items():
                table._table[key] = enum
        compiled[k.name] = CompiledKernel(
            kernel=k, info=info, model=km, strategy=strategy, partitioned=partitioned
        )
    timings.pass2 = time.perf_counter() - start

    return CompiledApp(
        kernels=compiled,
        model=model,
        enumerators=table,
        timings=timings,
        rewrite_result=rewrite_result,
    )
