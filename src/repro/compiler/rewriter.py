"""The source-to-source host-code rewriter (paper §5).

The paper transforms CUDA host code with plain-text regular-expression
substitutions (a lua preprocessor): "This allows for a simple implementation
at the cost of not supporting all possible CUDA applications." This module
reproduces that component for CUDA-C-like host source. Three substitution
types are made, exactly as in §5:

1. information inserted at the very top of the source file (runtime header,
   application-model registration);
2. CUDA API calls replaced by multi-GPU primitives with identical
   prototypes (§8.4);
3. kernel launches ``k<<<grid, block>>>(args)`` expanded to the runtime's
   partitioned-launch primitive, which performs the four tasks of Figure 4.

Python host programs don't need this pass (they receive the runtime API
object directly); the rewriter exists because the paper's pipeline has it,
and it is exercised by the compile-time benchmark and the rewriter demo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import RewriteError

__all__ = ["RewriteResult", "rewrite_source", "API_REPLACEMENTS"]

#: CUDA Runtime API entry points and their multi-GPU replacements (§8.4).
API_REPLACEMENTS = {
    "cudaMalloc": "mgpuMalloc",
    "cudaFree": "mgpuFree",
    "cudaMemcpyAsync": "mgpuMemcpyAsync",
    "cudaMemcpy": "mgpuMemcpy",
    "cudaDeviceSynchronize": "mgpuDeviceSynchronize",
    "cudaGetDeviceCount": "mgpuGetDeviceCount",
}

_HEADER = (
    '#include "mgpu_runtime.h"\n'
    'MGPU_REGISTER_MODEL("{model}");\n'
)

_LAUNCH_RE = re.compile(
    r"(?P<name>[A-Za-z_]\w*)\s*<<<\s*(?P<grid>[^,>]+)\s*,\s*(?P<block>[^>]+?)\s*>>>"
    r"\s*\((?P<args>[^;]*)\)\s*;"
)


@dataclass
class RewriteResult:
    """Rewritten source plus per-substitution-type statistics."""

    source: str
    header_insertions: int = 0
    api_substitutions: Dict[str, int] = field(default_factory=dict)
    launch_substitutions: List[str] = field(default_factory=list)


def rewrite_source(
    source: str,
    *,
    model_path: str = "app_model.json",
    kernel_names: Optional[Sequence[str]] = None,
) -> RewriteResult:
    """Apply the three substitution classes to CUDA-like host source."""
    if "<<<" in source and ">>>" not in source:
        raise RewriteError("malformed kernel launch: '<<<' without matching '>>>'")

    result = RewriteResult(source="")
    out = source

    # Substitution type 3: kernel launches (done before renames so the
    # launch arguments keep their original spelling inside MGPU_ARGS).
    def replace_launch(m: re.Match) -> str:
        name = m.group("name")
        if kernel_names is not None and name not in kernel_names:
            raise RewriteError(
                f"launch of unknown kernel {name!r} (expected one of {sorted(kernel_names)})"
            )
        grid = m.group("grid").strip()
        block = m.group("block").strip()
        args = m.group("args").strip()
        result.launch_substitutions.append(name)
        return (
            f'mgpuLaunchKernel("{name}", {grid}, {block}, '
            f"MGPU_ARGS({args}));"
        )

    out = _LAUNCH_RE.sub(replace_launch, out)
    if "<<<" in out:
        raise RewriteError("unrewritten kernel launch remains (unsupported syntax)")

    # Substitution type 2: API renames.
    for cuda_name, mgpu_name in API_REPLACEMENTS.items():
        pattern = re.compile(rf"\b{re.escape(cuda_name)}\b")
        out, n = pattern.subn(mgpu_name, out)
        if n:
            result.api_substitutions[cuda_name] = n

    # Substitution type 1: top-of-file insertion.
    header = _HEADER.format(model=model_path)
    out = header + out
    result.header_insertions = 1

    result.source = out
    return result
