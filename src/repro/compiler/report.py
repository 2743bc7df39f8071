"""Human-readable compilation reports.

``describe_app`` renders everything the pipeline derived for an application
— kernels, access maps, strategies, legality verdicts, generated enumerator
sources — as markdown-ish text. Used by ``python -m repro analyze
--verbose`` and handy when debugging why a kernel was rejected.
"""

from __future__ import annotations

from typing import List

from repro.compiler.pipeline import CompiledApp, CompiledKernel
from repro.cuda.ir.printer import kernel_to_cuda

__all__ = ["describe_app", "describe_kernel"]


def describe_kernel(app: CompiledApp, ck: CompiledKernel, *, sources: bool = False) -> str:
    """One kernel's section of the compile report."""
    lines: List[str] = []
    lines.append(f"## kernel `{ck.kernel.name}`")
    lines.append("")
    lines.append("```cuda")
    lines.append(kernel_to_cuda(ck.kernel).rstrip())
    lines.append("```")
    lines.append("")
    if not ck.partitionable:
        lines.append(f"**NOT partitionable** — {ck.model.reject_reason}")
        lines.append("(launches fall back to single-GPU execution)")
        return "\n".join(lines)

    lines.append(f"- partition strategy: contiguous block split along axis "
                 f"`{ck.strategy.axis}`")
    if ck.model.unit_axes:
        lines.append(
            f"- launch requirement: unit extent on axes {list(ck.model.unit_axes)} "
            "(write maps do not distinguish them)"
        )
    if ck.model.runtime_coverage:
        lines.append("- write-scan exactness validated per launch (flat subscripts)")
    lines.append("")
    lines.append("| argument | kind | access maps |")
    lines.append("|---|---|---|")
    for arg in ck.model.args:
        if arg.kind == "scalar":
            lines.append(f"| `{arg.name}` | scalar `{arg.dtype}` | — |")
            continue
        cells = []
        if arg.read:
            exact = "" if arg.read.exact else " *(over-approx)*"
            cells.append(f"read{exact}: `{arg.read.map_str}`")
        if arg.write:
            exact = "" if arg.write.exact else " *(validated at launch)*"
            cells.append(f"write{exact}: `{arg.write.map_str}`")
        lines.append(
            f"| `{arg.name}` | array `{arg.dtype}[{', '.join(arg.shape)}]` | "
            + "<br>".join(cells or ["(unused)"])
            + " |"
        )

    if sources:
        lines.append("")
        lines.append("### generated enumerators (§6)")
        for mode in ("read", "write"):
            for enum in app.enumerators.for_kernel(ck.kernel.name, mode):
                lines.append("")
                lines.append(f"`{enum.name}` (exact={enum.exact}):")
                lines.append("```python")
                lines.append(enum.program.fn.__poly_source__.rstrip())
                lines.append("```")
    return "\n".join(lines)


def describe_app(app: CompiledApp, *, sources: bool = False) -> str:
    """The full compile report for an application."""
    lines = [
        "# compile report",
        "",
        f"- kernels: {len(app.kernels)}"
        f" ({sum(1 for k in app.kernels.values() if k.partitionable)} partitionable)",
        f"- enumerators generated: {len(app.enumerators)}",
        f"- pipeline wall time: pass1 {app.timings.pass1 * 1e3:.1f} ms, "
        f"rewrite {app.timings.rewrite * 1e3:.1f} ms, "
        f"pass2 {app.timings.pass2 * 1e3:.1f} ms",
        "",
    ]
    for name in sorted(app.kernels):
        lines.append(describe_kernel(app, app.kernels[name], sources=sources))
        lines.append("")
    return "\n".join(lines)
