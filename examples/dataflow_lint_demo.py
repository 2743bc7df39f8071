#!/usr/bin/env python3
"""Tour of the cross-launch dataflow analyzer (`repro lint --dataflow`).

Three transfer pathologies, one lint code each:

1. `RP601` redundant re-transfer — the decimating stencil's read-only
   source is re-shipped every launch under sole-owner tracking, although
   the destination still holds a valid copy of the halo rows.
2. `RP602` bounding-range over-approximation — the same stencil's strided
   column reads (`src[gy, 2*gx]`) survive Fourier-Motzkin projection only
   as an inexact per-row bounding range, so every halo transfer ships ~50%
   slack bytes the partition provably never reads.
3. `RP603` false cross-launch serialization — a column-gather kernel whose
   128 single-element column reads blow the dataflow log's 64-run event
   cap; the capped read envelope overlaps every partition's writes even
   though the exact sets are disjoint, so the scheduler
   serializes launches that are actually independent.

The demo then shows the remedy twice over: modelling
`irredundant_transfers` in the linter empties the RP601/RP602 report, and
enabling it on a real run cuts measured traffic with bitwise-identical
results. Identical diagnostics across partitions are deduplicated into one
record with a `[N partitions]` suffix.

Run:  python examples/dataflow_lint_demo.py
"""

import json

import numpy as np

from repro.analysis import lint_kernels, render_json, render_text, validate_report_json
from repro.compiler.pipeline import compile_app
from repro.cuda import f32
from repro.cuda.ir import KernelBuilder
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads.common import functional_config
from repro.workloads.dstencil import DStencilWorkload

PASSES = ["partitionability", "races", "bounds", "dataflow"]


def column_gather_kernel(n=128, m=16):
    """Reads column 0 of every row, writes columns >= 1 of its own row.

    No cell is both read and written, so consecutive launches are truly
    independent — but the n single-element column reads exceed the event
    cap and collapse to a whole-array envelope (RP603).
    """
    kb = KernelBuilder("column_gather")
    a = kb.array("a", f32, (n, m))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < n) & (gx < m - 1)):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("j", 0, n) as j:
            kb.assign(acc, acc + a[j, 0])
        a[gy, gx + 1] = acc
    return kb.finish()


def main():
    stencil = DStencilWorkload(functional_config("dstencil"))
    grid, block = stencil.launch_config()

    print("=== 1/2: RP601 + RP602 on the decimating stencil ===")
    report = lint_kernels([stencil.kernel], grid=grid, block=block, passes=PASSES)
    print(render_text(report))
    validate_report_json(json.loads(render_json(report)))
    codes = {d.code for d in report.diagnostics}
    assert {"RP601", "RP602"} <= codes, codes

    print("=== same kernel, irredundant transfers modelled: clean ===")
    remedied = lint_kernels(
        [stencil.kernel], grid=grid, block=block, passes=PASSES, irredundant=True
    )
    print(render_text(remedied))
    assert not {"RP601", "RP602"} & {d.code for d in remedied.diagnostics}

    print("=== 3: RP603 on the column gather (note the [N partitions] dedup) ===")
    report = lint_kernels([column_gather_kernel()], grid=(1, 8), block=(16, 16), passes=PASSES)
    print(render_text(report))
    (serial,) = [d for d in report.deduplicated() if d.code == "RP603"]
    assert len(serial.witness["partitions"]) == 4, serial.witness

    print("=== the remedy, measured: repro run --irredundant-transfers ===")
    app = compile_app([stencil.kernel])
    inputs = stencil.make_inputs(seed=0)
    results = {}
    for irr in (False, True):
        api = MultiGpuApi(
            app, RuntimeConfig(n_gpus=4, shared_copies=True, irredundant_transfers=irr)
        )
        out = stencil.run(api, inputs)["out"]
        results[irr] = out
        label = "irredundant" if irr else "bounding   "
        print(
            f"{label}: {api.stats.sync_bytes} sync bytes "
            f"({api.stats.overapprox_bytes_avoided} slack trimmed, "
            f"{api.stats.redundant_bytes_avoided} redundant avoided)"
        )
    assert np.array_equal(results[False], results[True])
    print("bitwise-identical results; slack bytes were provably never read")


if __name__ == "__main__":
    main()
