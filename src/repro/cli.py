"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``   compile a workload's kernel and print its application model
              (CUDA-like source, access maps, strategy, legality verdict).
``lint``      run the static-analysis passes (races, bounds,
              partitionability) over workloads and report diagnostics.
``run``       run a workload functionally on N simulated GPUs and check the
              result bitwise against the single-GPU reference.
``bench``     regenerate the paper's evaluation on the simulated K80 node
              (figure6 | figure7 | figure8 | table1 | overhead) or run a
              self-checking study (schedules | cluster | redundancy |
              pipeline | serve | taskgraph). Every experiment is one entry
              of the :mod:`repro.harness.benches` registry, with its own
              flags (``repro bench <name> -h``), ``--json [PATH]`` and, for
              the self-checking studies, exit status 1 on a failed check.

``run --schedule {sequential,overlap,overlap+p2p,auto}`` picks the
launch-scheduler policy (docs/scheduler.md); ``--shared-copies``,
``--pipeline-window N`` and ``--irredundant-transfers`` turn on shared-copy
coherence, halo-first cluster copies (N > 1) and exact-read-set copies. ``run --json``
writes the run's stats, including the staged-planner counters.
``machine``   show the calibrated machine model.

Exit codes: 0 success; 1 lint findings at/above the ``--fail-on`` threshold
or a result mismatch; every :class:`repro.errors.ReproError` subclass maps
to its own distinct code (see ``errors.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi
from repro.errors import ReproError, exit_code_for
from repro.cuda.ir.printer import kernel_to_cuda
from repro.harness.benches import BENCHES, FLAGS as BENCH_FLAGS, run_bench
from repro.harness.calibration import K80_NODE_SPEC
from repro.harness.report import format_table, write_json_report
from repro.runtime.api import MultiGpuApi, host_planner_counters
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config

__all__ = ["main"]

#: Everything ``analyze``/``lint``/``run`` accept: the paper's Table 1 set
#: plus the extra study workloads (the bench tables stay Table-1-only).
RUNNABLE_WORKLOADS = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}


def _cmd_analyze(args: argparse.Namespace) -> int:
    workload = RUNNABLE_WORKLOADS[args.workload](functional_config(args.workload, size=args.size))
    kernels = workload.build_kernels()
    app = compile_app(kernels, model_path=args.model_out)
    if args.verbose:
        from repro.compiler.report import describe_app

        print(describe_app(app, sources=True))
        if args.model_out:
            print(f"\napplication model written to {args.model_out}")
        return 0
    for kernel in kernels:
        ck = app.kernel(kernel.name)
        print(kernel_to_cuda(kernel))
        print(f"partitionable:    {ck.partitionable}")
        if not ck.partitionable:
            print(f"reject reason:    {ck.model.reject_reason}")
            continue
        print(f"strategy:         split along grid axis {ck.strategy.axis!r}")
        print(f"unit axes:        {ck.model.unit_axes or '(none)'}")
        print(f"runtime coverage: {ck.model.runtime_coverage}")
        for arg in ck.model.args:
            if arg.kind != "array":
                continue
            if arg.read:
                print(f"  read  {arg.name}: {arg.read.map_str}")
            if arg.write:
                print(f"  write {arg.name}: {arg.write.map_str}")
    if args.model_out:
        print(f"\napplication model written to {args.model_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintReport, Severity, lint_kernels, render_json, render_text

    names = args.workloads or sorted(ALL_WORKLOADS)
    unknown = [n for n in names if n not in RUNNABLE_WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    passes = None
    if args.dataflow:
        # The dataflow pass is opt-in (it models whole launch sequences);
        # --dataflow adds it to the default pass set.
        from repro.analysis import registered_passes

        passes = [
            name
            for name, cls in registered_passes().items()
            if cls.default or name == "dataflow"
        ]
    report = LintReport()
    for name in names:
        workload = RUNNABLE_WORKLOADS[name](functional_config(name, size=args.size))
        grid, block = workload.launch_config()
        report.extend(
            lint_kernels(
                workload.build_kernels(),
                grid=grid,
                block=block,
                replay=not args.no_replay,
                passes=passes,
                n_gpus=args.gpus,
                launches=args.launches,
                irredundant=args.irredundant,
            )
        )
    print(render_json(report) if args.format == "json" else render_text(report))
    fail_on = None if args.fail_on == "never" else Severity.from_label(args.fail_on)
    return 1 if report.failed(fail_on) else 0


#: The ``RuntimeConfig`` fields ``run --json`` records.
_RUN_JSON_CONFIG = ("n_gpus", "schedule", "shared_copies", "pipeline_window",
                    "irredundant_transfers")


def _json_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """``--json [PATH]``: bare flag writes to the command's default path."""
    parser.add_argument("--json", nargs="?", const=True, default=None, metavar="PATH", help=help)


def _cmd_run(args: argparse.Namespace) -> int:
    workload = RUNNABLE_WORKLOADS[args.workload](
        functional_config(args.workload, size=args.size, iterations=args.iterations)
    )
    inputs = workload.make_inputs(seed=args.seed)
    print(f"running {workload.cfg} on the single-GPU reference ...")
    reference = workload.run(CudaApi(), inputs)
    app = compile_app(workload.build_kernels())
    print(f"running on {args.gpus} simulated GPUs ({args.schedule} schedule) ...")
    config = RuntimeConfig(
        n_gpus=args.gpus,
        schedule=args.schedule,
        shared_copies=args.shared_copies,
        pipeline_window=args.pipeline_window,
        irredundant_transfers=args.irredundant_transfers,
    )
    api = MultiGpuApi(app, config)
    result = workload.run(api, inputs)
    for key in reference:
        if not np.array_equal(reference[key], result[key]):
            print(f"MISMATCH in output {key!r}")
            return 1
    print("results bitwise equal to the single-GPU reference")
    print(
        f"coherence traffic: {api.stats.sync_bytes} bytes in "
        f"{api.stats.sync_transfers} transfers; "
        f"{api.stats.enumerator_calls} enumerator calls, "
        f"{api.stats.tracker_ops} tracker ops"
    )
    counters = host_planner_counters(api.stats)
    print(
        f"staged planner: {counters['plan_cache_hits']} plan-cache hits, "
        f"{counters['plan_cache_misses']} misses, "
        f"{counters['plan_cache_evictions']} evictions; "
        f"{counters['residual_cache_hits']} residual replays, "
        f"{counters['residual_cache_misses']} residual misses, "
        f"{counters['residual_cache_evictions']} evictions; enumerator scans "
        f"{counters['enumerator_specialized']} vectorized / "
        f"{counters['enumerator_fallback']} interpreted"
    )
    if args.shared_copies:
        print(
            f"shared copies: {api.stats.redundant_bytes_avoided} redundant "
            f"bytes avoided, {api.stats.tracker_share_ops} sharer registrations, "
            f"{api.stats.tracker_invalidate_ops} invalidations"
        )
    if args.irredundant_transfers:
        print(
            f"irredundant transfers: {api.stats.overapprox_bytes_avoided} "
            f"bounding-range slack bytes trimmed"
        )
    if args.json:
        payload = {
            "workload": args.workload,
            "config": {
                **{field: getattr(config, field) for field in _RUN_JSON_CONFIG},
                "size": workload.cfg.size,
                "iterations": workload.cfg.iterations,
                "seed": args.seed,
            },
            "bitwise_equal": True,
            "stats": dataclasses.asdict(api.stats),
            "host_counters": counters,
        }
        write_json_report(
            args.json, f"results/run_{args.workload}.json", payload
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    return run_bench(BENCHES[args.experiment], args)


def _cmd_machine(args: argparse.Namespace) -> int:
    rows = [(f.name, getattr(K80_NODE_SPEC, f.name)) for f in dataclasses.fields(K80_NODE_SPEC)]
    print(format_table(["Parameter", "Value"], rows, title="Calibrated machine model (K80 node)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated partitioning of data-parallel kernels (ICPP 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print a workload's polyhedral application model")
    p.add_argument("workload", choices=sorted(RUNNABLE_WORKLOADS))
    p.add_argument("--size", type=int, default=None, help="problem size (default: small functional)")
    p.add_argument("--model-out", default=None, help="write the JSON model here")
    p.add_argument(
        "--verbose", action="store_true", help="full report incl. generated enumerator sources"
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("lint", help="static-analysis diagnostics for workload kernels")
    p.add_argument(
        "workloads",
        nargs="*",
        metavar="workload",
        help=f"workloads to lint (default: all of {', '.join(sorted(ALL_WORKLOADS))})",
    )
    p.add_argument("--size", type=int, default=None, help="problem size (default: small functional)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "advice", "never"],
        default="error",
        help="lowest severity that makes the exit status nonzero (default: error)",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="skip interpreter replay confirmation of race witnesses",
    )
    p.add_argument(
        "--dataflow",
        action="store_true",
        help="also run the cross-launch dataflow pass (RP6xx transfer lints)",
    )
    p.add_argument(
        "--irredundant",
        action="store_true",
        help="dataflow pass: model the irredundant-transfer remedy and "
        "report only the waste that remains after it",
    )
    p.add_argument(
        "--gpus",
        type=int,
        default=4,
        help="dataflow pass: device count to partition for (default 4)",
    )
    p.add_argument(
        "--launches",
        type=int,
        default=2,
        help="dataflow pass: back-to-back launches to model (default 2)",
    )
    p.set_defaults(fn=_cmd_lint)

    from repro.sched.policy import SCHEDULES

    p = sub.add_parser("run", help="functional multi-GPU run with bitwise check")
    p.add_argument("workload", choices=sorted(RUNNABLE_WORKLOADS))
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--schedule",
        choices=list(SCHEDULES) + ["auto"],
        default="sequential",
        help="launch-scheduler policy (default: sequential, the paper's Figure 4)",
    )
    p.add_argument(
        "--shared-copies",
        action="store_true",
        help="enable shared-copy (owner + sharers) coherence tracking",
    )
    p.add_argument(
        "--pipeline-window",
        type=int,
        default=1,
        help="values > 1 issue each launch's cluster copies halo-first "
        "(default 1: plan order)",
    )
    p.add_argument(
        "--irredundant-transfers",
        action="store_true",
        help="trim bounding-range slack off synchronization copies using "
        "the exact per-partition read sets (RP602 remedy)",
    )
    _json_flag(
        p,
        "write the run's stats (including the staged-planner counters) "
        "as JSON; bare flag uses a default path under results/",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="regenerate a paper table/figure or a self-checking study")
    experiments = p.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for bench in BENCHES.values():
        e = experiments.add_parser(bench.name, help=bench.help)
        for dest, default in bench.flags.items():
            option, kwargs = BENCH_FLAGS[dest]
            e.add_argument(option, dest=dest, default=default, **kwargs)
        _json_flag(e, f"also write points and failures as JSON (bare flag: {bench.artifact})")
        e.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("machine", help="show the calibrated machine model")
    p.set_defaults(fn=_cmd_machine)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; map ``ReproError`` to its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
