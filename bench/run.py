"""The repository's benchmark: both clocks, end to end and layer by layer.

    python bench/run.py --seed S                 all four workloads
    python bench/run.py --seed S --traced        ... each followed by a traced run
    python bench/run.py --quick                  the same, scaled to seconds
    python bench/run.py --workload W --seed S --seconds T --trace 0|1
                                                 one workload, one JSON line

Closed loop, one client: each workload runs in a fresh single-threaded
subprocess that sets itself up, then replays its seeded op stream lap after
lap until ``--seconds`` have passed. Two more subprocesses repeat the set-up
alone, and ``setup_s`` is the median of the three. Nothing here imports the
package; a child that cannot (no ``src/``) makes the run exit non-zero.
See ``bench/README.md`` for what the metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: End-to-end metrics: unit and which way is better. ``sim_*`` are read off
#: the simulated machine and are exact; the rest are host measurements.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_us_p50": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_makespan_s": ("sim_s", "lower"),
    "sim_speedup": ("x", "higher"),
    "sim_exposed_transfer_frac": ("frac", "lower"),
    "sim_sync_bytes": ("B", "lower"),
}
#: Reported beside them but not in BENCHMARK.json, whose metrics may never
#: be zero: one is zero on a healthy run, the other on a flat node.
ALSO_REPORTED = {"failed_ops_frac": "frac", "sim_inter_node_bytes": "B"}

WORKLOAD_NAMES = ("steady_replay", "shape_churn", "functional_mix", "compile_lint")
SETUP_SAMPLES = 3
QUICK_SECONDS = 3
CHILD_TIMEOUT_S = 170


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the child: one workload in one process ------------------------------------


def child(args):
    """Set up, report readiness, measure (unless ``setup`` only), report."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"bench: {ROOT}/src/repro is missing; nothing to measure")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workload.setup()
    ready_unix = time.time()
    if args.child == "setup":
        print(json.dumps({"ready_unix": ready_unix}))
        return

    # bench/ is sys.path[0], so this is bench/trace.py, not the stdlib's.
    import trace as tracing

    tracer, untraced = tracing.NullTracer(), None
    if args.trace:
        untraced = workload.lap(tracer)
        tracer = tracing.Recorder()
        tracer.install()
    laps = []
    start = time.perf_counter()
    while True:
        lap = workload.lap(tracer)
        lap.profile = tracer.profile()
        laps.append(lap)
        elapsed = time.perf_counter() - start
        # Laps are fixed op streams, so stop at the lap boundary nearest to
        # the requested time rather than overshooting by up to a whole lap.
        if elapsed + 0.5 * elapsed / len(laps) >= args.seconds:
            break

    every = laps + ([untraced] if untraced else [])
    failures = [f for lap in every for f in lap.failures]
    checks = sum(lap.checks for lap in every)
    first = laps[0]
    for i, lap in enumerate(every[1:], start=1):
        checks += 1
        if lap.counts != first.counts:
            failures.append(f"lap {i} disagrees with lap 0 on simulated numbers or counters")
    ops = sum(len(lap.op_us) for lap in every)
    sim = first.counts
    extra = {
        "lap_wall_s": [lap.wall_s for lap in laps],
        "ops_per_lap": len(first.op_us),
        "sim_inter_node_bytes": sim["inter_node_bytes"],
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer, laps, untraced, workload.warmup)
        if args.trace_out:
            tracer.dump(args.trace_out)
    else:
        # Laps replay one op stream, so op i has one sample per lap. Noise on
        # a shared machine only ever adds time, in bursts, so the fastest
        # sample is the least contaminated: with a second busy process next
        # door it moved 13 % between runs where the median sample moved 56 %.
        n_ops = min(len(lap.op_us) for lap in laps)
        best_us = np.min([lap.op_us[:n_ops] for lap in laps], axis=0)
        metrics = {
            "ops_per_s": n_ops / (best_us.sum() * 1e-6),
            "op_us_p50": float(np.median(best_us[workload.warmup :])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_makespan_s": sim["sim_makespan_s"],
            "sim_speedup": sim["sim_ref_s"] / sim["sim_makespan_s"],
            "sim_exposed_transfer_frac": sim["sim_exposed_s"] / sim["sim_makespan_s"],
            "sim_sync_bytes": sim["sync_bytes"],
        }
    print(
        json.dumps(
            {
                "ready_unix": ready_unix,
                "attempted": ops + checks,
                "failures": failures,
                "metrics": metrics,
                "extra": extra,
            }
        )
    )


# -- the parent: spawn, time the set-up, assemble ------------------------------


def spawn(role, name, seed, seconds, trace, quick, trace_out=None):
    """Run one child to completion; its report plus its set-up seconds."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--child", role]
    cmd += ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    threads = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    spawned_unix = time.time()
    # subprocess.run kills and reaps the child if the timeout expires.
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **threads},
    )
    if proc.returncode != 0:
        sys.exit(f"bench: {role} child of {name} exited with {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready_unix"] - spawned_unix
    return report


def run_workload(name, seed, seconds, trace, quick=False, trace_out=None):
    """One benchmark run of one workload, in the driver's result format
    (plus ``failures`` and ``extra`` for the results file)."""
    report = spawn("measure", name, seed, seconds, trace, quick, trace_out)
    values = report["metrics"]
    if trace:
        import trace as tracing

        units = {metric: spec["unit"] for metric, spec in tracing.LAYER_METRICS.items()}
    else:
        setups = [report["setup_s"]] + [
            spawn("setup", name, seed, seconds, 0, quick)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values["setup_s"] = statistics.median(setups)
        report["extra"]["setup_samples_s"] = setups
        units = {metric: unit for metric, (unit, _) in END_TO_END.items()}
    failed = len(report["failures"])
    report["extra"]["failed_ops_frac"] = failed / report["attempted"]
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "failures": report["failures"],
        "extra": report["extra"],
    }


def spread(values):
    """Inter-quartile distance as a share of the median (None below 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(runs):
    """Fold repeated runs' metrics into median, values and spread."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        known = [v for v in values if v is not None]
        out[name] = {
            "value": statistics.median(known) if known else None,
            "unit": first["unit"],
            "values": values,
            "spread": spread(known),
        }
    return out


def run_all(args, seconds):
    """Every workload (``--repeat`` seeds each), results files and a table."""
    seeds = [args.seed + i for i in range(args.repeat)]
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for name in WORKLOAD_NAMES:
        result = {"workload": name, "seeds": seeds, "seconds": seconds, "quick": args.quick}
        runs = [run_workload(name, seed, seconds, 0, args.quick) for seed in seeds]
        result["end_to_end"] = summarise(runs)
        for key, unit in ALSO_REPORTED.items():
            values = [run["extra"][key] for run in runs]
            result["end_to_end"][key] = {
                "value": max(values),
                "unit": unit,
                "values": values,
                "spread": None,
            }
        if args.traced:
            # One span dump per workload is plenty: the first seed's.
            dumps = [os.path.join(args.out, f"{name}.trace.json")] + [None] * len(seeds)
            traced = [
                run_workload(name, seed, seconds, 1, args.quick, dump)
                for seed, dump in zip(seeds, dumps)
            ]
            result["per_layer"] = summarise(traced)
            result["ops_per_lap"] = traced[0]["extra"]["ops_per_lap"]
            runs += traced
        result["attempted"] = sum(run["attempted"] for run in runs)
        result["failures"] = [f for run in runs for f in run["failures"]]
        result["correct"] = not result["failures"]
        ok &= result["correct"]
        with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
            json.dump(result, fh, indent=1)
        print_result(result)
    return 0 if ok else 1


def print_result(result):
    print(f"== {result['workload']}  seeds {result['seeds']}  {result['seconds']} s")
    ops_per_lap = result.get("ops_per_lap")
    for section in ("end_to_end", "per_layer"):
        for name, m in result.get(section, {}).items():
            value = m["value"]
            shown = "null" if value is None else format(value, ".6g")
            line = f"  {name:<40} {shown:>14} {m['unit']}"
            if m["spread"] is not None:
                line += f"   spread {m['spread']:.3f}"
            if section == "per_layer" and m["unit"] == "s" and value is not None:
                line += f"   {1e6 * value / ops_per_lap:.1f} us/op"
            print(line)
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  {'correct' if result['correct'] else 'INCORRECT'}, {result['attempted']} attempted")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add = parser.add_argument
    add("--workload", choices=WORKLOAD_NAMES, help="run one workload, print one JSON line")
    add("--seed", type=int, default=0)
    add("--seconds", type=float, help="measured time per run (default: run_seconds)")
    add("--trace", type=int, choices=(0, 1), default=0, help="with --workload: per-layer metrics")
    add("--quick", action="store_true", help="small op streams, 3 s runs; same schema and checks")
    add("--traced", action="store_true", help="all workloads: add a traced run of each")
    add("--repeat", type=int, default=1, help="all workloads: runs of each, seeds S, S+1, ...")
    add("--out", default=os.path.join(BENCH_DIR, "results"), help="results directory")
    add("--child", choices=("measure", "setup"), help=argparse.SUPPRESS)
    add("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args)
        return 0
    seconds = args.seconds or (QUICK_SECONDS if args.quick else manifest()["run_seconds"])
    if args.workload is None:
        return run_all(args, seconds)
    result = run_workload(args.workload, args.seed, seconds, args.trace, args.quick)
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
