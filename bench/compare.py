"""Compare two results directories written by ``bench/run.py``.

    python bench/compare.py A B

One row per workload x end-to-end metric: both values, the ratio B/A (A is
the base), the bound from ``BENCHMARK.json`` and a verdict. Host timings are
``regression`` when B is worse than A by more than the bound, ``unresolved``
when it is not but the recorded run-to-run spread of either side exceeds the
bound (the comparison cannot tell), otherwise ``unchanged``. Simulated
numbers and counts are exact: they must be identical seed by seed, and a
higher ``failed_ops_frac`` is always a regression. Exits 1 on any regression
or mismatch, 2 when the two directories are not comparable.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def is_exact(name, unit):
    """Simulated numbers and counts repeat exactly for a given seed."""
    return name.startswith("sim_") or unit in ("count", "B")


def load(directory):
    results = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json") and not entry.endswith(".trace.json"):
            with open(os.path.join(directory, entry)) as fh:
                result = json.load(fh)
            results[result["workload"]] = result
    return results


def verdict(name, a, b, spec):
    """(verdict, is_failure) for one metric of one workload."""
    if name == "failed_ops_frac":
        return ("regression", True) if b["value"] > a["value"] else ("same", False)
    if is_exact(name, a["unit"]):
        return ("same", False) if a["values"] == b["values"] else ("MISMATCH", True)
    ratio = b["value"] / a["value"]
    worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
    if worse > spec["bound"]:
        return "regression", True
    spreads = [s for s in (a["spread"], b["spread"]) if s is not None]
    if spreads and max(spreads) > spec["bound"]:
        return "unresolved", False
    return "unchanged", False


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    side_a, side_b = load(argv[0]), load(argv[1])
    shared = [w for w in side_a if w in side_b]
    if not shared:
        print("compare: the two directories share no workload", file=sys.stderr)
        return 2
    failed = False
    print(
        f"{'workload':<15} {'metric':<26} {'A':>14} {'B':>14} "
        f"{'B/A':>8} {'bound':>6} {'spread':>7}  verdict"
    )
    for workload in shared:
        a_run, b_run = side_a[workload], side_b[workload]
        for key in ("seeds", "seconds", "quick"):
            if a_run[key] != b_run[key]:
                print(f"compare: {workload} was run with different {key}", file=sys.stderr)
                return 2
        for name, a in a_run["end_to_end"].items():
            b = b_run["end_to_end"][name]
            spec = specs.get(name, {"bound": 0.0, "better": "lower"})
            word, bad = verdict(name, a, b, spec)
            failed |= bad
            ratio = f"{b['value'] / a['value']:.4f}" if a["value"] else "-"
            spreads = [s for s in (a["spread"], b["spread"]) if s is not None]
            spread = f"{max(spreads):.3f}" if spreads else "-"
            print(
                f"{workload:<15} {name:<26} {a['value']:>14.6g} {b['value']:>14.6g} "
                f"{ratio:>8} {spec['bound']:>6} {spread:>7}  {word}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
