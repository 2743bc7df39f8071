"""The registry's checks on synthetic points: a passing set per entry, and
one set per moved claim that breaks it. No study runs (sweeps are stubbed);
CI's registry rows run the full grids."""

import argparse
import dataclasses
from types import SimpleNamespace

import pytest

from repro.harness import benches, overhead, paper
from repro.harness.experiments import (ClusterPoint, OverheadStats, PipelinePoint,
                                       RedundancyPoint, SchedulePoint, SpeedupPoint)
from repro.sched.policy import SCHEDULES

#: Fig. 6 speedups at 1/4/12/16 GPUs, as measured at the default grid.
_CURVES = {
    ("hotspot", "small"): (1.0, 3.44, 4.57, 4.09),
    ("hotspot", "medium"): (1.0, 3.81, 8.17, 8.8),
    ("hotspot", "large"): (1.0, 3.93, 10.58, 13.04),
    ("nbody", "small"): (1.0, 3.69, 4.01, 2.87),
    ("nbody", "medium"): (1.0, 3.89, 7.55, 6.93),
    ("nbody", "large"): (1.0, 3.96, 10.56, 12.42),
    ("matmul", "small"): (1.0, 2.92, 2.76, 2.31),
    ("matmul", "medium"): (1.0, 3.37, 4.45, 4.0),
    ("matmul", "large"): (1.0, 3.63, 6.28, 6.12),
}


def _figure6(curves=()):
    return [
        SpeedupPoint(w, size, g, 1.0, speedup)
        for (w, size), ys in {**_CURVES, **dict(curves)}.items()
        for g, speedup in zip((1, 4, 12, 16), ys)
    ]


def _figure7(rows=()):
    shares = {2: (0.99, 0.008, 0.002), 16: (0.6, 0.35, 0.05), **dict(rows)}
    return [
        SimpleNamespace(workload=w, n_gpus=g, t_application=a, t_transfers=t, t_patterns=p)
        for w in ("hotspot", "nbody", "matmul")
        for g, (a, t, p) in shares.items()
    ]


def _figure8(fractions=()):
    by_count = {1: [1e-4, 2e-4], 2: [3e-4, 5e-4], 16: [2e-3, 1e-2], **dict(fractions)}
    return [OverheadStats(g, list(f)) for g, f in by_count.items()]


def _overhead(slowdown=1e-3, ratio=1.5):
    return [(f"cfg{i}", slowdown) for i in range(3)], {"hotspot": ratio}


def _schedules(times=()):
    # (seconds, hidden, exposed) per (GPUs, schedule); the reference is 1 s.
    cells = {
        **{(1, s): (1.0, 0.0, 0.0) for s in SCHEDULES},
        (4, "sequential"): (0.26, 0.1, 0.9),
        (4, "overlap"): (0.255, 0.9, 0.1),
        (4, "overlap+p2p"): (0.25, 0.9, 0.1),
        (16, "sequential"): (0.12, 0.1, 0.9),
        (16, "overlap"): (0.07, 0.9, 0.1),
        (16, "overlap+p2p"): (0.065, 0.9, 0.1),
        **dict(times),
    }
    return [
        SchedulePoint("hotspot", "small", g, s, t, 1.0, hidden, exposed)
        for (g, s), (t, hidden, exposed) in cells.items()
    ]


def _cluster(shapes=()):
    # (inter hidden, inter exposed, inter copies, inter bytes) per node count.
    cells = {1: (0.0, 0.0, 0, 0), 2: (0.0, 0.01, 4, 100), 4: (0.0, 0.02, 8, 200), **dict(shapes)}
    return [
        ClusterPoint("hotspot", "small", n, 4 // n, "sequential", 1.0, 1.0, 0.0, 0.1,
                     ih, ie, copies, nbytes, 0.1 + ih + ie)
        for n, (ih, ie, copies, nbytes) in cells.items()
    ]


def _changed(points, changes):
    for key, fields in changes.items():
        points[key] = dataclasses.replace(points[key], **fields)
    return list(points.values())


def _redundancy(**changes):
    def point(kernel, shared, irr, first, steady, total, avoided=0, share_ops=0, trimmed=0):
        return RedundancyPoint(kernel, shared, irr, "sequential", 1, 2, 8, first, steady, total,
                               avoided, 0, trimmed, 0, 0, share_ops, 0, "sum")

    return _changed({
        "broadcast_off": point("broadcast", False, False, 100, 50, 450),
        "broadcast_on": point("broadcast", True, False, 100, 0, 100, 350, 7),
        "aligned_off": point("aligned", False, False, 0, 0, 0),
        "aligned_on": point("aligned", True, False, 0, 0, 0),
        "dstencil_off": point("dstencil", True, False, 60, 60, 480),
        "dstencil_on": point("dstencil", True, True, 40, 40, 320, trimmed=160),
    }, changes)


def _pipeline(**changes):
    def point(schedule, window, time):
        exposed = 0.1 if schedule == "sequential" else 0.05
        return PipelinePoint("hotspot", "small", "flat", 1, 4, schedule, window, time, 1.0,
                             0.05, exposed, 0, 0)

    return _changed({
        "seq": point("sequential", 1, 1.0),
        "w1": point("overlap+p2p", 1, 0.85),
        "w2": point("overlap+p2p", 2, 0.85),
        "w4": point("overlap+p2p", 4, 0.85),
    }, changes)


_ARGS = {
    "cluster": {"nodes": 2, "gpus_per_node": 2, "workloads": ["hotspot"], "schedule": "sequential"},
    "redundancy": {"nodes": 1, "gpus_per_node": 2, "schedule": "sequential"},
    "pipeline": {"workloads": ["hotspot"], "gpu_counts": [4], "nodes": 1, "gpus_per_node": None,
                 "window": None, "sizes": ["small"]},
}

_GOOD = {
    "figure6": _figure6(),
    "figure7": _figure7(),
    "figure8": _figure8(),
    "table1": list(paper.TABLE1),
    "overhead": _overhead(),
    "schedules": _schedules(),
    "cluster": _cluster(),
    "redundancy": _redundancy(),
    "pipeline": _pipeline(),
}

#: (entry, points breaking one moved claim, that claim's failure prefix).
_BROKEN = [
    ("figure6", _figure6({("hotspot", "small"): (0.5, 3.44, 4.57, 4.09)}), "baseline: hotspot/small"),
    ("figure6", _figure6({("nbody", "large"): (1.0, 3.96, 12.5, 12.42)}), "peak: nbody/large peaks at 12"),
    ("figure6", _figure6({("nbody", "large"): (1.0, 3.96, 7.0, 8.0)}), "peak: nbody/large peaks at 8.00x"),
    ("figure6", _figure6({("matmul", "large"): (1.0, 3.63, 6.28, 6.3)}), "peak: matmul/large peaks at 16"),
    ("figure6", _figure6({("matmul", "large"): (1.0, 3.63, 6.28, 6.28)}), "decline: matmul/large"),
    ("figure6", _figure6({("matmul", "large"): (1.0, 3.63, 3.9, 3.8)}), "peak: matmul/large peaks at 3.90x"),
    ("figure6", _figure6({("hotspot", "small"): (1.0, 3.44, 4.57, 4.6)}), "peak: hotspot/small peaks at 16"),
    ("figure6", _figure6({("hotspot", "small"): (1.0, 3.44, 4.57, 4.57)}), "decline: hotspot/small"),
    ("figure6", _figure6({("nbody", "medium"): (1.0, 3.89, 7.55, 13.0)}), "sizes: nbody"),
    ("figure6", _figure6({("nbody", "large"): (1.0, 3.96, 5.0, 6.0),
                          ("nbody", "medium"): (1.0, 3.89, 5.0, 5.5)}), "ordering: nbody's maximum"),
    ("figure6", _figure6({("hotspot", "large"): (1.0, 3.93, 5.0, 6.0),
                          ("hotspot", "medium"): (1.0, 3.81, 5.0, 5.5)}), "ordering: hotspot's maximum"),
    ("figure7", _figure7({16: (0.6, 0.35, 0.06)}), "shares: hotspot at 16 GPUs do not sum to 1"),
    ("figure7", _figure7({16: (0.0, 0.9, 0.1)}), "shares: hotspot at 16 GPUs spends no time"),
    ("figure7", _figure7({2: (0.99, 0.002, 0.008)}), "overhead: hotspot at 2 GPUs"),
    ("figure7", _figure7({16: (0.995, 0.004, 0.001)}), "growth: hotspot overhead share"),
    ("figure7", _figure7({16: (0.985, 0.008, 0.007)}), "growth: hotspot overhead share"),
    ("figure8", _figure8({16: [1e-4, 1e-4]}), "growth: median overhead"),
    ("figure8", _figure8({1: [0.06, 0.07], 2: [0.08, 0.09], 16: [0.1, 0.2]}), "bound: overall median"),
    ("figure8", _figure8({1: [0.02, 0.02], 2: [0.02, 0.02], 16: [0.02, 0.02]}), "bound: overall p25"),
    ("figure8", _figure8({16: [2e-3, 0.3]}), "bound: overall max"),
    ("table1", paper.TABLE1[::2], "table1: no row ('nbody'"),
    ("overhead", _overhead(slowdown=0.09), "slowdown: cfg0 runs 9.0000% slower"),
    ("overhead", _overhead(slowdown=0.05), "slowdown: median 5.0000%"),
    ("overhead", _overhead(ratio=3.5), "compile time: hotspot"),
    ("schedules", _schedules({(4, "overlap"): (0.255, 0.1, 0.9)}), "overlap: hotspot overlap hides"),
    ("schedules", _schedules({(16, "overlap"): (0.119, 0.9, 0.1)}), "scaling: hotspot"),
    ("schedules", _schedules({(16, "overlap+p2p"): (0.07, 0.9, 0.1)}), "headline: hotspot overlap+p2p"),
    ("cluster", _cluster({1: (0.001, 0.0, 0, 0)}), "1-node run reports inter-node traffic"),
    ("cluster", _cluster({2: (0.0, 0.01, 4, 0)}), "sanity: hotspot 2x2 sequential: inter-node copies move no bytes"),
    ("cluster", _cluster({4: (0.0, 0.02, 3, 200)}), "seams: hotspot sequential"),
    ("redundancy", _redundancy(broadcast_on={"total_sync_bytes": 450}), "reduction: broadcast traffic"),
    ("redundancy", _redundancy(broadcast_off={"tracker_share_ops": 1}), "sharers: broadcast"),
    ("redundancy", _redundancy(broadcast_on={"redundant_bytes_avoided": 0}), "sharers: broadcast"),
    ("redundancy", _redundancy(aligned_off={"steady_bytes": 8}), "steady state: aligned"),
    ("pipeline", _pipeline(w4={"time": 0.9}), "regression: hotspot flat overlap+p2p window=4 takes"),
    ("pipeline", _pipeline(seq={"hidden_transfer_time": 0.3, "exposed_transfer_time": -0.1}), "accounting: hotspot flat hides"),
]


@pytest.fixture(autouse=True)
def _no_sweeps(monkeypatch):
    """The identity and linter sweeps have their own tests."""
    for module, name in (
        (overhead, "cache_sweep"),
        (overhead, "mutation_sweep"),
        (benches, "_one_node_sweep"),
        (benches, "_window_sweep"),
        (benches, "_stencil_linter_agreement"),
    ):
        monkeypatch.setattr(module, name, lambda *args: [])


def _checks(entry, points):
    return benches.BENCHES[entry].checks(points, argparse.Namespace(**_ARGS.get(entry, {})))


@pytest.mark.parametrize("entry", sorted(_GOOD))
def test_the_synthetic_baseline_passes(entry):
    assert _checks(entry, _GOOD[entry]) == []


@pytest.mark.parametrize(
    "entry, points, needle", _BROKEN, ids=[f"{e}-{n.split(':')[0]}-{i}" for i, (e, _, n) in enumerate(_BROKEN)]
)
def test_a_broken_claim_fails_with_its_message(entry, points, needle):
    failures = _checks(entry, points)
    assert any(f.startswith(needle) for f in failures), failures


def test_partial_grids_check_only_what_they_hold():
    """A grid without 16 GPUs or some sizes skips the claims about them."""
    small = [p for p in _figure6() if p.size_label == "small" and p.n_gpus in (1, 4)]
    assert _checks("figure6", small) == []
    two = [r for r in _figure7() if r.n_gpus == 2]
    assert _checks("figure7", two) == []
    assert _checks("figure8", _figure8()[1:2]) == []


@pytest.mark.parametrize("gpus_per_node, shapes", [
    (4, ((1, 8), (2, 4), (4, 2))),
    (3, ((1, 6), (2, 3))),
])
def test_cluster_runs_two_multi_node_shapes_when_it_can(monkeypatch, gpus_per_node, shapes):
    """An even node size also runs twice the nodes at half the GPUs, so the
    seams check compares two multi-node shapes."""
    seen = []
    monkeypatch.setattr(benches.ex, "cluster_scaling", lambda workloads, shapes, **kw: seen.append(shapes))
    args = argparse.Namespace(nodes=2, gpus_per_node=gpus_per_node, workloads=["hotspot"],
                              sizes=["small"], schedule=None)
    benches.BENCHES["cluster"].run(args)
    assert seen == [shapes]


def test_figure7_defaults_to_the_papers_grid():
    """Fig. 7 starts at 2 GPUs: one GPU has no transfers to break down."""
    import inspect

    default = inspect.signature(benches.ex.figure7).parameters["gpu_counts"].default
    assert benches.BENCHES["figure7"].flags["gpu_counts"] == list(default) == [2, 4, 6, 8, 10, 12, 14, 16]
