"""One identity sweep: run a matrix of cells several ways, demand equal facets.

Every bitwise-invisibility claim of the system has the same shape. The
claims cover the plan and residual caches, pipelining, a 1-node cluster,
the serve path, the shared skeleton cache and task-graph execution orders.
For each cell of a configuration matrix, the same work runs two or more
ways, and chosen facets of those runs must agree. :func:`observe` records
what a finished run exposes. :func:`identity_sweep` compares every variant
of a cell against the cell's first (reference) run. It returns one failure
string per differing facet, naming the cell and the facet.

The facets are:

* ``outputs`` — every output array, bitwise;
* ``trace`` — the simulated trace, interval for interval (``untenanted``
  clears the serve path's tenant tag first);
* ``tracker`` — final owner/sharer state of every live virtual buffer;
* ``stats`` — every ``RunStats`` field (``masked`` drops
  :data:`~repro.runtime.api.HOST_PLANNER_COUNTERS`, the only fields a
  cache may legitimately move);
* ``clock`` — the simulated clock.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.api import HOST_PLANNER_COUNTERS

__all__ = ["FACETS", "Observation", "observe", "facet_diff", "identity_sweep"]

FACETS = ("outputs", "trace", "tracker", "stats", "clock")


@dataclass(frozen=True)
class Observation:
    """Everything an identity sweep may compare about one finished run."""

    outputs: Mapping[str, np.ndarray]
    #: ``asdict(RunStats)`` per runtime: one entry, or one per tenant.
    stats: Tuple[Dict[str, Any], ...]
    #: Simulated trace intervals, or None without a machine.
    trace: Optional[List[Any]] = None
    #: Simulated clock, or None without a machine.
    clock: Optional[float] = None
    #: ``(vb_id, coherence_state)`` of every live buffer, in id order.
    tracker: Tuple[Tuple[int, Tuple], ...] = ()


def observe(api, outputs: Mapping[str, np.ndarray]) -> Observation:
    """Record one finished run of ``api`` (a runtime, or tenants of one machine).

    Stats, trace and clock are read before the tracker:
    ``VirtualBuffer.coherence_state`` is a host-visible query that flushes
    the launch pipeline, so it must not be able to move what was recorded.
    """
    apis = list(api) if isinstance(api, (list, tuple)) else [api]
    machine = apis[0].machine
    stats = tuple(asdict(a.stats) for a in apis)
    trace = list(machine.trace.intervals) if machine is not None else None
    clock = machine.elapsed() if machine is not None else None
    tracker = tuple(
        (vb_id, tuple(vb.coherence_state()))
        for a in apis
        for vb_id, vb in sorted(a._live_buffers.items())
    )
    return Observation(dict(outputs), stats, trace, clock, tracker)


def _masked(stats: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in stats.items() if k not in HOST_PLANNER_COUNTERS}


def facet_diff(
    facet: str,
    ref: Observation,
    got: Observation,
    *,
    untenanted: bool = False,
    masked: bool = False,
) -> str:
    """What differs between two observations on one facet ("" if nothing)."""
    if facet == "outputs":
        keys = [
            k
            for k in ref.outputs
            if k not in got.outputs or not np.array_equal(ref.outputs[k], got.outputs[k])
        ]
        return f"output(s) {', '.join(map(repr, keys))}" if keys else ""
    if facet == "trace":
        a, b = ref.trace or [], got.trace or []
        if untenanted:
            a = [replace(iv, tenant=None) for iv in a]
            b = [replace(iv, tenant=None) for iv in b]
        if a == b:
            return ""
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"interval {first} of {len(a)} vs {len(b)}"
    if facet == "tracker":
        if ref.tracker == got.tracker:
            return ""
        theirs = dict(got.tracker)
        ids = [vb for vb, segs in ref.tracker if theirs.get(vb) != segs]
        ids += [vb for vb in theirs if vb not in dict(ref.tracker)]
        return f"buffer(s) {ids}"
    if facet == "stats":
        a = [_masked(s) if masked else s for s in ref.stats]
        b = [_masked(s) if masked else s for s in got.stats]
        drift = sorted(
            {f"{k}: {x[k]!r} != {y.get(k)!r}" for x, y in zip(a, b) for k in x if x[k] != y.get(k)}
        )
        if len(a) != len(b):
            drift.append(f"{len(a)} vs {len(b)} runtimes")
        return "; ".join(drift)
    if facet == "clock":
        return "" if ref.clock == got.clock else f"{ref.clock!r} != {got.clock!r}"
    raise ValueError(f"unknown facet {facet!r} (choose from {', '.join(FACETS)})")


def identity_sweep(
    run_fn: Callable[..., Mapping[str, Observation]],
    cells: Iterable[Mapping[str, Any]],
    facets: Sequence[str],
    *,
    untenanted: bool = False,
    masked: bool = False,
    check: Optional[Callable[[Mapping[str, Any], Mapping[str, Observation]], List[str]]] = None,
) -> List[str]:
    """Run every cell and compare its variants; returns failure strings.

    ``run_fn(**cell)`` returns ``{label: Observation}`` with the reference
    run first. Each other variant is compared with it on every facet in
    ``facets``. A failure reads ``"<facet>: <label> differs from <reference>
    (<what>) at <cell>"``. ``check(cell, runs)`` adds the sweep-specific
    assertions that are not facet equalities (digest misses, counter
    attribution) and returns its own failure strings.
    """
    unknown = [f for f in facets if f not in FACETS]
    if unknown:
        raise ValueError(f"unknown facet(s) {unknown} (choose from {', '.join(FACETS)})")
    failures: List[str] = []
    for cell in cells:
        runs = run_fn(**cell)
        where = " ".join(f"{k}={v}" for k, v in cell.items())
        (ref_label, ref), *rest = runs.items()
        for label, got in rest:
            for facet in facets:
                what = facet_diff(facet, ref, got, untenanted=untenanted, masked=masked)
                if what:
                    failures.append(
                        f"{facet}: {label} differs from {ref_label} ({what}) at {where}"
                    )
        if check is not None:
            failures += check(cell, runs)
    return failures
