"""``repro.tasks`` — the dynamic task-graph frontend.

A Parla-style dependency-driven layer over the multi-GPU runtime: tasks
declare byte-interval read/write footprints (lowered through the same
interval algebra the launch scheduler uses, :mod:`repro.poly.intervals`),
the graph derives RAW/WAR/WAW edges by intersection, and execution streams
ready tasks' launches through the ordinary ``api.launch`` path so the
scheduler overlaps independent tasks.  Accesses the affine model
cannot analyze degrade to whole-buffer synchronization with ``RP701``/
``RP702`` diagnostics.  See docs/taskgraph.md for the full API walkthrough
and ``repro bench taskgraph`` for the self-checking benchmark.
"""

from repro.tasks.footprints import (
    AccessSpec,
    Footprint,
    Opaque,
    Region2D,
    Span,
    Whole,
    lower_access,
    opaque,
    region2d,
    span,
    whole,
)
from repro.tasks.graph import TaskEdge, TaskGraph, TaskGraphStats
from repro.tasks.spec import Task, TaskHandle, TaskSpace, task

__all__ = [
    "AccessSpec",
    "Footprint",
    "Opaque",
    "Region2D",
    "Span",
    "Whole",
    "lower_access",
    "opaque",
    "region2d",
    "span",
    "whole",
    "Task",
    "TaskHandle",
    "TaskSpace",
    "task",
    "TaskEdge",
    "TaskGraph",
    "TaskGraphStats",
]
