"""Execution traces for the timing simulator.

Every scheduled operation is recorded as one interval — a row of the
:class:`Trace` columns, read back as an :class:`Interval` — tagged with a
category matching the paper's Figure 7 terminology:

* ``APPLICATION`` — kernel execution on a device,
* ``TRANSFERS`` — data movement for buffer synchronization and memcopies,
* ``PATTERNS`` — host-side dependency resolution (enumerators, tracker),
* ``HOST`` — other host work (issue overheads, synchronization calls).

The async launch scheduler additionally splits ``TRANSFERS`` time into two
*sub-categories* computed from the recorded intervals: **hidden** transfer
time (wall-clock during which some kernel was executing concurrently, i.e.
the copy engines genuinely overlapped compute) and **exposed** transfer
time (no kernel was running — the interconnect was on the critical path).
``hidden + exposed == busy_time(TRANSFERS)`` always holds, so the paper's
α/β/γ accounting identities are unaffected by the refinement.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from operator import lt
from typing import Dict, List, Optional

__all__ = ["Category", "Interval", "Trace"]


class Category(enum.Enum):
    """Figure 7 time categories: kernel work, coherence traffic, host patterns."""

    APPLICATION = "application"
    TRANSFERS = "transfers"
    PATTERNS = "patterns"
    HOST = "host"


@dataclass(frozen=True)
class Interval:
    """One scheduled operation on one resource."""

    resource: str
    start: float
    end: float
    category: Category
    label: str = ""
    #: Index of the kernel launch that originated this operation, or None
    #: for work that belongs to no particular launch (memcopies, memsets).
    #: Tasks of several launches overlap on the lanes, so attribution must
    #: ride on the interval itself rather than be inferred from timing.
    launch: Optional[int] = None
    #: Tenant that originated this operation in a multi-tenant serving run
    #: (:mod:`repro.serve`), or None outside the serve path. The serve
    #: runtime stamps :attr:`Trace.current_tenant` around each job's
    #: service, so shared-resource intervals stay attributable after the
    #: fair-share scheduler interleaves tenants' streams.
    tenant: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An append-only record of intervals, stored column by column.

    :meth:`record` appends one value to each of seven parallel lists —
    ``resources``, ``starts``, ``ends``, ``categories``, ``labels``,
    ``launches``, ``tenants`` — so recording an operation allocates no
    object of its own; :meth:`extend` appends a run of them in one step.
    :attr:`intervals` builds the :class:`Interval` view on read; the
    aggregations walk the columns directly, in record order, so every sum
    adds the same floats in the same order as a walk over the interval
    list would.
    """

    def __init__(self) -> None:
        self.resources: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.categories: List[Category] = []
        self.labels: List[str] = []
        self.launches: List[Optional[int]] = []
        self.tenants: List[Optional[int]] = []
        #: Tenant id stamped onto every interval recorded while set (the
        #: serve runtime brackets each job's service with it); None outside
        #: multi-tenant serving, which keeps single-job traces unchanged.
        self.current_tenant: Optional[int] = None

    def record(
        self,
        resource: str,
        start: float,
        end: float,
        category: Category,
        label: str = "",
        launch: Optional[int] = None,
    ) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start} .. {end}")
        self.resources.append(resource)
        self.starts.append(start)
        self.ends.append(end)
        self.categories.append(category)
        self.labels.append(label)
        self.launches.append(launch)
        self.tenants.append(self.current_tenant)

    def extend(self, resources, starts, ends, categories, labels, launches) -> None:
        """:meth:`record` for many intervals at once: one sequence per column."""
        if any(map(lt, ends, starts)):
            start, end = next((s, e) for s, e in zip(starts, ends) if e < s)
            raise ValueError(f"interval ends before it starts: {start} .. {end}")
        self.resources.extend(resources)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.categories.extend(categories)
        self.labels.extend(labels)
        self.launches.extend(launches)
        self.tenants.extend([self.current_tenant] * len(starts))

    @property
    def intervals(self) -> List[Interval]:
        """Every recorded operation as an :class:`Interval`, in record order.

        Built on each read: callers that walk it more than once should
        keep the list.
        """
        return list(
            map(
                Interval,
                self.resources,
                self.starts,
                self.ends,
                self.categories,
                self.labels,
                self.launches,
                self.tenants,
            )
        )

    def busy_time_by_tenant(self, category: Optional[Category] = None) -> Dict[Optional[int], float]:
        """Per-tenant busy time, optionally restricted to one category.

        Intervals recorded outside any tenant's service (or outside the
        serve path entirely) land under the ``None`` key; summing over all
        keys reproduces :meth:`busy_time` exactly.
        """
        out: Dict[Optional[int], float] = {}
        for s, e, c, tenant in zip(self.starts, self.ends, self.categories, self.tenants):
            if category is None or c is category:
                out[tenant] = out.get(tenant, 0.0) + (e - s)
        return out

    def busy_time(self, category: Optional[Category] = None) -> float:
        """Total busy time, optionally restricted to one category."""
        return sum(
            e - s
            for s, e, c in zip(self.starts, self.ends, self.categories)
            if category is None or c is category
        )

    def by_category(self) -> Dict[Category, float]:
        out: Dict[Category, float] = {c: 0.0 for c in Category}
        for s, e, c in zip(self.starts, self.ends, self.categories):
            out[c] += e - s
        return out

    def by_resource(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for r, s, e in zip(self.resources, self.starts, self.ends):
            out[r] = out.get(r, 0.0) + (e - s)
        return out

    def transfer_exposure(self) -> Dict[str, float]:
        """Split TRANSFERS busy time into overlap-hidden vs exposed.

        A transfer second is *hidden* when at least one kernel
        (``APPLICATION`` interval on a ``gpu*`` resource) runs concurrently,
        and *exposed* otherwise. ``hidden + exposed`` equals
        ``busy_time(TRANSFERS)`` exactly.
        """
        tiers = self.transfer_exposure_by_tier()
        return {
            "hidden": tiers["intra"]["hidden"] + tiers["inter"]["hidden"],
            "exposed": tiers["intra"]["exposed"] + tiers["inter"]["exposed"],
        }

    def _compute_union(self) -> List[tuple]:
        """Disjoint union of all kernel-execution windows (overlap witness)."""
        return _union(
            (s, e)
            for r, s, e, c in zip(self.resources, self.starts, self.ends, self.categories)
            if c is Category.APPLICATION and r.startswith("gpu")
        )

    def transfer_exposure_by_launch(self) -> Dict[Optional[int], Dict[str, Dict[str, float]]]:
        """Per-launch hidden/exposed TRANSFERS time, split intra vs inter.

        Attribution is by each interval's *originating launch index* — not
        by trace position — so it stays correct when tasks from several
        launches (or serve tenants) overlap on the copy engines.
        Transfers that belong to no launch (none today; coherence traffic is
        always launch-originated) land under the ``None`` key. Summing the
        four buckets over every key reproduces ``busy_time(TRANSFERS)``
        exactly: each transfer second lands in exactly one
        (launch, tier, hidden/exposed) cell.
        """
        compute = self._compute_union()
        out: Dict[Optional[int], Dict[str, Dict[str, float]]] = {}
        for r, s, e, c, launch in zip(
            self.resources, self.starts, self.ends, self.categories, self.launches
        ):
            if c is not Category.TRANSFERS:
                continue
            tiers = out.setdefault(
                launch,
                {
                    "intra": {"hidden": 0.0, "exposed": 0.0},
                    "inter": {"hidden": 0.0, "exposed": 0.0},
                },
            )
            bucket = tiers["inter" if r == "net" else "intra"]
            hidden = _overlap(s, e, compute)
            bucket["hidden"] += hidden
            bucket["exposed"] += (e - s) - hidden
        return out

    def transfer_exposure_by_tier(self) -> Dict[str, Dict[str, float]]:
        """Hidden/exposed TRANSFERS time, split intra-node vs inter-node.

        Cluster machines record cross-node copies on the ``net`` resource;
        every other transfer is intra-node. The four buckets partition
        ``busy_time(TRANSFERS)`` exactly, so the α/β/γ identities carry
        over to each tier. Computed as the sum over the per-launch
        attribution (:meth:`transfer_exposure_by_launch`), which makes the
        partition property hold bucket by bucket even when launches
        interleave.
        """
        tiers = {
            "intra": {"hidden": 0.0, "exposed": 0.0},
            "inter": {"hidden": 0.0, "exposed": 0.0},
        }
        for per_launch in self.transfer_exposure_by_launch().values():
            for tier in ("intra", "inter"):
                for kind in ("hidden", "exposed"):
                    tiers[tier][kind] += per_launch[tier][kind]
        return tiers

    def __len__(self) -> int:
        return len(self.starts)


def _union(intervals) -> List[tuple]:
    """Sorted disjoint union of (start, end) intervals."""
    merged: List[tuple] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _overlap(start: float, end: float, union: List[tuple]) -> float:
    """Measure of ``[start, end]`` covered by a sorted disjoint union."""
    lo = bisect_right(union, (start, float("inf"))) - 1
    covered = 0.0
    for i in range(max(lo, 0), len(union)):
        a, b = union[i]
        if a >= end:
            break
        covered += max(0.0, min(end, b) - max(start, a))
    return covered
