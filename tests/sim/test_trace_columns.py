"""The columnar :class:`~repro.sim.trace.Trace` against the list it replaced.

A trace used to keep one :class:`Interval` object per recorded operation
and aggregate over that list. It now keeps seven parallel columns and
builds the interval list only on read. :class:`ListTrace` is the list
version's aggregation code, verbatim, run over the ``intervals`` view of
recorded traces; every aggregation must come out bit for bit the same
(compared through ``repr``, which tells ``-0.0`` from ``0.0`` and
round-trips every float).
"""

from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.serve.bench import JOB_ELEMS, build_serve_kernel
from repro.serve.runtime import ServeRuntime
from repro.sim.engine import SimMachine
from repro.sim.trace import Category, Interval, Trace, _overlap, _union
from repro.workloads import ALL_WORKLOADS, functional_config


class ListTrace:
    """The aggregations of the list-of-intervals trace, verbatim."""

    def __init__(self, intervals: List[Interval]) -> None:
        self.intervals = intervals

    def busy_time_by_tenant(self, category: Optional[Category] = None) -> Dict[Optional[int], float]:
        out: Dict[Optional[int], float] = {}
        for iv in self.intervals:
            if category is None or iv.category is category:
                out[iv.tenant] = out.get(iv.tenant, 0.0) + iv.duration
        return out

    def busy_time(self, category: Optional[Category] = None) -> float:
        return sum(
            iv.duration
            for iv in self.intervals
            if category is None or iv.category is category
        )

    def by_category(self) -> Dict[Category, float]:
        out: Dict[Category, float] = {c: 0.0 for c in Category}
        for iv in self.intervals:
            out[iv.category] += iv.duration
        return out

    def by_resource(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for iv in self.intervals:
            out[iv.resource] = out.get(iv.resource, 0.0) + iv.duration
        return out

    def transfer_exposure(self) -> Dict[str, float]:
        tiers = self.transfer_exposure_by_tier()
        return {
            "hidden": tiers["intra"]["hidden"] + tiers["inter"]["hidden"],
            "exposed": tiers["intra"]["exposed"] + tiers["inter"]["exposed"],
        }

    def _compute_union(self) -> List[tuple]:
        return _union(
            (iv.start, iv.end)
            for iv in self.intervals
            if iv.category is Category.APPLICATION and iv.resource.startswith("gpu")
        )

    def transfer_exposure_by_launch(self) -> Dict[Optional[int], Dict[str, Dict[str, float]]]:
        compute = self._compute_union()
        out: Dict[Optional[int], Dict[str, Dict[str, float]]] = {}
        for iv in self.intervals:
            if iv.category is not Category.TRANSFERS:
                continue
            tiers = out.setdefault(
                iv.launch,
                {
                    "intra": {"hidden": 0.0, "exposed": 0.0},
                    "inter": {"hidden": 0.0, "exposed": 0.0},
                },
            )
            bucket = tiers["inter" if iv.resource == "net" else "intra"]
            hidden = _overlap(iv.start, iv.end, compute)
            bucket["hidden"] += hidden
            bucket["exposed"] += iv.duration - hidden
        return out

    def transfer_exposure_by_tier(self) -> Dict[str, Dict[str, float]]:
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
        return len(self.intervals)


def _aggregations(trace):
    categories = [None, *Category]
    return {
        "len": len(trace),
        "busy_time": [trace.busy_time(c) for c in categories],
        "busy_time_by_tenant": [trace.busy_time_by_tenant(c) for c in categories],
        "by_category": trace.by_category(),
        "by_resource": trace.by_resource(),
        "transfer_exposure": trace.transfer_exposure(),
        "transfer_exposure_by_launch": trace.transfer_exposure_by_launch(),
        "transfer_exposure_by_tier": trace.transfer_exposure_by_tier(),
    }


def _assert_columns_match_list(trace: Trace):
    got = _aggregations(trace)
    want = _aggregations(ListTrace(trace.intervals))
    assert repr(got) == repr(want)


def _hotspot_trace(machine, schedule):
    wl = ALL_WORKLOADS["hotspot"](functional_config("hotspot", iterations=3))
    api = MultiGpuApi(
        compile_app(wl.build_kernels()),
        RuntimeConfig(n_gpus=4, schedule=schedule, shared_copies=True),
        machine=machine,
        functional=False,
    )
    wl.run(api, None)
    api.cudaDeviceSynchronize()
    return machine.trace


@pytest.mark.parametrize("schedule", ["sequential", "overlap+p2p"])
@pytest.mark.parametrize("topology", ["flat", "2x2"])
def test_recorded_launch_traces(topology, schedule):
    machine = (
        SimMachine(K80_NODE_SPEC.with_gpus(4))
        if topology == "flat"
        else ClusterSimMachine(k80_cluster(2, 2))
    )
    trace = _hotspot_trace(machine, schedule)
    assert {Category.APPLICATION, Category.TRANSFERS, Category.PATTERNS} <= set(trace.categories)
    if topology == "2x2":
        assert "net" in trace.resources  # the inter-node tier is exercised
    _assert_columns_match_list(trace)


def test_recorded_serve_trace_with_tenants():
    kernel = build_serve_kernel()
    machine = SimMachine(K80_NODE_SPEC.with_gpus(2))
    runtime = ServeRuntime(compile_app([kernel]), RuntimeConfig(n_gpus=2), 3, machine=machine)
    x = np.linspace(0.0, 1.0, JOB_ELEMS, dtype=np.float32)

    def work(api):
        dx = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dx, x, x.nbytes, MemcpyKind.HostToDevice)
        dy = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dy, x, x.nbytes, MemcpyKind.HostToDevice)
        api.launch(kernel, Dim3(JOB_ELEMS // 128), Dim3(128), [JOB_ELEMS, dx, dy])
        api.cudaDeviceSynchronize()

    for tenant in (0, 1, 2, 0):
        runtime.submit(tenant, work)
    runtime.drain()
    assert set(machine.trace.tenants) == {0, 1, 2}
    _assert_columns_match_list(machine.trace)


def test_intervals_view_is_the_recorded_rows():
    trace = Trace()
    trace.record("gpu0", 0.0, 1.5, Category.APPLICATION, "k", launch=3)
    trace.current_tenant = 7
    trace.record("lane1", 0.25, 2.0, Category.TRANSFERS, "sync:a")
    assert trace.intervals == [
        Interval("gpu0", 0.0, 1.5, Category.APPLICATION, "k", 3, None),
        Interval("lane1", 0.25, 2.0, Category.TRANSFERS, "sync:a", None, 7),
    ]
    assert trace.intervals is not trace.intervals  # a fresh view per read
    assert len(trace) == 2
    with pytest.raises(ValueError, match="ends before it starts"):
        trace.record("host", 2.0, 1.0, Category.HOST)
    assert len(trace) == 2 and len(trace.intervals) == 2


def test_extend_is_record_in_bulk():
    rows = [
        ("gpu0", 0.0, 1.5, Category.APPLICATION, "k", 3),
        ("host", 1.5, 1.5, Category.HOST, "issue:k", None),
        ("lane1", 0.25, 2.0, Category.TRANSFERS, "sync:a", 3),
    ]
    one, bulk = Trace(), Trace()
    for trace in (one, bulk):
        trace.current_tenant = 7
    for row in rows:
        one.record(*row)
    bulk.extend(*map(list, zip(*rows)))
    assert bulk.intervals == one.intervals
    # A bad row fails the whole run, with record's message for the first one.
    bad = rows + [
        ("host", 2.0, 1.0, Category.HOST, "x", None),
        ("host", 3.0, 2.5, Category.HOST, "y", None),
    ]
    with pytest.raises(ValueError, match=r"^interval ends before it starts: 2\.0 \.\. 1\.0$"):
        bulk.extend(*map(list, zip(*bad)))
    assert bulk.intervals == one.intervals
