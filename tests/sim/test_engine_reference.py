"""The simulator against a quadratic list scheduler.

:class:`ListScheduler` is a reference for the engine's placement: every
resource keeps all of its busy intervals (no bisection, no compaction),
and a copy starts at the least candidate — its earliest time, or the end
of a busy interval after it — that is free on every resource it occupies,
checked against every interval. A kernel starts when the host, its device
queue and its dependency events allow.

Each run below is made twice. The per-op oracle issue
(:mod:`tests.sched.issue_oracle`) drives the machine one public call at a
time, and every call is recorded: charges, copies with their earliest
time or dependency events, kernels with theirs, barriers. The reference
replays that stream and must return every call's event, and its trace must
equal, interval for interval, the trace of the same program issued as
shipped (lowered, in one pass per launch).
"""

import dataclasses

import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.constants import HOST
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched import executor
from repro.sim.engine import SimMachine
from repro.sim.trace import Category, Trace
from repro.workloads import ALL_WORKLOADS, functional_config
from tests.sched.test_issue_program import _oracle_issue

#: The machine's public per-op calls, in the order a host program makes them.
_CALLS = (
    "host_compute",
    "transfer",
    "stream_transfer",
    "launch_kernel",
    "synchronize",
    "wait_device",
    "wait_until",
    "node_resource_avail",
)


class ListScheduler:
    """The machine's per-op calls on a naive list scheduler.

    Copies are routed by the machine under test (a route is plain data of
    the spec); a NIC group's least-loaded lane, the first on ties, carries
    the copy.
    """

    def __init__(self, machine):
        self.machine = machine
        self.spec = machine.spec
        self.host = 0.0
        self.dev = [0.0] * self.spec.n_gpus
        self.busy = [[] for _ in machine._lanes]
        self.trace = Trace()

    def _avail(self, lane):
        return max((end for _, end in self.busy[lane]), default=0.0)

    def host_compute(self, duration, category, label=""):
        start = self.host
        self.host += duration
        if duration > 0:
            self.trace.record("host", start, self.host, category, label)

    def _copy(self, src, dst, nbytes, earliest, category, label, p2p, launch):
        duration, route, resource, _ = self.machine._copy_route(src, dst, nbytes, p2p, label)
        self.host_compute(self.spec.issue_overhead, Category.HOST, f"issue:{label}")
        earliest = max(earliest, self.host)
        if nbytes == 0:
            return self.host
        lanes = [(i if isinstance(i, int) else min(i, key=self._avail), d) for i, d in route]
        ends = {e for i, _ in lanes for _, e in self.busy[i] if e > earliest}
        start = next(
            t
            for t in sorted({earliest} | ends)
            if all(e <= t or t + d <= s for i, d in lanes for s, e in self.busy[i])
        )
        end = start + duration
        for i, d in lanes:
            self.busy[i].append((start, start + d))
            end = max(end, start + d)
        self.trace.record(resource, start, end, category, label, launch=launch)
        return end

    def transfer(
        self, src, dst, nbytes, *, category=Category.TRANSFERS, label="", synchronous=False,
        launch=None,
    ):
        earliest = max([self.host] + [self.dev[d] for d in (src, dst) if d != HOST])
        end = self._copy(src, dst, nbytes, earliest, category, label, None, launch)
        if synchronous:
            self.host = max(self.host, end)
        return end

    def stream_transfer(
        self, src, dst, nbytes, *, deps=(), category=Category.TRANSFERS, label="", p2p=None,
        launch=None,
    ):
        return self._copy(src, dst, nbytes, max(self.host, *deps), category, label, p2p, launch)

    def launch_kernel(self, dev, duration, label="", *, deps=(), launch=None):
        self.host_compute(self.spec.issue_overhead, Category.HOST, f"issue:{label}")
        start = max(self.host, self.dev[dev], *deps)
        self.dev[dev] = start + duration
        self.trace.record(f"gpu{dev}", start, start + duration, Category.APPLICATION, label, launch)
        return start + duration

    def synchronize(self, devices=None):
        self.host_compute(self.spec.sync_overhead, Category.HOST, "sync")
        lanes = range(len(self.busy)) if devices is None else devices
        devices = range(self.spec.n_gpus) if devices is None else devices
        self.host = max(self.host, *[self.dev[d] for d in devices], *map(self._avail, lanes))

    def wait_device(self, dev):
        self.host = max(self.host, self.dev[dev], self._avail(dev))

    def wait_until(self, event, label="event-sync", *, charge=True):
        if charge:
            self.host_compute(self.spec.sync_overhead, Category.HOST, label)
        self.host = max(self.host, event)

    def node_resource_avail(self, node):
        m = self.machine
        devices = m.cluster.devices_of(node)
        lanes = [*devices, m._node_buses[node], *m._nics[node]]
        return max(self.host, *[self.dev[d] for d in devices], *map(self._avail, lanes))


def _recorded(machine):
    """Record the machine's outermost public calls: ``(name, args, kwargs, result)``."""
    calls = []
    depth = [0]
    for name in filter(lambda name: hasattr(machine, name), _CALLS):

        def call(*args, _method=getattr(machine, name), _name=name, **kwargs):
            depth[0] += 1
            try:
                result = _method(*args, **kwargs)
            finally:
                depth[0] -= 1
            if not depth[0]:
                calls.append((_name, args, kwargs, result))
            return result

        setattr(machine, name, call)
    return calls


_MACHINES = {
    "flat": lambda: SimMachine(K80_NODE_SPEC.with_gpus(4)),
    "2x2": lambda: ClusterSimMachine(k80_cluster(2, 2)),
    "2x8": lambda: ClusterSimMachine(k80_cluster(2, 8)),
    # NICs slow enough that which lane of a node carries a copy shows in
    # its timing.
    "2x8, 2 NICs": lambda: ClusterSimMachine(
        dataclasses.replace(k80_cluster(2, 8), nic_lanes=2, nic_bw=2e8)
    ),
}


def _run(app, topology, schedule, iterations, window, issue=None):
    wl = ALL_WORKLOADS[app](functional_config(app, iterations=iterations))
    machine = _MACHINES[topology]()
    config = RuntimeConfig(
        n_gpus=machine.spec.n_gpus, schedule=schedule, pipeline_window=window, shared_copies=True
    )
    api = MultiGpuApi(compile_app(wl.build_kernels()), config, machine=machine, functional=False)
    calls = _recorded(machine) if issue else None
    with pytest.MonkeyPatch.context() as m:
        if issue:
            m.setattr(executor, "issue_plan_sim", issue)
        wl.run(api, None)
    return machine, calls


@pytest.mark.parametrize(
    "app, topology, schedule, iterations, window",
    [
        ("hotspot", "flat", "sequential", 6, 1),
        ("hotspot", "flat", "overlap+p2p", 6, 1),
        ("hotspot", "flat", "auto", 6, 1),
        ("hotspot", "2x2", "sequential", 6, 4),
        ("hotspot", "2x2", "overlap", 6, 1),
        ("hotspot", "2x8", "overlap+p2p", 4, 1),
        ("hotspot", "2x8, 2 NICs", "overlap+p2p", 4, 1),
        ("nbody", "2x8, 2 NICs", "sequential", 2, 4),
    ],
)
def test_list_scheduler_reproduces_every_interval(app, topology, schedule, iterations, window):
    shipped, _ = _run(app, topology, schedule, iterations, window)
    machine, calls = _run(app, topology, schedule, iterations, window, issue=_oracle_issue)
    ref = ListScheduler(machine)
    names = {name for name, *_ in calls}
    assert "launch_kernel" in names and names & {"transfer", "stream_transfer"}
    for i, (name, args, kwargs, result) in enumerate(calls):
        assert getattr(ref, name)(*args, **kwargs) == result, (i, name)
    assert ref.trace.intervals == machine.trace.intervals == shipped.trace.intervals
    assert ref.host == machine.host_time == shipped.host_time
    if "NICs" in topology:  # every NIC lane carried copies
        assert all(ref.busy[i] for nics in machine._nics for i in nics)


def test_list_scheduler_agrees_past_the_lane_compaction():
    """Enough launches that some lane holds over 512 intervals: compacting
    the past away never moves a placement."""
    shipped, _ = _run("hotspot", "flat", "overlap+p2p", 300, 1)
    machine, calls = _run("hotspot", "flat", "overlap+p2p", 300, 1, issue=_oracle_issue)
    ref = ListScheduler(machine)
    for name, args, kwargs, result in calls:
        assert getattr(ref, name)(*args, **kwargs) == result
    assert max(map(len, ref.busy)) > 512 > max(len(lane.busy) for lane in shipped._lanes)
    assert ref.trace.intervals == shipped.trace.intervals
