"""Issue programs against the interpreting issue they replaced.

:func:`repro.sched.executor.issue_plan_sim` lowers each plan once per
(policy, halo-first order or not) to a flat op tuple and runs that. The
interpreting body it replaced lives on verbatim in
:mod:`tests.sched.issue_oracle`. Every run below is made twice — once as
shipped, once with the oracle patched in — and after every launch the two
must agree on the trace (interval for interval), on both
:class:`~repro.sched.executor.DataflowLog` tables and on the host clock.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import MemoAuditError
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched import executor
from repro.sim.engine import SimMachine
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from tests.sched import issue_oracle

#: The six applications at the sizes of the debug-audit sweep: every GPU
#: gets work and every memo a hit.
_APPS = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
_CONFIGS = {
    "hotspot": (None, 3),
    "nbody": (64, 2),
    "matmul": (None, None),
    "dstencil": (None, 2),
    "cholesky": (16, None),
    "imgpipe": (32, 1),
}
_MACHINES = {
    "flat": lambda: SimMachine(K80_NODE_SPEC.with_gpus(4)),
    "2x2": lambda: ClusterSimMachine(k80_cluster(2, 2)),
    "none": lambda: None,
}
_SCHEDULES = ("sequential", "overlap", "overlap+p2p", "auto")


def _state(api):
    """What the issue leaves behind: trace length, host clock, event tables."""
    log = api.dataflow
    tables = tuple(
        {key: list(records) for key, records in table.items()}
        for table in (log._write, log._read)
    )
    machine = api.machine
    if machine is None:
        return None, None, tables
    return len(machine.trace), machine.host_time, tables


def _observe(api, host):
    """Run ``host(api)`` recording the issue's state after every launch."""
    states = []
    launch = api.launch

    def recorded(*args):
        launch(*args)
        states.append(_state(api))

    api.launch = recorded
    host(api)
    api.cudaDeviceSynchronize()
    states.append(_state(api))
    trace = api.machine.trace.intervals if api.machine is not None else None
    return states, trace, dataclasses.asdict(api.stats)


def _oracle_issue(api, plan, policy, **kwargs):
    """The oracle, handed the halo-first order the executor would lower with."""
    order = None
    if api.config.pipeline_window > 1:
        order = executor.halo_first_order(plan, api.cluster)
    issue_oracle.issue_plan_sim(api, plan, policy, transfer_order=order, **kwargs)


def _twice(monkeypatch, make_api, host):
    """(shipped, oracle) observations of one host program."""
    shipped = _observe(make_api(), host)
    with monkeypatch.context() as m:
        m.setattr(executor, "issue_plan_sim", _oracle_issue)
        oracle = _observe(make_api(), host)
    return shipped, oracle


def _assert_same(shipped, oracle, cell):
    (states, trace, stats), (o_states, o_trace, o_stats) = shipped, oracle
    assert len(states) == len(o_states) > 1, cell
    for i, (got, want) in enumerate(zip(states, o_states)):
        assert got == want, f"launch {i} at {cell}"
    assert trace == o_trace, cell
    assert stats == o_stats, cell


def _cells():
    """Timing-only runs over the whole matrix, functional runs on three
    corners: peer copies on the flat node, gang barriers with halo-first
    order on the cluster, and no machine at all."""
    cells = [
        dict(topology=t, schedule=s, window=w, shared=sh, functional=False)
        for t in ("flat", "2x2")
        for s in _SCHEDULES
        for w in (1, 4)
        for sh in (False, True)
    ]
    for t, s, w, sh in (
        ("flat", "overlap+p2p", 1, True),
        ("2x2", "sequential", 4, False),
        ("none", "auto", 4, True),
    ):
        cells.append(dict(topology=t, schedule=s, window=w, shared=sh, functional=True))
    return cells


@pytest.mark.parametrize("name", sorted(_APPS))
def test_every_app_issues_as_the_oracle(name, monkeypatch):
    size, iterations = _CONFIGS[name]
    wl = _APPS[name](functional_config(name, size=size, iterations=iterations))
    inputs = wl.make_inputs(seed=0)
    app = compile_app(wl.build_kernels())
    for cell in _cells():
        config = RuntimeConfig(
            n_gpus=4,
            schedule=cell["schedule"],
            pipeline_window=cell["window"],
            shared_copies=cell["shared"],
        )

        def make_api():
            return MultiGpuApi(
                app, config, machine=_MACHINES[cell["topology"]](), functional=cell["functional"]
            )

        def host(api):
            wl.run(api, inputs if cell["functional"] else None)

        _assert_same(*_twice(monkeypatch, make_api, host), cell)


def _shift_kernel():
    kb = KernelBuilder("shift")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_((gi > 0) & (gi < n)):
        dst[gi,] = src[gi - 1,]
    return kb.finish()


def _bad_kernel():
    kb = KernelBuilder("bad")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[gi % 4,] = src[gi,]  # non-affine write: the single-GPU fallback
    return kb.finish()


def _mixed_host(good, bad, n=64):
    data = np.random.default_rng(0).random(n, dtype=np.float32)

    def host(api):
        a = api.cudaMalloc(n * 4)
        b = api.cudaMalloc(n * 4)
        api.cudaMemcpy(a, data, n * 4, MemcpyKind.HostToDevice)
        for _ in range(3):
            api.launch(good, Dim3(8), Dim3(8), [n, a, b])
            api.launch(bad, Dim3(8), Dim3(8), [n, b, a])
        out = np.zeros(n, dtype=np.float32)
        api.cudaMemcpy(out, a, n * 4, MemcpyKind.DeviceToHost)

    return host


@pytest.mark.parametrize("topology", ["flat", "2x2"])
@pytest.mark.parametrize("schedule", _SCHEDULES)
def test_fallback_plans_issue_as_the_oracle(topology, schedule, monkeypatch):
    good, bad = _shift_kernel(), _bad_kernel()
    app = compile_app([good, bad])
    assert not app.kernel("bad").partitionable
    host = _mixed_host(good, bad)
    for window in (1, 4):
        config = RuntimeConfig(
            n_gpus=4, schedule=schedule, pipeline_window=window, shared_copies=True
        )

        def make_api():
            return MultiGpuApi(app, config, machine=_MACHINES[topology]())

        shipped, oracle = _twice(monkeypatch, make_api, host)
        _assert_same(shipped, oracle, (topology, schedule, window))
        assert shipped[2]["fallback_launches"] == 3


@pytest.mark.parametrize("ablation", ["beta", "gamma"])
@pytest.mark.parametrize("schedule", _SCHEDULES)
def test_transfers_or_tracking_off_issue_as_the_oracle(ablation, schedule, monkeypatch):
    """β turns the copies off, γ the trackers too (and with them the barrier)."""
    wl = ALL_WORKLOADS["hotspot"](functional_config("hotspot", iterations=3))
    inputs = wl.make_inputs(seed=0)
    app = compile_app(wl.build_kernels())
    base = RuntimeConfig(n_gpus=4, schedule=schedule, shared_copies=True)
    config = getattr(base, ablation)()
    for topology in ("flat", "2x2"):

        def make_api():
            return MultiGpuApi(app, config, machine=_MACHINES[topology]())

        def host(api):
            wl.run(api, inputs)

        _assert_same(*_twice(monkeypatch, make_api, host), (ablation, schedule, topology))


def _hotspot_api(machine=None, **config):
    wl = ALL_WORKLOADS["hotspot"](functional_config("hotspot", iterations=4))
    api = MultiGpuApi(
        compile_app(wl.build_kernels()),
        RuntimeConfig(n_gpus=4, **config),
        machine=machine or SimMachine(K80_NODE_SPEC.with_gpus(4)),
        functional=False,
    )
    plans = []
    submit = executor.submit_plan

    def recorded(api, plan):
        plans.append(plan)
        submit(api, plan)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(executor, "submit_plan", recorded)
        wl.run(api, None)
    return api, plans


def test_a_replayed_plan_lowers_once():
    api, plans = _hotspot_api(schedule="overlap+p2p")
    assert api.stats.residual_cache_hits > 0
    programs = {id(p.issue_programs[next(iter(p.issue_programs))]) for p in plans}
    # One program per distinct plan object, however often it was issued.
    assert len(programs) == len({id(p) for p in plans}) < len(plans)
    assert all(len(p.issue_programs) == 1 for p in plans)


def test_halo_first_order_is_computed_once_per_plan(monkeypatch):
    """Replayed launches reuse the lowered program, order included."""
    order, calls = executor.halo_first_order, []

    def counted(plan, cluster):
        calls.append(id(plan))
        return order(plan, cluster)

    monkeypatch.setattr(executor, "halo_first_order", counted)
    api, plans = _hotspot_api(
        ClusterSimMachine(k80_cluster(2, 2)), schedule="overlap+p2p", pipeline_window=4
    )
    distinct = {id(p) for p in plans}
    assert api.stats.residual_cache_hits > 0 and len(distinct) < len(plans)
    assert sorted(calls) == sorted(distinct)


def test_identical_task_graph_runs_record_equal_event_tables():
    """Waves are numbered per dataflow log, not per process."""
    wl = EXTRA_WORKLOADS["cholesky"](functional_config("cholesky", size=16))
    inputs = wl.make_inputs(seed=0)
    app = compile_app(wl.build_kernels())

    def tables():
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, schedule="overlap"), machine=_MACHINES["flat"]())
        wl.run(api, inputs, mode="graph")
        return _state(api)[2]

    first = tables()
    waves = {r[3] for table in first for records in table.values() for r in records}
    assert waves - {None}, "the graph run recorded no wave-tagged events"
    assert tables() == first


def test_programs_take_no_part_in_plan_equality():
    _, plans = _hotspot_api(schedule="overlap")
    plan = plans[-1]
    twin = dataclasses.replace(plan, issue_programs={})
    assert twin == plan and plan.issue_programs and not twin.issue_programs


def test_audit_catches_a_stale_program():
    api, plans = _hotspot_api(schedule="overlap", debug_audit=True)
    plan = plans[-1]
    ((policy, program),) = plan.issue_programs.items()
    charge = next(i for i, op in enumerate(program) if op[0] == executor._CHARGE)
    doubled = (executor._CHARGE, program[charge][1] * 2)
    stale = program[:charge] + (doubled,) + program[charge + 1 :]
    plan.issue_programs[policy] = stale
    with pytest.raises(MemoAuditError, match="stale issue program"):
        executor.issue_plan_sim(api, plan, policy)


def test_gang_barriers_issue_nodes_in_event_order(monkeypatch):
    """Node 1's gang barrier fires first, so its kernels issue first.

    A long single-GPU fallback kernel keeps gpu0 busy; the next launch's
    halo copies into node 1 do not touch gpu0, so node 1's barrier event
    precedes node 0's and the executor issues node 1's partitions first.
    """
    good, bad = _shift_kernel(), _bad_kernel()
    app = compile_app([good, bad])
    big, small = 1 << 24, 256

    def host(api):
        a, b = api.cudaMalloc(small * 4), api.cudaMalloc(small * 4)
        c, d = api.cudaMalloc(big * 4), api.cudaMalloc(big * 4)
        api.cudaMemcpy(a, np.ones(small, dtype=np.float32), small * 4, MemcpyKind.HostToDevice)
        api.launch(bad, Dim3(big // 64), Dim3(64), [big, c, d])
        api.launch(good, Dim3(small // 8), Dim3(8), [small, a, b])

    def make_api():
        return MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=4, schedule="sequential"),
            machine=_MACHINES["2x2"](),
            functional=False,
        )

    shipped, oracle = _twice(monkeypatch, make_api, host)
    _assert_same(shipped, oracle, "node order")
    order = [
        iv.resource
        for iv in shipped[1]
        if iv.resource.startswith("gpu") and iv.label.startswith("shift")
    ]
    assert order[:2] == ["gpu2", "gpu3"] and sorted(order[2:]) == ["gpu0", "gpu1"], order
