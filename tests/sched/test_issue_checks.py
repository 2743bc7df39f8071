"""Every check of the per-op engine calls still fires in the one-pass issue.

The lowered issue checks what a plan fixes — device ids, transfer sizes,
the host's issue and barrier overheads — once, when the plan lowers; a
kernel's duration, which the cost model gives at issue time, when it runs.
Each planted fault below must raise the same error, with the same message,
at the same launch as the per-op oracle (:mod:`tests.sched.issue_oracle`).
"""

import dataclasses

import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.costmodel import KernelCostModel
from repro.compiler.pipeline import compile_app
from repro.cuda.dim3 import Dim3
from repro.errors import CalibrationError, SimulationError
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched import executor
from repro.sim.engine import SimMachine
from repro.workloads import ALL_WORKLOADS, functional_config
from tests.sched.test_issue_program import _oracle_issue, _shift_kernel

_MACHINES = {
    "flat": lambda: SimMachine(K80_NODE_SPEC.with_gpus(4)),
    "2x2": lambda: ClusterSimMachine(k80_cluster(2, 2)),
}
_CELLS = [(t, s) for t in _MACHINES for s in ("sequential", "overlap+p2p")]


def _hotspot(topology, schedule, kernel_cost=None):
    """A timing-only hotspot run: H2D copy, 6 launches, D2H copy."""
    wl = ALL_WORKLOADS["hotspot"](functional_config("hotspot", iterations=6))
    machine = _MACHINES[topology]()
    api = MultiGpuApi(
        compile_app(wl.build_kernels()),
        RuntimeConfig(n_gpus=4, schedule=schedule, shared_copies=True),
        machine=machine,
        kernel_cost=kernel_cost,
        functional=False,
    )
    return api, lambda: wl.run(api, None)


def _failure(monkeypatch, issue, make_run):
    """(error type, message, launch index) of one failing run under ``issue``."""
    api, run = make_run()
    with monkeypatch.context() as m:
        m.setattr(executor, "issue_plan_sim", issue)
        with pytest.raises(Exception) as info:
            run()
    return type(info.value), str(info.value), api._launch_index


def _as_oracle(monkeypatch, make_run, plant=lambda issue: issue):
    """The shipped and the oracle failure agree; return it."""
    shipped = _failure(monkeypatch, plant(executor.issue_plan_sim), make_run)
    oracle = _failure(monkeypatch, plant(_oracle_issue), make_run)
    assert shipped == oracle
    return shipped


@pytest.mark.parametrize("topology, schedule", _CELLS)
def test_a_negative_kernel_duration_fails_at_the_same_launch(topology, schedule, monkeypatch):
    def make_run():
        costs = KernelCostModel(_MACHINES[topology]().spec)
        calls = []

        def planted(kernel, n_blocks, block, scalars):
            calls.append(n_blocks)
            return -1.0 if len(calls) == 7 else costs(kernel, n_blocks, block, scalars)

        return _hotspot(topology, schedule, kernel_cost=planted)

    # Four partitions per launch: the seventh costing is launch 1's third.
    assert _as_oracle(monkeypatch, make_run) == (SimulationError, "negative kernel duration", 1)


def _planted_plan(launch, **fields):
    """An issue that, at ``launch``, issues a plan whose last kernel task
    (``gpu=``) or first copy (``owner=``, ``end=``) carries ``fields``."""

    def plant(issue):
        def run(api, plan, policy, **kwargs):
            if kwargs.get("launch") == launch:
                if "gpu" in fields:
                    last = dataclasses.replace(plan.kernels[-1], **fields)
                    plan = dataclasses.replace(plan, kernels=plan.kernels[:-1] + [last])
                else:
                    reads = [[dataclasses.replace(rs) for rs in syncs] for syncs in plan.reads]
                    rs = next(rs for syncs in reads for rs in syncs if rs.transfers)
                    first = dataclasses.replace(rs.transfers[0], **fields)
                    rs.transfers = [first] + rs.transfers[1:]
                    plan = dataclasses.replace(plan, reads=reads)
                plan.issue_programs = {}
            issue(api, plan, policy, **kwargs)

        return run

    return plant


@pytest.mark.parametrize("topology, schedule", _CELLS)
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"gpu": 7}, "device id 7 out of range (n_gpus=4)"),
        ({"owner": 9}, "device id 9 out of range (n_gpus=4)"),
        ({"end": 0}, "negative transfer size"),
    ],
)
def test_a_bad_device_or_size_fails_at_the_same_launch(
    topology, schedule, fields, message, monkeypatch
):
    got = _as_oracle(
        monkeypatch, lambda: _hotspot(topology, schedule), _planted_plan(3, **fields)
    )
    if topology == "2x2" and schedule == "sequential" and "gpu" in fields:
        # Gang barriers group kernels by node: the cluster rejects it first.
        assert got == (CalibrationError, "device id 7 out of range (total_gpus=4)", 3)
    else:
        assert got == (SimulationError, message, 3)


def _shift(topology, schedule, **overheads):
    """Three launches of a shift kernel, no copy before them, on a machine
    whose spec carries the planted ``overheads``."""
    kernel = _shift_kernel()
    machine = _MACHINES[topology]()
    for name, seconds in overheads.items():
        object.__setattr__(machine.spec, name, seconds)  # past MachineSpec's check
    api = MultiGpuApi(
        compile_app([kernel]),
        RuntimeConfig(n_gpus=4, schedule=schedule),
        machine=machine,
        functional=False,
    )

    def run():
        n = 64
        a, b = api.cudaMalloc(n * 4), api.cudaMalloc(n * 4)
        for _ in range(3):
            api.launch(kernel, Dim3(8), Dim3(8), [n, a, b])
            a, b = b, a

    return api, run


@pytest.mark.parametrize(
    "topology, schedule, overhead",
    [(t, s, "issue_overhead") for t, s in _CELLS]
    # Only a barrier pays the synchronization overhead.
    + [(t, "sequential", "sync_overhead") for t in _MACHINES],
)
def test_a_negative_host_charge_fails_at_the_same_launch(topology, schedule, overhead, monkeypatch):
    got = _as_oracle(monkeypatch, lambda: _shift(topology, schedule, **{overhead: -1e-6}))
    assert got == (SimulationError, "negative host_compute duration", 0)
