"""The one-pass halo-first order against the gang-projection tiering.

:func:`repro.sched.executor.halo_first_order` replaced a projection of each
plan onto the cluster (:mod:`tests.cluster.halo_order_oracle`, kept
verbatim). On every plan three applications record on 2x2 and 2x4
clusters, with shared copies and irredundant transfers each on and off,
the two must return the same (read sync, copy) pairs in the same order,
or both None.
"""

import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.harness.calibration import k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched import executor
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from tests.cluster import halo_order_oracle as oracle

_APPS = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
_SHAPES = ((2, 2), (2, 4))


def _recorded_plans(wl, app, shape, shared, irredundant):
    """The distinct plans one timing-only run of ``wl`` submits."""
    cluster = k80_cluster(*shape)
    api = MultiGpuApi(
        app,
        RuntimeConfig(
            n_gpus=cluster.total_gpus,
            shared_copies=shared,
            irredundant_transfers=irredundant,
        ),
        machine=ClusterSimMachine(cluster),
        functional=False,
    )
    plans = {}
    submit = executor.submit_plan

    def recorded(api, plan):
        plans.setdefault(id(plan), plan)
        submit(api, plan)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(executor, "submit_plan", recorded)
        wl.run(api, None)
    return cluster, list(plans.values())


def _pairs(order):
    return None if order is None else [(id(rs), id(t)) for rs, t in order]


def test_one_pass_order_matches_the_gang_tiering():
    outcomes = {"plan order": 0, "one tier": 0, "ratio gate": 0, "reordered": 0}
    for name in ("dstencil", "hotspot", "imgpipe"):
        wl = _APPS[name](functional_config(name))
        app = compile_app(wl.build_kernels())
        for shape in _SHAPES:
            for shared in (False, True):
                for irredundant in (False, True):
                    cluster, plans = _recorded_plans(wl, app, shape, shared, irredundant)
                    for plan in plans:
                        got = executor.halo_first_order(plan, cluster)
                        want = oracle.halo_first_order(plan, cluster)
                        cell = (name, shape, shared, irredundant, plan.ck.kernel.name)
                        assert _pairs(got) == _pairs(want), cell
                        tiers = set(oracle.transfer_priority_tiers(plan, cluster).values())
                        if got is not None:
                            moved = [t for _, t in got] != plan.transfers
                            outcome = "reordered" if moved else "plan order"
                        else:
                            outcome = "one tier" if len(tiers) <= 1 else "ratio gate"
                        outcomes[outcome] += 1
    # The sweep reaches every branch: reordered plans, plans the majority
    # gate keeps in plan order, and plans whose copies share one tier.
    assert outcomes["reordered"] > 0, outcomes
    assert outcomes["ratio gate"] > 0, outcomes
    assert outcomes["one tier"] > 0, outcomes
