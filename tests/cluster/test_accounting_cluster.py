"""Accounting identities on cluster runs.

The α/β/γ methodology and the overlap-exposure refinement must survive the
cluster machine: the new ``net`` resource only *re-buckets* transfer time
(intra vs inter), it never invents or loses any. Plus the acceptance
sanity check — at equal total GPUs, a multi-node shape never reports less
inter-node exposed transfer time than the (network-free) 1-node shape.
"""

import pytest

from repro.harness.calibration import k80_cluster
from repro.harness.experiments import run_timed
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import SCHEDULES
from repro.sim.trace import Category
from repro.workloads.common import table1_configs

CFG = next(c for c in table1_configs("hotspot") if c.size_label == "small")


def _tiers(api):
    return api.machine.trace.transfer_exposure_by_tier()


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_tiers_partition_transfer_busy_time(schedule):
    _, api = run_timed(CFG, RuntimeConfig(schedule=schedule), k80_cluster(2, 4))
    trace = api.machine.trace
    tiers = _tiers(api)
    total = sum(b for tier in tiers.values() for b in tier.values())
    assert total == pytest.approx(trace.busy_time(Category.TRANSFERS))
    # The flat exposure split is the tier split, summed.
    exposure = trace.transfer_exposure()
    assert exposure["hidden"] == pytest.approx(
        tiers["intra"]["hidden"] + tiers["inter"]["hidden"]
    )
    assert exposure["exposed"] == pytest.approx(
        tiers["intra"]["exposed"] + tiers["inter"]["exposed"]
    )
    # A 2-node hotspot run genuinely crosses the network.
    assert tiers["inter"]["hidden"] + tiers["inter"]["exposed"] > 0
    assert api.stats.inter_node_transfers > 0
    assert api.stats.inter_node_bytes > 0


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_multi_node_inter_exposure_dominates_one_node(schedule):
    _, one = run_timed(CFG, RuntimeConfig(schedule=schedule), k80_cluster(1, 8))
    _, two = run_timed(CFG, RuntimeConfig(schedule=schedule), k80_cluster(2, 4))
    assert _tiers(one)["inter"] == {"hidden": 0.0, "exposed": 0.0}
    assert _tiers(two)["inter"]["exposed"] >= _tiers(one)["inter"]["exposed"]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_beta_cluster_runs_record_no_transfers(schedule):
    base = RuntimeConfig(n_gpus=8, schedule=schedule)
    _, api = run_timed(CFG, base.beta(), k80_cluster(2, 4))
    assert api.machine.trace.busy_time(Category.TRANSFERS) == 0.0
    # Like sync_bytes, the inter-node counters tally the *logical* coherence
    # traffic, which the β run still computes (it only skips simulating it).
    assert api.stats.inter_node_bytes > 0
    tiers = _tiers(api)
    assert tiers["intra"] == {"hidden": 0.0, "exposed": 0.0}
    assert tiers["inter"] == {"hidden": 0.0, "exposed": 0.0}


def test_overlap_hides_inter_node_halos():
    _, seq = run_timed(CFG, RuntimeConfig(), k80_cluster(2, 4))
    _, ovl = run_timed(CFG, RuntimeConfig(schedule="overlap"), k80_cluster(2, 4))
    seq_inter = _tiers(seq)["inter"]
    ovl_inter = _tiers(ovl)["inter"]
    seq_total = seq_inter["hidden"] + seq_inter["exposed"]
    ovl_total = ovl_inter["hidden"] + ovl_inter["exposed"]
    assert seq_total > 0 and ovl_total > 0
    # The DAG schedule hides a larger fraction of the network traffic.
    assert ovl_inter["hidden"] / ovl_total > seq_inter["hidden"] / seq_total
