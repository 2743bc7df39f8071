"""Plan-skeleton memo: LRU mechanics, staleness keys, cached==audited property.

The staged launch planner memoizes tracker-independent plan skeletons per
launch fingerprint (docs/performance.md). These tests pin:

* the :class:`~repro.memo.Memo` LRU contract the skeleton memo (and every
  other memo) relies on;
* that every planning-relevant ``RuntimeConfig`` field participates in the
  fingerprint, so a knob flip can never serve a stale skeleton;
* the invisibility property — a shipped run is bitwise identical (outputs,
  trace, tracker state, every stat) to the same run under ``debug_audit``,
  which recomputes every hit, across the ``schedule x shared_copies x
  pipeline_window`` matrix, on a flat node and on a 2x2 cluster.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.memo import MISS, Memo
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.runtime.fingerprint import PLANNING_CONFIG_FIELDS, launch_fingerprint
from repro.sched.policy import SCHEDULES
from repro.sim.engine import SimMachine

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)


def _build_stencil(radius=1):
    """A ping-pong 2-D stencil whose halos cross partition boundaries."""
    kb = KernelBuilder("pcstencil")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < N) & (gx < N)):
        with kb.if_(
            (gy >= radius) & (gy < N - radius) & (gx >= radius) & (gx < N - radius)
        ):
            acc = src[gy - radius, gx] + src[gy + radius, gx]
            acc = acc + src[gy, gx - radius] + src[gy, gx + radius]
            dst[gy, gx] = acc * 0.25
        with kb.otherwise():
            dst[gy, gx] = src[gy, gx]
    return kb.finish()


class TestPlanCacheLru:
    """The :class:`~repro.memo.Memo` behind the skeleton memo and the rest."""

    def test_get_put_and_contains(self):
        memo = Memo("m", capacity=2)
        assert memo.get("a") is MISS
        assert not memo.put("a", None)
        assert "a" in memo and memo.get("a") is None  # None is a value
        assert len(memo) == 1
        memo.clear()
        assert "a" not in memo and len(memo) == 0

    def test_eviction_is_least_recently_used(self):
        memo = Memo("m", capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # a hit refreshes "a": now "b" is LRU
        assert memo.put("c", 3)  # evicts "b"
        assert "b" not in memo
        assert "a" in memo and "c" in memo
        assert memo.put("d", 4)  # "a" was refreshed before "c": evicts "a"
        assert list(memo._entries) == ["c", "d"]

    def test_put_reports_eviction_only_when_overflowing(self):
        memo = Memo("m", capacity=1)
        assert not memo.put("a", 1)
        assert memo.put("b", 2)
        assert not memo.put("b", 3)  # overwrite, no eviction

    def test_audit_names_the_memo_and_key(self):
        from repro.errors import MemoAuditError

        memo = Memo("skeleton", capacity=1)
        memo.audit("k", (1, 2), (1, 2))  # equal: silent
        with pytest.raises(MemoAuditError, match=r"memo 'skeleton' .* key 'k'"):
            memo.audit("k", (1, 2), (1, 3))


def _fingerprint_for(app, kernel, config):
    api = MultiGpuApi(app, config, machine=None, functional=False)
    ck = app.kernel(kernel.name)
    return launch_fingerprint(api, ck, GRID, BLOCK, {}, {"src": (N, N), "dst": (N, N)})


class TestFingerprintStaleness:
    #: One representative flip per planning-relevant config field: each
    #: must change the launch fingerprint, or a knob flip could serve a
    #: skeleton planned under the old setting.
    FLIPS = {
        "n_gpus": 2,
        "transfers_enabled": False,
        "tracking_enabled": False,
        "shared_copies": True,
        "schedule": "overlap",
        "pipeline_window": 4,
        "irredundant_transfers": True,
    }

    def test_every_planning_field_has_a_flip(self):
        assert set(self.FLIPS) == set(PLANNING_CONFIG_FIELDS)

    def test_each_planning_field_changes_the_fingerprint(self):
        kernel = _build_stencil()
        app = compile_app([kernel])
        base_cfg = RuntimeConfig(n_gpus=4)
        base = _fingerprint_for(app, kernel, base_cfg)
        for name, value in self.FLIPS.items():
            assert getattr(base_cfg, name) != value, name
            flipped = _fingerprint_for(
                app, kernel, dataclasses.replace(base_cfg, **{name: value})
            )
            assert flipped != base, f"flipping {name} left the fingerprint unchanged"

    def test_knob_flip_forces_a_rebuild(self):
        """Flipping a planning knob mid-run must miss, not reuse stale plans.

        The flipped run must also behave exactly like an audited run
        driven through the same flip — outputs and tracker state bitwise.
        """
        kernel = _build_stencil()
        app = compile_app([kernel])

        def drive(audit):
            api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, debug_audit=audit))
            nbytes = N * N * 4
            a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
            data = np.random.default_rng(3).random((N, N)).astype(np.float32)
            api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
            api.cudaMemset(b, 0, nbytes)
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.launch(kernel, GRID, BLOCK, [b, a])
            # Live reconfiguration: from here on, copies are trimmed to
            # exact read sets — cached skeletons keyed under the old
            # config must not be reused.
            api.config = dataclasses.replace(api.config, irredundant_transfers=True)
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.launch(kernel, GRID, BLOCK, [b, a])
            out = np.zeros((N, N), dtype=np.float32)
            api.cudaMemcpy(out, a, nbytes, MemcpyKind.DeviceToHost)
            return api, out, [vb.coherence_state() for vb in (a, b)]

        api, out, trackers = drive(audit=False)
        # Buffer identities are not part of the fingerprint, so all four
        # launches share one shape signature — but the flip starts a new
        # config epoch, forcing exactly one fresh miss.
        assert api.stats.plan_cache_misses == 2
        assert api.stats.plan_cache_hits == 2

        _, ref_out, ref_trackers = drive(audit=True)
        assert np.array_equal(out, ref_out)
        assert trackers == ref_trackers

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param("debug_audit", True, id="debug_audit")],
    )
    def test_non_planning_flip_hits(self, name, value):
        """Fields no plan builder reads stay out of the key: a flip hits.

        ``debug_audit`` re-checks what the memos serve; it does not change a
        skeleton, so the flipped run must keep hitting and stay bitwise
        equal to an audited run driven through the same flip.
        """
        assert name not in PLANNING_CONFIG_FIELDS
        kernel = _build_stencil()
        app = compile_app([kernel])

        def drive(audit):
            api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, debug_audit=audit))
            nbytes = N * N * 4
            data = np.random.default_rng(5).random((N, N)).astype(np.float32)
            a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
            api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
            api.cudaMemset(b, 0, nbytes)
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.config = dataclasses.replace(api.config, **{name: value})
            api.cudaMemcpy(b, data[::-1].copy(), nbytes, MemcpyKind.HostToDevice)
            api.launch(kernel, GRID, BLOCK, [b, a])
            api.launch(kernel, GRID, BLOCK, [a, b])
            out = np.zeros((N, N), dtype=np.float32)
            api.cudaMemcpy(out, b, nbytes, MemcpyKind.DeviceToHost)
            return api, out, [vb.coherence_state() for vb in (a, b)]

        api, out, trackers = drive(audit=False)
        assert api.stats.plan_cache_misses == 1
        assert api.stats.plan_cache_hits == 2
        _, ref_out, ref_trackers = drive(audit=True)
        assert np.array_equal(out, ref_out)
        assert trackers == ref_trackers

    def test_repeat_launches_hit(self):
        kernel = _build_stencil()
        app = compile_app([kernel])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        nbytes = N * N * 4
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        api.cudaMemset(a, 0, nbytes)
        api.cudaMemset(b, 0, nbytes)
        for _ in range(3):
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.launch(kernel, GRID, BLOCK, [b, a])
        # Buffer identities are deliberately not part of the key, so the
        # whole ping-pong collapses onto a single fingerprint: one miss,
        # then hits forever.
        assert api.stats.plan_cache_misses == 1
        assert api.stats.plan_cache_hits == 5
        assert api.stats.plan_cache_evictions == 0


def _observe(app, kernel, config, machine, seed):
    """One functional run; everything a cached==audited comparison looks at."""
    api = MultiGpuApi(app, config, machine=machine)
    nbytes = N * N * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    src, dst = a, b
    for _ in range(3):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out_a = np.zeros((N, N), dtype=np.float32)
    out_b = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out_a, a, nbytes, MemcpyKind.DeviceToHost)
    api.cudaMemcpy(out_b, b, nbytes, MemcpyKind.DeviceToHost)
    return (
        (out_a, out_b),
        [vb.coherence_state() for vb in (a, b)],
        list(machine.trace.intervals),
        dataclasses.asdict(api.stats),
    )


def _assert_warm_equals_cold(kernel, app, config_kwargs, make_machine, seed):
    runs = {}
    for audit in (False, True):
        cfg = RuntimeConfig(n_gpus=4, debug_audit=audit, **config_kwargs)
        runs[audit] = _observe(app, kernel, cfg, make_machine(), seed)
    shipped, audited = runs[False], runs[True]
    assert np.array_equal(shipped[0][0], audited[0][0]), config_kwargs
    assert np.array_equal(shipped[0][1], audited[0][1]), config_kwargs
    assert shipped[1] == audited[1], ("tracker state", config_kwargs)
    assert shipped[2] == audited[2], ("trace", config_kwargs)
    # Every stat, planner counters included: an audited hit is a hit.
    assert shipped[3] == audited[3], ("stats", config_kwargs)
    # The runs really exercised the memo.
    assert shipped[3]["plan_cache_hits"] > 0 and shipped[3]["plan_cache_misses"] > 0


@settings(max_examples=10, deadline=None)
@given(
    schedule=st.sampled_from(tuple(SCHEDULES) + ("auto",)),
    shared=st.booleans(),
    window=st.sampled_from([1, 4]),
    radius=st.integers(1, 2),
    seed=st.integers(0, 5),
)
def test_plan_cache_is_invisible(schedule, shared, window, radius, seed):
    """Cached==audited on a flat node over the full configuration matrix."""
    kernel = _build_stencil(radius)
    app = compile_app([kernel])
    _assert_warm_equals_cold(
        kernel,
        app,
        {"schedule": schedule, "shared_copies": shared, "pipeline_window": window},
        lambda: SimMachine(K80_NODE_SPEC.with_gpus(4)),
        seed,
    )


def test_plan_cache_is_invisible_on_a_cluster():
    """Cached==audited with cross-node halos (2x2 cluster, overlap+p2p, halo-first)."""
    from repro.cluster.engine import ClusterSimMachine

    kernel = _build_stencil()
    app = compile_app([kernel])
    _assert_warm_equals_cold(
        kernel,
        app,
        {"schedule": "overlap+p2p", "shared_copies": True, "pipeline_window": 4},
        lambda: ClusterSimMachine(k80_cluster(2, 2)),
        seed=1,
    )
