"""Residual replay cache: digests, replay arithmetic, invalidation soundness.

The staged planner's third stage memoizes fully materialized residuals
(stale-copy plans plus their counters) keyed by ``(launch fingerprint,
footprint digest vector)``. These tests pin:

* the :meth:`~repro.runtime.tracker.SegmentTracker.footprint_digest`
  contract — clipped, canonical, sensitive to any ownership or sharer
  change inside the footprint;
* the replay arithmetic — a converged ping-pong misses once per
  (fingerprint, coherence state) and replays forever after;
* invalidation soundness — direct host-side mutations (memcpy, memset,
  free) change the digest and force a miss, never a stale replay;
* both planner memos under eviction pressure, their capacities shrunk;
* a hypothesis property interleaving launches with random buffer
  mutations and planning-config flips against the ``debug_audit`` oracle.
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
from repro.errors import TrackerError
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.runtime.tracker import SegmentTracker

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)


def _build_stencil():
    """A ping-pong 2-D stencil whose halos cross partition boundaries."""
    kb = KernelBuilder("rcstencil")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < N) & (gx < N)):
        with kb.if_((gy >= 1) & (gy < N - 1) & (gx >= 1) & (gx < N - 1)):
            acc = src[gy - 1, gx] + src[gy + 1, gx]
            acc = acc + src[gy, gx - 1] + src[gy, gx + 1]
            dst[gy, gx] = acc * 0.25
        with kb.otherwise():
            dst[gy, gx] = src[gy, gx]
    return kb.finish()


def _build_axpy():
    """A 1-D kernel whose scalar ``n`` varies the launch fingerprint."""
    kb = KernelBuilder("rcaxpy")
    n = kb.scalar("n")
    x = kb.array("x", f32, (n,))
    y = kb.array("y", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        y[gi,] = y[gi,] + x[gi,] * 2.0
    return kb.finish()


class TestFootprintDigest:
    def test_fresh_tracker_single_segment(self):
        t = SegmentTracker(100)
        assert t.footprint_digest([(0, 100)]) == ((0, 100, 0, frozenset()),)

    def test_clips_to_the_runs(self):
        t = SegmentTracker(100)
        t.update(20, 60, 3)
        digest = t.footprint_digest([(30, 50)])
        assert digest == ((30, 50, 3, frozenset()),)

    def test_multiple_runs_concatenate_in_order(self):
        t = SegmentTracker(100)
        t.update(40, 100, 1)
        digest = t.footprint_digest([(0, 10), (35, 45)])
        assert digest == (
            (0, 10, 0, frozenset()),
            (35, 40, 0, frozenset()),
            (40, 45, 1, frozenset()),
        )

    def test_empty_runs_digest_empty(self):
        t = SegmentTracker(100)
        assert t.footprint_digest([]) == ()

    def test_ownership_change_changes_the_digest(self):
        t = SegmentTracker(100)
        before = t.footprint_digest([(0, 100)])
        t.update(10, 20, 2)
        assert t.footprint_digest([(0, 100)]) != before

    def test_sharer_change_changes_the_digest(self):
        t = SegmentTracker(100)
        before = t.footprint_digest([(0, 100)])
        t.add_sharer(0, 50, 1)
        after = t.footprint_digest([(0, 100)])
        assert after != before
        assert after[0][3] == frozenset({1})

    def test_change_outside_the_footprint_is_invisible(self):
        t = SegmentTracker(100)
        before = t.footprint_digest([(0, 40)])
        t.update(60, 80, 2)
        assert t.footprint_digest([(0, 40)]) == before

    def test_digest_is_canonical_across_histories(self):
        # Two different update histories converging to the same segment
        # map must digest identically (eager coalescing is canonical).
        a = SegmentTracker(100)
        a.update(0, 50, 1)
        a.update(50, 100, 1)
        b = SegmentTracker(100)
        b.update(0, 100, 2)
        b.update(0, 100, 1)
        assert a.footprint_digest([(0, 100)]) == b.footprint_digest([(0, 100)])

    def test_charges_no_query_ops(self):
        # The digest is the replay cache's key probe; charging it as a
        # tracker query would make replay hits observable in the stats.
        t = SegmentTracker(100)
        t.footprint_digest([(0, 100)])
        assert t.op_counts["query"] == 0

    def test_rejects_bad_ranges(self):
        t = SegmentTracker(100)
        with pytest.raises(TrackerError):
            t.footprint_digest([(50, 40)])


class _Harness:
    """One functional stencil ping-pong run with direct-mutation hooks."""

    def __init__(self, **config_kwargs):
        self.kernel = _build_stencil()
        app = compile_app([self.kernel])
        self.api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, **config_kwargs))
        self.nbytes = N * N * 4
        self.a = self.api.cudaMalloc(self.nbytes)
        self.b = self.api.cudaMalloc(self.nbytes)
        self.data = np.random.default_rng(5).random((N, N)).astype(np.float32)
        self.api.cudaMemcpy(self.a, self.data, self.nbytes, MemcpyKind.HostToDevice)
        self.api.cudaMemset(self.b, 0, self.nbytes)
        self.src, self.dst = self.a, self.b

    def step(self):
        self.api.launch(self.kernel, GRID, BLOCK, [self.src, self.dst])
        self.src, self.dst = self.dst, self.src

    def converge(self, steps=4):
        for _ in range(steps):
            self.step()
        return (
            self.api.stats.residual_cache_hits,
            self.api.stats.residual_cache_misses,
        )


class TestReplayArithmetic:
    def test_converged_ping_pong_replays(self):
        h = _Harness()
        h.converge(6)
        s = h.api.stats
        # Buffer identities are not part of either key, so the whole
        # ping-pong shares one fingerprint. The coherence state converges
        # after the first pair of launches: two misses (one per parity
        # of the first iteration), replays from there on.
        assert s.plan_cache_misses == 1
        assert s.residual_cache_misses + s.residual_cache_hits == 6
        assert s.residual_cache_hits >= 4
        assert s.residual_cache_evictions == 0
        # Replay hits are a subset of plan-cache (skeleton) hits.
        assert s.residual_cache_hits <= s.plan_cache_hits

    def test_replay_skips_tracker_planning_but_mirrors_queries(self):
        cached = _Harness()
        cached.converge(6)
        oracle = _Harness(debug_audit=True)
        oracle.converge(6)
        # Replay is stats-invisible: the mirrored query counts (and every
        # other counter) match the audited run, whose hits re-plan live.
        assert cached.api.stats == oracle.api.stats


class TestDirectMutationsMiss:
    """memcpy/memset/free between launches must change the digest.

    The mutations cover *half* the buffer: a full-buffer memset or H2D
    upload at 4 GPUs happens to restore exactly the converged linear
    ownership pattern, in which case an (equally sound) replay is correct.
    A half-buffer mutation redistributes ownership and must miss.
    """

    def _converged(self):
        h = _Harness()
        h.converge(6)
        return h, h.api.stats.residual_cache_misses

    def test_memset_forces_a_miss(self):
        h, misses = self._converged()
        h.api.cudaMemset(h.src, 0, h.nbytes // 2)
        h.step()
        assert h.api.stats.residual_cache_misses > misses

    def test_h2d_memcpy_forces_a_miss(self):
        h, misses = self._converged()
        h.api.cudaMemcpy(h.src, h.data, h.nbytes // 2, MemcpyKind.HostToDevice)
        h.step()
        assert h.api.stats.residual_cache_misses > misses

    def test_free_and_remalloc_forces_a_miss(self):
        # Replacing the *read* buffer swaps in a fresh sole-owner tracker,
        # whose digest cannot match the converged partitioned ownership.
        h, misses = self._converged()
        h.api.cudaFree(h.src)
        h.src = h.api.cudaMalloc(h.nbytes)
        h.step()
        assert h.api.stats.residual_cache_misses > misses

    def test_restoring_the_same_coherence_state_may_replay(self):
        # The converse witness for the half-buffer choice above: a
        # full-buffer memset at 4 GPUs recreates the exact linear
        # ownership the ping-pong converged to, so the digest matches and
        # the launch replays — soundly, because equal digests mean equal
        # tracker answers.
        h, misses = self._converged()
        h.api.cudaMemset(h.src, 0, h.nbytes)
        h.step()
        assert h.api.stats.residual_cache_misses == misses

    def test_mutated_run_stays_bitwise_correct(self):
        def run(audit):
            h = _Harness(debug_audit=audit)
            h.converge(4)
            h.api.cudaMemset(h.src, 0, h.nbytes)
            h.converge(3)
            out = np.zeros((N, N), dtype=np.float32)
            h.api.cudaMemcpy(out, h.src, h.nbytes, MemcpyKind.DeviceToHost)
            return out, [vb.coherence_state() for vb in (h.a, h.b)]

        out_on, trackers_on = run(False)
        out_off, trackers_off = run(True)
        assert np.array_equal(out_on, out_off)
        assert trackers_on == trackers_off


class TestEvictionPressure:
    """Both planner memos beyond their capacity: LRU eviction, still exact."""

    def _drive_sizes(self, api, kernel, sizes):
        cap = 1 << 12
        x, y = api.cudaMalloc(cap * 4), api.cudaMalloc(cap * 4)
        api.cudaMemset(x, 0, cap * 4)
        api.cudaMemset(y, 0, cap * 4)
        for n in sizes:
            api.launch(kernel, Dim3(n // 32), Dim3(32), [n, x, y])

    def test_cycling_distinct_fingerprints_evicts(self, monkeypatch):
        import repro.runtime.api as api_module

        monkeypatch.setattr(api_module, "SKELETON_CAPACITY", 4)
        monkeypatch.setattr(api_module, "RESIDUAL_CAPACITY", 4)
        kernel = _build_axpy()
        app = compile_app([kernel])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=2, debug_audit=True))
        # Eight distinct scalar sizes = eight distinct fingerprints
        # through a capacity-4 LRU: every launch misses, the second half
        # evicts the first.
        sizes = [128 * (i + 1) for i in range(8)]
        self._drive_sizes(api, kernel, sizes)
        s = api.stats
        assert s.plan_cache_misses == 8 and s.plan_cache_hits == 0
        assert s.plan_cache_evictions == 4
        assert s.residual_cache_misses == 8 and s.residual_cache_hits == 0
        assert s.residual_cache_evictions == 4
        # LRU: the evicted first half misses again, evicting the second.
        self._drive_sizes(api, kernel, sizes[:4])
        assert s.plan_cache_misses == 12
        assert s.plan_cache_evictions == 8

    def test_large_capacity_never_evicts(self):
        kernel = _build_axpy()
        app = compile_app([kernel])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=2))
        self._drive_sizes(api, kernel, [128 * (i + 1) for i in range(8)] * 2)
        s = api.stats
        assert s.plan_cache_evictions == 0
        assert s.residual_cache_evictions == 0
        # All eight skeletons survive to the second pass; residual hits
        # need the coherence state to recur too, which the interleaved
        # writes only grant some of the sizes.
        assert s.plan_cache_hits == 8
        assert s.residual_cache_hits > 0

    def test_capacity_must_be_positive(self):
        from repro.memo import Memo

        with pytest.raises(ValueError, match="capacity must be positive"):
            Memo("skeleton", 0)
        with pytest.raises(ValueError, match="capacity must be positive"):
            Memo("residual", -1)


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["launch", "memset", "h2d", "flip", "launch", "launch"]),
        min_size=4,
        max_size=12,
    ),
    seed=st.integers(0, 3),
)
def test_replay_is_invisible_under_random_interleavings(ops, seed):
    """Hypothesis: launches x mutations x config flips vs the audit oracle.

    Whatever interleaving of kernel launches, host-side buffer mutations
    and planning-config flips we drive, the shipped run must be
    indistinguishable from the ``debug_audit`` run — which raises at any
    stale replay — in outputs, tracker state and every stat.
    """
    kernel = _build_stencil()
    app = compile_app([kernel])
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)

    def run(audit):
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, debug_audit=audit))
        nbytes = N * N * 4
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
        api.cudaMemset(b, 0, nbytes)
        src, dst = a, b
        irredundant = False
        for op in ops:
            if op == "launch":
                api.launch(kernel, GRID, BLOCK, [src, dst])
                src, dst = dst, src
            elif op == "memset":
                api.cudaMemset(src, 0, nbytes // 2)
            elif op == "h2d":
                api.cudaMemcpy(src, data, nbytes, MemcpyKind.HostToDevice)
            elif op == "flip":
                irredundant = not irredundant
                api.config = dataclasses.replace(
                    api.config, irredundant_transfers=irredundant
                )
        out_a = np.zeros((N, N), dtype=np.float32)
        out_b = np.zeros((N, N), dtype=np.float32)
        api.cudaMemcpy(out_a, a, nbytes, MemcpyKind.DeviceToHost)
        api.cudaMemcpy(out_b, b, nbytes, MemcpyKind.DeviceToHost)
        return (out_a, out_b), [vb.coherence_state() for vb in (a, b)], api.stats

    cached = run(False)
    oracle = run(True)
    assert np.array_equal(cached[0][0], oracle[0][0])
    assert np.array_equal(cached[0][1], oracle[0][1])
    assert cached[1] == oracle[1]
    assert cached[2] == oracle[2]
