"""Bitwise equivalence of the launch-scheduler policies.

The scheduler only re-orders *device* work: functional copies, kernel
interpretation and tracker updates happen identically in every policy. This
property test drives randomly generated parametric 2-D stencil workloads
(random tap sets, random iteration counts, random GPU counts) through all
schedules — with shared-copy coherence tracking both off and on — and
requires

* bitwise-identical host-visible buffers,
* identical final tracker state (segment boundaries, owners, *and* sharer
  sets), and
* that shared-copy tracking never transfers more coherence bytes,

so neither a schedule nor the coherence mode can ever be observed
functionally.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.harness.calibration import K80_NODE_SPEC
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import SCHEDULES
from repro.sim.engine import SimMachine

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)

#: Stencil taps: (dy, dx, coefficient). Offsets up to ±2 make the halo
#: exchange span multiple partition bands at small N.
taps_strategy = st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.sampled_from([0.25, 0.5, 1.0, -0.5]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda t: (t[0], t[1]),
)


def _build_stencil(taps):
    radius = max(max(abs(dy), abs(dx)) for dy, dx, _ in taps)
    kb = KernelBuilder("randst")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < N) & (gx < N)):
        with kb.if_(
            (gy >= radius) & (gy < N - radius) & (gx >= radius) & (gx < N - radius)
        ):
            dy0, dx0, c0 = taps[0]
            acc = src[gy + dy0, gx + dx0] * c0
            for dy, dx, c in taps[1:]:
                acc = acc + src[gy + dy, gx + dx] * c
            dst[gy, gx] = acc
        with kb.otherwise():
            dst[gy, gx] = src[gy, gx]
    return kb.finish()


def _run(
    app, kernel, schedule, n_gpus, iterations, seed, shared_copies=False,
    pipeline_window=1,
):
    machine = SimMachine(K80_NODE_SPEC.with_gpus(n_gpus))
    api = MultiGpuApi(
        app,
        RuntimeConfig(
            n_gpus=n_gpus,
            schedule=schedule,
            shared_copies=shared_copies,
            pipeline_window=pipeline_window,
        ),
        machine=machine,
    )
    nbytes = N * N * 4
    a = api.cudaMalloc(nbytes)
    b = api.cudaMalloc(nbytes)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    src, dst = a, b
    for _ in range(iterations):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out_a = np.zeros((N, N), dtype=np.float32)
    out_b = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out_a, a, nbytes, MemcpyKind.DeviceToHost)
    api.cudaMemcpy(out_b, b, nbytes, MemcpyKind.DeviceToHost)
    trackers = [vb.coherence_state() for vb in (a, b)]
    return (out_a, out_b), trackers, api.elapsed(), api.stats, machine.trace


@settings(max_examples=15, deadline=None)
@given(
    taps=taps_strategy,
    n_gpus=st.sampled_from([2, 3, 4, 8]),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 9),
)
def test_schedules_bitwise_equivalent(taps, n_gpus, iterations, seed):
    kernel = _build_stencil(taps)
    app = compile_app([kernel])
    results = {s: _run(app, kernel, s, n_gpus, iterations, seed) for s in SCHEDULES}

    (ref_a, ref_b), ref_trackers, _, _, _ = results["sequential"]
    for sched in SCHEDULES[1:]:
        (got_a, got_b), got_trackers, _, _, _ = results[sched]
        assert np.array_equal(ref_a, got_a), (sched, taps, n_gpus, iterations)
        assert np.array_equal(ref_b, got_b), (sched, taps, n_gpus, iterations)
        assert got_trackers == ref_trackers, (sched, taps, n_gpus, iterations)

    # Relaxing the barrier (and routing copies peer-to-peer) never makes the
    # simulated execution slower: each policy's dependency set is a subset
    # of the previous one's, and the p2p route's cost dominates the staged
    # route's.
    eps = 1e-9
    assert results["overlap"][2] <= results["sequential"][2] + eps
    assert results["overlap+p2p"][2] <= results["overlap"][2] + eps


ALL_POLICIES = tuple(SCHEDULES) + ("auto",)


@settings(max_examples=10, deadline=None)
@given(
    taps=taps_strategy,
    n_gpus=st.sampled_from([2, 4, 8]),
    iterations=st.integers(2, 3),
    seed=st.integers(0, 9),
)
def test_shared_copies_bitwise_equivalent(taps, n_gpus, iterations, seed):
    """Shared-copy tracking x every policy: one functional behaviour.

    All eight (policy, shared flag) combinations must produce identical
    buffers; within a flag setting every policy must also land on the same
    final tracker state including sharer sets, and shared-copy runs must
    never transfer more coherence bytes than sole-owner runs.
    """
    kernel = _build_stencil(taps)
    app = compile_app([kernel])
    results = {
        (s, shared): _run(app, kernel, s, n_gpus, iterations, seed, shared)
        for s in ALL_POLICIES
        for shared in (False, True)
    }

    (ref_a, ref_b), _, _, _, _ = results[("sequential", False)]
    for key, ((got_a, got_b), _, _, _, _) in results.items():
        assert np.array_equal(ref_a, got_a), (key, taps, n_gpus, iterations)
        assert np.array_equal(ref_b, got_b), (key, taps, n_gpus, iterations)

    for shared in (False, True):
        ref_trackers = results[("sequential", shared)][1]
        for sched in ALL_POLICIES[1:]:
            assert results[(sched, shared)][1] == ref_trackers, (sched, shared)

    for sched in ALL_POLICIES:
        off = results[(sched, False)][3]
        on = results[(sched, True)][3]
        # A ping-pong stencil re-reads only freshly written halo bands, so
        # shared copies cannot *reduce* its traffic — but they must never
        # add any.
        assert on.sync_bytes <= off.sync_bytes, (sched, taps, n_gpus)
        assert off.redundant_bytes_avoided == 0 and off.tracker_share_ops == 0

    # Sole-owner runs must not report sharers in the final state.
    for sched in ALL_POLICIES:
        for state in results[(sched, False)][1]:
            assert all(sharers == () for *_rest, sharers in state), sched


@settings(max_examples=10, deadline=None)
@given(
    taps=taps_strategy,
    n_gpus=st.sampled_from([2, 4, 8]),
    window=st.sampled_from([2, 4, 8]),
    shared=st.booleans(),
    iterations=st.integers(2, 4),
    seed=st.integers(0, 9),
)
def test_pipelining_functionally_invisible(taps, n_gpus, window, shared, iterations, seed):
    """pipeline_window x policy x shared copies: one behaviour.

    The window only selects the halo-first copy order on clusters, so on a
    flat (single-node) machine buffers, tracker state (including sharer
    sets), coherence traffic and the trace itself replay window 1 event for
    event under every policy: same intervals, same resources, same launch
    attribution.
    """
    kernel = _build_stencil(taps)
    app = compile_app([kernel])
    for sched in ALL_POLICIES:
        base = _run(app, kernel, sched, n_gpus, iterations, seed, shared)
        piped = _run(
            app, kernel, sched, n_gpus, iterations, seed, shared,
            pipeline_window=window,
        )
        key = (sched, window, shared, taps, n_gpus, iterations)
        assert np.array_equal(base[0][0], piped[0][0]), key
        assert np.array_equal(base[0][1], piped[0][1]), key
        assert base[1] == piped[1], key
        assert base[3].sync_bytes == piped[3].sync_bytes, key
        assert base[3].sync_transfers == piped[3].sync_transfers, key
        assert base[3].tracker_share_ops == piped[3].tracker_share_ops, key
        assert base[3].tracker_invalidate_ops == piped[3].tracker_invalidate_ops, key
        assert piped[4].intervals == base[4].intervals, key
        assert piped[2] == base[2], key


def _build_broadcast():
    """Every thread also reads element 0 — shared data a sole-owner tracker
    re-broadcasts every launch (§8.3)."""
    kb = KernelBuilder("bcast")
    table = kb.array("table", f32, (N * N,))
    out = kb.array("out", f32, (N * N,))
    gi = kb.global_id("x")
    with kb.if_(gi < N * N):
        out[gi,] = table[gi,] + table[0,]
    return kb.finish()


def test_shared_copies_pay_off_on_broadcast_reads():
    """Repeated broadcast reads: sharers cut traffic, all policies agree."""
    kernel = _build_broadcast()
    app = compile_app([kernel])
    nbytes = N * N * 4
    grid, block = Dim3(x=(N * N) // 64), Dim3(x=64)
    data = np.arange(N * N, dtype=np.float32)

    results = {}
    for sched in ALL_POLICIES:
        for shared in (False, True):
            machine = SimMachine(K80_NODE_SPEC.with_gpus(4))
            api = MultiGpuApi(
                app,
                RuntimeConfig(n_gpus=4, schedule=sched, shared_copies=shared),
                machine=machine,
            )
            table = api.cudaMalloc(nbytes)
            out = api.cudaMalloc(nbytes)
            api.cudaMemcpy(table, data, nbytes, MemcpyKind.HostToDevice)
            api.cudaMemset(out, 0, nbytes)
            for _ in range(3):
                api.launch(kernel, grid, block, [table, out])
            got = np.zeros(N * N, dtype=np.float32)
            api.cudaMemcpy(got, out, nbytes, MemcpyKind.DeviceToHost)
            results[(sched, shared)] = (got, [table.coherence_state(), out.coherence_state()], api.stats)

    ref, _, _ = results[("sequential", False)]
    for key, (got, _, _) in results.items():
        assert np.array_equal(ref, got), key
    for shared in (False, True):
        ref_state = results[("sequential", shared)][1]
        for sched in ALL_POLICIES[1:]:
            assert results[(sched, shared)][1] == ref_state, (sched, shared)
    for sched in ALL_POLICIES:
        off, on = results[(sched, False)][2], results[(sched, True)][2]
        # Element 0 is re-fetched by 3 remote GPUs on every launch without
        # sharers; with them only the first launch pays.
        assert on.redundant_bytes_avoided > 0, sched
        assert on.sync_bytes < off.sync_bytes, sched
        assert on.tracker_share_ops > 0 and off.tracker_share_ops == 0, sched
