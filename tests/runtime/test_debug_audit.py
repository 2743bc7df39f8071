"""Tests for the debug audit: write scans and memo hits.

``RuntimeConfig.debug_audit`` checks every memo hit keyed on launch
arguments or live state against its recomputation (repro.memo). These
tests plant a stale entry in each audited memo, drive the memos past their
capacities, and run every application under the audit against the
shipped run.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.errors import MemoAuditError, PartitioningError, TrackerError
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.harness.identity import FACETS, identity_sweep, observe
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sim.engine import SimMachine
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from repro.workloads.dstencil import DStencilWorkload, src_shape
from repro.workloads.hotspot import BLOCK as HOTSPOT_BLOCK
from repro.workloads.hotspot import build_hotspot_kernel


class TestAuditPasses:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_workloads_survive_audit(self, name):
        """All benchmark kernels' scans match real execution, per partition."""
        wl = ALL_WORKLOADS[name](functional_config(name))
        inputs = wl.make_inputs(seed=9)
        app = compile_app(wl.build_kernels())
        api = MultiGpuApi(
            app, RuntimeConfig(n_gpus=3, debug_audit=True)
        )
        wl.run(api, inputs)  # raises if any scan over/under-claims

    def test_audit_with_annotation(self, rng):
        """Correct annotations pass the audit too."""
        from repro.cuda.dtypes import f32
        from repro.cuda.ir.builder import KernelBuilder

        kb = KernelBuilder("obf")
        n = kb.scalar("n")
        src = kb.array("src", f32, (n,))
        dst = kb.array("dst", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            dst[(gi * 2) // 2,] = src[gi,]
        k = kb.finish()
        good = (
            "[bd_x, n] -> { [bo_z, bo_y, bo_x, bi_z, bi_y, bi_x] -> [a0] :"
            " bo_x <= a0 < bo_x + bd_x and 0 <= a0 < n }"
        )
        app = compile_app([k], write_annotations={"obf": {"dst": good}})
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=2, debug_audit=True))
        d_s = api.cudaMalloc(64 * 4)
        d_d = api.cudaMalloc(64 * 4)
        api.cudaMemcpy(d_s, rng.random(64, dtype=np.float32), 64 * 4, MemcpyKind.HostToDevice)
        api.launch(k, Dim3(8), Dim3(8), [64, d_s, d_d])


class TestAuditCatchesLies:
    def test_wrong_annotation_detected(self, rng):
        """A plausible-but-wrong programmer annotation fails at launch."""
        from repro.cuda.dtypes import f32
        from repro.cuda.ir.builder import KernelBuilder

        kb = KernelBuilder("obf2")
        n = kb.scalar("n")
        src = kb.array("src", f32, (n,))
        dst = kb.array("dst", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            dst[(gi * 2) // 2,] = src[gi,]
        k = kb.finish()
        # Lie: claims each thread writes index + 1.
        wrong = (
            "[bd_x, n] -> { [bo_z, bo_y, bo_x, bi_z, bi_y, bi_x] -> [a0] :"
            " bo_x + 1 <= a0 < bo_x + bd_x + 1 and 1 <= a0 < n }"
        )
        app = compile_app([k], write_annotations={"obf2": {"dst": wrong}})
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=2, debug_audit=True))
        d_s = api.cudaMalloc(64 * 4)
        d_d = api.cudaMalloc(64 * 4)
        api.cudaMemcpy(d_s, rng.random(64, dtype=np.float32), 64 * 4, MemcpyKind.HostToDevice)
        with pytest.raises(PartitioningError, match="write-scan audit failed"):
            api.launch(k, Dim3(8), Dim3(8), [64, d_s, d_d])


class TestTrackerCanonicalForm:
    """Audited launches check the trackers they touched for maximal coalescing."""

    @pytest.mark.parametrize("audit", [True, False])
    def test_uncoalesced_tracker_raises_only_under_audit(self, audit, rng):
        from repro.cuda.dtypes import f32
        from repro.cuda.ir.builder import KernelBuilder

        kb = KernelBuilder("copy_prefix")
        n = kb.scalar("n")
        src = kb.array("src", f32, (n,))
        dst = kb.array("dst", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            dst[gi,] = src[gi,]
        k = kb.finish()
        api = MultiGpuApi(compile_app([k]), RuntimeConfig(n_gpus=2, debug_audit=audit))
        d_s = api.cudaMalloc(64 * 4)
        d_d = api.cudaMalloc(64 * 4)
        api.cudaMemcpy(d_s, rng.random(64, dtype=np.float32), 64 * 4, MemcpyKind.HostToDevice)
        # Two equal neighbors in dst's unwritten tail: [160, 192) and [192, 256).
        tr = d_d.tracker
        tr._starts[:] = [0, 160, 192]
        tr._owners[:] = [tr._owners[0], 1, 1]
        tr._sharers[:] = [frozenset()] * 3
        args = (k, Dim3(4), Dim3(8), [32, d_s, d_d])  # writes dst's bytes [0, 128)
        if audit:
            with pytest.raises(TrackerError, match="unmerged neighbors"):
                api.launch(*args)
        else:
            api.launch(*args)
            assert tr.n_segments == 5  # the launch did not merge them either


def _entries(memo):
    return memo._entries


def _corrupt_skeleton(api):
    for skel in _entries(api.plan_cache).values():
        scan = skel.partitions[0].reads[0]
        scan.ranges = scan.ranges[1:]


def _corrupt_residual(api):
    entries = _entries(api.residual_cache)
    for key, record in entries.items():
        first = record.scans[0]
        scans = ((first[0], first[1] + 1) + first[2:],) + record.scans[1:]
        entries[key] = dataclasses.replace(record, scans=scans)


def _corrupt_replay_binding(api):
    for record in _entries(api.residual_cache).values():
        plans = _entries(record.plans)
        for binding, plan in plans.items():
            plans[binding] = dataclasses.replace(plan, parts=plan.parts[::-1])


def _corrupt_estimate(api):
    for record in _entries(api.residual_cache).values():
        for plan in _entries(record.plans).values():
            transfer, compute = plan.estimate
            plan.estimate = (transfer + 1.0, compute)


def _corrupt_enumerator_scan(api):
    for enum in api.app.enumerators.all():
        entries = _entries(enum._scans)
        for key, (ranges, emitted) in entries.items():
            entries[key] = (ranges, emitted + 1)


def _corrupt_exact_read(api):
    for oracle in api.exact_reads.values():
        entries = _entries(oracle._cache)
        for key, ranges in entries.items():
            entries[key] = (ranges or [])[1:] + [(0, 4)]


class TestPlantedFaults:
    """One stale entry per audited memo; the audit names the memo it is in."""

    @pytest.mark.parametrize(
        "memo, corrupt",
        [
            ("skeleton", _corrupt_skeleton),
            ("residual", _corrupt_residual),
            ("replay_binding", _corrupt_replay_binding),
            ("estimate", _corrupt_estimate),
            ("enumerator_scan", _corrupt_enumerator_scan),
            ("exact_read", _corrupt_exact_read),
        ],
    )
    def test_stale_entry_raises_with_the_memo_name(self, memo, corrupt):
        # dstencil re-reads one read-only source: from the second launch on
        # every memo hits, the binding memo included; its strided reads
        # give the exact-read memo something to trim; ``auto`` estimates.
        wl = DStencilWorkload(functional_config("dstencil", size=16))
        api = MultiGpuApi(
            compile_app(wl.build_kernels()),
            RuntimeConfig(
                n_gpus=4, schedule="auto", irredundant_transfers=True, debug_audit=True
            ),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(4)),
        )
        n = wl.cfg.size
        rows, cols = src_shape(n)
        d_src, d_out = api.cudaMalloc(rows * cols * 4), api.cudaMalloc(n * n * 4)
        src = wl.make_inputs(seed=1)["src"]
        api.cudaMemcpy(d_src, src, src.nbytes, MemcpyKind.HostToDevice)
        grid, block = wl.launch_config()
        for _ in range(2):
            api.launch(wl.kernel, grid, block, [d_src, d_out])
        api.cudaDeviceSynchronize()
        corrupt(api)
        with pytest.raises(MemoAuditError, match=f"memo '{memo}'"):
            api.launch(wl.kernel, grid, block, [d_src, d_out])
            api.cudaDeviceSynchronize()


def _hotspot_loop(kernel, app, audit, n=64, steps=6):
    """A hotspot ping-pong with a mid-loop memset; ``(snapshots, raised)``.

    A snapshot of both buffers follows every launch. ``raised`` is ``(launch
    index, message)`` of the audit error that stopped the loop, or None.
    """
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, debug_audit=audit))
    nbytes = n * n * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    data = np.random.default_rng(2).random((n, n), dtype=np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    grid = Dim3(x=n // HOTSPOT_BLOCK.x, y=n // HOTSPOT_BLOCK.y)
    snapshots = []
    src, dst = a, b
    for i in range(steps):
        if i == steps // 2:
            api.cudaMemset(src, 0, nbytes // 2)
        try:
            api.launch(kernel, grid, HOTSPOT_BLOCK, [src, dst])
        except MemoAuditError as exc:
            return snapshots, (i, str(exc))
        src, dst = dst, src
        snapshot = []
        for vb in (a, b):
            host = np.empty((n, n), dtype=np.float32)
            api.cudaMemcpy(host, vb, nbytes, MemcpyKind.DeviceToHost)
            snapshot.append(host)
        snapshots.append(snapshot)
    return snapshots, None


def _first_difference(runs, reference):
    return next(
        (
            i
            for i, (got, want) in enumerate(zip(runs, reference))
            if not all(np.array_equal(x, y) for x, y in zip(got, want))
        ),
        None,
    )


class TestStaleReplay:
    def test_blind_digest_raises_before_any_output_differs(self, monkeypatch):
        """The bug class ``mutation_sweep`` exists for, caught in place: a
        footprint digest blind to tracker state replays a stale residual
        across the memset, and the audit stops the loop at that launch."""
        from repro.runtime.tracker import SegmentTracker

        kernel = build_hotspot_kernel(64)
        app = compile_app([kernel])
        good, _ = _hotspot_loop(kernel, app, audit=False)
        monkeypatch.setattr(SegmentTracker, "footprint_digest", lambda self, runs: ())
        wrong, _ = _hotspot_loop(kernel, app, audit=False)
        first_wrong = _first_difference(wrong, good)
        assert first_wrong is not None, "the planted digest served no stale residual"
        audited, raised = _hotspot_loop(kernel, app, audit=True)
        assert raised is not None
        at, message = raised
        assert "memo 'residual'" in message
        # Every launch before the raise produced the right bytes, and the
        # raise came no later than the first launch that would not have.
        assert _first_difference(audited, good) is None and len(audited) == at
        assert at <= first_wrong


class TestEvictionUnderAudit:
    """The skeleton, residual and scan memos at capacity 4 on a shape stream."""

    BLOCKS = ((16, 16), (32, 8), (8, 32), (32, 16))

    def _drive(self, api, kernel, n):
        """A small ``shape_churn``: distinct launch shapes, every third one
        behind a memset or an H2D upload, every fourth repeating one."""
        nbytes = n * n * 4
        data = np.random.default_rng(4).random((n, n), dtype=np.float32)
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        for buf in (a, b):
            api.cudaMemcpy(buf, data, nbytes, MemcpyKind.HostToDevice)
        shapes = [(bx, by, rows) for rows in (16, 32, 48, 64) for bx, by in self.BLOCKS]
        for i in range(14):
            bx, by, rows = shapes[(i * 5) % len(shapes)] if i % 4 != 3 else shapes[(i - 2) * 5 % len(shapes)]
            if i % 3 == 2:
                if i % 2:
                    api.cudaMemset(a, 0, nbytes // 3)
                else:
                    api.cudaMemcpy(a, data, nbytes // 2, MemcpyKind.HostToDevice)
            grid = Dim3(x=-(-n // bx), y=-(-rows // by))
            api.launch(kernel, grid, Dim3(x=bx, y=by), [a, b])
            a, b = b, a
        out = np.empty((n, n), dtype=np.float32)
        api.cudaMemcpy(out, a, nbytes, MemcpyKind.DeviceToHost)
        api.cudaDeviceSynchronize()
        return {"out": out}

    def test_capacity_four_is_audit_clean_and_bitwise_equal(self, monkeypatch):
        import repro.compiler.enumerators as enumerators
        import repro.runtime.api as api_module

        n = 64
        kernel = build_hotspot_kernel(n)

        def run(capacity, audit):
            if capacity is not None:
                monkeypatch.setattr(api_module, "SKELETON_CAPACITY", capacity)
                monkeypatch.setattr(api_module, "RESIDUAL_CAPACITY", capacity)
                monkeypatch.setattr(enumerators, "SCAN_CAPACITY", capacity)
            config = RuntimeConfig(
                n_gpus=4, schedule="overlap+p2p", shared_copies=True, debug_audit=audit
            )
            api = MultiGpuApi(
                compile_app([kernel]), config, machine=ClusterSimMachine(k80_cluster(2, 2))
            )
            return observe(api, self._drive(api, kernel, n))

        def evicted(cell, runs):
            (stats,) = runs["capacity 4, audited"].stats
            if stats["plan_cache_evictions"] and stats["residual_cache_evictions"]:
                return []
            return [f"no eviction at capacity 4: {stats}"]

        cells = [dict()]
        failures = identity_sweep(
            lambda: {"default": run(None, False), "capacity 4, audited": run(4, True)},
            cells,
            FACETS,
            masked=True,  # hit, miss and eviction counts move with the capacity
            check=evicted,
        )
        assert failures == []


#: The six applications, each at the smallest (size, iterations) that still
#: gives every GPU work and every memo a hit, so the 48-cell matrix fits
#: tier-1's time budget; None keeps the functional default.
_APPS = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
_CONFIGS = {
    "hotspot": (None, 3),
    "nbody": (64, 2),
    "matmul": (None, None),
    "dstencil": (None, 2),
    "cholesky": (16, None),
    "imgpipe": (32, 1),
}


@pytest.mark.parametrize("name", sorted(_APPS))
def test_every_app_is_audit_clean(name):
    """Each app equals its ``debug_audit`` run on every facet, stats
    unmasked, on flat and 2x2 machines, two schedules, windows 1 and 4."""
    size, iterations = _CONFIGS[name]
    wl = _APPS[name](functional_config(name, size=size, iterations=iterations))
    inputs = wl.make_inputs(seed=0)
    app = compile_app(wl.build_kernels())
    machines = {
        "flat": lambda: SimMachine(K80_NODE_SPEC.with_gpus(4)),
        "2x2": lambda: ClusterSimMachine(k80_cluster(2, 2)),
    }

    def run(topology, schedule, window):
        runs = {}
        for label, audit in (("shipped", False), ("audited", True)):
            config = RuntimeConfig(
                n_gpus=4,
                schedule=schedule,
                pipeline_window=window,
                shared_copies=True,
                debug_audit=audit,
            )
            api = MultiGpuApi(app, config, machine=machines[topology]())
            runs[label] = observe(api, wl.run(api, inputs))
        return runs

    cells = [
        dict(topology=t, schedule=s, window=w)
        for t in machines
        for s in ("sequential", "overlap+p2p")
        for w in (1, 4)
    ]
    assert identity_sweep(run, cells, FACETS) == []
