"""The four benchmark workloads, written against the front door only.

Everything here goes through names a user of the package would import:
``compile_app``, ``MultiGpuApi``, ``CudaApi``, ``RuntimeConfig``, ``Dim3``,
``MemcpyKind``, ``SimMachine``, ``ClusterSimMachine``, the calibrated
``K80_NODE_SPEC`` / ``K80_CLUSTER_SPEC``, the ``repro.workloads`` classes and
``lint_kernels``. Internals may be renamed or deleted without touching this
file; only ``bench/trace.py`` knows about them.

A workload is set up once per process and then measured in *laps*: each lap
replays the same seeded op stream on fresh runtimes, so every lap must
report the same simulated numbers and the same counters, whatever the host
clock did. The stream is a function of ``--seed`` alone.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import sys
import time
import traceback

import numpy as np

from repro import CudaApi, Dim3, MemcpyKind, MultiGpuApi, RuntimeConfig, compile_app
from repro.analysis import lint_kernels
from repro.cluster import ClusterSimMachine
from repro.harness.calibration import K80_CLUSTER_SPEC, K80_NODE_SPEC
from repro.sim import SimMachine
from repro.workloads import (
    CholeskyWorkload,
    DStencilWorkload,
    HotspotWorkload,
    ImgPipeWorkload,
    MatmulWorkload,
    NBodyWorkload,
    ProblemConfig,
)

APP_CLASSES = {
    "hotspot": HotspotWorkload,
    "nbody": NBodyWorkload,
    "matmul": MatmulWorkload,
    "dstencil": DStencilWorkload,
    "cholesky": CholeskyWorkload,
    "imgpipe": ImgPipeWorkload,
}

#: Side length of the Table-1 "medium" hotspot grid.
HOTSPOT_MEDIUM = 16_384


@dataclasses.dataclass
class Lap:
    """What one lap measured: host times, simulated numbers, exact counters."""

    op_us: list = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    #: Summed ``RunStats`` integers plus the simulated clock and numbers
    #: derived from the simulated trace (``sim_*``): all exact, so every lap
    #: of a run must agree on them.
    counts: dict = dataclasses.field(default_factory=lambda: collections.defaultdict(int))
    #: Host seconds the program itself reports (``PipelineTimings``).
    host: dict = dataclasses.field(default_factory=lambda: collections.defaultdict(float))
    checks: int = 0
    failures: list = dataclasses.field(default_factory=list)
    #: The lap's ``LaunchProfiler`` (traced laps only).
    profile: object = None

    def check(self, ok, message):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def guarded(self, label, fn):
        """Run one host program; an op that raises is a failed op, not a
        dead benchmark."""
        try:
            return fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def timed(self, tracer, label, fn):
        """Run ``fn`` inside the lap's timed region and add its wall time."""
        with tracer.timed():
            start = time.perf_counter()
            result = self.guarded(label, fn)
            self.wall_s += time.perf_counter() - start
        return result

    def timed_op(self, tracer, label, fn):
        """Run ``fn`` as one timed op of its own (one root span when traced)."""
        with tracer.timed(), tracer.op(label):
            start = time.perf_counter()
            result = self.guarded(label, fn)
            duration = time.perf_counter() - start
        self.op_us.append(duration * 1e6)
        self.wall_s += duration
        return result

    def time_launches(self, api, tracer):
        """Make every ``api.launch`` a timed op (one root span when traced)."""
        launch, op_us = api.launch, self.op_us

        def timed_launch(*args):
            with tracer.op("api.launch"):
                start = time.perf_counter()
                try:
                    launch(*args)
                finally:
                    op_us.append((time.perf_counter() - start) * 1e6)

        api.launch = timed_launch
        tracer.attach(api)

    def observe(self, api, ref_s):
        """Fold one finished runtime's simulated clock, trace and counters in."""
        trace = api.machine.trace
        tiers = trace.transfer_exposure_by_tier()
        exposed = {tier: tiers[tier]["exposed"] for tier in ("intra", "inter")}
        hidden = tiers["intra"]["hidden"] + tiers["inter"]["hidden"]
        counts = self.counts
        counts["sim_makespan_s"] += api.elapsed()
        counts["sim_ref_s"] += ref_s
        for key, value in dataclasses.asdict(api.stats).items():
            if isinstance(value, int):
                counts[key] += value
        counts["sim_events"] += len(trace)
        for category, busy in trace.by_category().items():
            counts[f"sim_busy_{category.value}_s"] += busy
        counts["sim_hidden_s"] += hidden
        counts["sim_exposed_s"] += exposed["intra"] + exposed["inter"]
        counts["sim_exposed_intra_s"] += exposed["intra"]
        counts["sim_exposed_inter_s"] += exposed["inter"]
        self.check(
            api.stats.enumerator_fallback == 0,
            f"{api.stats.enumerator_fallback} enumerator scans fell back to the scalar scanner",
        )


def fresh_image(workload):
    """A newly compiled application image. Laps compile their own (untimed):
    the image memoizes enumerator scans, so a reused one would hand every
    lap after the first a warmer start than the first had."""
    return compile_app(workload.build_kernels())


def single_gpu_reference(app, *, functional):
    """The single-device ``CudaApi`` baseline on one simulated K80 GPU."""
    spec = K80_NODE_SPEC.with_gpus(1)
    # CudaApi takes its kernel cost function from the caller. The runtime
    # builds the calibrated one for whatever machine it is given, so borrow
    # that instead of importing the cost model.
    cost = MultiGpuApi(
        app, RuntimeConfig(n_gpus=1), machine=SimMachine(spec), functional=False
    ).kernel_cost
    return CudaApi(machine=SimMachine(spec), kernel_cost=cost, functional=functional)


class SteadyReplay:
    """Hotspot medium on the flat 16-GPU node: every launch after the first
    replays a memoized residual, so host time is cost model + simulated
    issue. A lap is a third of the paper's 1500 iterations, so that a run
    holds enough laps for medians; the seed adds 0..7 iterations."""

    name = "steady_replay"
    #: Leading ops of a lap left out of ``op_us_p50``: cold, first replay.
    warmup = 2

    def __init__(self, seed, quick):
        rng = np.random.default_rng(seed)
        self.iterations = (100 if quick else 500) + int(rng.integers(0, 8))

    def setup(self):
        cfg = ProblemConfig("hotspot", "medium", HOTSPOT_MEDIUM, self.iterations)
        self.workload = HotspotWorkload(cfg)
        ref = single_gpu_reference(fresh_image(self.workload), functional=False)
        self.workload.run(ref, None)
        self.ref_s = ref.elapsed()

    def lap(self, tracer):
        lap = Lap()
        app = fresh_image(self.workload)
        gc.collect()
        api = MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=16, schedule="overlap+p2p", pipeline_window=1),
            machine=SimMachine(K80_NODE_SPEC),
            functional=False,
        )
        lap.time_launches(api, tracer)
        lap.timed(tracer, "hotspot", lambda: self.workload.run(api, None))
        lap.observe(api, self.ref_s)
        lap.check(
            api.stats.residual_cache_hits == self.iterations - 1,
            f"{api.stats.residual_cache_hits} replay launches, "
            f"expected {self.iterations - 1}",
        )
        lap.check(api.stats.fallback_launches == 0, "a launch took the fallback path")
        return lap


class ShapeChurn:
    """The same kernel on the 2x8 cluster under a stream of distinct launch
    shapes: almost every launch misses the plan cache, so skeleton build,
    enumerator scans and the live residual path do the work that
    ``steady_replay`` skips."""

    name = "shape_churn"
    warmup = 2  # the two launches that first touch each buffer
    BLOCKS = ((16, 16), (32, 8), (8, 32), (32, 16), (16, 32), (64, 4), (4, 64), (32, 32))
    #: A cudaMemset or H2D cudaMemcpy precedes every PREFIX_EVERY-th launch.
    PREFIX_EVERY = 8
    #: Every REPEAT_EVERY-th launch repeats a recent shape (the warm path).
    REPEAT_EVERY = 16
    #: Step through the shape table; coprime to its length (64 or 192).
    STRIDE = 77

    def __init__(self, seed, quick):
        n = HOTSPOT_MEDIUM
        self.nbytes = n * n * 4
        bands = 8 if quick else 24
        # Full-width row bands of distinct heights x all block shapes, every
        # one a distinct fingerprint, visited with a stride that changes band
        # and block shape at every step.
        shapes = [
            (bx, by, n // 2 + (k * (n // 2)) // bands)
            for k in range(1, bands + 1)
            for bx, by in self.BLOCKS
        ]
        count = len(shapes)
        cycle = [shapes[(i * self.STRIDE) % count] for i in range(count)]
        for i in range(self.REPEAT_EVERY - 1, count, self.REPEAT_EVERY):
            cycle[i] = cycle[i - 4]
        prefix = [None] * count
        n_prefix = count // self.PREFIX_EVERY
        for j in range(n_prefix):
            size = self.nbytes * (1 + (j * 5) % n_prefix) // (n_prefix + 1)
            prefix[j * self.PREFIX_EVERY + self.PREFIX_EVERY - 1] = (j % 2 == 0, size)
        # The seed picks where the cycle starts. Every seed therefore runs
        # the same launches after the same predecessors, bar one junction,
        # and the simulated numbers of two seeds differ by well under 1 %.
        start = int(np.random.default_rng(seed).integers(count))
        events = list(zip(prefix, cycle))
        self.events = events[start:] + events[:start]

    def setup(self):
        self.workload = HotspotWorkload(ProblemConfig("hotspot", "medium", HOTSPOT_MEDIUM, 1))
        ref = single_gpu_reference(fresh_image(self.workload), functional=False)
        self.drive(ref)
        self.ref_s = ref.elapsed()

    def drive(self, api):
        """The host program: the launch stream with its prefix ops."""
        n, kernel = HOTSPOT_MEDIUM, self.workload.kernel
        a, b = api.cudaMalloc(self.nbytes), api.cudaMalloc(self.nbytes)
        for buf in (a, b):
            api.cudaMemcpy(buf, None, self.nbytes, MemcpyKind.HostToDevice)
        for prefix, (bx, by, rows) in self.events:
            if prefix is not None:
                is_memset, size = prefix
                if is_memset:
                    api.cudaMemset(a, 0, size)
                else:
                    api.cudaMemcpy(a, None, size, MemcpyKind.HostToDevice)
            grid = Dim3(x=-(-n // bx), y=-(-rows // by))
            api.launch(kernel, grid, Dim3(x=bx, y=by), [a, b])
            a, b = b, a
        api.cudaDeviceSynchronize()

    def lap(self, tracer):
        lap = Lap()
        app = fresh_image(self.workload)
        gc.collect()
        api = MultiGpuApi(
            app,
            RuntimeConfig(
                n_gpus=16, schedule="overlap+p2p", shared_copies=True, pipeline_window=1
            ),
            machine=ClusterSimMachine(K80_CLUSTER_SPEC),
            functional=False,
        )
        lap.time_launches(api, tracer)
        lap.timed(tracer, "shape stream", lambda: self.drive(api))
        lap.observe(api, self.ref_s)
        stats = api.stats
        lookups = stats.plan_cache_hits + stats.plan_cache_misses
        lap.check(
            lookups > 0 and stats.plan_cache_misses >= 0.9 * lookups,
            f"plan-cache miss ratio {stats.plan_cache_misses}/{lookups} is below 0.9",
        )
        lap.check(stats.fallback_launches == 0, "a launch took the fallback path")
        return lap


class FunctionalMix:
    """All six applications really executed (interpreter, numpy copies, D2H
    gather) on a 2x2 cluster with the feature knobs on; the correctness
    gate: bitwise equal to single-device ``CudaApi`` and close to numpy.
    The op is one application's host program, H2D to D2H: its launches
    span 0.8 ms to 500 ms, far too mixed for a median launch to mean much."""

    name = "functional_mix"
    warmup = 0
    #: app -> (size, iterations, irredundant_transfers, numpy tolerance).
    #: The exact-read-set enumeration behind ``irredundant_transfers`` costs
    #: 6-9 s per launch on nbody and matmul even at the test suite's sizes
    #: and trims nothing there, so the knob stays off for those two: left
    #: on, this workload would time one analysis and nothing else.
    APPS = {
        "hotspot": (512, 20, True, 2e-4),
        "nbody": (512, 4, False, 2e-3),
        "matmul": (256, 1, False, 2e-4),
        "dstencil": (64, 4, True, 2e-4),
        "cholesky": (64, 1, True, 2e-4),
        "imgpipe": (256, 8, True, 2e-4),
    }
    QUICK_APPS = {
        "hotspot": (128, 6, True, 2e-4),
        "nbody": (192, 2, False, 2e-3),
        "matmul": (64, 1, False, 2e-4),
        "dstencil": (32, 2, True, 2e-4),
        "cholesky": (32, 1, True, 2e-4),
        "imgpipe": (64, 2, True, 2e-4),
    }

    def __init__(self, seed, quick):
        self.seed = seed  # generates the input arrays
        self.table = self.QUICK_APPS if quick else self.APPS

    def setup(self):
        self.apps = {}
        for name in self.table:
            size, iterations, irredundant, tol = self.table[name]
            workload = APP_CLASSES[name](ProblemConfig(name, "functional", size, iterations))
            inputs = workload.make_inputs(seed=self.seed)
            ref = single_gpu_reference(fresh_image(workload), functional=True)
            expected = workload.run(ref, inputs)
            numpy_result = workload.reference(inputs)
            config = RuntimeConfig(
                n_gpus=4,
                schedule="overlap+p2p",
                shared_copies=True,
                irredundant_transfers=irredundant,
                pipeline_window=4,
            )
            self.apps[name] = (workload, inputs, expected, numpy_result, ref.elapsed(), config)

    def lap(self, tracer):
        lap = Lap()
        gc.collect()
        cluster = K80_CLUSTER_SPEC.with_shape(2, 2)
        for name in self.table:
            workload, inputs, expected, numpy_result, ref_s, config = self.apps[name]
            tol = self.table[name][3]
            api = MultiGpuApi(fresh_image(workload), config, machine=ClusterSimMachine(cluster))
            tracer.attach(api)
            got = lap.timed_op(
                tracer, f"workloads.{name}.run", lambda: workload.run(api, inputs)
            )
            if got is None:
                continue
            lap.observe(api, ref_s)
            for key, want in expected.items():
                lap.check(
                    np.array_equal(got[key], want),
                    f"{name}.{key} differs from the single-device CudaApi run",
                )
                lap.check(
                    np.allclose(got[key], numpy_result[key], atol=tol, rtol=tol),
                    f"{name}.{key} is not within {tol} of the numpy reference",
                )
            graph = getattr(workload, "last_graph", None)
            if graph is not None:
                lap.counts["task_edges"] += graph.stats.edges
                lap.counts["task_waves"] += graph.stats.waves
        return lap


class CompileLint:
    """Sweeps of ``compile_app`` + ``lint_kernels`` (default passes, then
    the dataflow pass) over the six applications' kernels: the paper's
    compile-time axis, with no runtime in the timed region."""

    name = "compile_lint"
    warmup = 0
    #: app -> (size, iterations). The dataflow lint enumerates points, so at
    #: the test suite's nbody 192 / matmul 48 it alone takes 7-9 s per
    #: application; these sizes keep a sweep near 4 s, a third of it compile.
    APPS = {
        "hotspot": (64, 6),
        "nbody": (64, 4),
        "matmul": (16, 1),
        "dstencil": (64, 4),
        "cholesky": (32, 1),
        "imgpipe": (64, 2),
    }

    def __init__(self, seed, quick):
        # The inputs are the applications' kernels: nothing to seed or scale.
        self.expected_codes = {}

    def setup(self):
        pass  # imports are the whole set-up: compiling is the op

    def compile_and_lint(self, name):
        size, iterations = self.APPS[name]
        workload = APP_CLASSES[name](ProblemConfig(name, "functional", size, iterations))
        kernels = workload.build_kernels()
        app = compile_app(kernels)
        grid, block = workload.launch_config()
        reports = [
            lint_kernels(kernels, grid=grid, block=block, n_gpus=4),
            lint_kernels(kernels, grid=grid, block=block, n_gpus=4, passes=["dataflow"]),
        ]
        return workload, app, reports

    def lap(self, tracer):
        lap = Lap()
        gc.collect()
        cluster = K80_CLUSTER_SPEC.with_shape(2, 2)
        for name in self.APPS:
            built = lap.timed_op(
                tracer, f"compile_lint.{name}", lambda: self.compile_and_lint(name)
            )
            if built is None:
                continue
            workload, app, reports = built
            codes = collections.Counter(d.code for r in reports for d in r.diagnostics)
            lap.check(
                self.expected_codes.setdefault(name, codes) == codes,
                f"{name}: diagnostic codes changed between sweeps",
            )
            lap.counts["diagnostics"] += sum(codes.values())
            lap.host["compiler_pass1_s"] += app.timings.pass1
            lap.host["compiler_pass2_s"] += app.timings.pass2
            # Untimed: the compiled image must drive the simulated cluster,
            # which also gives this workload its simulated numbers.
            ref = single_gpu_reference(app, functional=False)
            api = MultiGpuApi(
                app,
                RuntimeConfig(n_gpus=4, schedule="overlap+p2p"),
                machine=ClusterSimMachine(cluster),
                functional=False,
            )
            ran = lap.guarded(
                f"{name} (run)", lambda: (workload.run(ref, None), workload.run(api, None))
            )
            if ran is not None:
                lap.observe(api, ref.elapsed())
        return lap


WORKLOADS = {
    cls.name: cls for cls in (SteadyReplay, ShapeChurn, FunctionalMix, CompileLint)
}
