"""Every rendered kernel program against the tree-walking oracle.

:func:`repro.cuda.exec.interpreter.run_kernel` runs each kernel as a numpy
program rendered once from its IR. :mod:`tests.cuda.interp_oracle` keeps
the tree walker that used to run kernels. For every kernel of every
workload — plain and partitioned, at the launches the applications really
make and at grids with an overhanging block, so masks are partial, all true
and all false — and for hand-written kernels with lane-varying loop bounds,
both must give

* bitwise-equal arrays,
* equal :class:`AccessTrace` ``reads``, ``writes``, ``writers`` and
  ``readers``,
* the same :class:`ExecutionError` message (planted out-of-bounds loads
  and stores), and
* the same ``RuntimeWarning`` messages: none the walker does not give.
"""

import warnings
from unittest import mock

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32, f64, i64
from repro.cuda.exec import interpreter
from repro.cuda.exec.interpreter import AccessTrace, eval_scalar_expr, run_kernel
from repro.cuda.ir.builder import KernelBuilder, Val
from repro.cuda.ir.exprs import BinOp, Call, Const, GridIdx, LocalRef, Param
from repro.cuda.ir.kernel import Kernel, PartitionParam
from repro.errors import ExecutionError
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from tests.cuda import interp_oracle

REGISTRY = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
#: Launches kept per (kernel object, grid): iterations repeat one shape.
_PER_SHAPE = 2


def _copy_args(args):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}


def _run(fn, kernel, grid, block, args):
    """``(arrays, trace, error message, warnings)`` of one run on a copy."""
    args = _copy_args(args)
    trace = AccessTrace(record_lanes=True)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn(kernel, grid, block, args, trace=trace)
        except ExecutionError as exc:
            error = str(exc)
    arrays = {k: v for k, v in args.items() if isinstance(v, np.ndarray)}
    found = {(w.category.__name__, str(w.message)) for w in caught}
    return arrays, trace, error, found


def assert_same_as_oracle(kernel, grid, block, args):
    """The rendered program and the walker agree on one launch."""
    want, want_trace, want_error, want_warn = _run(
        interp_oracle.run_kernel, kernel, grid, block, args
    )
    got, got_trace, got_error, got_warn = _run(run_kernel, kernel, grid, block, args)
    label = f"{kernel.name} grid={grid} block={block}"
    assert got_error == want_error, label
    for name, arr in want.items():
        assert arr.dtype == got[name].dtype, (label, name)
        assert arr.tobytes() == got[name].tobytes(), (label, name)
    for field in ("reads", "writes", "writers", "readers"):
        assert getattr(got_trace, field) == getattr(want_trace, field), (label, field)
    assert got_warn == want_warn, label
    # The untraced program runs the same numpy calls.
    plain, _, plain_error, plain_warn = _run(_untraced, kernel, grid, block, args)
    assert plain_error == want_error, label
    assert plain_warn == want_warn, label
    for name, arr in want.items():
        assert arr.tobytes() == plain[name].tobytes(), (label, name)
    return want_error


def _untraced(kernel, grid, block, args, *, trace):
    run_kernel(kernel, grid, block, args)


def _capture(name):
    """Launches of one application: the single-device ``CudaApi`` run (plain
    kernels, whole grids) and a 3-GPU run (partitioned kernels, partition
    grids, whole-buffer fallbacks), with argument snapshots."""
    launches = []
    seen = {}

    def recording(kernel, grid, block, args, *, trace=None):
        key = (id(kernel), Dim3.of(grid), Dim3.of(block))
        seen[key] = seen.get(key, 0) + 1
        if seen[key] <= _PER_SHAPE:
            launches.append((kernel, Dim3.of(grid), Dim3.of(block), _copy_args(args)))
        return run_kernel(kernel, grid, block, args, trace=trace)

    wl = REGISTRY[name](functional_config(name))
    inputs = wl.make_inputs(seed=5)
    with mock.patch("repro.cuda.api.run_kernel", recording), mock.patch(
        "repro.sched.executor.run_kernel", recording
    ):
        wl.run(CudaApi(), inputs)
        wl.run(MultiGpuApi(compile_app(wl.build_kernels()), RuntimeConfig(n_gpus=3)), inputs)
    return launches


def _overhang(grid: Dim3) -> Dim3:
    """One extra block along every axis the grid spans."""
    return Dim3(grid.x + 1, grid.y + (grid.y > 1), grid.z + (grid.z > 1))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_workload_kernels_match_the_oracle(name):
    launches = _capture(name)
    kinds = {k.is_partitioned for k, _, _, _ in launches}
    assert kinds == {False, True}, (name, kinds)
    for kernel, grid, block, args in launches:
        assert assert_same_as_oracle(kernel, grid, block, args) is None
        assert_same_as_oracle(kernel, _overhang(grid), block, args)
        if kernel.is_partitioned:
            # A window past the domain: every guard mask is all false (or
            # an unguarded access is out of bounds).
            far = dict(args)
            for axis in "xyz":
                far[f"__partition_min_{axis}"] = args[f"__partition_min_{axis}"] + 4096
            assert_same_as_oracle(kernel, grid, block, far)


def _triangular():
    """Lane-varying loop bounds with a guard and a masked accumulator inside."""
    kb = KernelBuilder("tri")
    n = kb.scalar("n")
    a = kb.array("a", f32, (n,))
    out = kb.array("out", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("i", gi % 3, gi) as i:
            with kb.if_((i % 2).eq(0)):
                kb.assign(acc, acc + a[i,])
            with kb.otherwise():
                kb.assign(acc, acc - 1.0)
        out[gi,] = acc
    return kb.finish()


def _select_div():
    """Select, integer and float division, modulo, unary ops, math calls."""
    kb = KernelBuilder("mix")
    n = kb.scalar("n")
    s = kb.scalar("s", f64)
    a = kb.array("a", f64, (n,))
    out = kb.array("out", f64, (n, 2))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        q = kb.let("q", kb.select(gi < 3, gi * 7 // 2, -gi % 5))
        out[gi, 0] = a[gi,] / s + q
        out[gi, 1] = kb.sqrt(kb.abs(a[gi,])) + kb.minimum(a[gi,], s)
    return kb.finish()


def _unguarded(store_dim):
    """A store whose index ``store_dim`` runs one past the end."""
    kb = KernelBuilder("oob")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n, n))
    dst = kb.array("dst", f32, (n, n))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_(gx < n):
        with kb.if_(gy < n):
            y = gy + 1 if store_dim == 0 else gy
            x = gx + 1 if store_dim == 1 else gx
            dst[y, x] = src[gy, gx]
    return kb.finish()


def _bad_load(dim):
    kb = KernelBuilder("oob_load")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n, n))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    idx = [gi, gi]
    idx[dim] = gi - 1
    dst[gi,] = src[idx[0], idx[1]]
    with kb.if_(gi > 2):
        dst[gi,] = src[idx[0], idx[1]]
    return kb.finish()


def _promoting_assign():
    """An f64 local assigned f32 values under a mask: the walker's
    ``where(mask, new, old)`` promotes, also when the mask is all true."""
    kb = KernelBuilder("promote")
    n = kb.scalar("n")
    a = kb.array("a", f32, (n,))
    out = kb.array("out", f64, (n,))
    gi = kb.global_id("x")
    acc = kb.let("acc", 0.0)
    with kb.if_(gi < n):
        kb.assign(acc, a[gi,] * a[gi,])
        out[gi,] = acc / kb.f32const(3.0)
    return kb.finish()


def _signed_zeros():
    """``0.0`` and ``-0.0`` are equal constants with different bits."""
    kb = KernelBuilder("zeros")
    a = kb.array("a", f64, (8,))
    out = kb.array("out", f64, (8, 2))
    gi = kb.global_id("x")
    out[gi, 0] = 1.0 / (a[gi,] * Val(Const(-0.0, f64)))
    out[gi, 1] = 1.0 / (a[gi,] * Val(Const(0.0, f64)))
    return kb.finish()


def _racing_stores():
    """Several lanes store to one cell, 1-d and 2-d, masked and not: the
    last lane in lane order wins, as numpy's fancy assignment keeps it."""
    kb = KernelBuilder("racing")
    n = kb.scalar("n")
    hist = kb.array("hist", i64, (4,))
    grid2 = kb.array("grid2", i64, (n, 2))
    gi = kb.global_id("x")
    hist[gi % 4,] = gi
    with kb.if_(gi < n):
        grid2[gi // 3, gi % 2] = gi * 10
    return kb.finish()


def _inactive_lanes_read_element_zero():
    """Lanes outside a guard load element 0; dividing by it warns."""
    kb = KernelBuilder("inactive")
    n = kb.scalar("n")
    a = kb.array("a", f64, (n,))
    out = kb.array("out", f64, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < 3):
        with kb.for_range("k", 1, 2) as k:
            out[gi,] = 1.0 / a[k,]
    return kb.finish()


@pytest.mark.parametrize("block", [4, 5, 8])
def test_hand_written_kernels_match_the_oracle(block, rng):
    n = 13
    a32 = rng.random(n, dtype=np.float32)
    args = {"n": n, "a": a32, "out": np.zeros(n, np.float32)}
    for grid in (1, 2, 4, 5):
        assert_same_as_oracle(_triangular(), Dim3(grid), Dim3(block), args)
    a64 = rng.standard_normal(n)
    args = {"n": n, "s": 0.0, "a": a64, "out": np.zeros((n, 2))}
    # Float division by zero warns in both; integer floor division never.
    assert_same_as_oracle(_select_div(), Dim3(4), Dim3(block), args)
    assert_same_as_oracle(_select_div(), Dim3(4), Dim3(block), {**args, "s": 2.5})
    args = {"n": n, "a": a32 + np.float32(1), "out": np.zeros(n)}
    for grid in (1, 2, 4):
        assert_same_as_oracle(_promoting_assign(), Dim3(grid), Dim3(block), args)
    args = {"a": np.ones(8), "out": np.zeros((8, 2))}
    assert_same_as_oracle(_signed_zeros(), Dim3(2), Dim3(4), args)
    zero_first = np.arange(n, dtype=np.float64)
    args = {"n": n, "a": zero_first, "out": np.zeros(n)}
    assert_same_as_oracle(_inactive_lanes_read_element_zero(), Dim3(2), Dim3(block), args)
    args = {"n": n, "hist": np.zeros(4, np.int64), "grid2": np.zeros((n, 2), np.int64)}
    for grid in (1, 2, 4):
        assert_same_as_oracle(_racing_stores(), Dim3(grid), Dim3(block), args)


@pytest.mark.parametrize(
    "kernel, grid, block, message",
    [
        (_unguarded(0), Dim3(2, 2), Dim3(4, 4), "out-of-bounds store index 8 in dim 0 (extent 8)"),
        (_unguarded(1), Dim3(2, 2), Dim3(4, 4), "out-of-bounds store index 8 in dim 1 (extent 8)"),
        (_bad_load(0), Dim3(2), Dim3(4), "out-of-bounds index -1 in dim 0 (extent 8)"),
        (_bad_load(1), Dim3(2), Dim3(4), "out-of-bounds index -1 in dim 1 (extent 8)"),
    ],
)
def test_planted_out_of_bounds_raise_the_oracle_message(kernel, grid, block, message, rng):
    args = {"n": 8, "src": rng.random((8, 8), dtype=np.float32)}
    args["dst"] = np.zeros((8, 8) if kernel.name == "oob" else (8,), np.float32)
    assert assert_same_as_oracle(kernel, grid, block, args) == message


def test_unguarded_store_out_of_bounds_unmasked():
    kb = KernelBuilder("flat")
    out = kb.array("out", f32, (6,))
    out[kb.global_id("x"),] = 1.0
    args = {"out": np.zeros(6, np.float32)}
    assert (
        assert_same_as_oracle(kb.finish(), Dim3(2), Dim3(4), args)
        == "out-of-bounds index 6 in dim 0 (extent 6)"
    )


def _assign_to_unbound(guarded, rhs_in_bounds):
    """``ghost = a[gi (+ 8)]`` with no ``Let ghost`` before it.

    Built by hand: :meth:`KernelBuilder.finish` would reject it, but
    ``run_kernel`` does not validate.
    """
    kb = KernelBuilder("ghost")
    a = kb.array("a", f64, (8,))
    out = kb.array("out", f64, (8,))
    gi = kb.global_id("x")
    ghost = Val(LocalRef("ghost", f64))
    value = a[gi,] if rhs_in_bounds else a[gi + 8,]
    if guarded:
        with kb.if_(gi < 4):
            kb.assign(ghost, value)
    else:
        kb.assign(ghost, value)
    out[gi,] = 1.0
    (body,) = kb._blocks
    return Kernel("ghost", tuple(kb._params), tuple(body))


@pytest.mark.parametrize("guarded", [False, True])
@pytest.mark.parametrize(
    "rhs_in_bounds, message",
    [
        (True, "unbound name 'ghost' during execution"),
        # The right-hand side is evaluated first, so its error wins.
        (False, "out-of-bounds index 8 in dim 0 (extent 8)"),
    ],
)
def test_assign_to_an_unbound_local_raises_the_oracle_message(guarded, rhs_in_bounds, message):
    args = {"a": np.arange(8.0), "out": np.zeros(8)}
    kernel = _assign_to_unbound(guarded, rhs_in_bounds)
    assert assert_same_as_oracle(kernel, Dim3(2), Dim3(4), args) == message


def test_scalar_expressions_match_the_oracle():
    n = Param("n", i64)
    exprs = [
        BinOp("add", BinOp("mul", n, Const(4, i64)), Const(2, i64)),
        BinOp("fdiv", n, Const(3, i64)),
        BinOp("max", BinOp("sub", n, Const(9, i64)), Const(1, i64)),
        Call("sqrt", (BinOp("mul", n, Const(1.5, f64)),)),
        GridIdx("blockOff", "x"),
    ]
    for e in exprs:
        for value in (0, 7, 64):
            want = interp_oracle.eval_scalar_expr(e, {"n": value})
            got = eval_scalar_expr(e, {"n": value})
            assert type(got) is type(want) and np.array_equal(got, want), (e, value)
    with pytest.raises(ExecutionError, match="unbound name 'n'"):
        eval_scalar_expr(exprs[0], {})


def test_hoisted_scalar_arithmetic_cannot_warn_off_path():
    """``n * n`` overflows only on a path no lane takes: hoisting must not
    evaluate it early, so neither side warns."""
    kb = KernelBuilder("guarded_overflow")
    n = kb.scalar("n")
    out = kb.array("out", i64, (8,))
    gi = kb.global_id("x")
    with kb.if_(gi < 0):
        out[gi,] = gi + n * n
        out[gi + 0,] = gi + n * n
    args = {"n": 2**62, "out": np.zeros(8, np.int64)}
    assert assert_same_as_oracle(kb.finish(), Dim3(1), Dim3(8), args) is None
    _, _, _, found = _run(run_kernel, kb.finish(), Dim3(1), Dim3(8), args)
    assert not found


def test_partition_window_is_a_launch_argument():
    """One rendered program serves every partition of a kernel."""
    wl = REGISTRY["hotspot"](functional_config("hotspot"))
    ck = next(iter(compile_app(wl.build_kernels()).kernels.values()))
    assert isinstance(ck.partitioned.params[-1], PartitionParam)
    n = functional_config("hotspot").size
    temp = np.arange(n * n, dtype=np.float32).reshape(n, n)
    grid, block = wl.launch_config()
    for lo in range(grid.y):
        args = {"temp_in": temp, "temp_out": np.zeros_like(temp)}
        args.update({f"__partition_{f}": 0 for f in ("min_z", "min_x")})
        args.update({"__partition_max_z": 1, "__partition_max_x": grid.x})
        args.update({"__partition_min_y": lo, "__partition_max_y": lo + 1})
        assert_same_as_oracle(ck.partitioned, Dim3(grid.x, 1), block, args)
    assert set(ck.partitioned.programs) == {False, True}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_kernel_renders_once_per_variant(name):
    """``compile_app`` renders nothing; one functional run of the app, plain
    and audited, renders each kernel object once per variant (untraced,
    traced) and each scalar expression object (array shapes, loop bounds)
    once, and the untraced programs never touch an ``AccessTrace``."""
    rendered = []
    scalars = []  # the expressions themselves: their ids stay unique

    def counting(kernel, *, traced=False):
        rendered.append((id(kernel), traced))
        return render(kernel, traced=traced)

    def counting_scalar(expr):
        scalars.append(expr)
        return render_scalar(expr)

    def untouchable(*args, **kwargs):
        raise AssertionError("an untraced program recorded into an AccessTrace")

    render = interpreter.render_kernel
    render_scalar = interpreter.render_scalar_expr
    wl = REGISTRY[name](functional_config(name))
    inputs = wl.make_inputs(seed=3)
    with mock.patch.object(interpreter, "render_kernel", counting), mock.patch.object(
        interpreter, "render_scalar_expr", counting_scalar
    ):
        app = compile_app(wl.build_kernels())
        assert rendered == []
        with mock.patch.object(AccessTrace, "record_read", untouchable), mock.patch.object(
            AccessTrace, "record_write", untouchable
        ):
            wl.run(MultiGpuApi(app, RuntimeConfig(n_gpus=2)), inputs)
        untraced = list(rendered)
        wl.run(MultiGpuApi(app, RuntimeConfig(n_gpus=2, debug_audit=True)), inputs)
    assert untraced and all(not traced for _, traced in untraced)
    assert len(set(rendered)) == len(rendered), name
    assert scalars and len({id(e) for e in scalars}) == len(scalars), name
    kernels = {id(ck.partitioned) for ck in app.kernels.values() if ck.partitioned}
    assert {k for k, traced in rendered if traced} == kernels, name
    for ck in app.kernels.values():
        for kernel in filter(None, (ck.kernel, ck.partitioned)):
            for traced, fn in kernel.programs.items():
                recorders = {"_ld_traced", "_st_traced"} & set(fn.__code__.co_names)
                assert bool(recorders) == traced, (kernel.name, traced)
