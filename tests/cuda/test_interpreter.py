"""Unit tests for the vectorized kernel interpreter."""

import numpy as np
import pytest

from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32, f64, i64
from repro.cuda.exec.interpreter import eval_scalar_expr, run_kernel
from repro.cuda.ir.builder import KernelBuilder
from repro.cuda.ir.exprs import BinOp, Const, Param
from repro.errors import ExecutionError


def _copy_kernel(guarded=True):
    kb = KernelBuilder("copy")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    if guarded:
        with kb.if_(gi < n):
            dst[gi,] = src[gi,]
    else:
        dst[gi,] = src[gi,]
    return kb.finish()


class TestBasicExecution:
    def test_copy_exact_grid(self, rng):
        k = _copy_kernel()
        src = rng.random(32, dtype=np.float32)
        dst = np.zeros(32, dtype=np.float32)
        run_kernel(k, Dim3(4), Dim3(8), {"n": 32, "src": src, "dst": dst})
        assert np.array_equal(dst, src)

    def test_guard_masks_overhang(self, rng):
        k = _copy_kernel()
        src = rng.random(30, dtype=np.float32)
        dst = np.zeros(30, dtype=np.float32)
        # 4 blocks x 8 threads = 32 threads for 30 elements.
        run_kernel(k, Dim3(4), Dim3(8), {"n": 30, "src": src, "dst": dst})
        assert np.array_equal(dst, src)

    def test_unguarded_overhang_raises(self, rng):
        k = _copy_kernel(guarded=False)
        src = rng.random(30, dtype=np.float32)
        dst = np.zeros(30, dtype=np.float32)
        with pytest.raises(ExecutionError, match="out-of-bounds"):
            run_kernel(k, Dim3(4), Dim3(8), {"n": 30, "src": src, "dst": dst})

    def test_missing_argument_raises(self):
        k = _copy_kernel()
        with pytest.raises(ExecutionError, match="missing argument"):
            run_kernel(k, Dim3(1), Dim3(8), {"n": 8})

    def test_grid_intrinsics(self):
        kb = KernelBuilder("grid")
        out = kb.array("out", f32, (64,))
        gi = kb.global_id("x")
        v = kb.gridDim.x * 1000 + kb.blockDim.x * 10 + kb.blockIdx.x
        with kb.if_(gi < 64):
            out[gi,] = v
        k = kb.finish()
        out = np.zeros(64, dtype=np.float32)
        run_kernel(k, Dim3(8), Dim3(8), {"out": out})
        assert out[0] == 8 * 1000 + 8 * 10 + 0
        assert out[63] == 8 * 1000 + 8 * 10 + 7


class TestControlFlow:
    def test_if_else_lanes(self):
        kb = KernelBuilder("sel")
        n = kb.scalar("n")
        out = kb.array("out", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            with kb.if_(gi % 2 .__eq__(0) if False else (gi % 2).eq(0)):
                out[gi,] = 1.0
            with kb.otherwise():
                out[gi,] = 2.0
        k = kb.finish()
        out = np.zeros(16, dtype=np.float32)
        run_kernel(k, Dim3(2), Dim3(8), {"n": 16, "out": out})
        assert np.array_equal(out, np.where(np.arange(16) % 2 == 0, 1.0, 2.0).astype(np.float32))

    def test_masked_assign_accumulator(self):
        # acc += 1 only under a condition; inactive lanes keep their value.
        kb = KernelBuilder("acc")
        n = kb.scalar("n")
        out = kb.array("out", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            acc = kb.let("acc", kb.f32const(0.0))
            with kb.for_range("i", 0, 4) as i:
                with kb.if_(gi >= i):
                    kb.assign(acc, acc + 1.0)
            out[gi,] = acc
        k = kb.finish()
        out = np.zeros(8, dtype=np.float32)
        run_kernel(k, Dim3(1), Dim3(8), {"n": 8, "out": out})
        assert np.array_equal(out, np.minimum(np.arange(8) + 1, 4).astype(np.float32))

    def test_lane_varying_loop_bounds(self):
        # Triangular loop: each lane sums gi ones.
        kb = KernelBuilder("tri")
        n = kb.scalar("n")
        out = kb.array("out", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            acc = kb.let("acc", kb.f32const(0.0))
            with kb.for_range("i", 0, gi) as i:
                kb.assign(acc, acc + 1.0)
            out[gi,] = acc
        k = kb.finish()
        out = np.zeros(8, dtype=np.float32)
        run_kernel(k, Dim3(1), Dim3(8), {"n": 8, "out": out})
        assert np.array_equal(out, np.arange(8, dtype=np.float32))

    def test_loop_scope_cleanup(self):
        # The loop variable disappears after the loop body.
        kb = KernelBuilder("scope")
        n = kb.scalar("n")
        out = kb.array("out", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            with kb.for_range("i", 0, 2) as i:
                kb.let("tmp", i + 0)
            out[gi,] = 5.0
        k = kb.finish()
        out = np.zeros(4, dtype=np.float32)
        run_kernel(k, Dim3(1), Dim3(4), {"n": 4, "out": out})
        assert np.all(out == 5.0)


class TestMathAndTypes:
    def test_math_intrinsics(self):
        kb = KernelBuilder("math")
        n = kb.scalar("n")
        a = kb.array("a", f32, (n,))
        out = kb.array("out", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            out[gi,] = kb.sqrt(a[gi,]) + kb.rsqrt(a[gi,]) + kb.abs(-a[gi,])
        k = kb.finish()
        a = np.array([1.0, 4.0, 9.0, 16.0], dtype=np.float32)
        out = np.zeros(4, dtype=np.float32)
        run_kernel(k, Dim3(1), Dim3(4), {"n": 4, "a": a, "out": out})
        expect = np.sqrt(a) + 1 / np.sqrt(a) + np.abs(a)
        assert np.allclose(out, expect)

    def test_f32_stays_f32(self, rng):
        kb = KernelBuilder("f32k")
        n = kb.scalar("n")
        a = kb.array("a", f32, (n,))
        out = kb.array("out", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            out[gi,] = a[gi,] * 0.1 + 3.0
        k = kb.finish()
        a = rng.random(8, dtype=np.float32)
        out = np.zeros(8, dtype=np.float32)
        run_kernel(k, Dim3(1), Dim3(8), {"n": 8, "a": a, "out": out})
        # Bitwise f32 arithmetic, not f64-then-round.
        assert np.array_equal(out, a * np.float32(0.1) + np.float32(3.0))

    def test_eval_scalar_expr(self):
        e = BinOp("add", BinOp("mul", Param("n", i64), Const(4, i64)), Const(2, i64))
        assert eval_scalar_expr(e, {"n": 10}) == 42


class TestScalarShapes:
    """Shape expressions evaluate on one shared, read-only one-lane grid."""

    @staticmethod
    def _fresh(expr, scalars):
        """The evaluation as it was: a new one-lane grid per expression."""
        from tests.cuda.interp_oracle import _eval, _Frame, _Lanes

        frame = _Frame({k: np.asarray(v)[()] for k, v in scalars.items()})
        return np.asarray(_eval(expr, _Lanes(Dim3(1), Dim3(1)), frame, None))[()]

    def _kernel(self):
        kb = KernelBuilder("shapes")
        n, m = kb.scalar("n"), kb.scalar("m")
        a = kb.array("a", f32, (n, n * 2 + 1))
        b = kb.array("b", f32, (m - 3,))
        gi = kb.global_id("x")
        with kb.if_(gi < m - 3):
            b[gi,] = a[0, gi]
        return kb.finish()

    @pytest.mark.parametrize("n,m", [(1, 4), (7, 12), (64, 100)])
    def test_shapes_unchanged(self, n, m):
        from repro.cuda.api import resolve_array_shapes

        k = self._kernel()
        scalars = {"n": n, "m": m}
        want = {
            p.name: tuple(int(self._fresh(e, scalars)) for e in p.shape) for p in k.array_params
        }
        assert want == {"a": (n, 2 * n + 1), "b": (m - 3,)}
        assert resolve_array_shapes(k, scalars) == want
        assert resolve_array_shapes(k, scalars) == want  # the shared grid is unchanged

    @pytest.mark.parametrize(
        "n,m,message",
        [
            (0, 8, "array 'a' has non-positive extent (0, 1)"),
            (4, 3, "array 'b' has non-positive extent (0,)"),
            (-2, 8, "array 'a' has non-positive extent (-2, -3)"),
        ],
    )
    def test_non_positive_extent_error_unchanged(self, n, m, message):
        from repro.cuda.api import resolve_array_shapes
        from repro.errors import RuntimeApiError

        with pytest.raises(RuntimeApiError) as err:
            resolve_array_shapes(self._kernel(), {"n": n, "m": m})
        assert str(err.value) == message

    def test_grid_registers_read_the_one_lane(self):
        from repro.cuda.ir.exprs import GridIdx

        for register in ("threadIdx", "blockIdx", "blockDim", "gridDim"):
            e = GridIdx(register, "x")
            assert eval_scalar_expr(e, {}) == self._fresh(e, {})
        lane = eval_scalar_expr(GridIdx("threadIdx", "x"), {})
        with pytest.raises(ValueError):
            lane[...] = 5  # the shared coordinates are read-only
