"""Unit tests for the analytical kernel cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.costmodel import KernelCostModel, ThreadCost
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.sim.topology import MachineSpec
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config

SPEC = MachineSpec(n_gpus=1, flops_per_gpu=1e12, mem_bw_per_gpu=1e11, cache_reuse_factor=4.0)


def _stencil():
    kb = KernelBuilder("s")
    n = kb.scalar("n")
    a = kb.array("a", f32, (n, n))
    b = kb.array("b", f32, (n, n))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy > 0) & (gy < n - 1) & (gx > 0) & (gx < n - 1)):
        b[gy, gx] = a[gy - 1, gx] + a[gy + 1, gx] + a[gy, gx - 1] + a[gy, gx + 1]
    return kb.finish()


def _looped(trips_expr):
    kb = KernelBuilder("l")
    n = kb.scalar("n")
    a = kb.array("a", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("k", 0, trips_expr(n)) as k:
            kb.assign(acc, acc + a[gi,])
        a[gi,] = acc
    return kb.finish()


class TestThreadCost:
    def test_stencil_bytes(self):
        model = KernelCostModel(SPEC)
        cost = model.thread_cost(_stencil(), {"n": 64})
        # 4 loads + 1 store of f32 = 20 bytes (no loop, no reuse discount).
        assert cost.bytes == pytest.approx(20.0)
        assert cost.flops > 0

    def test_loop_multiplies_and_discounts(self):
        model = KernelCostModel(SPEC)
        k1 = _looped(lambda n: n * 0 + 1)
        k10 = _looped(lambda n: n * 0 + 10)
        c1 = model.thread_cost(k1, {"n": 8})
        c10 = model.thread_cost(k10, {"n": 8})
        # flops grow with the trip count (loop body repeated 10x).
        assert c10.flops > c1.flops * 3
        # loads inside the loop are reuse-discounted by the spec factor.
        loop_bytes_1 = c1.bytes - 4  # minus the store outside the loop
        loop_bytes_10 = c10.bytes - 4
        assert loop_bytes_10 == pytest.approx(10 * loop_bytes_1)
        assert loop_bytes_1 == pytest.approx(4 / SPEC.cache_reuse_factor)

    def test_symbolic_trip_count(self):
        model = KernelCostModel(SPEC)
        k = _looped(lambda n: n)
        c_small = model.thread_cost(k, {"n": 4})
        c_big = model.thread_cost(k, {"n": 400})
        assert c_big.flops > c_small.flops * 50


class TestLaunchTime:
    def test_roofline_max(self):
        model = KernelCostModel(SPEC)
        k = _stencil()
        t = model(k, 16, Dim3(16, 16), {"n": 64})
        n_threads = 16 * 256
        cost = model.thread_cost(k, {"n": 64})
        expect = max(
            cost.flops * n_threads / SPEC.flops_per_gpu,
            cost.bytes * n_threads / SPEC.mem_bw_per_gpu,
        )
        assert t == pytest.approx(expect)

    def test_scales_with_blocks(self):
        model = KernelCostModel(SPEC)
        k = _stencil()
        t1 = model(k, 10, Dim3(16, 16), {"n": 64})
        t2 = model(k, 20, Dim3(16, 16), {"n": 64})
        assert t2 == pytest.approx(2 * t1)

    def test_threadcost_algebra(self):
        a = ThreadCost(1.0, 2.0)
        b = ThreadCost(3.0, 4.0)
        assert (a + b).flops == 4.0 and (a + b).bytes == 6.0
        assert a.scaled(3).bytes == 6.0


# -- the per-binding memo: same floats as a fresh walk, one walk per binding ------


def _workload_kernels():
    return [
        pytest.param(kernel, id=f"{name}-{kernel.name}")
        for name, cls in {**ALL_WORKLOADS, **EXTRA_WORKLOADS}.items()
        for kernel in cls(functional_config(name)).build_kernels()
    ]


def _axpy_like():
    """``n`` bounds the loop, ``alpha`` only scales the value."""
    kb = KernelBuilder("axpy_like")
    n = kb.scalar("n")
    alpha = kb.scalar("alpha", f32)
    a = kb.array("a", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("k", 0, n):
            kb.assign(acc, acc + alpha * a[gi,])
        a[gi,] = acc
    return kb.finish()


def _root_walks(model, kernel, monkeypatch):
    """Count ``_body_cost`` entries at the kernel's root body (not the recursion)."""
    walks = []
    inner = model._body_cost

    def counting(body, scalars, elem_sizes):
        if body is kernel.body:
            walks.append(dict(scalars))
        return inner(body, scalars, elem_sizes)

    monkeypatch.setattr(model, "_body_cost", counting)
    return walks


class TestMemo:
    @pytest.mark.parametrize("kernel", _workload_kernels())
    @settings(max_examples=10, deadline=None)
    @given(values=st.lists(st.integers(0, 64), min_size=2, max_size=2, unique=True))
    def test_warm_model_returns_the_fresh_walks_floats(self, kernel, values):
        """``==`` on every float, not ``approx``: the memo may not move an ulp."""
        warm = KernelCostModel(SPEC)
        bindings = [{p.name: v for p in kernel.scalar_params} for v in values]
        for scalars in bindings + bindings:  # second round is served from the memo
            fresh = KernelCostModel(SPEC)
            got, want = warm.thread_cost(kernel, scalars), fresh.thread_cost(kernel, scalars)
            assert (got.flops, got.bytes) == (want.flops, want.bytes)
            for n_blocks, block in ((1, Dim3(16, 16)), (37, Dim3(32, 8)), (4096, Dim3(8))):
                assert warm(kernel, n_blocks, block, scalars) == fresh(
                    kernel, n_blocks, block, scalars
                )

    def test_changed_loop_bound_scalar_misses(self, monkeypatch):
        model, k = KernelCostModel(SPEC), _axpy_like()
        walks = _root_walks(model, k, monkeypatch)
        small = model.thread_cost(k, {"n": 4, "alpha": 1.0})
        big = model.thread_cost(k, {"n": 400, "alpha": 1.0})
        assert big.flops > small.flops * 50
        assert model.thread_cost(k, {"n": 4, "alpha": 1.0}) is small
        assert [w["n"] for w in walks] == [4, 400]

    def test_equal_but_differently_typed_bound_misses(self):
        """5 == 5.0 and they hash alike, but ``5 / 2`` and ``5.0 / 2`` differ."""
        kb = KernelBuilder("half")
        n = kb.scalar("n")
        a = kb.array("a", f32, (n,))
        with kb.for_range("k", 0, n / 2):
            a[kb.global_id("x"),] = kb.f32const(0.0)
        model, k = KernelCostModel(SPEC), kb.finish()
        assert model.thread_cost(k, {"n": 5}).bytes == 2 * 4 / SPEC.cache_reuse_factor
        assert model.thread_cost(k, {"n": 5.0}).bytes == 2.5 * 4 / SPEC.cache_reuse_factor

    def test_non_bound_scalar_neither_misses_nor_grows_the_memo(self, monkeypatch):
        model, k = KernelCostModel(SPEC), _axpy_like()
        walks = _root_walks(model, k, monkeypatch)
        costs = {model.thread_cost(k, {"n": 64, "alpha": 0.001 * step}) for step in range(1000)}
        assert len(costs) == 1 and len(walks) == 1
        assert [len(by_binding) for _, _, by_binding in model._memo._entries.values()] == [1]

    def test_memo_is_keyed_on_identity_not_on_the_ir_hash(self, monkeypatch):
        """Equal-valued kernels get their own entries; no ``Kernel.__hash__`` walk."""
        from repro.cuda.ir.kernel import Kernel

        def no_hash(self):
            raise AssertionError("the memo must not hash the kernel value")

        a, b = _axpy_like(), _axpy_like()
        assert a == b and a is not b
        monkeypatch.setattr(Kernel, "__hash__", no_hash)
        model = KernelCostModel(SPEC)
        assert model.thread_cost(a, {"n": 8}) == model.thread_cost(b, {"n": 8})
        assert len(model._memo) == 2
        assert all(entry[0] is k for entry, k in zip(model._memo._entries.values(), (a, b)))
