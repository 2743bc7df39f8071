"""Ablation: compiled scanner code vs interpreted AST walking (§6.1).

The paper embeds generated LLVM IR functions in the binary instead of
interpreting the polyhedral ASTs at runtime; the analogue here is compiling
the scanner AST to Python source vs walking it node by node. This ablation
quantifies the win (DESIGN.md §5.2).
"""

import pytest

from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.enumerators import build_enumerator
from repro.compiler.strategy import choose_strategy
from repro.cuda.dim3 import Dim3
from repro.workloads.parametric import build_parametric_stencil


@pytest.fixture(scope="module")
def setup():
    kernel = build_parametric_stencil()
    info = analyze_kernel(kernel)
    strat = choose_strategy(info)
    grid, block = Dim3(64, 64), Dim3(16, 16)
    part = strat.partitions(grid, 8)[3]
    compiled = build_enumerator(info, "src", "read", use_codegen=True)
    interpreted = build_enumerator(info, "src", "read", use_codegen=False)
    n = 1024
    return compiled, interpreted, part, block, grid, {"n": n}, (n, n)


def _scan(enum, part, block, grid, scalars, shape):
    enum._scans.clear()  # measure the scan, not the memo
    return enum.element_ranges(part, block, grid, scalars, shape)


def test_compiled_scanner(benchmark, setup):
    compiled, _, part, block, grid, scalars, shape = setup
    ranges, emitted = benchmark(_scan, compiled, part, block, grid, scalars, shape)
    assert emitted > 0


def test_interpreted_scanner(benchmark, setup):
    _, interpreted, part, block, grid, scalars, shape = setup
    ranges, emitted = benchmark(_scan, interpreted, part, block, grid, scalars, shape)
    assert emitted > 0


def test_both_agree(setup):
    compiled, interpreted, part, block, grid, scalars, shape = setup
    assert _scan(compiled, part, block, grid, scalars, shape) == _scan(
        interpreted, part, block, grid, scalars, shape
    )
