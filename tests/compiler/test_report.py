"""Tests for the compile-report renderer."""

import pytest

from repro.compiler.pipeline import compile_app
from repro.compiler.report import describe_app, describe_kernel


class TestDescribe:
    def test_partitionable_kernel_report(self, stencil_kernel):
        app = compile_app([stencil_kernel])
        text = describe_app(app)
        assert "## kernel `stencil`" in text
        assert "partition strategy" in text and "`y`" in text
        assert "read" in text and "write" in text
        assert "__global__ void stencil" in text

    def test_sources_included_when_requested(self, stencil_kernel):
        app = compile_app([stencil_kernel])
        text = describe_app(app, sources=True)
        assert "generated enumerators" in text
        assert "def _vec" in text  # the compiled box program's source

    def test_rejected_kernel_report(self):
        from repro.cuda.dtypes import f32
        from repro.cuda.ir.builder import KernelBuilder

        kb = KernelBuilder("bad")
        n = kb.scalar("n")
        dst = kb.array("dst", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            dst[gi % 2,] = 1.0
        app = compile_app([kb.finish()])
        text = describe_app(app)
        assert "NOT partitionable" in text
        assert "single-GPU" in text

    def test_cli_verbose(self, capsys):
        from repro.cli import main

        assert main(["analyze", "matmul", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "# compile report" in out
        assert "def _vec" in out
