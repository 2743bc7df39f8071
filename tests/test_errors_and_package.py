"""Tests for the exception hierarchy and package surface."""

import pytest

import repro.errors as E


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in E.__all__:
            exc = getattr(E, name)
            if not isinstance(exc, type):
                continue  # helper functions (exit_code_for, format_with_code)
            assert issubclass(exc, E.ReproError), name

    def test_analysis_family(self):
        assert issubclass(E.LintError, E.AnalysisError)

    def test_polyhedral_family(self):
        for exc in (E.NonAffineError, E.SpaceMismatchError, E.ParseError):
            assert issubclass(exc, E.PolyhedralError)

    def test_partitioning_family(self):
        assert issubclass(E.InjectivityError, E.PartitioningError)

    def test_runtime_family(self):
        for exc in (E.UnsupportedMemcpyError, E.TrackerError):
            assert issubclass(exc, E.RuntimeApiError)

    def test_simulation_family(self):
        assert issubclass(E.CalibrationError, E.SimulationError)

    def test_catchable_as_base(self):
        with pytest.raises(E.ReproError):
            raise E.InjectivityError("x")


class TestPackageSurface:
    def test_poly_exports(self):
        import repro.poly as P

        for name in P.__all__:
            assert hasattr(P, name), name

    def test_cuda_exports(self):
        import repro.cuda as C

        for name in C.__all__:
            assert hasattr(C, name), name

    def test_compiler_exports(self):
        import repro.compiler as K

        for name in K.__all__:
            assert hasattr(K, name), name

    def test_runtime_exports(self):
        import repro.runtime as R

        for name in R.__all__:
            assert hasattr(R, name), name

    def test_paper_expectations_module(self):
        from repro.harness import paper

        assert paper.MAX_SPEEDUP["nbody"] == 12.4
        assert paper.COMPILE_TIME_RATIO == (1.9, 2.2)
        assert 0 < paper.NON_TRANSFER_OVERHEAD_MAX < 0.1

    def test_bench_trace_wrap_targets_resolve(self):
        """Every ``(module, attribute)`` the traced benchmark wraps exists.

        ``bench/test_smoke.py`` is outside ``testpaths``; without this a
        rename under ``src/`` turns a per-layer metric ``null`` with tier-1
        green. Resolution mirrors ``Recorder.install``: a dotted target must
        sit in its owner's own ``__dict__``, so a method inherited from a
        base class (which the recorder cannot wrap there) is missing too.
        """
        import importlib
        import importlib.util
        from pathlib import Path

        # Loaded by path under another name: "trace" is a stdlib module.
        path = Path(__file__).resolve().parent.parent / "bench" / "trace.py"
        spec = importlib.util.spec_from_file_location("bench_trace", path)
        bench_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_trace)

        missing = []
        for module_name, attr_path, _span in bench_trace.WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                _ = owner.__dict__[attr] if parents else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{attr_path}")
        assert not missing, missing
