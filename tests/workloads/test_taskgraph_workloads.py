"""Functional checks of the task-graph workloads (cholesky, imgpipe)."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads import EXTRA_WORKLOADS, functional_config
from repro.workloads.cholesky import CholeskyWorkload, tile_size
from repro.workloads.imgpipe import ImgPipeWorkload, band_size


def _run(wl, mode="graph", n_gpus=4, **cfg_kwargs):
    inputs = wl.make_inputs(seed=3)
    app = compile_app(wl.build_kernels())
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus, **cfg_kwargs))
    got = wl.run(api, inputs, mode=mode)
    return got, inputs, api


@pytest.mark.parametrize("name", ["cholesky", "imgpipe"])
def test_graph_runs_on_the_single_device_api(name):
    """The workloads' single-GPU reference runs graph mode, bitwise like MultiGpuApi."""
    wl = EXTRA_WORKLOADS[name](functional_config(name))
    got, inputs, _ = _run(wl)
    ref = wl.run(CudaApi(), inputs, mode="graph")
    assert all(np.array_equal(got[key], ref[key]) for key in ref)


class TestRegistration:
    def test_both_registered_as_extra_workloads(self):
        assert EXTRA_WORKLOADS["cholesky"] is CholeskyWorkload
        assert EXTRA_WORKLOADS["imgpipe"] is ImgPipeWorkload

    def test_tiling_helpers_reject_indivisible_sizes(self):
        with pytest.raises(ValueError):
            tile_size(100)
        with pytest.raises(ValueError):
            band_size(100)


class TestCholesky:
    def test_matches_numpy_cholesky(self):
        wl = CholeskyWorkload(functional_config("cholesky", size=32))
        got, inputs, _ = _run(wl)
        ref = wl.reference(inputs)["factor"]
        assert np.allclose(got["factor"], ref, atol=2e-4, rtol=2e-4)

    def test_graph_matches_serialized_bitwise(self):
        wl = CholeskyWorkload(functional_config("cholesky", size=32))
        graph, _, _ = _run(wl, mode="graph", schedule="overlap+p2p", pipeline_window=4)
        serial, _, _ = _run(wl, mode="serialized", schedule="overlap+p2p", pipeline_window=4)
        assert np.array_equal(graph["factor"], serial["factor"])

    def test_graph_structure(self):
        wl = CholeskyWorkload(functional_config("cholesky", size=32))
        _run(wl)
        g = wl.last_graph
        nt = wl.n_tiles
        # potrf: nt, trsm/syrk: nt(nt-1)/2 each, gemm: nt(nt-1)(nt-2)/6.
        expected = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6
        assert g.stats.tasks == expected
        assert g.stats.nonaffine_tasks == 0
        assert g.stats.waves > 0 and g.stats.ready_peak > 1
        assert not g.report.diagnostics  # fully affine: no RP701/RP702


class TestImgPipe:
    def test_matches_reference_pipeline(self):
        wl = ImgPipeWorkload(functional_config("imgpipe", size=64))
        got, inputs, _ = _run(wl)
        ref = wl.reference(inputs)
        assert np.array_equal(got["out"], ref["out"])
        assert np.allclose(got["diag_sum"], ref["diag_sum"], atol=1e-4)

    def test_graph_matches_serialized_bitwise(self):
        wl = ImgPipeWorkload(functional_config("imgpipe", size=64))
        graph, _, _ = _run(wl, mode="graph", schedule="overlap", pipeline_window=4)
        serial, _, _ = _run(wl, mode="serialized", schedule="overlap", pipeline_window=4)
        assert np.array_equal(graph["out"], serial["out"])
        assert np.array_equal(graph["diag_sum"], serial["diag_sum"])

    def test_opaque_stats_task_degrades_with_diagnostics(self):
        wl = ImgPipeWorkload(functional_config("imgpipe", size=64))
        _, _, api = _run(wl)
        g = wl.last_graph
        codes = {d.code for d in g.report.diagnostics}
        assert {"RP701", "RP702"} <= codes
        assert g.stats.nonaffine_tasks == 1
        assert g.stats.whole_buffer_syncs == 1
        # The gx*gx store also trips the kernel-level single-GPU fallback.
        assert api.stats.fallback_launches >= 1

    def test_halo_edges_overlap_neighbouring_bands(self):
        wl = ImgPipeWorkload(functional_config("imgpipe", size=64))
        _run(wl)
        g = wl.last_graph
        by_dst = {}
        for e in g.edges:
            by_dst.setdefault(e.dst, set()).add(e.src)
        by_name = {t.name: t.index for t in g.tasks}
        # An interior gradient band depends on exactly its three blur
        # producers (the band and both halo neighbours).
        dst = by_name["grad[0,1]"]
        blur_preds = {
            s for s in by_dst[dst] if g.tasks[s].name.startswith("blur[")
        }
        assert blur_preds == {by_name[f"blur[0,{s}]"] for s in (0, 1, 2)}
