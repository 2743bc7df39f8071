"""Coverage for reporting helpers and the calibration surface."""

import pytest

from repro.harness.calibration import GPU_COUNTS, K80_NODE_SPEC
from repro.harness.report import format_table, to_csv


class TestGpuCounts:
    def test_matches_paper_axis(self):
        assert GPU_COUNTS == (1, 2, 4, 6, 8, 10, 12, 14, 16)


class TestSpecRelationships:
    def test_bandwidth_ordering(self):
        # device memory >> host staging bus >= a single PCIe lane
        assert K80_NODE_SPEC.mem_bw_per_gpu > K80_NODE_SPEC.host_bus_bw
        assert K80_NODE_SPEC.host_bus_bw >= K80_NODE_SPEC.pcie_bw

    def test_staging_is_modeled(self):
        assert not K80_NODE_SPEC.p2p_enabled
        assert K80_NODE_SPEC.staging_factor == 2.0
        assert K80_NODE_SPEC.staging_latency > K80_NODE_SPEC.pcie_latency

    def test_host_costs_are_microseconds(self):
        for name in (
            "issue_overhead",
            "enumerator_call_cost",
            "tracker_op_cost",
            "partition_setup_cost",
            "sync_overhead",
        ):
            assert 0 < getattr(K80_NODE_SPEC, name) < 1e-3, name


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["col", "x"], [["abcdef", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert set(lines[1]) <= {"-", " "}
        # All rows padded to the same width
        assert len(lines[2]) == len(lines[3]) or lines[3].startswith("b")

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.1235" in text

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestCsv:
    def test_quoting_free_values(self):
        out = to_csv(["a", "b"], [[1.5, "x"]])
        assert out == "a,b\n1.5,x\n"
