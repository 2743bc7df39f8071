"""TaskGraph construction, dependence derivation, and execution modes."""

import pytest

from repro.errors import TaskGraphError, exit_code_for
from repro.tasks import TaskGraph, TaskSpace, opaque, span, task, whole


class Buf:
    def __init__(self, nbytes):
        self.nbytes = nbytes


class FakeApi:
    """Just enough API surface for the graph runtime: barriers and placement."""

    def __init__(self):
        self.syncs = 0
        self._placement_offset = None

    def cudaDeviceSynchronize(self):
        self.syncs += 1


def _noop(api):
    pass


class TestEdgeDerivation:
    def _graph(self):
        buf = Buf(256)
        g = TaskGraph("edges")
        g.add_task(_noop, name="w", writes=[span(buf, 0, 128)])
        g.add_task(_noop, name="r", reads=[span(buf, 64, 192)])
        g.add_task(_noop, name="w2", writes=[span(buf, 100, 140)])
        return g.finalize()

    def test_raw_war_waw_kinds(self):
        g = self._graph()
        kinds = {(e.src, e.dst): e.kinds for e in g.edges}
        assert kinds[(0, 1)] == frozenset({"RAW"})
        assert kinds[(0, 2)] == frozenset({"WAW"})
        assert kinds[(1, 2)] == frozenset({"WAR"})

    def test_overlap_bytes_are_exact(self):
        g = self._graph()
        by_pair = {(e.src, e.dst): e.overlap_bytes for e in g.edges}
        assert by_pair[(0, 1)] == 64  # [64, 128)
        assert by_pair[(0, 2)] == 28  # [100, 128)
        assert by_pair[(1, 2)] == 40  # [100, 140)

    def test_disjoint_tasks_have_no_edge(self):
        buf = Buf(256)
        g = TaskGraph()
        g.add_task(_noop, name="a", writes=[span(buf, 0, 64)])
        g.add_task(_noop, name="b", writes=[span(buf, 64, 128)])
        assert g.finalize().edges == []

    def test_control_edges_by_name_and_object(self):
        g = TaskGraph()
        t0 = g.add_task(_noop, name="first")
        g.add_task(_noop, name="second", deps=["first"])
        g.add_task(_noop, name="third", deps=[t0])
        g.finalize()
        assert {(e.src, e.dst) for e in g.edges} == {(0, 1), (0, 2)}
        assert all(e.kinds == frozenset({"control"}) for e in g.edges)


class TestErrors:
    def test_exit_code_is_pinned(self):
        assert TaskGraphError.exit_code == 82
        assert exit_code_for(TaskGraphError("boom")) == 82

    def test_cycle_through_forward_references(self):
        ts = TaskSpace("ts")
        g = TaskGraph()
        with g:

            @task(ts[0], deps=[ts[1]])
            def a(api):
                pass

            @task(ts[1], deps=[ts[0]])
            def b(api):
                pass

        with pytest.raises(TaskGraphError, match="cycle"):
            g.finalize()

    def test_unbound_forward_reference(self):
        ts = TaskSpace("ts")
        g = TaskGraph()
        g.add_task(_noop, name="a", deps=[ts["never"]])
        with pytest.raises(TaskGraphError, match="unbound"):
            g.finalize()

    def test_unknown_name_and_self_dependency(self):
        g = TaskGraph()
        g.add_task(_noop, name="a", deps=["ghost"])
        with pytest.raises(TaskGraphError, match="unknown task"):
            g.finalize()
        g2 = TaskGraph()
        g2.add_task(_noop, name="a", deps=["a"])
        with pytest.raises(TaskGraphError, match="itself"):
            g2.finalize()

    def test_task_decorator_requires_ambient_graph(self):
        with pytest.raises(TaskGraphError, match="outside a TaskGraph"):

            @task(name="orphan")
            def orphan(api):
                pass

    def test_slot_cannot_bind_twice(self):
        ts = TaskSpace("ts")
        g = TaskGraph()
        g.add_task(_noop, handle=ts[0])
        with pytest.raises(TaskGraphError, match="already bound"):
            g.add_task(_noop, handle=ts[0])

    def test_unknown_mode_rejected(self):
        g = TaskGraph()
        g.add_task(_noop, name="a")
        with pytest.raises(TaskGraphError, match="unknown execution mode"):
            g.run(FakeApi(), mode="speculative")


class TestExecution:
    def _chain(self, log):
        buf = Buf(64)
        g = TaskGraph()

        def body(tag):
            return lambda api: log.append(tag)

        g.add_task(body("w"), name="w", writes=[whole(buf)])
        g.add_task(body("r1"), name="r1", reads=[span(buf, 0, 32)])
        g.add_task(body("r2"), name="r2", reads=[span(buf, 32, 64)])
        g.add_task(body("sum"), name="sum", reads=[whole(buf)], writes=[whole(buf)])
        return g

    def test_graph_mode_runs_waves_in_dependence_order(self):
        log = []
        g = self._chain(log)
        api = FakeApi()
        g.run(api, mode="graph")
        assert log == ["w", "r1", "r2", "sum"]
        # w | r1+r2 | sum: three waves, the middle one two tasks wide.
        assert g.stats.waves == 3
        assert g.stats.ready_peak == 2
        assert g.stats.executed == 4
        assert api.syncs == 0  # no inter-task barriers in graph mode

    def test_serialized_mode_barriers_every_task(self):
        log = []
        g = self._chain(log)
        api = FakeApi()
        g.run(api, mode="serialized")
        assert log == ["w", "r1", "r2", "sum"]
        assert api.syncs == 4
        assert g.stats.waves == 0

    def test_explicit_order_must_be_a_topological_permutation(self):
        g = self._chain([])
        with pytest.raises(TaskGraphError, match="permutation"):
            g.run(FakeApi(), mode="graph", order=[0, 1, 2])
        with pytest.raises(TaskGraphError, match="violates"):
            g.run(FakeApi(), mode="graph", order=[3, 0, 1, 2])
        with pytest.raises(TaskGraphError, match="requires mode"):
            g.run(FakeApi(), mode="serialized", order=[0, 1, 2, 3])
        log = []
        g2 = self._chain(log)
        g2.run(FakeApi(), mode="graph", order=[0, 2, 1, 3])
        assert log == ["w", "r2", "r1", "sum"]

    def test_placement_hint_applied_during_the_body_only(self):
        seen = []
        g = TaskGraph()
        g.add_task(lambda api: seen.append(api._placement_offset), placement=5)
        api = FakeApi()
        g.run(api, mode="graph")
        assert seen == [5]
        assert api._placement_offset is None


class TestOpaqueDegradation:
    def _graph(self, log):
        buf = Buf(128)
        g = TaskGraph()
        g.add_task(lambda api: log.append("w"), name="w", writes=[span(buf, 0, 64)])
        g.add_task(
            lambda api: log.append("gather"),
            name="gather",
            reads=[opaque(buf, note="indirect rows")],
        )
        return g

    def test_rp701_and_rp702_reported(self):
        g = self._graph([]).finalize()
        codes = sorted({d.code for d in g.report.diagnostics})
        assert codes == ["RP701", "RP702"]
        assert g.stats.nonaffine_tasks == 1
        # The opaque whole-buffer read overlaps the disjoint-looking write.
        (edge,) = g.edges
        assert edge.opaque and "RAW" in edge.kinds

    def test_whole_buffer_sync_brackets_the_opaque_body(self):
        log = []
        g = self._graph(log)
        api = FakeApi()
        g.run(api, mode="graph")
        assert log == ["w", "gather"]
        assert g.stats.whole_buffer_syncs == 1
        assert api.syncs == 2  # one barrier before + one after the body


class TestSummary:
    def test_summary_digest(self):
        g = TaskGraph("demo")
        buf = Buf(64)
        g.add_task(_noop, name="a", writes=[whole(buf)])
        g.add_task(_noop, name="b", reads=[whole(buf)])
        s = g.summary()
        assert s["name"] == "demo"
        assert s["tasks"] == 2 and s["edges"] == 1
        assert s["edge_kinds"] == {"RAW": 1}
        assert s["diagnostic_codes"] == []


@pytest.mark.parametrize("name", ["cholesky", "imgpipe"])
def test_indexed_finalize_matches_pairwise_overlaps(name):
    """``finalize`` indexes each task's footprints once and skips footprints
    whose spans do not meet; its edges — kinds, bytes, opaque flags — and
    RP702 diagnostics equal a derivation that intersects every footprint
    pair of every task pair through the interval oracle (normalize both
    sides, then intersect; no index, no span test)."""
    from tests.poly.test_interval_oracles import oracle_overlap
    from repro.compiler.pipeline import compile_app
    from repro.runtime.api import MultiGpuApi
    from repro.runtime.config import RuntimeConfig
    from repro.workloads import EXTRA_WORKLOADS, functional_config

    wl = EXTRA_WORKLOADS[name](functional_config(name))
    wl.run(MultiGpuApi(compile_app(wl.build_kernels()), RuntimeConfig(n_gpus=2)),
           wl.make_inputs(seed=1))
    g = wl.last_graph
    want = {}
    for t in g.tasks:
        for s in g.tasks[: t.index]:
            for kind, (a, b) in {"RAW": (s.writes, t.reads), "WAR": (s.reads, t.writes),
                                 "WAW": (s.writes, t.writes)}.items():
                nbytes, opaque_ = oracle_overlap(a, b)
                if nbytes:
                    rec = want.setdefault((s.index, t.index), [set(), 0, False])
                    rec[0].add(kind)
                    rec[1] += nbytes
                    rec[2] = rec[2] or opaque_
    data_edges = {
        (e.src, e.dst): [set(e.kinds) - {"control"}, e.overlap_bytes, e.opaque] for e in g.edges
    }
    assert {k: v for k, v in data_edges.items() if v[0]} == want
    rp702 = [d for d in g.report.diagnostics if d.code == "RP702"]
    assert len(rp702) == sum(1 for e in g.edges if e.opaque)
    assert len(g.edges) > 100
