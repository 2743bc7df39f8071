"""Documentation hygiene: every module and public callable is documented."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    mod = importlib.import_module(module_name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        pytest.skip("module defines no public API")
    undocumented = []
    for name in exported:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__ != module_name:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public API {undocumented}"


def test_top_level_docs_exist():
    import pathlib

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 1000, f"{doc} is suspiciously short"


def test_design_inventory_matches_the_tree():
    """DESIGN.md §3 names every module of the package, and only modules.

    Each table row's Package cell holds one backticked package; every
    backticked name in its Contents cell is a module of that package.
    """
    import pathlib
    import re

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    text = (root / "DESIGN.md").read_text()
    section = text[text.index("## 3. ") : text.index("## 4. ")]
    named = set()
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`repro"):
            continue
        packages = re.findall(r"`([^`]+)`", cells[1])
        assert len(packages) == 1, f"DESIGN.md §3 row {cells[0]!r}: one package per row"
        package = packages[0]
        for module in re.findall(r"`([^`]+)`", cells[2]):
            parts = f"{package}.{module}".split(".")
            # A dotted entry names its subpackages too (``ir.exprs``).
            named.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    unimportable = []
    for name in sorted(named):
        try:
            importlib.import_module(name)
        except ImportError:
            unimportable.append(name)
    assert not unimportable, f"DESIGN.md §3 names missing modules {unimportable}"
    assert set(MODULES) <= named, f"DESIGN.md §3 omits {sorted(set(MODULES) - named)}"


def test_serving_doc_covers_the_subsystem():
    """docs/serving.md exists and documents what the code actually ships."""
    import pathlib

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    text = (root / "docs" / "serving.md").read_text()
    assert len(text) > 1000, "docs/serving.md is suspiciously short"
    for needle in (
        "repro.serve",
        "deficit",  # the fairness policy
        "SERVE_QUEUE_FULL",  # the stable admission rejection code
        "bench serve",  # the saturation benchmark entry point
        "tenant",
        "shared_plan_cache",  # cross-tenant skeleton sharing
        "skeleton",
    ):
        assert needle in text, f"docs/serving.md does not mention {needle!r}"
    # Cross-references both ways.
    assert "docs/serving.md" in (root / "README.md").read_text()
    assert "docs/serving.md" in (root / "docs" / "scheduler.md").read_text()
    assert "docs/scheduler.md" in text


def test_pipeline_demo_runs():
    """examples/pipeline_demo.py runs clean and shows the key behaviours.

    The demo is the documentation's executable companion for the
    ``pipeline_window`` section of docs/scheduler.md: bitwise-identical
    results under both copy orders, and halo-first issue starting on the
    network.
    """
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    demo = root / "examples" / "pipeline_demo.py"
    assert demo.exists()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bitwise-identical results" in proc.stdout
    assert "halo-first  net" in proc.stdout


def test_taskgraph_doc_covers_the_subsystem():
    """docs/taskgraph.md exists and documents what the code actually ships."""
    import pathlib

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    text = (root / "docs" / "taskgraph.md").read_text()
    assert len(text) > 1000, "docs/taskgraph.md is suspiciously short"
    for needle in (
        "repro.tasks",
        "@task",  # the declaration surface
        "region2d",  # the footprint algebra
        "RAW",  # derived dependence kinds
        "wave",  # the execution model
        "RP701",  # the degradation diagnostics
        "TaskGraphError",  # the error surface (exit 82)
        "bench taskgraph",  # the benchmark entry point
        "serialized",  # the identity baseline
    ):
        assert needle in text, f"docs/taskgraph.md does not mention {needle!r}"
    # Cross-references both ways.
    assert "docs/taskgraph.md" in (root / "README.md").read_text()
    assert "docs/taskgraph.md" in (root / "docs" / "scheduler.md").read_text()
    assert "docs/taskgraph.md" in (root / "docs" / "static-analysis.md").read_text()
    assert "docs/scheduler.md" in text
    assert "docs/static-analysis.md" in text
    # The bench table made it into the experiments log.
    assert "bench taskgraph" in (root / "EXPERIMENTS.md").read_text()


def test_taskgraph_demo_runs():
    """examples/taskgraph_demo.py runs clean and shows the key behaviours.

    The demo is docs/taskgraph.md's executable companion: the derived
    graph structure, wave execution, bitwise graph/serialized identity,
    and agreement with numpy.linalg.cholesky.
    """
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    demo = root / "examples" / "taskgraph_demo.py"
    assert demo.exists()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dependence waves" in proc.stdout
    assert "bitwise identical" in proc.stdout
    assert "numpy.linalg.cholesky" in proc.stdout


def test_performance_doc_covers_the_staged_planner():
    """docs/performance.md exists and documents what the code actually ships."""
    import pathlib

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    text = (root / "docs" / "performance.md").read_text()
    assert len(text) > 1000, "docs/performance.md is suspiciously short"
    for needle in (
        "repro.memo",  # the one bounded LRU behind every cache
        "repro.runtime.fingerprint",  # the shared launch identity
        "PLANNING_CONFIG_FIELDS",  # the staleness contract
        "skeleton",  # the staged split ...
        "residual",  # ... tracker-independent vs -dependent
        "plan_cache_hits",  # the observable counter slice
        "residual_cache_hits",  # ... including the replay counters
        "enumerator_fallback",  # scalar-scanner attribution
        "bench overhead",  # the measurement entry point
        "debug_audit",  # the in-place invisibility proof
        "footprint_digest",  # the replay key's tracker summary
        "replay",  # the steady-state hit path
        "mutation_sweep",  # the adversarial sweep
    ):
        assert needle in text, f"docs/performance.md does not mention {needle!r}"
    # Cross-references both ways.
    assert "docs/performance.md" in (root / "README.md").read_text()
    assert "docs/performance.md" in (
        root / "docs" / "runtime-and-simulator.md"
    ).read_text()
    assert "docs/runtime-and-simulator.md" in text
    assert "docs/scheduler.md" in text
    # The overhead table made it into the experiments log.
    assert "bench overhead" in (root / "EXPERIMENTS.md").read_text()


def test_diagnostic_codes_match_docs_table():
    """Every registered RPxxx code appears in docs/static-analysis.md's

    code table with the registry's default severity — and vice versa, so
    neither side can drift without this test flagging it.
    """
    import pathlib
    import re

    from repro.analysis.codes import REGISTRY

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    doc = (root / "docs" / "static-analysis.md").read_text()
    rows = dict(
        re.findall(r"^\| `(RP\d{3})` \| (error|warning|advice) \|", doc, re.M)
    )
    assert rows, "code table not found in docs/static-analysis.md"
    assert set(rows) == set(REGISTRY), (
        f"docs-only codes: {sorted(set(rows) - set(REGISTRY))}; "
        f"undocumented codes: {sorted(set(REGISTRY) - set(rows))}"
    )
    mismatched = {
        code: (rows[code], info.severity.name.lower())
        for code, info in REGISTRY.items()
        if rows[code] != info.severity.name.lower()
    }
    assert not mismatched, f"severity drift (docs, registry): {mismatched}"
