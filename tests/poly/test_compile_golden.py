"""Golden pin of the compiler's polyhedral output on the six applications.

A performance change to :mod:`repro.poly` must leave what the compiler and
the linter compute bit-identical. For each application at the sizes of the
benchmark's ``compile_lint`` workload (``CompileLint.APPS`` in
``bench/workloads.py``) this hashes ``compile_app`` plus both
``lint_kernels`` calls that workload makes:

* every enumerator's image: space, and per disjunct the exactness flag and
  the constraints in order (kind and vector);
* every kernel's partitionability verdict and every access map (and its
  global-thread-id form), with the map's ``exact`` / ``may`` flags;
* every diagnostic's code and message, in report order.

The expected digests in ``golden/compile_output.json`` were recorded before
the polyhedral layer learned to skip re-normalising canonical constraints.
When a change moves the compiler's output *on purpose*, regenerate with::

    PYTHONPATH=src python tests/poly/test_compile_golden.py > tests/poly/golden/compile_output.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import compile_app
from repro.analysis import lint_kernels
from repro.workloads import (
    CholeskyWorkload,
    DStencilWorkload,
    HotspotWorkload,
    ImgPipeWorkload,
    MatmulWorkload,
    NBodyWorkload,
)
from repro.workloads.common import ProblemConfig

GOLDEN = Path(__file__).parent / "golden" / "compile_output.json"

#: app -> (workload class, size, iterations), as the ``compile_lint`` workload.
APPS = {
    "hotspot": (HotspotWorkload, 64, 6),
    "nbody": (NBodyWorkload, 64, 4),
    "matmul": (MatmulWorkload, 16, 1),
    "dstencil": (DStencilWorkload, 64, 4),
    "cholesky": (CholeskyWorkload, 32, 1),
    "imgpipe": (ImgPipeWorkload, 64, 2),
}


def _bset(bs):
    return [bs.exact, [[c.kind.value, list(c.vec)] for c in bs.constraints]]


def _union(u):
    """A ``Set`` or ``Map``: its space and every disjunct's basic set."""
    if u is None:
        return None
    return [str(u.space), [_bset(getattr(d, "bset", d)) for d in u.disjuncts]]


def _accesses(accesses):
    return [
        [name, acc.exact, acc.may, _union(acc.access_map), _union(acc.gid_map)]
        for name, acc in sorted(accesses.items())
    ]


def compile_record(name):
    """What one ``compile_lint`` op computes for application ``name``."""
    cls, size, iterations = APPS[name]
    workload = cls(ProblemConfig(name, "functional", size, iterations))
    kernels = workload.build_kernels()
    app = compile_app(kernels)
    grid, block = workload.launch_config()
    reports = [
        lint_kernels(kernels, grid=grid, block=block, n_gpus=4),
        lint_kernels(kernels, grid=grid, block=block, n_gpus=4, passes=["dataflow"]),
    ]
    return {
        "enumerators": [
            [e.name, e.kernel_name, e.array, e.mode, e.exact, _union(e.image)]
            for e in app.enumerators.all()
        ],
        "kernels": [
            [
                kname,
                ck.info.partitionable,
                ck.info.reject_reason,
                _accesses(ck.info.reads),
                _accesses(ck.info.writes),
            ]
            for kname, ck in sorted(app.kernels.items())
        ],
        "diagnostics": [[d.code, d.message] for r in reports for d in r.diagnostics],
    }


def compile_digest(name):
    blob = json.dumps(compile_record(name), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(APPS))
def test_compile_output_matches_golden_digest(name):
    assert compile_digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    json.dump({name: compile_digest(name) for name in sorted(APPS)}, sys.stdout, indent=2)
    sys.stdout.write("\n")
