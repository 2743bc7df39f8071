"""Scanning access images, not rows: compiled box programs over scan ASTs.

The scalar scanners (:func:`repro.poly.codegen.compile_scanner`) call back
once per row of an image; a 2-D stencil partition has thousands of rows,
and almost all of them coalesce into a few full-width bands. A
:class:`VectorProgram` is generated code whose cost follows the ranges it
returns instead: :func:`repro.poly.codegen.render_vector_source` renders
the scan AST's guards and outer loops as straight-line Python and each
innermost loop with its emit as one of two records —

* a **box** ``(row_lo, row_hi, lo, hi)`` when the emit bounds do not
  mention the loop variable: every row of the loop has the same columns
  (a 1-D emit is the box on row 0);
* a **rows** entry, numpy arrays over an ``arange`` of the loop, when they
  do (triangular tiles) or when the loop sits inside another loop (arrays
  of three or more dimensions, whose outer loops run as Python ``for``).

:meth:`VectorProgram.run` unions the boxes in closed form: between two
consecutive row breakpoints the covering boxes are fixed, so the rows of
such a segment share one column union — a union of exactly ``[0, W)`` is
one flat band, anything else repeats per row. That is exact when every live
box's columns lie inside ``[0, W)`` (``W`` the row stride), because then no
row's ranges reach into another row. A call whose values break the
condition materialises the rows of its boxes instead; rows entries are
merged into the result with one sorted coalesce. Either way the ranges are
:func:`repro.compiler.enumerators.merge_ranges` of the scalar scanner's
emissions and the emission count — which drives simulated host cost — is
the scalar scanner's: ``row_hi - row_lo + 1`` per box with ``lo <= hi``
plus the valid rows of each rows entry.

Programs are memoized per process (the pycuda ``@memoize`` idiom, on a
:class:`~repro.memo.Memo`) keyed on the AST node — scan ASTs are frozen
dataclasses, hence hashable — so each access shape compiles once.
An AST the renderer cannot handle raises :exc:`VectorizeError` at
construction and the caller falls back to the scalar scanner.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.memo import MISS, Memo
from repro.poly.ast import Node
from repro.poly.codegen import compile_vector_scanner

__all__ = ["VectorizeError", "vector_program", "VectorProgram"]

Run = Tuple[int, int]
Box = Tuple[int, int, int, int]


class VectorizeError(Exception):
    """The AST cannot be compiled into a vector program."""


class VectorProgram:
    """One scan AST compiled to a box/rows program."""

    def __init__(self, node: Node, param_names: Tuple[str, ...]) -> None:
        self.node = node
        self.param_names = param_names
        try:
            self._fn = compile_vector_scanner(node, param_names)
        except TypeError as exc:
            raise VectorizeError(str(exc)) from exc

    def run(self, params: Sequence[int], strides: Sequence[int]) -> Tuple[List[Run], int]:
        """Merged flat element ranges plus the raw emission count.

        The same ranges as merging the scalar scanner's emissions, and the
        same number of emissions, without visiting a row the result does
        not need.
        """
        boxes, rows = self._fn(params, strides)
        boxes = [b for b in boxes if b[0] <= b[1] and b[2] <= b[3]]
        width = int(strides[-2]) if len(strides) > 1 else 0
        if len(strides) > 1 and not all(0 <= lo and hi < width for _, _, lo, hi in boxes):
            # A column leaves its row, so rows may interleave: materialise.
            rows.extend(
                (r1 - r0 + 1, np.arange(r0, r1 + 1) * width, lo, hi) for r0, r1, lo, hi in boxes
            )
            boxes = []
        count = sum(r1 - r0 + 1 for r0, r1, _, _ in boxes)
        runs = _union_boxes(boxes, width)
        if not rows:
            return runs, count
        for n, base, lo, hi in rows:
            keep = np.broadcast_to(lo <= hi, (n,))
            count += int(np.count_nonzero(keep))
            starts = np.broadcast_to(base + lo, (n,))[keep]
            ends = np.broadcast_to(base + hi + 1, (n,))[keep]
            runs.extend(zip(starts.tolist(), ends.tolist()))
        return _coalesce(sorted(runs)), count


def _union_boxes(boxes: List[Box], width: int) -> List[Run]:
    """Canonical flat runs of boxes whose columns stay inside ``[0, width)``.

    ``width`` 0 stands for a 1-D array, whose boxes all sit on row 0.
    """
    cuts = sorted({r0 for r0, _, _, _ in boxes} | {r1 + 1 for _, r1, _, _ in boxes})
    runs: List[Run] = []
    for a, b in zip(cuts, cuts[1:]):
        cols = _coalesce(sorted((lo, hi + 1) for r0, r1, lo, hi in boxes if r0 <= a <= r1))
        if cols == [(0, width)]:
            runs.append((a * width, b * width))
        else:
            runs.extend((r * width + lo, r * width + hi) for r in range(a, b) for lo, hi in cols)
    return _coalesce(runs)


def _coalesce(runs: List[Run]) -> List[Run]:
    """Merge sorted half-open runs that overlap or touch (``merge_ranges``).

    Not :func:`repro.poly.intervals.normalize_intervals`: that one re-sorts
    and re-casts every run, and is timed as its own layer.
    """
    out: List[Run] = []
    for lo, hi in runs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


#: Compiled programs kept per process, one per distinct scan AST: the six
#: applications' enumerators have fewer than a hundred between them.
PROGRAM_CAPACITY = 1024

_programs = Memo("vector_program", PROGRAM_CAPACITY)


def vector_program(node: Node, param_names: Tuple[str, ...]) -> VectorProgram:
    """The memoized vector program for one scan AST.

    Keyed on the (hashable, frozen) AST and the positional parameter
    names; every enumerator of a compiled app shares one program per
    distinct access shape. Raises :exc:`VectorizeError` immediately when
    the AST contains unsupported node kinds, so callers can disable the
    vectorized path once instead of per call.
    """
    key = (node, param_names)
    program = _programs.get(key)
    if program is MISS:
        program = VectorProgram(node, param_names)
        _programs.put(key, program)
    return program
