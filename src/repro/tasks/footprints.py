"""Task-level access footprints lowered to byte-interval lists.

A task declares what it reads and writes as *access specs*; the graph layer
lowers every spec to a flat list of half-open byte intervals over the
underlying buffer (the same algebra the launch scheduler uses —
:mod:`repro.poly.intervals`) and derives RAW/WAR/WAW edges by interval
intersection.  Three spec forms lower exactly:

* :func:`span` — an explicit ``[lo, hi)`` byte range,
* :func:`region2d` — a rectangular tile of a row-major 2-D array, lowered
  to one interval per row (the task-level analogue of the per-row
  enumerators of paper §6.1),
* :func:`whole` / a bare buffer object — the full allocation.

Anything else is *opaque*: :func:`opaque` marks an access the affine model
cannot analyze (data-dependent gathers, host-computed index sets).  Opaque
specs degrade to a whole-buffer footprint, carry an ``RP701`` diagnostic
(:mod:`repro.analysis.codes`), and make the owning task non-affine — the
graph serializes it against every overlapping task and brackets it with
barrier synchronization, mirroring the runtime's whole-buffer fallback for
unpartitionable kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import TaskGraphError
from repro.poly.intervals import Interval, normalize_intervals

__all__ = [
    "AccessSpec",
    "Span",
    "Region2D",
    "Whole",
    "Opaque",
    "span",
    "region2d",
    "whole",
    "opaque",
    "Footprint",
    "buffer_key",
    "buffer_nbytes",
    "lower_access",
]


def buffer_key(buf: Any) -> Any:
    """Stable identity of a buffer object across specs.

    Multi-GPU virtual buffers carry a ``vb_id``; any other allocation
    (e.g. the single-device reference API's pointers) is keyed by object
    identity, which is stable for the lifetime of the graph.
    """
    vb_id = getattr(buf, "vb_id", None)
    return ("vb", vb_id) if vb_id is not None else ("obj", id(buf))


def buffer_nbytes(buf: Any) -> Optional[int]:
    """Allocation size in bytes when the buffer object knows it."""
    nbytes = getattr(buf, "nbytes", None)
    return int(nbytes) if isinstance(nbytes, int) else None


@dataclass(frozen=True)
class AccessSpec:
    """Base class of the declarative access forms (see module docstring)."""

    buffer: Any


@dataclass(frozen=True)
class Span(AccessSpec):
    """An explicit half-open byte range ``[lo, hi)`` of a buffer."""

    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class Region2D(AccessSpec):
    """A rectangular tile of a row-major 2-D array.

    ``shape`` is the full array shape ``(rows, cols)`` in elements; ``rows``
    and ``cols`` are half-open element ranges of the tile.  Out-of-range
    tile bounds are clipped to the array — halo reads at the image border
    simply shrink.
    """

    shape: Tuple[int, int] = (0, 0)
    rows: Tuple[int, int] = (0, 0)
    cols: Tuple[int, int] = (0, 0)
    itemsize: int = 4


@dataclass(frozen=True)
class Whole(AccessSpec):
    """The entire allocation, as an exact (affine) footprint."""

    nbytes: Optional[int] = None


@dataclass(frozen=True)
class Opaque(AccessSpec):
    """An access the affine interval model cannot analyze.

    Lowered to a whole-buffer footprint with an ``RP701`` diagnostic; the
    owning task degrades to whole-buffer barrier synchronization.
    """

    nbytes: Optional[int] = None
    note: str = "unanalyzable access"


def span(buf: Any, lo: int, hi: int) -> Span:
    """Declare an exact byte range ``[lo, hi)`` of ``buf``."""
    return Span(buf, int(lo), int(hi))


def region2d(
    buf: Any,
    shape: Tuple[int, int],
    rows: Tuple[int, int],
    cols: Tuple[int, int],
    itemsize: int = 4,
) -> Region2D:
    """Declare a rectangular element tile of a row-major 2-D array."""
    return Region2D(buf, tuple(shape), tuple(rows), tuple(cols), int(itemsize))


def whole(buf: Any, nbytes: Optional[int] = None) -> Whole:
    """Declare the entire allocation (exact, affine)."""
    return Whole(buf, nbytes)


def opaque(buf: Any, nbytes: Optional[int] = None, note: str = "unanalyzable access") -> Opaque:
    """Declare an access the affine model cannot analyze (degrades, RP701)."""
    return Opaque(buf, nbytes, note)


@dataclass
class Footprint:
    """One lowered access: a buffer plus its flat byte intervals."""

    key: Any
    buffer: Any
    #: In :func:`~repro.poly.intervals.normalize_intervals` form.
    intervals: List[Interval] = field(default_factory=list)
    #: False when the spec was opaque and the intervals over-approximate.
    affine: bool = True
    #: Human-readable reason for a non-affine footprint.
    note: str = ""


def _whole_intervals(buf: Any, nbytes: Optional[int], what: str) -> List[Interval]:
    size = nbytes if nbytes is not None else buffer_nbytes(buf)
    if size is None:
        raise TaskGraphError(
            f"{what} needs the buffer size: the object carries no .nbytes; "
            "pass nbytes= explicitly"
        )
    return normalize_intervals([(0, size)])


def lower_access(spec: Any) -> Footprint:
    """Lower one access spec (or bare buffer) to a :class:`Footprint`."""
    if isinstance(spec, Span):
        if spec.hi <= spec.lo:
            raise TaskGraphError(f"empty span [{spec.lo}, {spec.hi}) declared")
        return Footprint(
            buffer_key(spec.buffer), spec.buffer, normalize_intervals([(spec.lo, spec.hi)])
        )
    if isinstance(spec, Region2D):
        n_rows, n_cols = spec.shape
        r0 = max(0, spec.rows[0])
        r1 = min(n_rows, spec.rows[1])
        c0 = max(0, spec.cols[0])
        c1 = min(n_cols, spec.cols[1])
        if r1 <= r0 or c1 <= c0:
            raise TaskGraphError(
                f"region rows={spec.rows} cols={spec.cols} is empty after "
                f"clipping to shape {spec.shape}"
            )
        row_base = spec.itemsize * n_cols
        intervals = normalize_intervals(
            (r * row_base + c0 * spec.itemsize, r * row_base + c1 * spec.itemsize)
            for r in range(r0, r1)
        )
        return Footprint(buffer_key(spec.buffer), spec.buffer, intervals)
    if isinstance(spec, Whole):
        return Footprint(
            buffer_key(spec.buffer),
            spec.buffer,
            _whole_intervals(spec.buffer, spec.nbytes, "whole-buffer access"),
        )
    if isinstance(spec, Opaque):
        return Footprint(
            buffer_key(spec.buffer),
            spec.buffer,
            _whole_intervals(spec.buffer, spec.nbytes, "opaque access"),
            affine=False,
            note=spec.note,
        )
    if isinstance(spec, AccessSpec):  # pragma: no cover - future spec forms
        raise TaskGraphError(f"unknown access spec {type(spec).__name__}")
    # A bare buffer object: whole-buffer when the size is known, opaque
    # otherwise (an object we cannot size is by definition unanalyzable).
    size = buffer_nbytes(spec)
    if size is not None:
        return Footprint(buffer_key(spec), spec, normalize_intervals([(0, size)]))
    raise TaskGraphError(
        f"cannot lower access spec {spec!r}: not an AccessSpec and the "
        "object carries no .nbytes; wrap it in span()/region2d()/whole() "
        "or mark it opaque(buf, nbytes=...)"
    )
