"""Runtime exactness validation of write-set scans (hybrid static/dynamic).

Fourier-Motzkin projection reports a write map as possibly over-approximated
whenever it eliminates ``threadIdx`` dimensions that carry non-unit
coefficients — the signature of flat (1-D) CUDA indexing like
``row * N + col``. The scan of such a map is the *rational hull* of the
written elements; soundness requires that every element of the hull is
really written.

This module proves exactly that, at launch time, with concrete launch
values (the paper's §4 notes its maps are valid "provided the constraint
blockOff = blockId * blockDim is satisfied" — the same hybrid compile-time /
launch-time split):

* Per disjunct, the written values of a 1-D affine index
  ``c + sum(K_i * x_i)`` over box-shaped variable ranges form an arithmetic
  progression of stride ``s = gcd(K_i)`` *without gaps* iff the mixed-radix
  coverage condition holds: sorting terms by ``|K_i|``, each ``|K_i|/s``
  must not exceed the width already covered.
* The union of disjuncts is contiguous iff they share the stride and their
  offsets cover all residues mod ``s`` (e.g. the four field offsets of an
  N-Body float4 record).

If validation fails the runtime falls back to single-GPU execution for
that launch — never to an unsound partitioned run.

Limitations (checked, not assumed): only 1-D arrays, no loop iterators in
the subscript, and guards may only trim the ends of the index range (true
for the ubiquitous ``if (gid < n)`` pattern; multi-sided interior guards
are only supported through multi-dimensional subscripts, which are exact
in the first place).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3

__all__ = ["CoverageTerm", "CoverageDisjunct", "CoverageSpec", "coverage_validates"]


@dataclass(frozen=True)
class CoverageTerm:
    """One ``K * dim`` term of a write subscript (dim in the 9-D grid space)."""

    dim: str  # one of IN_DIMS9
    coeff: int


@dataclass(frozen=True)
class GuardSpec:
    """One affine guard ``const + sum(terms) >= 0`` over grid dimensions."""

    const: int
    terms: Tuple[CoverageTerm, ...]


@dataclass(frozen=True)
class CoverageDisjunct:
    """One write access: ``const + sum(terms)`` into a 1-D array."""

    const: int
    terms: Tuple[CoverageTerm, ...]
    guards: Tuple[GuardSpec, ...] = ()


@dataclass(frozen=True)
class CoverageSpec:
    """All write accesses of one (kernel, array) pair needing validation."""

    array: str
    disjuncts: Tuple[CoverageDisjunct, ...]


def _dim_extent(dim: str, partition: Partition, block: Dim3, grid: Dim3) -> Optional[int]:
    """Number of integer values the scanners assume for one grid dimension.

    Must match the box the enumerators constrain (see
    ``repro.compiler.enumerators.Enumerator.pack_params``): ``blockOff``
    spans ``[lo*bd, (hi-1)*bd]`` as *integers* (the box over-approximation),
    ``blockIdx`` spans ``[lo, hi)``, ``threadIdx`` spans ``[0, bd)``.
    """
    kind, _, axis = dim.partition("_")
    bd = block.axis(axis)
    lo, hi = partition.range_of(axis)
    if kind == "ti":
        return bd
    if kind == "bi":
        return hi - lo
    if kind == "bo":
        return (hi - 1) * bd - lo * bd + 1
    return None


def _dim_interval(
    dim: str, partition: Partition, block: Dim3, grid: Dim3
) -> Optional[Tuple[int, int]]:
    """Inclusive [lo, hi] a dimension spans under the scanners' box."""
    kind, _, axis = dim.partition("_")
    bd = block.axis(axis)
    lo, hi = partition.range_of(axis)
    if kind == "ti":
        return (0, bd - 1)
    if kind == "bi":
        return (lo, hi - 1)
    if kind == "bo":
        return (lo * bd, (hi - 1) * bd)
    return None


def _guard_admissible(
    guard: GuardSpec,
    index: CoverageDisjunct,
    partition: Partition,
    block: Dim3,
    grid: Dim3,
) -> bool:
    """A guard is safe iff it trims only the ends of the whole progression
    (its term vector is proportional to the index's) or it is redundant over
    the partition box (its minimum there is already non-negative)."""
    g = {t.dim: t.coeff for t in guard.terms}
    ix = {t.dim: t.coeff for t in index.terms}
    if g and set(g) == set(ix):
        # Proportionality g = q * ix (the same rational q for every dim):
        # cross-multiplication must agree pairwise.
        dims = list(g)
        d0 = dims[0]
        if all(g[d0] * ix[d] == g[d] * ix[d0] for d in dims):
            return True
    # Redundancy: min of the guard affine over the box is >= 0.
    total = guard.const
    for t in guard.terms:
        interval = _dim_interval(t.dim, partition, block, grid)
        if interval is None:
            return False
        lo, hi = interval
        total += t.coeff * (lo if t.coeff > 0 else hi)
    return total >= 0


def _disjunct_progression(
    d: CoverageDisjunct, partition: Partition, block: Dim3, grid: Dim3
) -> Optional[Tuple[int, int]]:
    """(stride, width) of the values a disjunct writes, or None.

    The achievable values are ``{base + s*t : 0 <= t < width}`` where ``s``
    is the gcd of the coefficients — *iff* the mixed-radix condition holds;
    otherwise the value set has gaps coarser than ``s`` and we give up.
    """
    for guard in d.guards:
        if not _guard_admissible(guard, d, partition, block, grid):
            return None
    if not d.terms:
        return (1, 1)
    sizes: List[Tuple[int, int]] = []  # (|K|, extent)
    stride = 0
    for t in d.terms:
        extent = _dim_extent(t.dim, partition, block, grid)
        if extent is None:
            return None
        if extent <= 0:
            return None
        if extent > 1:
            stride = gcd(stride, abs(t.coeff))
            sizes.append((abs(t.coeff), extent))
    if not sizes:
        return (1, 1)
    sizes.sort()
    width = 1  # in units of `stride`
    for k, extent in sizes:
        k //= stride
        if k > width:
            return None  # gap coarser than the stride
        width += k * (extent - 1)
    return (stride, width)


def coverage_validates(
    spec: CoverageSpec, partition: Partition, block: Dim3, grid: Dim3
) -> bool:
    """True when the union of the write disjuncts is provably contiguous.

    Contiguity of the union (given per-disjunct stride-``s`` progressions)
    requires a shared stride, offsets covering every residue class mod
    ``s``, and per-residue extents that tile without holes. Together with
    the exact interval endpoints the rational scan produces, this implies
    the scanned union equals the true write set.
    """
    progressions = []
    for d in spec.disjuncts:
        prog = _disjunct_progression(d, partition, block, grid)
        if prog is None:
            return False
        progressions.append(prog)
    strides = {s for s, _ in progressions}
    if len(strides) != 1:
        return False
    stride = strides.pop()
    if stride == 1:
        return True
    # Residues mod stride must be fully covered with equal widths.
    residues: Dict[int, int] = {}
    for d, (s, width) in zip(spec.disjuncts, progressions):
        r = d.const % s
        residues[r] = max(residues.get(r, 0), width)
    if set(residues) != set(range(stride)):
        return False
    return len(set(residues.values())) == 1
