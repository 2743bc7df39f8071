"""Partitioning legality: write-map exactness and injectivity (paper §4).

"While read maps can always be over-approximated without compromising
correctness, write maps need to be accurate [...] Additionally, write maps
must be injective" — two distinct threads writing the same address is a
write-after-write hazard that multi-GPU execution cannot replicate, so such
kernels are rejected (they fall back to single-GPU execution).

Injectivity is proven polyhedrally: the relation "two *different* input
tuples produce the same output tuple" is built explicitly and shown empty.
Inputs are compared at global-thread granularity when every access fits the
``blockOff + threadIdx`` pattern (the ``gid_map`` from the analysis); for
kernels addressing blocks directly, a concrete-block-size check is provided
— the hybrid static/dynamic scheme the paper's Section 4 alludes to
("provided the constraint blockOff = blockId * blockDim is satisfied").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compiler.access_analysis import (
    GID_DIMS,
    ArrayAccess,
    KernelAccessInfo,
)
from repro.errors import InjectivityError, PartitioningError
from repro.poly.affine import Aff
from repro.poly.basic_set import BasicSet, _rebind_constraint
from repro.poly.constraint import Constraint
from repro.poly.map_ import BasicMap, Map
from repro.poly.space import Space

__all__ = [
    "is_map_injective",
    "check_write_access",
    "check_partitionable",
    "substitute_block_dims",
]


def involved_dims(access_map: Map, in_dims: Tuple[str, ...]) -> Tuple[str, ...]:
    """Input dimensions the map's *outputs* depend on (transitively).

    A dimension that only occurs in domain constraints (e.g. the synthetic
    ``g >= 0`` bounds) does not affect which cell is written: two threads
    differing only there hit the same cell, so such axes are excluded here
    and handled via the unit-extent launch requirement instead.
    """
    connected = set()
    for d in access_map.disjuncts:
        space = d.space
        out_set = set(space.out_dims)
        # Fixpoint: grow the set of names connected to an output through
        # shared constraints.
        reach = set(out_set)
        changed = True
        while changed:
            changed = False
            for c in d.constraints:
                names = {
                    name
                    for i, name in enumerate(space.all_names)
                    if c.vec[i + 1] != 0
                }
                if names & reach and not names <= reach:
                    reach |= names
                    changed = True
        connected |= reach & set(in_dims)
    return tuple(d for d in in_dims if d in connected)


def is_map_injective(access_map: Map, in_dims: Tuple[str, ...]) -> bool:
    """Polyhedral injectivity proof over the given input dimensions.

    Builds, for every pair of disjuncts and every strict-order case of every
    input dimension, the set of ``(in_a, in_b, out)`` with ``in_a != in_b``
    and both related to ``out``; the map is injective iff all are empty.
    A rationally non-empty but integer-empty case is conservatively treated
    as a collision (sound: we only ever *reject* more kernels).

    Distinctness is only tested along the dimensions listed in ``in_dims``;
    callers pass the dimensions the map involves and separately guarantee
    the remaining axes have unit extent at launch (see
    :func:`check_write_access`).
    """
    space = access_map.space
    out_dims = space.out_dims
    ren_a = {d: f"{d}__A" for d in in_dims}
    ren_b = {d: f"{d}__B" for d in in_dims}
    # Input dims not under test stay shared between both copies — i.e. they
    # are assumed equal, which the unit-extent launch requirement enforces.
    shared = tuple(d for d in space.in_dims if d not in in_dims)
    joint = Space.set_space(
        tuple(ren_a.values()) + tuple(ren_b.values()) + shared + out_dims, space.params
    )

    for p in access_map.disjuncts:
        for q in access_map.disjuncts:
            base: List[Constraint] = []
            pa = p.rename(ren_a)
            qb = q.rename(ren_b)
            base.extend(_rebind_constraint(c, pa.space.to_set(), joint) for c in pa.constraints)
            base.extend(_rebind_constraint(c, qb.space.to_set(), joint) for c in qb.constraints)
            for d in in_dims:
                a = Aff.var(joint, ren_a[d])
                b = Aff.var(joint, ren_b[d])
                for diff in (a - b - 1, b - a - 1):  # a > b, a < b
                    collision = BasicSet(joint, base + [Constraint.ineq(diff)])
                    if not collision.is_empty():
                        return False
    return True


def substitute_block_dims(access: ArrayAccess, block_dim: Tuple[int, int, int]) -> Map:
    """Specialize a Z^6 map to a concrete block size.

    Substitutes ``blockOff.w := blockDim.w * blockIdx.w`` (affine once the
    block dimension is a known integer) and fixes the ``bd_w`` parameters,
    yielding a map whose only inputs are the three block indices.
    """
    bz, by, bx = block_dim
    values = {"bd_z": bz, "bd_y": by, "bd_x": bx}
    out_disjuncts = []
    space3 = None
    for d in access.access_map.disjuncts:
        bs = d.bset
        for w, bd_val in (("z", bz), ("y", by), ("x", bx)):
            bi = Aff.var(bs.space, f"bi_{w}")
            bs = bs.substitute(f"bo_{w}", bi * bd_val)
        for name, v in values.items():
            if bs.space.has(name):
                bs = bs.fix(name, v)
        space3 = Space.map_space(
            ("bi_z", "bi_y", "bi_x"), d.space.out_dims, bs.space.params
        )
        out_disjuncts.append(
            BasicMap(
                space3,
                [_rebind_constraint(c, bs.space, space3) for c in bs.constraints],
                exact=bs.exact,
            )
        )
    assert space3 is not None
    return Map(space3, out_disjuncts)


_AXIS_OF = {
    "g_z": "z",
    "g_y": "y",
    "g_x": "x",
    "bi_z": "z",
    "bi_y": "y",
    "bi_x": "x",
    "bo_z": "z",
    "bo_y": "y",
    "bo_x": "x",
}


def check_write_access(
    access: ArrayAccess, *, block_dim: Optional[Tuple[int, int, int]] = None
) -> Tuple[frozenset, bool]:
    """Prove one write access legal.

    Returns ``(unit_axes, needs_runtime_coverage)``: the grid axes that must
    have unit extent at launch (axes the write map does not distinguish),
    and whether the launch must validate scan exactness with the concrete
    launch configuration (:mod:`repro.compiler.coverage`) — the case of
    flat 1-D subscripts whose Fourier-Motzkin projection could not be
    proven exact statically.

    Raises :class:`PartitioningError` on over-approximated maps with no
    runtime-validation path and :class:`InjectivityError` when two distinct
    threads can write the same cell. Injectivity is proven via the
    global-thread-id map when available, else via the concrete
    ``block_dim`` specialization.
    """
    if access.annotated:
        # Programmer-supplied write pattern (§11): accuracy and injectivity
        # are asserted by the annotation; no axes are constrained.
        return frozenset(), False
    needs_coverage = False
    if not access.exact:
        if access.coverage is None or access.gid_map is None:
            raise PartitioningError(
                f"write map of {access.array!r} is over-approximated; "
                "partitioning would be unsound",
                code="RP202",
            )
        needs_coverage = True
    if access.gid_map is not None:
        dims = involved_dims(access.gid_map, GID_DIMS)
        if not is_map_injective(access.gid_map, dims):
            raise InjectivityError(
                f"write map of {access.array!r} is not injective over threads"
            )
        return frozenset(_AXIS_OF[d] for d in GID_DIMS if d not in dims), needs_coverage
    if block_dim is None:
        raise InjectivityError(
            f"write map of {access.array!r} addresses blocks directly; "
            "injectivity needs a concrete block size (pass block_dim)",
            code="RP203",
        )
    specialized = substitute_block_dims(access, block_dim)
    block_dims_names = ("bi_z", "bi_y", "bi_x")
    dims = involved_dims(specialized, block_dims_names)
    if not is_map_injective(specialized, dims):
        raise InjectivityError(
            f"write map of {access.array!r} is not injective over blocks "
            f"for block size {block_dim}"
        )
    return frozenset(_AXIS_OF[d] for d in block_dims_names if d not in dims), needs_coverage


def check_partitionable(
    info: KernelAccessInfo, *, block_dim: Optional[Tuple[int, int, int]] = None
) -> Tuple[frozenset, bool]:
    """Prove a kernel partitionable.

    Returns ``(unit_axes, needs_runtime_coverage)``; raises
    :class:`PartitioningError` otherwise (the paper's fallback is single-GPU
    execution for such kernels).
    """
    if not info.partitionable:
        raise PartitioningError(
            f"kernel {info.kernel.name!r}: {info.reject_reason or 'not partitionable'}",
            code="RP202",
        )
    unit_axes: frozenset = frozenset()
    needs_coverage = False
    for access in info.writes.values():
        axes, cov = check_write_access(access, block_dim=block_dim)
        unit_axes = unit_axes | axes
        needs_coverage = needs_coverage or cov
    return unit_axes, needs_coverage
