"""Programmer-supplied write-pattern annotations (paper §11).

The paper's primary limitation is the need for an accurate model of each
kernel's writes; §11 names "annotation of the source code with write
patterns by the programmer" as one remedy. This module implements it: for a
kernel whose write subscripts the analysis cannot model (data-dependent or
non-affine), the programmer supplies the write map in isl notation, e.g.::

    compile_app([kernel], write_annotations={
        "scatter": {"dst": "[n, bd_x] -> { [bo_z, bo_y, bo_x, bi_z, bi_y,"
                           " bi_x] -> [a0] : bo_x <= a0 < bo_x + bd_x"
                           " and a0 < n }"},
    })

The annotated map replaces the analyzed one; it is trusted (marked exact,
legality checks are skipped for it — the programmer asserts accuracy and
injectivity, exactly the contract §11 proposes), and the usual enumerators,
strategy selection and runtime coherence are generated from it.
"""

from __future__ import annotations

from typing import Mapping

from repro.compiler.access_analysis import GRID_PARAMS, IN_DIMS6, ArrayAccess, KernelAccessInfo
from repro.errors import AnalysisError
from repro.poly.map_ import BasicMap, Map
from repro.poly.parser import parse_map
from repro.poly.space import Space

__all__ = ["parse_write_annotation", "apply_annotations"]

#: kernel name -> { array name -> isl map text }
AnnotationDict = Mapping[str, Mapping[str, str]]


def parse_write_annotation(info: KernelAccessInfo, array: str, text: str) -> Map:
    """Parse and validate one annotation against the kernel's signature."""
    kernel = info.kernel
    param = kernel.param(array)
    raw = parse_map(text)
    if raw.space.n_in != 6:
        raise AnalysisError(
            f"annotation for {array!r}: expected 6 input dimensions "
            f"(blockOff.zyx, blockIdx.zyx), got {raw.space.n_in}"
        )
    if raw.space.n_out != param.ndim:
        raise AnalysisError(
            f"annotation for {array!r}: array has {param.ndim} dimensions, "
            f"map has {raw.space.n_out}"
        )
    scalar_names = {p.name for p in kernel.scalar_params}
    allowed = set(GRID_PARAMS) | scalar_names
    unknown = set(raw.space.params) - allowed
    if unknown:
        raise AnalysisError(
            f"annotation for {array!r} references unknown parameters {sorted(unknown)}"
        )
    # Canonicalize: rename dims positionally, align parameter lists.
    rename = dict(zip(raw.space.in_dims, IN_DIMS6))
    rename.update({d: f"a{j}" for j, d in enumerate(raw.space.out_dims)})
    canonical_params = GRID_PARAMS + tuple(
        p.name for p in kernel.scalar_params if not p.dtype.is_float
    )
    disjuncts = []
    space6 = Space.map_space(IN_DIMS6, tuple(f"a{j}" for j in range(param.ndim)), canonical_params)
    from repro.poly.basic_set import _rebind_constraint

    for d in raw.disjuncts:
        renamed = d.rename(rename)
        disjuncts.append(
            BasicMap(
                space6,
                [
                    _rebind_constraint(c, renamed.space.to_set(), space6.to_set())
                    for c in renamed.constraints
                ],
            )
        )
    return Map(space6, disjuncts)


def apply_annotations(info: KernelAccessInfo, annotations: Mapping[str, str]) -> None:
    """Install annotated write maps on an analysis result (in place)."""
    for array, text in annotations.items():
        kernel_param = info.kernel.param(array)  # raises for unknown arrays
        access_map = parse_write_annotation(info, array, text)
        info.writes[array] = ArrayAccess(
            array=array,
            mode="write",
            access_map=access_map,
            exact=True,  # asserted by the programmer (§11 contract)
            may=False,
            gid_map=None,
            coverage=None,
            annotated=True,
        )
    # If every previously unmodellable write is now annotated, the kernel
    # becomes partitionable.
    remaining = info.nonaffine_write_arrays - set(annotations)
    if not remaining:
        info.partitionable = True
        info.reject_reason = None
