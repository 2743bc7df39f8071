"""Out-of-bounds prover for kernel array accesses.

For every affine access under a concrete launch this pass builds, per array
dimension, the two *violation sets* — threads whose subscript is negative,
and threads whose subscript reaches past the declared extent — and proves
them empty or extracts a witness thread plus the offending index value.

The violation sets deliberately do **not** include the array-shape clamp the
Z^6 access maps carry (those maps intersect with ``0 <= a_j < extent`` by
construction, which would make an image-inside-extent check vacuous); they
are rebuilt from the pre-projection raw accesses instead.

Emptiness is decided in two stages: a sound rational Fourier–Motzkin check
first, then exact integer enumeration of the (bounded, parameter-free)
candidate set — so a "possible out-of-bounds" finding always comes with a
concrete witness, and rationally-feasible-but-integer-empty sets are
correctly reported safe.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.concretize import (
    GID_COORDS,
    UnmodelledAccess,
    concrete_extents,
    concretize_access,
    split_gid_coord,
    thread_box_constraints,
)
from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.passes import AnalysisPass, LaunchContext, register_pass
from repro.compiler.access_analysis import KernelAccessInfo
from repro.errors import PolyhedralError
from repro.poly.basic_set import BasicSet
from repro.poly.constraint import Constraint
from repro.poly.space import Space

__all__ = ["BoundsProver"]


@register_pass
class BoundsProver(AnalysisPass):
    """Prove every access in bounds, or exhibit a violating thread."""

    name = "bounds"

    def run(self, info: KernelAccessInfo, launch: LaunchContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        kernel = info.kernel
        arrays = {p.name: p for p in kernel.array_params}
        advised: Set[Tuple[str, str]] = set()
        found: Set[Tuple[str, str]] = set()

        for raw in info.raw_accesses:
            key = (raw.array, raw.mode)
            if key in found:
                continue
            code = "RP301" if raw.mode == "write" else "RP302"
            if raw.indices is None or raw.approx_domain:
                if key not in advised:
                    advised.add(key)
                    why = (
                        "non-affine subscript"
                        if raw.indices is None
                        else "a non-affine guard was dropped"
                    )
                    diags.append(
                        make_diagnostic(
                            "RP303",
                            f"{raw.mode} of {raw.array!r}: {why}; "
                            "in-boundedness cannot be decided statically",
                            kernel=kernel.name,
                            array=raw.array,
                            pass_name=self.name,
                        )
                    )
                continue
            try:
                access = concretize_access(
                    raw, kernel, launch.grid, launch.block, launch.scalars
                )
                extents = concrete_extents(arrays[raw.array], launch.scalars)
            except UnmodelledAccess as exc:
                if key not in advised:
                    advised.add(key)
                    diags.append(
                        make_diagnostic(
                            "RP303",
                            f"{raw.mode} of {raw.array!r}: {exc}",
                            kernel=kernel.name,
                            array=raw.array,
                            pass_name=self.name,
                        )
                    )
                continue

            verdict = self._violation_witness(access, extents, launch)
            if verdict is None:
                continue
            if verdict == "undecided":
                if key not in advised:
                    advised.add(key)
                    diags.append(
                        make_diagnostic(
                            "RP303",
                            f"{raw.mode} of {raw.array!r}: the candidate "
                            "violation set is unbounded; cannot decide",
                            kernel=kernel.name,
                            array=raw.array,
                            pass_name=self.name,
                        )
                    )
                continue
            found.add(key)
            dim, value, extent, witness = verdict
            thread = witness["thread"]
            diags.append(
                make_diagnostic(
                    code,
                    f"thread block{tuple(thread['block'])} thread"
                    f"{tuple(thread['thread'])} {raw.mode}s {raw.array}"
                    f"[dim {dim}] at index {value}, outside extent {extent}",
                    kernel=kernel.name,
                    array=raw.array,
                    witness=witness,
                    pass_name=self.name,
                )
            )
        return diags

    def _violation_witness(self, access, extents, launch: LaunchContext):
        """First out-of-bounds witness, None if safe, "undecided" if unbounded."""
        dims = access.coords + access.iterators
        space = Space.set_space(dims, ())
        box = thread_box_constraints(
            space, access.coords, launch.grid, launch.block, None
        )
        undecided = False
        for conj in access.domain:
            cons = box + [Constraint(k, a.to_aff(space).vec) for k, a in conj]
            for j, idx in enumerate(access.indices):
                idx_aff = idx.to_aff(space)
                for violation in (
                    Constraint.ineq(-idx_aff - 1),  # idx <= -1
                    Constraint.ineq(idx_aff - extents[j]),  # idx >= extent
                ):
                    cand = BasicSet(space, cons + [violation])
                    if cand.is_empty():
                        continue
                    try:
                        for point in cand.enumerate_points(max_points=1):
                            values = dict(zip(dims, point))
                            return self._package(access, launch, values, j, extents[j])
                    except PolyhedralError:
                        undecided = True
        return "undecided" if undecided else None

    @staticmethod
    def _package(access, launch: LaunchContext, values: Dict[str, int], j: int, extent: int):
        if access.coords == GID_COORDS:
            pairs = [
                split_gid_coord(values[f"g_{axis}"], axis, launch.block)
                for axis in ("z", "y", "x")
            ]
            thread = {"block": [p[0] for p in pairs], "thread": [p[1] for p in pairs]}
        else:
            thread = {
                "block": [values[f"bi_{axis}"] for axis in ("z", "y", "x")],
                "thread": [values[f"ti_{axis}"] for axis in ("z", "y", "x")],
            }
        idx_value = access.indices[j].const + sum(
            c * values[n] for n, c in access.indices[j].terms
        )
        witness = {
            "array": access.raw.array,
            "dim": j,
            "index": int(idx_value),
            "extent": int(extent),
            "thread": thread,
            "iterators": {n: values[n] for n in access.iterators},
        }
        return j, int(idx_value), int(extent), witness
