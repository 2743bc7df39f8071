"""Dimension spaces for polyhedral objects.

A :class:`Space` names the columns of every constraint vector:

``[const, params..., in_dims..., out_dims...]``

Sets use only *out* dimensions (matching isl, where set dimensions are "out"
dimensions of a nullary map); maps use both *in* and *out*. Parameters are
symbolic constants that are fixed at runtime (e.g. the problem size ``n`` or
the partition bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import SpaceMismatchError

__all__ = ["Space"]


@dataclass(frozen=True)
class Space:
    """An ordered, named dimension space.

    Attributes:
        params: names of symbolic parameters.
        in_dims: input (domain) dimension names; empty for sets.
        out_dims: output (range) dimension names; the "set dimensions".
    """

    params: Tuple[str, ...] = ()
    in_dims: Tuple[str, ...] = ()
    out_dims: Tuple[str, ...] = ()
    #: Number of columns in a constraint vector (1 + params + dims).
    ncols: int = field(init=False, repr=False, compare=False, hash=False, default=0)
    #: All column names in order (excluding the constant column).
    all_names: Tuple[str, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )
    _columns: Dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "in_dims", tuple(self.in_dims))
        object.__setattr__(self, "out_dims", tuple(self.out_dims))
        names = self.params + self.in_dims + self.out_dims
        if len(set(names)) != len(names):
            raise SpaceMismatchError(f"duplicate dimension names in space: {list(names)}")
        object.__setattr__(self, "ncols", 1 + len(names))
        object.__setattr__(self, "all_names", names)
        object.__setattr__(self, "_columns", {name: i + 1 for i, name in enumerate(names)})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def set_space(dims: Sequence[str], params: Sequence[str] = ()) -> "Space":
        """A set space with the given (out) dimensions."""
        return Space(params=tuple(params), in_dims=(), out_dims=tuple(dims))

    @staticmethod
    def map_space(
        in_dims: Sequence[str], out_dims: Sequence[str], params: Sequence[str] = ()
    ) -> "Space":
        """A map space with the given input and output dimensions."""
        return Space(params=tuple(params), in_dims=tuple(in_dims), out_dims=tuple(out_dims))

    # -- queries -----------------------------------------------------------

    @property
    def is_set(self) -> bool:
        """True when this space has no input dimensions."""
        return not self.in_dims

    @property
    def n_params(self) -> int:
        return len(self.params)

    @property
    def n_in(self) -> int:
        return len(self.in_dims)

    @property
    def n_out(self) -> int:
        return len(self.out_dims)

    @property
    def n_dims(self) -> int:
        """Number of true (non-parameter) dimensions."""
        return self.n_in + self.n_out

    def column_of(self, name: str) -> int:
        """Constraint-vector column index of a named dimension or parameter."""
        try:
            return self._columns[name]
        except KeyError:
            raise SpaceMismatchError(f"unknown dimension {name!r} in space {self}") from None

    def has(self, name: str) -> bool:
        return name in self._columns

    def name_of(self, col: int) -> str:
        """Inverse of :meth:`column_of` (column 0 is the constant)."""
        if col == 0:
            return "1"
        return self.all_names[col - 1]

    def param_columns(self) -> range:
        return range(1, 1 + self.n_params)

    def in_columns(self) -> range:
        start = 1 + self.n_params
        return range(start, start + self.n_in)

    def out_columns(self) -> range:
        start = 1 + self.n_params + self.n_in
        return range(start, start + self.n_out)

    def dim_columns(self) -> range:
        """Columns of all true dimensions (in followed by out)."""
        start = 1 + self.n_params
        return range(start, start + self.n_dims)

    # -- derived spaces ----------------------------------------------------

    def domain(self) -> "Space":
        """Set space over this map's input dimensions."""
        return Space.set_space(self.in_dims, self.params)

    def range(self) -> "Space":
        """Set space over this map's output dimensions."""
        return Space.set_space(self.out_dims, self.params)

    def reversed(self) -> "Space":
        """Map space with in and out swapped."""
        return Space(params=self.params, in_dims=self.out_dims, out_dims=self.in_dims)

    def drop_dims(self, names: Iterable[str]) -> "Space":
        """Space with the given (non-parameter) dimensions removed."""
        drop = set(names)
        unknown = drop - set(self.in_dims) - set(self.out_dims)
        if unknown:
            raise SpaceMismatchError(f"cannot drop non-dimensions {sorted(unknown)} from {self}")
        return Space(
            params=self.params,
            in_dims=tuple(d for d in self.in_dims if d not in drop),
            out_dims=tuple(d for d in self.out_dims if d not in drop),
        )

    def drop_params(self, names: Iterable[str]) -> "Space":
        """Space with the given parameters removed."""
        drop = set(names)
        unknown = drop - set(self.params)
        if unknown:
            raise SpaceMismatchError(f"cannot drop non-parameters {sorted(unknown)} from {self}")
        return Space(
            params=tuple(p for p in self.params if p not in drop),
            in_dims=self.in_dims,
            out_dims=self.out_dims,
        )

    def add_params(self, names: Sequence[str]) -> "Space":
        """Space with additional parameters appended."""
        return Space(
            params=self.params + tuple(n for n in names if n not in self.params),
            in_dims=self.in_dims,
            out_dims=self.out_dims,
        )

    def rename(self, mapping: Dict[str, str]) -> "Space":
        """Space with dimensions/parameters renamed via ``mapping``."""
        def ren(names: Tuple[str, ...]) -> Tuple[str, ...]:
            return tuple(mapping.get(n, n) for n in names)

        return Space(params=ren(self.params), in_dims=ren(self.in_dims), out_dims=ren(self.out_dims))

    def to_set(self) -> "Space":
        """Flatten a map space to a set space over in+out (wrapped relation)."""
        return Space.set_space(self.in_dims + self.out_dims, self.params)

    def check_compatible(self, other: "Space") -> None:
        """Raise :class:`SpaceMismatchError` unless both spaces are identical."""
        if (
            self.params != other.params
            or self.in_dims != other.in_dims
            or self.out_dims != other.out_dims
        ):
            raise SpaceMismatchError(f"space mismatch: {self} vs {other}")

    def __str__(self) -> str:
        par = f"[{', '.join(self.params)}] -> " if self.params else ""
        if self.is_set:
            return f"{par}{{ [{', '.join(self.out_dims)}] }}"
        return f"{par}{{ [{', '.join(self.in_dims)}] -> [{', '.join(self.out_dims)}] }}"
