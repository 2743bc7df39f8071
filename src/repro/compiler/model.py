"""The on-disk application model (paper §4, last paragraph).

"After performing these checks, the application model is saved to disk. For
each kernel, a record is created that contains the kernel's name, suggested
partitioning strategy, and a list of its arguments. The read and write maps
of arrays are stored per-argument."

Maps serialize to isl notation (via :mod:`repro.poly.pretty`) and parse back
(via :mod:`repro.poly.parser`), so the JSON model is a faithful, lossless
hand-off between the two compiler passes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.compiler.access_analysis import KernelAccessInfo
from repro.compiler.strategy import PartitionStrategy
from repro.cuda.ir.kernel import ArrayParam, ScalarParam
from repro.cuda.ir.printer import expr_to_cuda
from repro.errors import AnalysisError
from repro.poly.map_ import Map
from repro.poly.parser import parse_map
from repro.poly.pretty import map_to_str

__all__ = ["AccessRecord", "ArgRecord", "KernelModel", "AppModel"]


@dataclass
class AccessRecord:
    """One serialized access map."""

    map_str: str
    exact: bool
    may: bool

    def to_map(self) -> Map:
        return parse_map(self.map_str)


@dataclass
class ArgRecord:
    """One kernel argument: kind, type, and (for arrays) shape and maps."""

    name: str
    kind: str  # "array" | "scalar"
    dtype: str
    shape: Tuple[str, ...] = ()
    read: Optional[AccessRecord] = None
    write: Optional[AccessRecord] = None


@dataclass
class KernelModel:
    """The per-kernel record stored in the application model."""

    name: str
    strategy_axis: str
    strategy_kind: str
    args: List[ArgRecord]
    partitionable: bool
    reject_reason: Optional[str] = None
    #: Grid axes that must have unit extent at launch for the injectivity
    #: proof to hold (axes the write maps do not distinguish).
    unit_axes: Tuple[str, ...] = ()
    #: Whether the runtime must validate write-scan exactness with the
    #: concrete launch configuration (flat 1-D subscripts; see
    #: :mod:`repro.compiler.coverage`).
    runtime_coverage: bool = False

    @staticmethod
    def from_analysis(
        info: KernelAccessInfo, strategy: PartitionStrategy, *, partitionable: bool = True,
        reject_reason: Optional[str] = None, unit_axes: Tuple[str, ...] = (),
        runtime_coverage: bool = False,
    ) -> "KernelModel":
        args: List[ArgRecord] = []
        for p in info.kernel.params:
            if isinstance(p, ArrayParam):
                read = info.reads.get(p.name)
                write = info.writes.get(p.name)
                args.append(
                    ArgRecord(
                        name=p.name,
                        kind="array",
                        dtype=p.dtype.name,
                        shape=tuple(expr_to_cuda(e) for e in p.shape),
                        read=AccessRecord(map_to_str(read.access_map), read.exact, read.may)
                        if read
                        else None,
                        write=AccessRecord(map_to_str(write.access_map), write.exact, write.may)
                        if write
                        else None,
                    )
                )
            elif isinstance(p, ScalarParam):
                args.append(ArgRecord(name=p.name, kind="scalar", dtype=p.dtype.name))
        return KernelModel(
            name=info.kernel.name,
            strategy_axis=strategy.axis,
            strategy_kind=strategy.kind,
            args=args,
            partitionable=partitionable and info.partitionable,
            reject_reason=reject_reason or info.reject_reason,
            unit_axes=tuple(sorted(unit_axes)),
            runtime_coverage=runtime_coverage,
        )

    def strategy(self) -> PartitionStrategy:
        return PartitionStrategy(axis=self.strategy_axis, kind=self.strategy_kind)


@dataclass
class AppModel:
    """The whole application's model: one record per kernel."""

    kernels: Dict[str, KernelModel] = field(default_factory=dict)

    def add(self, model: KernelModel) -> None:
        self.kernels[model.name] = model

    def get(self, name: str) -> KernelModel:
        try:
            return self.kernels[name]
        except KeyError:
            raise AnalysisError(f"application model has no kernel {name!r}") from None

    # -- (de)serialization ----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "kernels": {name: asdict(m) for name, m in sorted(self.kernels.items())},
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "AppModel":
        payload = json.loads(text)
        if payload.get("version") != 1:
            raise AnalysisError(f"unsupported model version {payload.get('version')!r}")
        app = AppModel()
        for name, m in payload["kernels"].items():
            args = []
            for a in m["args"]:
                read = AccessRecord(**a["read"]) if a.get("read") else None
                write = AccessRecord(**a["write"]) if a.get("write") else None
                args.append(
                    ArgRecord(
                        name=a["name"],
                        kind=a["kind"],
                        dtype=a["dtype"],
                        shape=tuple(a.get("shape", ())),
                        read=read,
                        write=write,
                    )
                )
            app.add(
                KernelModel(
                    name=m["name"],
                    strategy_axis=m["strategy_axis"],
                    strategy_kind=m["strategy_kind"],
                    args=args,
                    partitionable=m["partitionable"],
                    reject_reason=m.get("reject_reason"),
                    unit_axes=tuple(m.get("unit_axes", ())),
                    runtime_coverage=m.get("runtime_coverage", False),
                )
            )
        return app

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @staticmethod
    def load(path: Union[str, Path]) -> "AppModel":
        return AppModel.from_json(Path(path).read_text())
