"""Host-side launch-path profiling for the traced benchmark run.

Attach a :class:`LaunchProfiler` to ``api.profiler`` and the staged launch
path (:mod:`repro.runtime.launch`) records real wall-clock per stage —
``fingerprint`` (key construction), ``skeleton`` (partitioning + enumerator
scans, cold only), ``residual`` (tracker queries + stale-copy planning, or
digest + replay on a residual-cache hit) and ``submit`` (functional apply and simulated issue) —
split into three launch temperatures: *cold* (plan-cache miss), *warm*
(skeleton hit, residual re-derived) and *replay* (skeleton hit **and**
residual-cache hit). This measures the Python orchestration itself, not the
simulated hardware; the ledger's traced run (``bench/run.py --traced``)
turns the totals into ``runtime.{fingerprint,skeleton,residual,submit}_us``
per launch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["LaunchProfiler", "STAGES", "TEMPERATURES"]

#: Stage names in launch-path order.
STAGES = ("fingerprint", "skeleton", "residual", "submit")

#: Launch temperatures, coldest first: plan-cache miss, skeleton hit with a
#: re-derived residual, and skeleton + residual-replay hit.
TEMPERATURES = ("cold", "warm", "replay")


@dataclass
class LaunchProfiler:
    """Accumulated host seconds and launch counts per (temperature, stage)."""

    #: (temperature, stage) -> accumulated seconds.
    seconds: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: temperature -> number of launches profiled.
    launches: Dict[str, int] = field(default_factory=dict)

    def add(self, temp: str, stage: str, duration: float) -> None:
        key = (temp, stage)
        self.seconds[key] = self.seconds.get(key, 0.0) + duration

    def count_launch(self, temp: str) -> None:
        self.launches[temp] = self.launches.get(temp, 0) + 1

    def per_launch_us(self, temp: str) -> Dict[str, float]:
        """Mean host microseconds per launch, per stage plus ``total``.

        Empty when no launch of that temperature was profiled.
        """
        n = self.launches.get(temp, 0)
        if not n:
            return {}
        out = {
            stage: 1e6 * self.seconds.get((temp, stage), 0.0) / n for stage in STAGES
        }
        out["total"] = sum(out.values())
        return out
