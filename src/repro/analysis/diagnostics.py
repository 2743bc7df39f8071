"""The shared diagnostic record emitted by every static-analysis pass.

A :class:`Diagnostic` is one finding: a stable code (see
:mod:`repro.analysis.codes`), a severity, the kernel (and usually array) it
is anchored to, a human-readable message, an optional machine-readable
witness, and a fix hint. Passes construct diagnostics through
:func:`make_diagnostic`, which fills title/severity/hint defaults from the
code registry so messages stay consistent across passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["Severity", "Diagnostic", "make_diagnostic"]


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the integer value."""

    ADVICE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in renderers and CLI flags."""
        return self.name.lower()

    @staticmethod
    def from_label(label: str) -> "Severity":
        """Parse a lower-case severity name (``"error"``, ``"warning"``, ...)."""
        try:
            return Severity[label.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {label!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    code: str
    title: str
    severity: Severity
    message: str
    kernel: str
    array: Optional[str] = None
    #: Machine-readable evidence (thread coordinates, cell index, ...).
    witness: Optional[Dict[str, Any]] = None
    hint: Optional[str] = None
    #: Name of the pass that produced the finding.
    pass_name: str = ""

    def location(self) -> str:
        """``kernel`` or ``kernel/array`` anchor string."""
        return f"{self.kernel}/{self.array}" if self.array else self.kernel

    def format(self) -> str:
        """One-line human-readable rendering (without the witness)."""
        return f"{self.severity.label:>7}  {self.code}  {self.location()}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the schema in ``docs/static-analysis.md``)."""
        return {
            "code": self.code,
            "title": self.title,
            "severity": self.severity.label,
            "kernel": self.kernel,
            "array": self.array,
            "message": self.message,
            "hint": self.hint,
            "witness": self.witness,
            "pass": self.pass_name,
        }


def make_diagnostic(
    code: str,
    message: str,
    *,
    kernel: str,
    array: Optional[str] = None,
    witness: Optional[Dict[str, Any]] = None,
    severity: Optional[Severity] = None,
    hint: Optional[str] = None,
    pass_name: str = "",
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting metadata from the code registry."""
    from repro.analysis.codes import code_info

    info = code_info(code)
    return Diagnostic(
        code=code,
        title=info.title,
        severity=severity if severity is not None else info.severity,
        message=message,
        kernel=kernel,
        array=array,
        witness=witness,
        hint=hint if hint is not None else info.hint,
        pass_name=pass_name,
    )
