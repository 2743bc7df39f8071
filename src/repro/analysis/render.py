"""Renderers for lint reports: pretty text and machine-readable JSON.

The JSON layout is the documented interchange schema (see
``docs/static-analysis.md``); :func:`validate_report_json` checks an
arbitrary parsed document against it and is exercised by the test suite and
CI so the schema cannot drift silently.
"""

from __future__ import annotations

import json
from typing import Any, List

from repro.analysis.diagnostics import Severity
from repro.analysis.passes import LintReport
from repro.errors import LintError

__all__ = ["render_text", "render_json", "validate_report_json", "JSON_VERSION"]

#: Version of the JSON report layout; bumped on incompatible changes.
JSON_VERSION = 1


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding, summary line last.

    Identical per-partition findings are collapsed
    (:meth:`LintReport.deduplicated`); the summary counts the rendered
    (deduplicated) findings so text, JSON and exit codes agree.
    """
    diags = report.deduplicated()
    lines: List[str] = []
    for diag in diags:
        lines.append(diag.format())
        if diag.witness:
            lines.append(f"         witness: {json.dumps(diag.witness, sort_keys=True)}")
        if diag.hint:
            lines.append(f"         hint: {diag.hint}")
    lines.append(
        f"{len(report.kernels)} kernel(s): "
        f"{sum(1 for d in diags if d.severity == Severity.ERROR)} error(s), "
        f"{sum(1 for d in diags if d.severity == Severity.WARNING)} warning(s), "
        f"{sum(1 for d in diags if d.severity == Severity.ADVICE)} advice"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The documented JSON report (stable field set, deduplicated findings)."""
    diags = report.deduplicated()
    doc = {
        "version": JSON_VERSION,
        "tool": "repro-lint",
        "summary": {
            "kernels": len(report.kernels),
            "errors": sum(1 for d in diags if d.severity == Severity.ERROR),
            "warnings": sum(1 for d in diags if d.severity == Severity.WARNING),
            "advice": sum(1 for d in diags if d.severity == Severity.ADVICE),
        },
        "diagnostics": [d.to_dict() for d in diags],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


_SEVERITIES = {s.label for s in Severity}
_DIAG_FIELDS = {
    "code": str,
    "title": str,
    "severity": str,
    "kernel": str,
    "message": str,
    "pass": str,
}
_DIAG_OPTIONAL = {"array": str, "hint": str, "witness": dict}
_SUMMARY_FIELDS = ("kernels", "errors", "warnings", "advice")


def validate_report_json(doc: Any) -> None:
    """Raise :class:`LintError` unless ``doc`` matches the report schema."""
    from repro.analysis.codes import REGISTRY

    if not isinstance(doc, dict):
        raise LintError("report must be a JSON object")
    if doc.get("version") != JSON_VERSION:
        raise LintError(f"unsupported report version {doc.get('version')!r}")
    if doc.get("tool") != "repro-lint":
        raise LintError(f"unexpected tool field {doc.get('tool')!r}")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        raise LintError("missing summary object")
    for key in _SUMMARY_FIELDS:
        if not isinstance(summary.get(key), int) or summary[key] < 0:
            raise LintError(f"summary.{key} must be a non-negative integer")
    diags = doc.get("diagnostics")
    if not isinstance(diags, list):
        raise LintError("diagnostics must be a list")
    counts = {"errors": 0, "warnings": 0, "advice": 0}
    for i, d in enumerate(diags):
        if not isinstance(d, dict):
            raise LintError(f"diagnostics[{i}] must be an object")
        for key, typ in _DIAG_FIELDS.items():
            if not isinstance(d.get(key), typ):
                raise LintError(f"diagnostics[{i}].{key} must be a {typ.__name__}")
        for key, typ in _DIAG_OPTIONAL.items():
            if d.get(key) is not None and not isinstance(d[key], typ):
                raise LintError(
                    f"diagnostics[{i}].{key} must be null or a {typ.__name__}"
                )
        if d["code"] not in REGISTRY:
            raise LintError(f"diagnostics[{i}].code {d['code']!r} is not registered")
        if d["severity"] not in _SEVERITIES:
            raise LintError(f"diagnostics[{i}].severity {d['severity']!r} is invalid")
        if d["severity"] == "error":
            counts["errors"] += 1
        elif d["severity"] == "warning":
            counts["warnings"] += 1
        else:
            counts["advice"] += 1
    for key in ("errors", "warnings", "advice"):
        if summary[key] != counts[key]:
            raise LintError(
                f"summary.{key} ({summary[key]}) does not match the "
                f"diagnostics list ({counts[key]})"
            )
