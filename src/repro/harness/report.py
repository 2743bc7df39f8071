"""Plain-text reporting: tables, ASCII charts, CSV export, self-checks.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output readable in a terminal and diffable in CI. The
one ``repro bench`` runner (:func:`repro.harness.benches.run_bench`) exits
through :func:`finish_self_checks` and writes ``--json`` through
:func:`write_json_report`, so every registry entry fails CI the same way
and lands its payload in the same place.
"""

from __future__ import annotations

import io
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "format_table",
    "ascii_series",
    "to_csv",
    "finish_self_checks",
    "write_json_report",
]


def finish_self_checks(failures: Sequence[str], passed_message: str) -> int:
    """Turn a bench's self-check outcome into its process exit code.

    Prints one ``FAIL: ...`` line per failure to stderr and returns 1, or
    prints ``checks passed: <passed_message>`` and returns 0 — the shared
    contract every self-checking bench (and its CI matrix row) relies on.
    """
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"checks passed: {passed_message}")
    return 0


def write_json_report(json_arg: object, default_path: str, payload: object) -> str:
    """Write one bench's machine-readable payload, honouring ``--json``.

    ``json_arg`` is argparse's value for the optional-path flag: a string
    overrides the destination, any other truthy value (bare ``--json``)
    selects ``default_path``. Parent directories are created as needed;
    the chosen path is printed and returned.
    """
    path = json_arg if isinstance(json_arg, str) else default_path
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
    return path


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, title: str = ""
) -> str:
    """Fixed-width text table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in str_rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
    return out.getvalue()


def ascii_series(
    series: Dict[str, Dict[int, float]],
    *,
    width: int = 60,
    title: str = "",
    y_label: str = "",
) -> str:
    """Horizontal-bar rendering of one or more (x -> y) series."""
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    peak = max((v for ys in series.values() for v in ys.values()), default=1.0)
    for name, ys in series.items():
        out.write(f"[{name}]\n")
        for x in sorted(ys):
            bar = "#" * max(1, int(round(ys[x] / peak * width)))
            out.write(f"  {x:>4}  {bar} {ys[x]:.2f}{y_label}\n")
    return out.getvalue()


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as CSV text (no quoting; values must be comma-free)."""
    out = io.StringIO()
    out.write(",".join(headers) + "\n")
    for row in rows:
        out.write(",".join(_fmt(c) for c in row) + "\n")
    return out.getvalue()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
