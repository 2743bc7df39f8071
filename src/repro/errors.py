"""Exception hierarchy for the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can distinguish "this kernel cannot be partitioned" (an expected, recoverable
analysis outcome) from genuine programming errors.

Two pieces of metadata ride on every error class:

* ``exit_code`` — the process exit status the CLI maps the error to.  Every
  concrete error class has a *distinct* nonzero code (asserted by the test
  suite), so scripts driving ``python -m repro`` can tell a validation
  failure from a partitioning rejection without parsing stderr.
* ``diagnostic_code`` — the stable ``RPxxx`` diagnostic code of the static
  analysis layer (:mod:`repro.analysis`), when the error corresponds to a
  lint finding.  Raise sites may override it per-instance via the ``code=``
  keyword; :func:`format_with_code` renders the canonical
  ``"RPxxx message"`` form used in kernel-model reject reasons.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "PolyhedralError",
    "NonAffineError",
    "SpaceMismatchError",
    "ParseError",
    "KernelIRError",
    "ValidationError",
    "ExecutionError",
    "AnalysisError",
    "LintError",
    "PartitioningError",
    "InjectivityError",
    "RewriteError",
    "RuntimeApiError",
    "UnsupportedMemcpyError",
    "TrackerError",
    "MemoAuditError",
    "SimulationError",
    "CalibrationError",
    "ServeError",
    "AdmissionError",
    "TaskGraphError",
    "exit_code_for",
    "format_with_code",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Process exit status the CLI maps this error class to.
    exit_code: int = 9
    #: Stable ``RPxxx`` diagnostic code of the static-analysis layer, when
    #: this error corresponds to a lint finding (class default; instances
    #: may override via the ``code=`` keyword).
    diagnostic_code: Optional[str] = None

    def __init__(self, *args: object, code: Optional[str] = None) -> None:
        super().__init__(*args)
        if code is not None:
            self.diagnostic_code = code


class PolyhedralError(ReproError):
    """Base class for errors in the polyhedral library (:mod:`repro.poly`)."""

    exit_code = 10


class NonAffineError(PolyhedralError):
    """An expression required to be affine is not affine.

    Raised both by the polyhedral layer (e.g. multiplying two symbolic
    affine expressions) and by the compiler's access analysis when a kernel
    subscript cannot be modelled.
    """

    exit_code = 11


class SpaceMismatchError(PolyhedralError):
    """Two polyhedral objects live in incompatible spaces."""

    exit_code = 12


class ParseError(PolyhedralError):
    """Malformed isl-notation input to :func:`repro.poly.parser.parse_set`."""

    exit_code = 13


class KernelIRError(ReproError):
    """Base class for errors in the mini-CUDA kernel IR."""

    exit_code = 20


class ValidationError(KernelIRError):
    """A kernel failed IR validation (type errors, malformed structure)."""

    exit_code = 21


class ExecutionError(KernelIRError):
    """A kernel failed during (vectorized) execution."""

    exit_code = 22


class AnalysisError(ReproError):
    """The polyhedral access analysis could not model a kernel."""

    exit_code = 30


class LintError(AnalysisError):
    """A static-analysis pass itself failed (not a finding — a pass bug or
    an input the pass framework cannot process)."""

    exit_code = 31


class PartitioningError(ReproError):
    """A kernel is not legal to partition across devices.

    This is the expected outcome for kernels whose write accesses cannot be
    modelled exactly; the paper falls back to single-GPU execution in this
    case and so do we.
    """

    exit_code = 40


class InjectivityError(PartitioningError):
    """The write map of a kernel could not be proven injective."""

    exit_code = 41
    diagnostic_code = "RP201"


class RewriteError(ReproError):
    """The source-to-source host rewriter could not transform an input."""

    exit_code = 50


class RuntimeApiError(ReproError):
    """Misuse of the runtime library's CUDA-replacement API."""

    exit_code = 60


class UnsupportedMemcpyError(RuntimeApiError):
    """A memcpy direction that the runtime does not support (device-to-device)."""

    exit_code = 61


class TrackerError(RuntimeApiError):
    """Inconsistent state in a virtual buffer's segment tracker."""

    exit_code = 62


class MemoAuditError(RuntimeApiError):
    """An audited memo hit differed from its recomputation (``debug_audit``)."""

    exit_code = 63


class SimulationError(ReproError):
    """Errors in the discrete-event machine simulator."""

    exit_code = 70


class CalibrationError(SimulationError):
    """Invalid machine-model calibration constants."""

    exit_code = 71


class ServeError(ReproError):
    """Errors in the multi-tenant serving runtime (:mod:`repro.serve`)."""

    exit_code = 80


class AdmissionError(ServeError):
    """A job was rejected by admission control (bounded-queue backpressure).

    Carries a stable machine-readable ``reason`` code so clients can
    distinguish load shedding from programming errors without parsing the
    message text.
    """

    exit_code = 81
    #: Stable reason code for queue-full rejections.
    QUEUE_FULL = "SERVE_QUEUE_FULL"

    def __init__(self, *args: object, reason: str = QUEUE_FULL) -> None:
        super().__init__(*args)
        self.reason = reason


class TaskGraphError(ReproError):
    """Errors in the dynamic task-graph frontend (:mod:`repro.tasks`).

    Raised for malformed graphs: dependency cycles (including cycles closed
    through :class:`~repro.tasks.spec.TaskSpace` forward references),
    dependencies on task-space slots that were never bound to a task, and
    execution orders that violate the derived RAW/WAR/WAW edges.
    """

    exit_code = 82


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit status for an exception (1 for non-:class:`ReproError`)."""
    return exc.exit_code if isinstance(exc, ReproError) else 1


def format_with_code(exc: BaseException) -> str:
    """Render an error as ``"RPxxx message"`` when it carries a diagnostic code.

    Used for kernel-model reject reasons so that ``repro analyze`` and
    ``repro lint`` agree on the code identifying a rejection.  Errors without
    a diagnostic code (and messages that already start with their code)
    render unchanged.
    """
    text = str(exc)
    code = getattr(exc, "diagnostic_code", None)
    if code and not text.startswith(code):
        return f"{code} {text}"
    return text
