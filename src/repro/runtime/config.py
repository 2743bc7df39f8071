"""Runtime configuration, including the paper's α/β/γ measurement modes.

Section 9.2 measures overhead by running each benchmark in three
configurations:

* **α** — regular execution of the multi-GPU application;
* **β** — transfers disabled, but dependency resolution and tracker updates
  are performed;
* **γ** — dependency resolution and tracker updates disabled, which
  automatically also disables transfers.

β and γ intentionally produce incorrect *data* (they exist to isolate time
components), so they are only meaningful for timing-mode runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import RuntimeApiError

__all__ = ["RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Flags controlling the multi-GPU runtime."""

    n_gpus: int = 1
    #: β switch: when False, buffer-synchronization copies are not issued
    #: (enumerators and tracker queries still run).
    transfers_enabled: bool = True
    #: γ switch: when False, dependency resolution and tracker updates are
    #: skipped entirely (which also disables synchronization transfers).
    tracking_enabled: bool = True
    #: Shared-copy (owner + sharer set) coherence tracking. When True, each
    #: synchronization copy registers its destination as a *sharer* of the
    #: copied segments, so later launches skip data the reader already
    #: holds (writes invalidate sharers MSI-style); applications with
    #: widely shared data stop re-broadcasting it every iteration. The
    #: default False keeps the paper's sole-owner semantics (§8.3) and
    #: reproduces the pre-sharer traffic and trace exactly.
    shared_copies: bool = False
    #: Launch-scheduler policy: ``sequential`` (paper-faithful Figure 4
    #: barrier orchestration), ``overlap`` (per-launch task DAG, copy
    #: engines overlap compute), ``overlap+p2p`` (additionally routes
    #: device-to-device copies over direct peer DMA), or ``auto`` (pick one
    #: of the three per launch from the plan's transfer/compute ratio). All
    #: policies are bitwise-equivalent functionally; they only reschedule
    #: device work.
    schedule: str = "sequential"
    #: Halo-first copy order: values > 1 issue each launch's copies on a
    #: cluster inter-node halo first, then node-seam feeders, then interior
    #: copies (``repro.cluster.gang.halo_first_order``). Every launch is
    #: issued at submit either way; 1 (the default) and any flat machine
    #: issue copies in plan order.
    pipeline_window: int = 1
    #: Irredundant transfer sets (MAIRS): trim every synchronization copy
    #: to the byte ranges the dataflow analyzer proves the partition
    #: actually reads, dropping the bounding-range slack of the paper's
    #: per-row enumerators (strided reads, over-approximated guards). Sound
    #: because dropped bytes are provably never read — they simply stay
    #: stale in the tracker; bitwise-invisible on outputs. The default
    #: False ships every planned byte, reproducing §6.1 exactly.
    irredundant_transfers: bool = False
    #: Debug audit (slow; for tests and fuzzing): every memo hit keyed on
    #: launch arguments or live state also runs its miss path and raises
    #: ``MemoAuditError`` if the cached value differs (repro.memo); in
    #: functional mode each partition's scanned write set must equal the
    #: cells the kernel wrote. Nothing else observable changes.
    debug_audit: bool = False

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise RuntimeApiError("runtime needs at least one GPU")
        from repro.sched.policy import SCHEDULES

        if self.schedule != "auto" and self.schedule not in SCHEDULES:
            raise RuntimeApiError(
                f"unknown schedule {self.schedule!r} "
                f"(choose from {', '.join(SCHEDULES)}, auto)"
            )
        if not isinstance(self.pipeline_window, int) or self.pipeline_window < 1:
            raise RuntimeApiError(
                f"pipeline_window must be a positive integer, got {self.pipeline_window!r}"
            )

    @property
    def sync_transfers_active(self) -> bool:
        return self.transfers_enabled and self.tracking_enabled

    # -- the three measurement configurations (§9.2) -------------------------

    def alpha(self) -> "RuntimeConfig":
        """Regular execution."""
        return replace(self, transfers_enabled=True, tracking_enabled=True)

    def beta(self) -> "RuntimeConfig":
        """Transfers disabled; dependency resolution still performed."""
        return replace(self, transfers_enabled=False, tracking_enabled=True)

    def gamma(self) -> "RuntimeConfig":
        """Dependency resolution and tracker updates disabled."""
        return replace(self, transfers_enabled=False, tracking_enabled=False)
