"""``repro.runtime`` — the multi-GPU runtime library (paper §8).

High-level, application-independent primitives:

* :mod:`~repro.runtime.tracker` — per-buffer segment trackers (§8.1);
* :mod:`~repro.runtime.vbuffer` — virtual buffers (one device-local instance
  per GPU plus a tracker);
* :mod:`~repro.runtime.memcpy` — direction-translated memcopies (§8.2);
* :mod:`~repro.runtime.sync` — buffer synchronization and tracker updates
  driven by the generated enumerators (§8.3);
* :mod:`~repro.runtime.launch` — the kernel-launch replacement (Figure 4);
* :mod:`~repro.runtime.api` — CUDA Runtime replacements with identical
  prototypes (§8.4);
* :mod:`~repro.runtime.config` — runtime flags, including the α/β/γ
  measurement configurations of §9.2.
"""

from repro.runtime.tracker import SegmentTracker, Segment
from repro.runtime.vbuffer import VirtualBuffer
from repro.runtime.config import RuntimeConfig
from repro.runtime.api import MultiGpuApi

__all__ = [
    "SegmentTracker",
    "Segment",
    "VirtualBuffer",
    "RuntimeConfig",
    "MultiGpuApi",
]
