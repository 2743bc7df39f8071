"""Virtual buffers (paper §8.1).

"Instead of allocating a single buffer on a single GPU, the partitioned
application allocates one device buffer per device, creates a tracker
component, and bundles them into a 'virtual buffer'."

Each instance is a full-size device-local allocation; the tracker maps every
byte to the device holding its most recently written copy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cuda.device import DevPtr, Device
from repro.errors import RuntimeApiError
from repro.runtime.tracker import SegmentTracker

__all__ = ["VirtualBuffer"]


class VirtualBuffer:
    """One logical GPU buffer backed by per-device instances plus a tracker."""

    def __init__(self, vb_id: int, nbytes: int, devices: Sequence[Device]) -> None:
        if nbytes <= 0:
            raise RuntimeApiError(f"virtual buffer of non-positive size {nbytes}")
        self.vb_id = vb_id
        self.nbytes = nbytes
        self._devices: Dict[int, Device] = {d.device_id: d for d in devices}
        self.instances: Dict[int, DevPtr] = {
            d.device_id: d.alloc(nbytes) for d in devices
        }
        self.tracker = SegmentTracker(nbytes, initial_owner=devices[0].device_id)
        self.freed = False

    def instance(self, device_id: int) -> DevPtr:
        self._check()
        try:
            return self.instances[device_id]
        except KeyError:
            raise RuntimeApiError(
                f"virtual buffer {self.vb_id} has no instance on device {device_id}"
            ) from None

    def bytes_on(self, device_id: int) -> np.ndarray:
        """Mutable byte view of the instance on one device (functional mode)."""
        self._check()
        return self._devices[device_id].bytes_view(self.instance(device_id))

    def typed_on(self, device_id: int, np_dtype: np.dtype, shape) -> np.ndarray:
        self._check()
        return self._devices[device_id].typed_view(self.instance(device_id), np_dtype, shape)

    def coherence_state(self) -> List[tuple]:
        """Comparable snapshot of the tracker: (start, end, owner, sharers).

        Sharers are sorted tuples so two runs may be compared for exact
        coherence-state equality regardless of schedule policy. Reading the
        snapshot does not count as tracker operations.
        """
        return [
            (s.start, s.end, s.owner, tuple(sorted(s.sharers)))
            for s in self.tracker.segments()
        ]

    def free(self) -> None:
        self._check()
        for dev_id, ptr in self.instances.items():
            self._devices[dev_id].free(ptr)
        self.instances.clear()
        self.freed = True

    def _check(self) -> None:
        if self.freed:
            raise RuntimeApiError(f"use of freed virtual buffer {self.vb_id}")

    def __repr__(self) -> str:
        return (
            f"VirtualBuffer(id={self.vb_id}, nbytes={self.nbytes}, "
            f"devices={sorted(self.instances)}, segments={self.tracker.n_segments})"
        )
