"""The resource scheduler behind the timing simulation.

Model: one sequential *host* thread orchestrates asynchronous work on
per-device *compute queues* (FIFO, availability time) and per-device *PCIe
lanes* plus one *host staging bus* (busy-interval lists with first-fit
backfill — DMA engines are independent, so a transfer may start in any gap
after its issue time on all of its resources).

Device-to-device copies without peer-to-peer DMA are staged through host
memory: they occupy both device lanes for the inflated duration and the
staging bus for ``bytes * staging_factor / host_bus_bw`` — the aggregate
host-memory bandwidth shared by *all* concurrent staged traffic, which is
what throttles e.g. the matmul redistribution when 16 GPUs exchange a whole
matrix at once. Host-to/from-device copies occupy the bus for their plain
byte time.

This is the standard list-scheduling abstraction for BSP-style
orchestration; the paper's generated host code (Figure 4) is itself
barrier-structured (synchronize reads -> barrier -> launch -> update
trackers), so ``transfer``/``launch_kernel``/``synchronize`` reproduce
exactly that barrier discipline.

The async launch scheduler (``repro.sched``) instead issues *event-driven*
work: ``stream_transfer`` starts a copy as soon as its explicit dependency
events have fired (copy engines do not wait for compute queues), and
``launch_kernel`` accepts dependency events so a kernel partition starts
when *its* feeding transfers complete rather than at a global barrier.
Both return their completion time, which is the event currency the
scheduler threads through the DAG. :class:`SimStream` models an in-order
CUDA stream on top of these events for the runtime's async memcpy path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple, Union

from repro.constants import HOST
from repro.errors import SimulationError
from repro.sim.topology import MachineSpec
from repro.sim.trace import Category, Trace

__all__ = ["SimMachine", "SimStream", "Category"]


class SimStream:
    """An in-order queue of asynchronous operations on the simulated machine.

    The stream itself holds no resources — lanes and compute queues do — it
    only remembers the completion time of the last operation enqueued on it,
    which is what a ``cudaStreamSynchronize`` replacement waits for.
    """

    __slots__ = ("machine", "name", "_cursor")

    def __init__(self, machine: "SimMachine", name: str = "stream") -> None:
        self.machine = machine
        self.name = name
        self._cursor = 0.0

    def record(self, event: float) -> float:
        """Enqueue-order completion point: streams preserve issue order."""
        self._cursor = max(self._cursor, event)
        return self._cursor

    @property
    def avail(self) -> float:
        """Completion time of the last operation enqueued on this stream."""
        return self._cursor


class _Lane:
    """A transfer resource with busy intervals and first-fit gap search.

    ``busy`` is sorted and pairwise disjoint (every reservation starts where
    :meth:`next_fit` said it fits), so the interval ends are sorted too;
    ``_ends`` mirrors them for bisection (``bisect(key=)`` needs 3.10).
    """

    __slots__ = ("busy", "_ends")

    def __init__(self) -> None:
        self.busy: List[Tuple[float, float]] = []
        self._ends: List[float] = []

    def next_fit(self, earliest: float, duration: float) -> float:
        """Earliest start >= ``earliest`` with a free gap of ``duration``."""
        ends = self._ends
        if not ends or ends[-1] <= earliest:
            return earliest  # the lane is free from ``earliest`` on
        t = earliest
        busy = self.busy
        # An interval ending at or before ``earliest`` can neither offer a
        # gap nor push ``t``: start at the first one ending after it.
        for i in range(bisect_right(ends, earliest), len(busy)):
            start, end = busy[i]
            if t + duration <= start:
                return t
            if end > t:
                t = end
        return t

    def reserve(self, start: float, end: float) -> None:
        busy, interval = self.busy, (start, end)
        if busy and interval < busy[-1]:
            i = bisect_right(busy, interval)
            busy.insert(i, interval)
            self._ends.insert(i, end)
        else:  # the lane's new last interval, as most are
            busy.append(interval)
            self._ends.append(end)
        if len(busy) > 512:
            # Compact: merge fully past intervals to bound the list.
            horizon = self.busy[len(self.busy) // 2][0]
            merged = [iv for iv in self.busy if iv[1] > horizon]
            prefix_end = max((iv[1] for iv in self.busy if iv[1] <= horizon), default=0.0)
            self.busy = [(0.0, prefix_end)] + merged if prefix_end > 0 else merged
            self._ends = [iv[1] for iv in self.busy]

    @property
    def avail(self) -> float:
        return self.busy[-1][1] if self.busy else 0.0


#: A copy's resources as plain data: ``(lane, occupancy)`` pairs, a lane being
#: an index into :attr:`SimMachine._lanes`, or a tuple of them for a NIC group.
RouteLanes = Tuple[Tuple[Union[int, Tuple[int, ...]], float], ...]


def _place(
    table: List[_Lane], route: RouteLanes, earliest: float, duration: float, what: str
) -> Tuple[float, float]:
    """Reserve a copy at the first common fit of its lanes: ``(start, end)``.

    A NIC group's least-loaded lane (the first on ties) carries the copy.
    Occupancies longer than ``duration`` extend the completion time.
    """
    lanes = [
        (table[i], d)
        if i.__class__ is int
        else (min([table[j] for j in i], key=lambda lane: lane.avail), d)
        for i, d in route
    ]
    # Iterate to a common start where each resource has a large-enough gap.
    start = earliest
    for _ in range(1000):
        proposal = start
        for lane, dur in lanes:
            proposal = lane.next_fit(proposal, dur)
        if proposal == start:
            break
        start = proposal
    else:
        # Reserving anyway would overlap an existing interval, and the
        # lanes' bisection relies on them staying disjoint.
        raise SimulationError(
            f"copy {what}: no common gap on its {len(lanes)} resources "
            "after 1000 first-fit rounds"
        )
    end = start + duration
    for lane, dur in lanes:
        stop = start + dur
        lane.reserve(start, stop)
        if stop > end:
            end = stop
    return start, end


class SimMachine:
    """Simulated clock and resources for one application run."""

    def __init__(self, spec: MachineSpec, *, trace: Optional[Trace] = None) -> None:
        self.spec = spec
        self.trace = trace if trace is not None else Trace()
        self.host_time = 0.0
        self._dev_avail: List[float] = [0.0] * spec.n_gpus
        #: Every transfer resource: device ``i``'s PCIe lane at index ``i``,
        #: then the machine-wide ones, starting with the host staging bus.
        self._lanes: List[_Lane] = [_Lane() for _ in range(spec.n_gpus + 1)]
        self._bus = self._lanes[spec.n_gpus]

    # -- helpers -------------------------------------------------------------

    def _check_dev(self, dev: int) -> None:
        if not (0 <= dev < self.spec.n_gpus):
            raise SimulationError(f"device id {dev} out of range (n_gpus={self.spec.n_gpus})")

    @property
    def now(self) -> float:
        """Current host time (seconds of simulated wall clock)."""
        return self.host_time

    # -- host work -------------------------------------------------------------

    def host_compute(self, duration: float, category: Category, label: str = "") -> None:
        """Sequential host work (pattern resolution, orchestration)."""
        if duration < 0:
            raise SimulationError("negative host_compute duration")
        start = self.host_time
        self.host_time += duration
        if duration > 0:
            self.trace.record("host", start, self.host_time, category, label)

    # -- device work -------------------------------------------------------------

    def launch_kernel(
        self,
        dev: int,
        duration: float,
        label: str = "",
        *,
        deps: Sequence[float] = (),
        launch: Optional[int] = None,
    ) -> float:
        """Asynchronously enqueue a kernel of the given modelled duration.

        ``deps`` are completion events the kernel must wait for (the DAG
        scheduler passes the end times of the transfers feeding this
        partition's read set); ``launch`` tags the trace interval with the
        originating kernel-launch index for per-launch attribution.
        Returns the kernel's completion event.
        """
        self._check_dev(dev)
        if duration < 0:
            raise SimulationError("negative kernel duration")
        self.host_compute(self.spec.issue_overhead, Category.HOST, f"issue:{label}")
        start = max(self.host_time, self._dev_avail[dev], *deps) if deps else max(
            self.host_time, self._dev_avail[dev]
        )
        end = start + duration
        self._dev_avail[dev] = end
        self.trace.record(f"gpu{dev}", start, end, Category.APPLICATION, label, launch=launch)
        return end

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        category: Category = Category.TRANSFERS,
        label: str = "",
        synchronous: bool = False,
        launch: Optional[int] = None,
    ) -> float:
        """Copy ``nbytes`` between endpoints (device id or ``HOST``).

        Barrier-era semantics (Figure 4's host orchestration): the copy may
        not start before the involved devices' compute queues have drained.
        Returns the completion event.
        """
        earliest = self.host_time
        if src != HOST and 0 <= src < self.spec.n_gpus:
            earliest = max(earliest, self._dev_avail[src])
        if dst != HOST and 0 <= dst < self.spec.n_gpus:
            earliest = max(earliest, self._dev_avail[dst])
        end = self._schedule_copy(
            src, dst, nbytes, earliest, category=category, label=label, p2p=None,
            launch=launch,
        )
        if synchronous:
            self.host_time = max(self.host_time, end)
        return end

    def stream_transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        deps: Sequence[float] = (),
        category: Category = Category.TRANSFERS,
        label: str = "",
        p2p: Optional[bool] = None,
        launch: Optional[int] = None,
    ) -> float:
        """Dependency-scheduled copy on the DMA engines.

        Unlike :meth:`transfer`, the copy does *not* wait for the involved
        compute queues — copy engines genuinely overlap compute — only for
        the explicit ``deps`` events (plus free gaps on its lanes and, for
        staged routes, the host bus). ``p2p`` overrides the machine-wide
        peer-access flag for this copy. Returns the completion event.
        """
        earliest = max(self.host_time, *deps) if deps else self.host_time
        return self._schedule_copy(
            src, dst, nbytes, earliest, category=category, label=label, p2p=p2p,
            launch=launch,
        )

    def _copy_route(
        self, src: int, dst: int, nbytes: int, p2p: Optional[bool], label: str
    ) -> Tuple[float, RouteLanes, str, str]:
        """Check one copy and route it, as plain data of the spec:
        :meth:`_copy_resources` plus ``what``, naming the copy in errors."""
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        for dev in (src, dst):
            if dev != HOST:
                self._check_dev(dev)
        what = f"{label!r} {src}->{dst} ({nbytes} B)"
        return (*self._copy_resources(src, dst, nbytes, p2p), what)

    def _copy_resources(
        self, src: int, dst: int, nbytes: int, p2p: Optional[bool]
    ) -> Tuple[float, RouteLanes, str]:
        """Route one copy onto resource indices.

        Returns ``(duration, lanes, trace_resource)``. Subclasses (the
        cluster machine) override this to add network hops; occupancies
        longer than ``duration`` extend the completion time.
        """
        return self._local_copy_resources(src, dst, nbytes, p2p, self.spec.n_gpus)

    def _local_copy_resources(
        self, src: int, dst: int, nbytes: int, p2p: Optional[bool], bus: int
    ) -> Tuple[float, RouteLanes, str]:
        """Intra-node routing against one host staging bus (a lane index)."""
        spec = self.spec
        route = spec.route(src, dst, p2p=p2p)
        # MachineSpec.transfer_time, inlined so the route is computed once.
        duration = spec.pcie_latency + float(nbytes) * route.lane_factor / spec.pcie_bw

        # Bus occupancy: aggregate host-memory bandwidth consumed, plus the
        # per-copy staging setup for device-to-device traffic. Direct P2P
        # copies never touch host memory and skip the bus entirely.
        bus_time = nbytes * route.bus_factor / spec.host_bus_bw + route.extra_latency

        lanes: List[Tuple[int, float]] = []
        if src != HOST:
            lanes.append((src, duration))
        if dst != HOST:
            lanes.append((dst, duration))
        if bus_time > 0:
            lanes.append((bus, bus_time))
        resource = (
            f"lane{src}" if src != HOST else (f"lane{dst}" if dst != HOST else "bus")
        )
        return duration, tuple(lanes), resource

    def _schedule_copy(
        self,
        src: int,
        dst: int,
        nbytes: int,
        earliest: float,
        *,
        category: Category,
        label: str,
        p2p: Optional[bool],
        launch: Optional[int] = None,
    ) -> float:
        duration, lanes, resource, what = self._copy_route(src, dst, nbytes, p2p, label)
        self.host_compute(self.spec.issue_overhead, Category.HOST, f"issue:{label}")
        earliest = max(earliest, self.host_time)
        if nbytes == 0:
            return self.host_time
        start, end = _place(self._lanes, lanes, earliest, duration, what)
        self.trace.record(resource, start, end, category, label, launch=launch)
        return end

    # -- synchronization ------------------------------------------------------------

    def synchronize(self, devices: Optional[Sequence[int]] = None) -> None:
        """Barrier: host waits for device queues and outstanding transfers."""
        self.host_compute(self.spec.sync_overhead, Category.HOST, "sync")
        targets = range(self.spec.n_gpus) if devices is None else devices
        t = self.host_time
        for d in targets:
            self._check_dev(d)
            t = max(t, self._dev_avail[d], self._lanes[d].avail)
        if devices is None:
            for lane in self._lanes[self.spec.n_gpus :]:
                t = max(t, lane.avail)
        self.host_time = t

    def wait_device(self, dev: int) -> None:
        """Host waits for one device's compute queue and lane."""
        self._check_dev(dev)
        self.host_time = max(self.host_time, self._dev_avail[dev], self._lanes[dev].avail)

    def wait_until(self, event: float, label: str = "event-sync", *, charge: bool = True) -> None:
        """Host blocks until ``event`` fires (stream/event synchronization).

        ``charge=False`` skips the synchronization-call overhead — used where
        the barrier-era code path advanced the host clock without charging
        one (synchronous :meth:`transfer`), so the event-driven path never
        pays host overhead its baseline did not.
        """
        if charge:
            self.host_compute(self.spec.sync_overhead, Category.HOST, label)
        self.host_time = max(self.host_time, event)

    def create_stream(self, name: str = "stream") -> SimStream:
        """A new in-order stream (see :class:`SimStream`)."""
        return SimStream(self, name)

    def elapsed(self) -> float:
        """Total makespan so far (host and all resources drained)."""
        t = self.host_time
        for v in self._dev_avail:
            t = max(t, v)
        for lane in self._lanes:
            t = max(t, lane.avail)
        return t
