"""The :class:`~repro.sched.executor.DataflowLog` against a per-byte oracle.

The log keeps the latest event of every byte exactly, as interval records.
The oracle is the brute-force definition: per table and key, one slot per
byte holding the max event ever noted over it. Over random histories every
query of the log must equal the max of the oracle's slots it covers.
"""

import random
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.sched.executor import _R, _W, DataflowLog

#: Bytes the random histories touch: ``lo < 1000`` plus the longest interval.
_SPAN = 1400


class ByteOracle:
    """Byte -> latest event, per (table, key): the log's definition."""

    def __init__(self) -> None:
        self._bytes: Dict[Tuple[str, int, int], List[float]] = {}

    def _slots(self, table, vb_id, dev) -> List[float]:
        return self._bytes.setdefault((table, vb_id, dev), [0.0] * _SPAN)

    def note(self, table, vb_id, dev, lo, hi, event) -> None:
        slots = self._slots(table, vb_id, dev)
        for b in range(lo, hi):
            slots[b] = max(slots[b], event)

    def query(self, table, vb_id, dev, lo, hi) -> float:
        return max(self._slots(table, vb_id, dev)[lo:hi], default=0.0)

    def write_event(self, vb_id, dev, lo, hi) -> float:
        return self.query("w", vb_id, dev, lo, hi)

    def instance_free(self, vb_id, dev, lo, hi) -> List[float]:
        return [self.query("r", vb_id, dev, lo, hi), self.query("w", vb_id, dev, lo, hi)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # Narrow intervals rarely cover each other (the lists grow long and
    # fragmented); wide ones mostly do (the steady state of a ping-pong loop).
    max_len=st.sampled_from([8, 400]),
)
def test_loop_log_equals_comprehension_log(seed, max_len):
    rng = random.Random(seed)
    log, oracle = DataflowLog(), ByteOracle()
    clock = 0.0
    for _ in range(500):
        # One hot (buffer, device) instance, so its lists grow past 64 records.
        key = (0, 0) if rng.random() < 0.8 else (rng.randrange(2), rng.randrange(2))
        lo = rng.randrange(0, 1000)
        hi = lo + rng.randrange(0, max_len)  # lo == hi: an empty interval
        kind = rng.randrange(4)
        if kind < 2:
            # Mostly advancing, sometimes an older event (an out-of-order copy).
            clock += rng.random()
            event = clock if rng.random() < 0.8 else clock * rng.random()
            name, table = ("note_write", "w") if kind else ("note_read", "r")
            getattr(log, name)(*key, lo, hi, event)
            oracle.note(table, *key, lo, hi, event)
            for records in log._tables:
                assert all(l < h for rs in records.values() for l, h, _ in rs)
        elif lo == hi:
            # An empty query sees only records straddling its point, so no
            # event later than both neighbouring bytes' events.
            for table, index in (("w", _W), ("r", _R)):
                got = log._latest(0.0, ((index, key, lo, hi),))
                assert got <= min(
                    oracle.query(table, *key, lo - 1, lo) if lo else 0.0,
                    oracle.query(table, *key, lo, lo + 1),
                )
        elif kind == 2:
            assert log.write_event(*key, lo, hi) == oracle.write_event(*key, lo, hi)
        else:
            assert log.instance_free(*key, lo, hi) == oracle.instance_free(*key, lo, hi)


def test_query_of_unknown_key_and_disjoint_interval_is_time_zero():
    log = DataflowLog()
    assert log.write_event(7, 0, 0, 10) == 0.0
    log.note_write(7, 0, 0, 10, 2.5)
    assert log.write_event(7, 0, 10, 20) == 0.0  # half-open: [0, 10) ends before 10
    assert log.instance_free(7, 0, 5, 6) == [0.0, 2.5]


def test_many_disjoint_records_keep_their_gaps():
    # 65 disjoint tiles of one buffer: a log that folded them into one
    # envelope would report the newest tile's event for every gap.
    log = DataflowLog()
    for i in range(65):
        log.note_write(3, 1, 10 * i, 10 * i + 5, float(i + 1))
    assert log.write_event(3, 1, 5, 10) == 0.0
    assert log.write_event(3, 1, 30, 35) == 4.0
    assert log.write_event(3, 1, 0, 650) == 65.0


def test_a_later_note_clips_older_records_to_their_outside_parts():
    log = DataflowLog()
    log.note_write(0, 0, 0, 100, 1.0)
    log.note_write(0, 0, 40, 60, 3.0)
    log.note_write(0, 0, 50, 55, 2.0)  # older than what covers it: kept whole
    assert sorted(log._write[(0, 0)]) == [
        (0, 40, 1.0), (40, 60, 3.0), (50, 55, 2.0), (60, 100, 1.0)
    ]
    assert log.write_event(0, 0, 0, 40) == 1.0
    assert log.write_event(0, 0, 55, 100) == 3.0
