"""The loop-only :class:`~repro.sched.executor.DataflowLog` against its predecessor.

``_note`` used to rebuild the record list through a comprehension on every
call and ``_query`` handed a generator to ``max()``; both are plain loops
now. The predecessor is kept here verbatim as the oracle: any sequence of
notes must leave the same records in the same order under every key, and
every query must return the same event.
"""

import random
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.sched.executor import _MAX_EVENT_INTERVALS, DataflowLog

_Key = Tuple[int, int]
_Event = Tuple[int, int, float, Optional[int]]


class OracleLog:
    """``DataflowLog`` as it stood before the rewrite (comprehension + generator)."""

    def __init__(self) -> None:
        self._write: Dict[_Key, List[_Event]] = {}
        self._read: Dict[_Key, List[_Event]] = {}

    @staticmethod
    def _note(table, key, lo, hi, event, wave) -> None:
        if lo >= hi:
            return
        records = table.get(key)
        if records is None:
            table[key] = [(lo, hi, event, wave)]
            return
        kept = [
            r
            for r in records
            if not (lo <= r[0] and r[1] <= hi and r[2] <= event and r[3] == wave)
        ]
        kept.append((lo, hi, event, wave))
        if len(kept) > _MAX_EVENT_INTERVALS:
            by_wave: Dict[Optional[int], List[_Event]] = {}
            for r in kept:
                by_wave.setdefault(r[3], []).append(r)
            kept = [
                (
                    min(r[0] for r in grp),
                    max(r[1] for r in grp),
                    max(r[2] for r in grp),
                    w,
                )
                for w, grp in by_wave.items()
            ]
            if len(kept) > _MAX_EVENT_INTERVALS:
                newest = max((w for w in by_wave if w is not None), default=None)
                old = [r for r in kept if r[3] != newest]
                kept = [r for r in kept if r[3] == newest] + [
                    (
                        min(r[0] for r in old),
                        max(r[1] for r in old),
                        max(r[2] for r in old),
                        None,
                    )
                ]
        table[key] = kept

    @staticmethod
    def _query(table, key, lo, hi, wave) -> float:
        records = table.get(key)
        if not records:
            return 0.0
        return max(
            (
                e
                for l, h, e, w in records
                if l < hi and h > lo and (w is None or w != wave)
            ),
            default=0.0,
        )

    def note_write(self, vb_id, dev, lo, hi, event, wave=None) -> None:
        self._note(self._write, (vb_id, dev), lo, hi, event, wave)

    def note_read(self, vb_id, dev, lo, hi, event, wave=None) -> None:
        self._note(self._read, (vb_id, dev), lo, hi, event, wave)

    def write_event(self, vb_id, dev, lo, hi, wave=None) -> float:
        return self._query(self._write, (vb_id, dev), lo, hi, wave)

    def instance_free(self, vb_id, dev, lo, hi, wave=None) -> List[float]:
        return [
            self._query(self._read, (vb_id, dev), lo, hi, wave),
            self._query(self._write, (vb_id, dev), lo, hi, wave),
        ]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # 0: wave-less (the legacy single envelope); 3: a task graph's few waves
    # next to wave-less copies, collapse per wave; 10**9: every record its own
    # wave, so the per-wave collapse is still too long and folds into ``None``.
    n_waves=st.sampled_from([0, 3, 10**9]),
    # Narrow intervals rarely dominate each other (the list grows past the
    # collapse); wide ones mostly do (the steady state of a ping-pong loop).
    max_len=st.sampled_from([8, 400]),
)
def test_loop_log_equals_comprehension_log(seed, n_waves, max_len):
    rng = random.Random(seed)
    log, oracle = DataflowLog(), OracleLog()
    clock = 0.0
    collapses = 0
    for _ in range(500):
        # One hot (buffer, device) instance, so its lists outgrow the cap.
        key = (0, 0) if rng.random() < 0.8 else (rng.randrange(2), rng.randrange(2))
        lo = rng.randrange(0, 1000)
        hi = lo + rng.randrange(0, max_len)  # lo == hi: an empty interval, ignored
        wave = rng.randrange(n_waves) if n_waves > 3 or rng.random() < 0.25 * n_waves else None
        kind = rng.randrange(4)
        if kind < 2:
            # Mostly advancing, sometimes an older event (an out-of-order copy).
            clock += rng.random()
            event = clock if rng.random() < 0.8 else clock * rng.random()
            name, table = ("note_write", oracle._write) if kind else ("note_read", oracle._read)
            survivors = sum(
                not (lo <= r[0] and r[1] <= hi and r[2] <= event and r[3] == wave)
                for r in table.get(key, ())
            )
            collapses += lo < hi and survivors + 1 > _MAX_EVENT_INTERVALS
            getattr(log, name)(*key, lo, hi, event, wave)
            getattr(oracle, name)(*key, lo, hi, event, wave)
            assert log._write == oracle._write and log._read == oracle._read
        elif kind == 2:
            assert log.write_event(*key, lo, hi, wave) == oracle.write_event(*key, lo, hi, wave)
        else:
            assert log.instance_free(*key, lo, hi, wave) == oracle.instance_free(
                *key, lo, hi, wave
            )
    if max_len == 8:
        assert collapses  # ~100 narrow records per hot list: past the 64-record cap


def test_query_of_unknown_key_and_disjoint_interval_is_time_zero():
    log = DataflowLog()
    assert log.write_event(7, 0, 0, 10) == 0.0
    log.note_write(7, 0, 0, 10, 2.5)
    assert log.write_event(7, 0, 10, 20) == 0.0  # half-open: [0, 10) ends before 10
    assert log.instance_free(7, 0, 5, 6) == [0.0, 2.5]
