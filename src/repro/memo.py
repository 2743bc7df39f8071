"""The one memo behind every cache of the package: a named, bounded LRU.

Each memoization site — enumerator scans, vector programs, plan skeletons,
residual records and their per-binding plans, time estimates, per-thread
kernel costs, exact read sets — owns one :class:`Memo` whose capacity is a
named constant next to its use. Sites keyed on launch arguments or live
state audit their hits under ``RuntimeConfig.debug_audit``: the hit runs
its miss path too, and :meth:`Memo.audit` raises, naming the memo and the
key, if the cached value differs. With the audit off a hit is one lookup
and one flag test.
"""

from __future__ import annotations

import reprlib
from collections import OrderedDict
from typing import Hashable

from repro.errors import MemoAuditError

__all__ = ["MISS", "Memo"]

#: What :meth:`Memo.get` returns for an absent key (``None`` is a value).
MISS = object()


class Memo:
    """A bounded LRU map, named for the errors of its audit."""

    __slots__ = ("name", "capacity", "_entries")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"memo {name!r} capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable) -> object:
        """The value under ``key``, now the most recent entry, or :data:`MISS`."""
        value = self._entries.get(key, MISS)
        if value is not MISS:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> bool:
        """Store ``key -> value`` as the most recent entry; True if one was evicted."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            return True
        return False

    def audit(self, key: Hashable, cached: object, fresh: object) -> None:
        """Raise unless a hit's cached value equals its recomputation."""
        if cached != fresh:
            raise MemoAuditError(
                f"memo {self.name!r} served a stale entry for key {reprlib.repr(key)}"
            )

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
