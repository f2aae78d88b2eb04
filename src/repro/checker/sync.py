"""Sync-point resolution (Section V-D at runtime).

Two kinds of sync variables appear in a specification:

* ``field:NAME``           — a control-structure field outside the device
  state; resolved from the structure as it stood when the round started;
* ``extern:FUNC:LOCAL``    — the result of a host-helper call; resolved by
  *co-execution*: the device runs the round first, its machine queues the
  extern results in ``Machine.harvest``, and the checker then validates
  the round on them, so a violation halts the VM after the round
  (DESIGN.md §4, "Two checking disciplines").
"""

from __future__ import annotations

from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import CheckerError
from repro.ir import StateMemory


class SyncOracle:
    """Interface: resolve one sync variable occurrence."""

    def resolve(self, name: str) -> int:
        raise CheckerError(f"sync variable {name!r} cannot be resolved "
                           f"by {type(self).__name__}")

    def take(self, name: str, n: int) -> Optional[List[int]]:
        """Block twin of *n* :meth:`resolve` calls of *name*: the *n*
        values, or ``None`` — consuming nothing — when the oracle cannot
        hand them all over at once.  The checker frame's closed-form
        loop walk asks for a copy loop's values here and walks the loop
        one iteration at a time whenever the answer is ``None``.  The
        base refuses, so an oracle that implements only :meth:`resolve`
        is asked once per value, exactly as before."""
        return None


class NullSyncOracle(SyncOracle):
    """Refuses everything — for specs without sync points."""


class MappingSyncOracle(SyncOracle):
    """Fixed values per name (tests / replay)."""

    def __init__(self, values: Dict[str, int]):
        self._values = dict(values)

    def resolve(self, name: str) -> int:
        try:
            return self._values[name]
        except KeyError:
            raise CheckerError(f"no sync value for {name!r}") from None


class FieldSyncOracle(SyncOracle):
    """Resolves ``field:NAME`` from a live control structure.

    Field geometry is immutable per layout, so each resolved name
    caches its (offset, end, wrap) triple: repeat resolutions — the
    checker hot path issues them every sync point — skip the layout
    lookup and read the backing store directly.
    """

    def __init__(self, memory: StateMemory,
                 fallback: Optional[SyncOracle] = None):
        self._memory = memory
        self._fallback = fallback
        self._cache: Dict[str, Tuple[int, int, Optional[object]]] = {}

    def resolve(self, name: str) -> int:
        hit = self._cache.get(name)
        if hit is not None:
            off, end, wrap = hit
            raw = int.from_bytes(self._memory.data[off:end], "little")
            return wrap(raw).value if wrap is not None else raw
        if name.startswith("field:"):
            field = name[len("field:"):]
            value = self._memory.read_field(field)
            decl = self._memory.layout.field(field)
            wrap = (decl.type.wrap
                    if getattr(decl.type, "signed", False) else None)
            self._cache[name] = (decl.offset, decl.end, wrap)
            return value
        if self._fallback is not None:
            return self._fallback.resolve(name)
        return super().resolve(name)


class QueueSyncOracle(SyncOracle):
    """Pops harvested extern results in order; falls back for fields."""

    def __init__(self, queues: Dict[str, Deque[int]],
                 fallback: Optional[SyncOracle] = None):
        self._queues = queues
        self._fallback = fallback

    def resolve(self, name: str) -> int:
        if name.startswith("extern:"):
            queue = self._queues.get(name)
            if queue:
                return queue.popleft()
            raise CheckerError(
                f"co-execution produced no value for {name!r} (checker "
                f"and device paths diverged)")
        if self._fallback is not None:
            return self._fallback.resolve(name)
        return super().resolve(name)

    def take(self, name: str, n: int) -> Optional[List[int]]:
        """The next *n* harvested values of *name*, or ``None`` with the
        queue untouched when fewer are queued (the per-value walk then
        fails on exactly the value that is missing)."""
        if not name.startswith("extern:"):
            return None
        queue = self._queues.get(name)
        if queue is None or len(queue) < n:
            return None
        if len(queue) == n:
            values = list(queue)
            queue.clear()
            return values
        popleft = queue.popleft
        return [popleft() for _ in range(n)]
