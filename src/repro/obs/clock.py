"""Shared monotonic-clock helpers for elapsed-time bookkeeping.

Every layer of the stack used to hand-roll the same three lines::

    t0 = time.perf_counter()
    ...
    elapsed_s = time.perf_counter() - t0

This module is the one place that idiom lives now: :func:`clock` is the
monotonic timestamp source (``time.perf_counter`` -- never wall clock,
which can step backwards under NTP), and :class:`Stopwatch` wraps the
``t0``/``elapsed_s``/deadline pattern used by the sweep runner and the
shard drain.  :func:`wall` is the *wall-clock*
counterpart for trace records, which must be comparable across
processes and hosts (monotonic clocks are only comparable within one
boot).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Stopwatch", "clock", "wall"]

#: Monotonic seconds for durations and deadlines (``time.perf_counter``).
clock = time.perf_counter

#: Wall-clock seconds since the epoch, for cross-process trace records.
wall = time.time


class Stopwatch:
    """The shared ``t0 = clock() ... elapsed_s`` bookkeeping object.

    Started at construction.  ``elapsed_s`` is the monotonic time since
    then; :meth:`expired` folds the optional-deadline comparison that
    the drain/wait loops repeat (``None`` never expires).
    """

    __slots__ = ("t0",)

    def __init__(self) -> None:
        self.t0 = clock()

    @property
    def elapsed_s(self) -> float:
        return clock() - self.t0

    def expired(self, limit_s: Optional[float]) -> bool:
        """Whether more than ``limit_s`` elapsed (``None``: never)."""
        return limit_s is not None and self.elapsed_s > limit_s

    def restart(self) -> None:
        self.t0 = clock()
