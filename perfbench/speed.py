"""Host-speed calibration and item boundaries of the end-to-end timings.

The benchmark runs on a few cores of a shared host.  The same code runs
there at two speeds about 1.8x apart, and the host switches between
them within a second and for minutes at a time, so a timing taken raw
says as much about the neighbours as about the code.

A :class:`Speedometer` times a fixed pure-Python probe (no code of the
package: a change to the program cannot move it) at the boundaries of
every timed item, and scales the item's seconds by
``NOMINAL_PROBE_S / probe``, the probe being the mean of the one just
before and the one just after the item.  The result is the item's time
on a host that runs the probe in :data:`NOMINAL_PROBE_S`: a change in
the code moves it one for one, a change in the host's speed mostly
cancels.  On the host the benchmark was sized on (two vCPUs of a shared
Intel Xeon at 2.0 GHz), the quartile spread of ten runs' timings was
up to 0.351 of the median with raw fastest repeats, and at most 0.071
with scaled median repeats (README.md, *First numbers*).

Before each item the garbage collector is run and the survivors are
frozen (``gc.freeze``), so that the collections an item triggers walk
only what the item itself allocated, and land in the same places on
every repeat, whatever the rounds before it left on the heap.
:func:`release` unfreezes and collects everything between rounds.
"""

from __future__ import annotations

import gc
import time

_clock = time.perf_counter

#: Seconds one probe takes on the host the benchmark was sized on, in
#: its usual (slower) state; scaled times are times on such a host.
NOMINAL_PROBE_S = 0.0028
#: A probe that ended at most this long ago still describes the host
#: when the next item starts.
FRESH_S = 0.005
#: Objects the probe walks at random: about 0.5 MB, more than the
#: first caches hold, so the probe feels the sharing of the caches as
#: the program does, not only that of the cores.
POOL_SIZE = 8192
PROBE_STEPS = 3000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _visit(node: _Node, table: dict, step: int) -> int:
    table[node.key & 1023] = table.get(node.key & 1023, 0) + node.value
    return (node.value ^ step) & 0xFF


#: Built when this module is first imported, which ``run.py`` does
#: before it imports the package, so that where the pool lies in memory
#: does not depend on the program's code.
_POOL = [_Node(i, 7 * i) for i in range(POOL_SIZE)]


def release() -> None:
    """Unfreeze everything frozen before items, and collect it."""
    gc.unfreeze()
    gc.collect()


def _probe_work(pool) -> int:
    """A fixed walk over ``pool``: attribute reads, calls, dict updates
    and integer arithmetic, as an interpreter loop does them."""
    table: dict = {}
    state = 12345
    total = 0
    size = len(pool)
    for step in range(PROBE_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        total += _visit(pool[state % size], table, step)
    return total


class Speedometer:
    """Scales item timings to a nominal host speed (see module doc).

    A disabled speedometer runs no probe and leaves timings as they
    were measured."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Seconds spent in probes and collections so far (to take them
        #: out of a span that held some).
        self.spent = 0.0
        self._last = NOMINAL_PROBE_S
        self._last_at = float("-inf")

    def probe(self) -> float:
        """Time one probe; returns its seconds."""
        if not self.enabled:
            return NOMINAL_PROBE_S
        started = _clock()
        _probe_work(_POOL)
        self._last_at = _clock()
        self._last = self._last_at - started
        self.spent += self._last
        return self._last

    def start(self) -> float:
        """Ready the heap for an item (collect, freeze the survivors) and
        return the probe that describes the host as the item starts:
        the last one if it had just ended, else a new one."""
        if not self.enabled:
            return NOMINAL_PROBE_S
        began = _clock()
        gc.collect()
        gc.freeze()
        self.spent += _clock() - began
        if began - self._last_at <= FRESH_S:
            return self._last
        return self.probe()

    def scale(self, seconds: float, before: float) -> float:
        """``seconds`` of an item that started after probe ``before``,
        scaled to the nominal host speed; probes once more."""
        if not self.enabled:
            return seconds
        after = self.probe()
        return seconds * NOMINAL_PROBE_S / ((before + after) / 2.0)
