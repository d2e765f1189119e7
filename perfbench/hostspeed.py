"""Host-speed correction for the end-to-end wall times.

The benchmark runs on a few cores of a shared host whose speed drifts: one
fixed ``wide-to`` repetition, rerun in one process, took anywhere from 1.4
to 2.8 s, and slow spells last from seconds to minutes, longer than a run.
No median over a run's repetitions removes a drift that long.

So the timed pass runs a fixed reference kernel -- benchmark code that
never calls the library -- at ``TICKS`` evenly spaced virtual times of the
repetition, and the set-up trials are bracketed by it.  The kernel slows in
step with the library: over 60 repetitions of the same work, per-repetition
wall time and the kernel's time in it correlated at 0.96-0.99.  A wall time
``t`` measured while the kernel took ``k`` seconds per call becomes
``t * REFERENCE_S / k``: the seconds the work would have taken with the
host at the reference speed.  The kernel's own time is not part of ``t``.

A change to the library leaves the kernel alone, so it moves the corrected
time as it moves the wall time.  The kernel is built from what the library
spends its time on: an event heap, generator resumption, dict lookups,
small slotted objects and a set comprehension.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Any, Callable

#: Seconds one :func:`kernel` call takes on the reference host at full
#: speed (a 2-vCPU KVM guest on an Intel Xeon, CPython 3.11).  It only
#: fixes the unit: corrected times read in seconds of that host.
REFERENCE_S = 300e-6

#: Kernel calls per timed repetition, at evenly spaced virtual times; they
#: take ~8% of the repetition's wall time.
TICKS = 400

#: Kernel calls before and after each set-up trial.
BRACKET_CALLS = 4


class _Entry:
    __slots__ = ("key", "value", "stamp")

    def __init__(self, key: int, value: int, stamp: int) -> None:
        self.key = key
        self.value = value
        self.stamp = stamp


def _client(store: dict[int, _Entry], keys: list[int], done: list[int]):
    total = 0
    for key in keys:
        now = yield key
        entry = store.get(key)
        if entry is None or entry.stamp < now:
            store[key] = _Entry(key, now, now)
        total += now
    done.append(total)


def kernel() -> int:
    """A fixed amount of interpreter work shaped like a simulation step:
    eight generator clients resumed from a heap, writing into a dict."""
    store: dict[int, _Entry] = {}
    heap: list[tuple[int, int, Any, int]] = []
    done: list[int] = []
    sequence = 0
    for client in range(8):
        generator = _client(store, [(client * 7 + op * 13) % 97 for op in range(40)], done)
        heapq.heappush(heap, (0, sequence, generator, next(generator)))
        sequence += 1
    while heap:
        now, _, generator, _key = heapq.heappop(heap)
        try:
            key = generator.send(now + 1)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + 1 + key % 3, sequence, generator, key))
        sequence += 1
    return len({e.key for e in store.values() if e.stamp > 2}) + sum(done)


def time_kernel(calls: int = 1) -> list[float]:
    """Seconds each of ``calls`` kernel calls took.

    The cyclic garbage collector is held off meanwhile, so the kernel never
    pays for collecting the library's heap; everything it allocates is
    freed before it returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter
        times = []
        for _ in range(calls):
            start = clock()
            kernel()
            times.append(clock() - start)
        return times
    finally:
        if was_enabled:
            gc.enable()


def corrected(wall_s: float, kernel_s: list[float]) -> float:
    """``wall_s`` at the reference speed, given the kernel times measured
    alongside it."""
    return wall_s * REFERENCE_S / statistics.fmean(kernel_s)


class SpeedProbe:
    """Runs the kernel at ``TICKS`` evenly spaced virtual times before
    ``duration`` on ``sim``.

    The ticks touch nothing the run reads and end before any client's last
    event, so the run's outcome and final virtual time are unchanged.
    """

    def __init__(self, sim: Any, duration: float) -> None:
        self.sim = sim
        self.period = duration / (TICKS + 1)
        self.kernel_s: list[float] = []
        sim.call_in(self.period, self._tick)

    def _tick(self) -> None:
        self.kernel_s.extend(time_kernel())
        if len(self.kernel_s) < TICKS:
            self.sim.call_in(self.period, self._tick)

    def timed(self, run: Callable[[], Any]) -> tuple[Any, float]:
        """``run()``'s result and its wall seconds, the kernel's excluded."""
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start - sum(self.kernel_s)
