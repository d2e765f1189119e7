"""Deterministic discrete-event simulation engine.

This is the substitution for real concurrent hardware (see DESIGN.md): the
paper's claims concern protocol-level effects — who blocks, who aborts, how
stale a snapshot is — which are properties of the operation interleaving,
not of wall-clock parallelism.  A virtual-time event loop produces exactly
those interleavings, reproducibly under a seed, with every event observable.

Processes are plain generators.  A process yields:

* a number — sleep that many virtual time units;
* an :class:`~repro.core.futures.OpFuture` — suspend until it settles; the
  yield expression evaluates to the future's value, or the future's failure
  exception is thrown into the generator at the suspension point.

A resumption is never run from a future callback: a future that settles
while its process waits queues the resumption, so scheduler internals are
not re-entered while they resolve futures.  A resumption that the event
queue would pop next anyway runs inline, in the same ``_step`` loop, with
no trip through the heap:

* a yielded future that is already settled, when no queued event is due at
  the current time;
* a delay ``d``, when the queue is empty or its earliest event is strictly
  later than ``now + d``, and ``now + d`` does not pass ``run(until=...)``.

Each inline resumption still counts in ``events_dispatched``, so dispatch
order, same-time FIFO order and event counts are exactly those of routing
every resumption through the queue.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable

from repro.core.futures import OpFuture
from repro.obs.tracer import NULL_TRACER, Tracer


class SimError(Exception):
    """Raised for simulation misuse (bad yields, running a finished sim)."""


class Process:
    """Handle for a running simulated process."""

    __slots__ = ("name", "generator", "finished", "result", "error")

    def __init__(self, name: str, generator: Generator):
        self.name = name
        self.generator = generator
        self.finished = False
        self.result: Any = None
        self.error: BaseException | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Virtual-clock event loop.

    Args:
        tracer: optional structured-event tracer; when enabled, the
            simulator emits ``sim.spawn`` / ``sim.process.end`` /
            ``sim.process.error`` events stamped with virtual time, so a
            trace shows exactly when each client entered and left the run.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.now = 0.0
        self._sequence = itertools.count()
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self.processes: list[Process] = []
        #: Total events dispatched, inline resumptions included (a
        #: determinism fingerprint for tests).
        self.events_dispatched = 0
        #: The ``until`` of the ``run`` in progress: no inline resumption
        #: may pass it.
        self._until: float | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- scheduling primitives -------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        if when < self.now:
            raise SimError(f"cannot schedule in the past ({when} < {self.now})")
        heapq.heappush(self._heap, (when, next(self._sequence), fn))

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay, fn)

    # -- processes ----------------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a process; it starts at the current time."""
        process = Process(name or f"p{len(self.processes)}", generator)
        self.processes.append(process)
        if self.tracer.enabled:
            self.tracer.emit("sim.spawn", process=process.name)
        self.call_in(0.0, lambda: self._step(process, None, None))
        return process

    def _step(
        self,
        process: Process,
        value: Any,
        error: BaseException | None,
    ) -> None:
        """Advance a process, yield after yield, while its next resumption
        would be the very next event anyway (see the module docs)."""
        if process.finished:  # pragma: no cover - defensive
            return
        generator = process.generator
        heap = self._heap
        while True:
            try:
                if error is not None:
                    yielded = generator.throw(error)
                else:
                    yielded = generator.send(value)
            except StopIteration as stop:
                process.finished = True
                process.result = stop.value
                if self.tracer.enabled:
                    self.tracer.emit("sim.process.end", process=process.name)
                return
            except BaseException as exc:  # noqa: BLE001 - report, do not mask
                process.finished = True
                process.error = exc
                if self.tracer.enabled:
                    self.tracer.emit(
                        "sim.process.error", process=process.name, error=type(exc).__name__
                    )
                raise
            if isinstance(yielded, OpFuture):
                if yielded.pending:
                    yielded.add_callback(lambda future: self._resume_settled(process, future))
                    return
                if heap and heap[0][0] <= self.now:
                    self._resume_settled(process, yielded)
                    return
                value, error = (None, yielded.error) if yielded.failed else (yielded.result(), None)
            elif isinstance(yielded, (int, float)):
                if yielded < 0:
                    raise SimError(f"process {process.name} yielded negative delay")
                when = self.now + float(yielded)
                if (heap and heap[0][0] <= when) or (
                    self._until is not None and when > self._until
                ):
                    self.call_at(when, lambda: self._step(process, None, None))
                    return
                self.now = when
                value = error = None
            else:
                raise SimError(
                    f"process {process.name} yielded {yielded!r}; expected a delay or an OpFuture"
                )
            self.events_dispatched += 1

    def _resume_settled(self, process: Process, future: OpFuture) -> None:
        """Queue the resumption of ``process`` with the settled ``future``'s
        outcome at the current time."""
        if future.failed:
            self.call_in(0.0, lambda: self._step(process, None, future.error))
        else:
            self.call_in(0.0, lambda: self._step(process, future.result(), None))

    # -- running ------------------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Dispatch events until the queue drains or virtual time passes ``until``.

        Returns the final virtual time.  Processes still blocked when the
        queue drains simply stay suspended (their futures never settled) —
        callers can inspect ``processes`` to detect them.
        """
        self._until = until
        try:
            while self._heap:
                when, _seq, fn = self._heap[0]
                if until is not None and when > until:
                    break
                heapq.heappop(self._heap)
                self.now = when
                self.events_dispatched += 1
                fn()
        finally:
            self._until = None
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def blocked_processes(self) -> list[Process]:
        """Processes that have neither finished nor any queued resumption."""
        return [p for p in self.processes if not p.finished]

    def all_finished(self) -> bool:
        return all(p.finished for p in self.processes)


def run_processes(generators: Iterable[Generator], until: float | None = None) -> Simulator:
    """Convenience: spawn all generators into a fresh simulator and run it."""
    sim = Simulator()
    for gen in generators:
        sim.spawn(gen)
    sim.run(until)
    return sim
