"""The simulator's inline resumptions replay the heap-only event loop exactly.

``Simulator._step`` resumes a process in place when its queued resumption
would be the very next event anyway.  ``HeapOnlySimulator`` below keeps the
plain loop, in which every resumption is a heap event; random processes
(delays with exact ties, settled and failed futures, futures settled later
by another process or a timer, ``run(until=...)`` cutoffs) must resume in
the same order, at the same times, with the same values, in both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.futures import OpFuture, failed, resolved
from repro.sim.engine import SimError, Simulator


class HeapOnlySimulator(Simulator):
    """Reference loop: every resumption goes through the event queue."""

    def _step(self, process, value, error):
        if process.finished:
            return
        try:
            if error is not None:
                yielded = process.generator.throw(error)
            else:
                yielded = process.generator.send(value)
        except StopIteration as stop:
            process.finished = True
            process.result = stop.value
            return
        except BaseException as exc:
            process.finished = True
            process.error = exc
            raise
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimError(f"process {process.name} yielded negative delay")
            self.call_in(float(yielded), lambda: self._step(process, None, None))
        elif isinstance(yielded, OpFuture):
            def _on_settle(future):
                if future.failed:
                    self.call_in(0.0, lambda: self._step(process, None, future.error))
                else:
                    self.call_in(0.0, lambda: self._step(process, future.result(), None))

            yielded.add_callback(_on_settle)
        else:
            raise SimError(f"process {process.name} yielded {yielded!r}")


class Boom(Exception):
    pass


SLOTS = 4

action = st.one_of(
    st.tuples(st.just("delay"), st.sampled_from([0, 0.5, 1, 1.5, 2, 3])),
    st.tuples(st.just("resolved"), st.integers(0, 9)),
    st.tuples(st.just("failed"), st.integers(0, 9)),
    st.tuples(st.just("wait"), st.integers(0, SLOTS - 1)),
    st.tuples(st.just("settle"), st.integers(0, SLOTS - 1), st.booleans()),
    st.tuples(st.just("timer"), st.sampled_from([0, 0.5, 1, 2]), st.integers(0, SLOTS - 1)),
)
scripts = st.lists(st.lists(action, max_size=10), min_size=1, max_size=6)
cutoffs = st.lists(st.sampled_from([0, 0.5, 1, 2, 2.5, 4, 7]), max_size=3).map(sorted)


def settle(future, slot, ok):
    if future.pending:
        if ok:
            future.resolve(f"v{slot}")
        else:
            future.fail(Boom(f"slot{slot}"))


def replay(sim_cls, programs, untils):
    """Run ``programs`` on a fresh ``sim_cls``; return everything observable."""
    sim = sim_cls()
    slots = [OpFuture(f"slot{i}") for i in range(SLOTS)]
    log = []

    def process(name, program):
        for step in program:
            kind = step[0]
            if kind == "settle":
                settle(slots[step[1]], step[1], step[2])
                continue
            if kind == "timer":
                _, delay, slot = step
                sim.call_in(delay, lambda slot=slot: settle(slots[slot], slot, True))
                continue
            if kind == "delay":
                yielded = step[1]
            elif kind == "resolved":
                yielded = resolved(step[1])
            elif kind == "failed":
                yielded = failed(Boom(step[1]))
            else:
                yielded = slots[step[1]]
            try:
                value = yield yielded
            except Boom as exc:
                value = f"error {exc}"
            log.append((sim.now, name, value))

    for index, program in enumerate(programs):
        sim.spawn(process(f"p{index}", program), name=f"p{index}")
    marks = []
    for until in untils + [None]:
        sim.run(until=until)
        marks.append((sim.now, sim.events_dispatched, len(log)))
    return log, marks, [p.finished for p in sim.processes]


@settings(max_examples=300, deadline=None)
@given(programs=scripts, untils=cutoffs)
def test_inline_resumption_replays_the_heap_only_loop(programs, untils):
    assert replay(Simulator, programs, untils) == replay(HeapOnlySimulator, programs, untils)


def test_inline_resumptions_count_as_events():
    def sleeper():
        for _ in range(3):
            yield 1.0
        yield resolved(None)

    fast, reference = Simulator(), HeapOnlySimulator()
    for sim in (fast, reference):
        sim.spawn(sleeper())
        sim.run()
    # One spawn event plus four resumptions, though only the spawn used the heap.
    assert fast.events_dispatched == reference.events_dispatched == 5
    assert fast.now == reference.now == 3.0


def test_delay_past_until_waits_in_the_queue():
    sim = Simulator()
    marks = []

    def sleeper():
        yield 2.0
        marks.append(sim.now)

    sim.spawn(sleeper())
    sim.run(until=1.0)
    assert (sim.now, marks) == (1.0, [])
    sim.run()
    assert (sim.now, marks) == (2.0, [2.0])
