"""In-memory spans around the public entry points of each layer.

The benchmark does not change the program: :class:`Instrumenter` replaces
selected class attributes with timing wrappers for the duration of a traced
repetition and puts the originals back afterwards (:meth:`Instrumenter.restore`
leaves every class ``__dict__`` exactly as it found it).

A span records its name, start and end (``perf_counter_ns``), the index of
its parent span and the ``txn_id`` it works for (taken from the call's
transaction argument, else inherited from the parent).  A layer's self time
is the duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# Span record fields (records are plain lists for speed).
NAME, START, END, PARENT, TXN = range(5)


class SpanRecorder:
    """Spans kept in memory, plus the boundary samples taken beside them."""

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self.stack: list[int] = []
        #: Per-name samples taken at the boundary (queue length, chain
        #: length, future still pending on return).
        self.samples: dict[str, list[float]] = defaultdict(list)


def _txn_id(value: Any) -> Any:
    """``txn_id`` of a Transaction argument, or the argument itself (lock
    manager and DVC entry points take the id directly)."""
    return getattr(value, "txn_id", value)


def make_wrapper(
    fn: Callable,
    name: str,
    recorder: SpanRecorder,
    *,
    txn_arg: int | None = None,
    pre: Callable[..., float] | None = None,
    post: Callable[[Any], float] | None = None,
) -> Callable:
    """Wrap ``fn`` (an unbound function) in a span named ``name``.

    ``txn_arg`` is the positional index (after ``self``) of the transaction
    argument; ``pre(*args)`` samples a value before the call and
    ``post(result)`` one after it, into ``recorder.samples[name]``.
    """
    records = recorder.records
    stack = recorder.stack
    clock = time.perf_counter_ns
    samples = recorder.samples[name]

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        if txn_arg is not None and len(args) > txn_arg + 1:
            txn = _txn_id(args[txn_arg + 1])
        else:
            txn = records[parent][TXN] if parent >= 0 else None
        if pre is not None:
            samples.append(pre(*args))
        record = [name, 0, 0, parent, txn]
        stack.append(len(records))
        records.append(record)
        record[START] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = clock()
            stack.pop()
        if post is not None:
            samples.append(post(result))
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.span_name = name
    return wrapper


_MISSING = object()


class Instrumenter:
    """Install span wrappers on classes and restore the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[type, str, Any]] = []

    def wrap(self, cls: type, method: str, name: str, **options: Any) -> None:
        original = getattr(cls, method)
        self._saved.append((cls, method, cls.__dict__.get(method, _MISSING)))
        setattr(cls, method, make_wrapper(original, name, self.recorder, **options))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            cls, method, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(cls, method)
            else:
                setattr(cls, method, saved)

    def __enter__(self) -> "Instrumenter":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False


class _Txn:
    txn_id = 0


class _Probe:
    def call(self, txn: Any) -> Any:
        return txn


#: Rounds and calls per round of :func:`span_cost_ns` (~0.5 s in all).
COST_ROUNDS = 9
COST_CALLS = 20_000


def span_cost_ns() -> list[float]:
    """Wall cost (ns) of one span, measured once per round in this process.

    Each round times ``COST_CALLS`` calls of a no-op method through a span
    wrapper, as the layer entry points get it (transaction argument
    included), and as many direct calls, and keeps the difference per call.
    """
    probe, txn, clock = _Probe(), _Txn(), time.perf_counter_ns
    costs = []
    for _ in range(COST_ROUNDS):
        wrapped = make_wrapper(_Probe.call, "probe.call", SpanRecorder(), txn_arg=0)
        start = clock()
        for _ in range(COST_CALLS):
            wrapped(probe, txn)
        middle = clock()
        for _ in range(COST_CALLS):
            _Probe.call(probe, txn)
        costs.append(((middle - start) - (clock() - middle)) / COST_CALLS)
    return costs


def self_times(records: list[list[Any]]) -> list[int]:
    """Self time (ns) of every span: duration minus its children's durations.

    Spans nest strictly (each is opened and closed on one call stack), so the
    children of a span cover disjoint parts of it.
    """
    child = [0] * len(records)
    for record in records:
        parent = record[PARENT]
        if parent >= 0:
            child[parent] += record[END] - record[START]
    return [r[END] - r[START] - c for r, c in zip(records, child)]


def summarize(
    records: list[list[Any]], layer_of: Callable[[str], str]
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_ns``, ``total_ns``, ``layer``, and
    ``children`` (spans whose parent has this name)."""
    selfs = self_times(records)
    out: dict[str, dict[str, Any]] = {}
    for record, self_ns in zip(records, selfs):
        name = record[NAME]
        entry = out.get(name)
        if entry is None:
            entry = out[name] = {
                "layer": layer_of(name), "calls": 0, "self_ns": 0,
                "total_ns": 0, "children": 0,
            }
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        entry["total_ns"] += record[END] - record[START]
        parent = record[PARENT]
        if parent >= 0:
            out[records[parent][NAME]]["children"] += 1
    return out


def layer_self_ns(summary: dict[str, dict[str, Any]], layers: Iterable[str]) -> dict[str, int]:
    totals = {layer: 0 for layer in layers}
    for entry in summary.values():
        totals[entry["layer"]] += entry["self_ns"]
    return totals
