"""Span arithmetic and the restore of every wrapped method."""

import dataclasses

import pytest

from layers import instrument, layer_of_span
from report import LAYERS, net_of_spans, shares_of
from spans import END, NAME, PARENT, START, Instrumenter, SpanRecorder, self_times, summarize
from workloads import WORKLOADS, build


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    records = [
        _span("sim.run", 0, 100, -1),
        _span("protocols.read", 10, 50, 0),
        _span("cc.acquire", 20, 30, 1),
        _span("storage.install", 35, 45, 1),
        _span("protocols.commit", 60, 90, 0),
    ]
    assert self_times(records) == [30, 20, 10, 10, 30]
    summary = summarize(records, layer_of_span)
    assert summary["sim.run"]["children"] == 2
    assert summary["protocols.read"]["children"] == 2
    assert summary["protocols.read"]["self_ns"] + summary["protocols.commit"]["self_ns"] == 50
    assert sum(e["self_ns"] for e in summary.values()) == 100


def test_recorder_nests_spans_through_wrappers():
    recorder = SpanRecorder()

    class Inner:
        def work(self, txn):
            return txn

    class Outer:
        def call(self, inner, txn):
            return inner.work(txn)

    class Root:
        def run(self, txn):
            return Outer().call(Inner(), 42)

    with Instrumenter(recorder) as instrumenter:
        instrumenter.wrap(Inner, "work", "storage.work", txn_arg=0)
        instrumenter.wrap(Outer, "call", "protocols.call")
        instrumenter.wrap(Root, "run", "sim.root", txn_arg=0)
        assert Root().run(7) == 42
    assert "run" in vars(Root) and not hasattr(vars(Root)["run"], "span_name")
    root, outer, inner = recorder.records
    assert [r[PARENT] for r in recorder.records] == [-1, 0, 1]
    assert outer[4] == 7 and inner[4] == 42  # inherited, then from the argument
    assert root[START] <= outer[START] <= inner[START] <= inner[END] <= outer[END] <= root[END]
    assert [r[NAME] for r in recorder.records] == ["sim.root", "protocols.call", "storage.work"]


def test_span_cost_comes_off_the_parents_self_time():
    records = [
        _span("sim.run", 0, 1000, -1),
        _span("protocols.read", 100, 600, 0),
        _span("storage.version_leq", 200, 300, 1),
        _span("storage.version_leq", 300, 400, 1),
    ]
    net = net_of_spans(summarize(records, layer_of_span), span_ns=30)
    # Each of the three non-root spans cost 30 ns, paid by its parent.
    assert net["sim.run"]["self_ns"] == 500 - 30
    assert net["protocols.read"]["self_ns"] == 300 - 60
    assert net["storage.version_leq"]["self_ns"] == 200
    shares, overhead = shares_of(net, traced_ns=1000, span_ns=30)
    assert overhead == pytest.approx(0.09)
    assert shares["sim"] == pytest.approx(0.47)
    assert shares["protocols"] == pytest.approx(0.24)
    assert shares["storage"] == pytest.approx(0.2)
    assert sum(shares.values()) + overhead == pytest.approx(1.0)
    assert set(shares) == set(LAYERS)


def _class_dicts():
    return {cls: dict(vars(cls)) for cls in _instrumented_classes()}


def _instrumented_classes():
    seen = []
    for workload in WORKLOADS.values():
        recorder = SpanRecorder()
        instrumenter = Instrumenter(recorder)
        instrument(instrumenter, build(workload).scheduler)
        seen.extend(cls for cls, _, _ in instrumenter._saved)
        instrumenter.restore()
    return set(seen)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_restores_every_wrapped_method(name):
    from worker import run_pass

    before = _class_dicts()
    workload = dataclasses.replace(WORKLOADS[name], duration=20.0)
    result = run_pass(workload, seed=3, mode="spans")
    assert result["outcome"]["commits"] > 0
    after = {cls: dict(vars(cls)) for cls in before}
    for cls, attrs in before.items():
        assert after[cls].keys() == attrs.keys(), cls
        for key, value in attrs.items():
            assert after[cls][key] is value, f"{cls.__name__}.{key} not restored"
    assert not any(hasattr(v, "span_name") for attrs in after.values() for v in attrs.values())
