"""The metric catalogue, and which layers must be idle on which workload."""

import dataclasses
import json
import os
import re

import pytest

import report
from workloads import WORKLOADS
from worker import run_pass

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Short repetitions: enough commits for every layer to be reached.
SHORT = {"single-2pl": 400.0, "wide-to": 20.0, "dist-observed": 200.0}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def layer_table(request):
    workload = dataclasses.replace(WORKLOADS[request.param], duration=SHORT[request.param])
    passes = {mode: run_pass(workload, 5, mode) for mode in ("plain", "spans", "count", "witness")}
    for result in passes.values():
        assert result["outcome"]["failures"] == []
    metrics = report.per_layer(passes["plain"], passes["spans"], passes["count"], passes["witness"])
    return request.param, metrics


def test_every_metric_is_named_and_has_a_unit():
    bench = _benchmark()
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[section]]
        assert len(names) == len(set(names))
        for metric in bench[section]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert UNIT.fullmatch(metric["unit"]), metric


def test_end_to_end_emits_exactly_the_catalogue():
    workload = dataclasses.replace(WORKLOADS["single-2pl"], duration=200.0)
    results = [run_pass(workload, seed, "timed") for seed in (1, 2)]
    for result in results:
        result["peak_rss_mb"] = 1.0
    metrics = report.end_to_end(results)
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_per_layer_emits_exactly_the_catalogue(layer_table):
    _, metrics = layer_table
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}


def test_idle_layers_count_exactly_zero(layer_table):
    name, metrics = layer_table
    if name == "wide-to":  # timestamp ordering takes no locks
        assert metrics["cc.acquires_per_commit"] == 0
        assert metrics["cc.calls_per_commit"] == 0
        assert metrics["cc.deadlocks_per_1k"] == 0
    else:
        assert metrics["cc.acquires_per_commit"] > 0
    if name in ("single-2pl", "wide-to"):
        assert metrics["distributed.messages_per_commit"] == 0
        assert metrics["distributed.calls_per_commit"] == 0
        assert metrics["distributed.share"] == 0
    else:
        assert metrics["distributed.messages_per_commit"] > 0
    shares = [metrics[f"{layer}.share"] for layer in report.LAYERS]
    assert sum(shares) + metrics["trace.overhead_share"] == pytest.approx(1.0)
    # The span cost taken off each parent never exceeds its self time.
    assert min(shares) >= 0 and metrics["trace.overhead_share"] > 0
