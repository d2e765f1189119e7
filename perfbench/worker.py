"""Run one repetition of one workload in this process; print one JSON line.

``run.py`` starts each repetition in a fresh interpreter with
``PYTHONHASHSEED`` set, so peak memory belongs to that repetition alone and
the outcome can be replayed.  Modes:

* ``timed``  -- five set-up measurements, then the timed run, both with
  the host-speed kernel beside them (see ``hostspeed``);
* ``plain``  -- the run alone (the untraced reference of a traced pass);
* ``spans``  -- the cost of one span, then the run with per-layer spans
  installed (restored after);
* ``count``  -- the run under the call-counting profile hook;
* ``witness``-- the run with a sealed ``WitnessEngine`` certifying 1SR.

Usage: ``python3 perfbench/worker.py --workload NAME --seed N --mode MODE``
(``--duration VU`` shortens the repetition, for the benchmark's own tests).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from repro.bench.runner import run_simulation  # noqa: E402

from hostspeed import BRACKET_CALLS, SpeedProbe, corrected, time_kernel  # noqa: E402
from layers import CallCounter, instrument, layer_of_span  # noqa: E402
from spans import (  # noqa: E402
    END, START, Instrumenter, SpanRecorder, make_wrapper, span_cost_ns, summarize,
)
from workloads import WORKLOADS, Subject, Workload, build, check_run, parts_of  # noqa: E402


def setup_trial(workload: Workload, seed: int) -> float:
    """Seconds from nothing to the first simulated event: scheduler or
    topology, pipeline, generator and client processes all built."""
    stamps: list[float] = []

    def first_event():
        stamps.append(time.perf_counter())
        return
        yield  # pragma: no cover - makes this a generator

    start = time.perf_counter()
    subject = build(workload)
    subject.sim.spawn(first_event(), name="bench.first-event")
    run_simulation(
        subject.scheduler, workload.spec(seed), workload.config(duration=0.0),
        tracer=subject.tracer, sim=subject.sim,
    )
    if subject.pipeline is not None:
        subject.pipeline.close()
    return stamps[0] - start


def timed_setup(workload: Workload, seed: int) -> float:
    """One set-up trial in seconds at the reference host speed."""
    before = time_kernel(BRACKET_CALLS)
    seconds = setup_trial(workload, seed)
    return corrected(seconds, before + time_kernel(BRACKET_CALLS))


def run_once(workload: Workload, seed: int, subject: Subject):
    metrics = run_simulation(
        subject.scheduler, workload.spec(seed), workload.config(),
        tracer=subject.tracer, sim=subject.sim,
    )
    if subject.pipeline is not None:
        subject.pipeline.close()
    return metrics


def outcome_of(metrics, subject: Subject) -> dict:
    return {
        "commits": metrics.commits,
        "commits_ro": metrics.commits_ro,
        "commits_rw": metrics.commits_rw,
        "aborts": metrics.aborts,
        "restarts": metrics.restarts,
        "gave_up": metrics.aborts - metrics.restarts,
        "duration": metrics.duration,
        "events": subject.sim.events_dispatched,
        "p50_rw": metrics.latency_rw.p50,
        "p99_rw": metrics.latency_rw.p99,
        "n_rw": metrics.latency_rw.count,
        "p99_ro": metrics.latency_ro.p99,
        "n_ro": metrics.latency_ro.count,
        "vc_lag_mean": metrics.vc_lag.average(metrics.duration) if metrics.vc_lag else 0.0,
        "failures": check_run(metrics, subject),
    }


def extra_of(subject: Subject) -> dict:
    """End-of-run state the per-layer table reports."""
    scheduler = subject.scheduler
    parts = parts_of(scheduler)
    return {
        "versions_retained": sum(p.store.version_count() for p in parts),
        "gc_reclaimed": sum(p.store.gc_discarded for p in parts),
        "retained_ops": len(scheduler.recorder.history.ops),
        "messages": scheduler.total_messages() if hasattr(scheduler, "total_messages") else 0,
        "deadlocks": sum(p.locks.deadlocks for p in parts if hasattr(p, "locks")),
    }


MODES = ("timed", "plain", "spans", "count", "witness")

#: Set-ups a ``timed`` pass measures; ``setup_s`` is their median.
SETUP_TRIALS = 5


def run_pass(workload: Workload, seed: int, mode: str) -> dict:
    """One pass over the repetition seeded ``seed``; see the module docs."""
    result: dict = {"mode": mode}
    if mode == "timed":
        result["setup_s"] = [timed_setup(workload, seed) for _ in range(SETUP_TRIALS)]
    subject = build(workload, witness=mode == "witness")
    if mode == "timed":
        probe = SpeedProbe(subject.sim, workload.duration)
        metrics, result["wall_s"] = probe.timed(lambda: run_once(workload, seed, subject))
        result["reference_s"] = corrected(result["wall_s"], probe.kernel_s)
        result["kernel_s"] = statistics.fmean(probe.kernel_s)
    elif mode == "spans":
        result["span_ns"] = span_cost_ns()
        recorder = SpanRecorder()
        with Instrumenter(recorder) as instrumenter:
            instrument(instrumenter, subject.scheduler)
            traced_run = make_wrapper(run_once, "sim.run_simulation", recorder)
            metrics = traced_run(workload, seed, subject)
        root = recorder.records[0]
        result["root_ns"] = root[END] - root[START]
        result["spans"] = summarize(recorder.records, layer_of_span)
        result["samples"] = {
            name: [sum(values), len(values)] for name, values in recorder.samples.items()
        }
        result["extra"] = extra_of(subject)
    elif mode == "count":
        with CallCounter() as counter:
            metrics = run_once(workload, seed, subject)
        result["calls"] = counter.by_layer()
    else:
        start = time.perf_counter()
        metrics = run_once(workload, seed, subject)
        result["wall_s"] = time.perf_counter() - start
    result["outcome"] = outcome_of(metrics, subject)
    if subject.witness is not None:
        report = subject.witness.report()
        result["witness"] = report["ok"]
        result["witness_peak_tracked"] = report["peak_tracked"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument(
        "--duration", type=float, default=None,
        help="virtual length of the repetition (default: the workload's)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.duration is not None:
        workload = dataclasses.replace(workload, duration=args.duration)
    result = run_pass(workload, args.seed, args.mode)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
