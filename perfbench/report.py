"""Pure arithmetic turning worker results into the benchmark's metrics.

End-to-end metrics (``--trace 0``) come from ``timed`` repetitions; the
per-layer metrics (``--trace 1``) from the ``plain``, ``spans``, ``count``
and witnessed passes over one repetition.  See README.md for each metric.
"""

from __future__ import annotations

import statistics
from typing import Any

from spans import layer_self_ns

LAYERS = (
    "sim", "workload", "core", "protocols", "cc",
    "storage", "histories", "distributed", "obs",
)

#: Entry points whose spans the per-layer table reads (see layers.instrument).
VC_CALLS = ("vc_start", "vc_register", "vc_complete", "vc_discard")
LOOKUPS = ("version_leq", "committed_version_leq", "latest_committed")
RECORDS = ("record_begin", "record_read", "record_write", "record_commit", "record_abort")


def logical_transactions(outcome: dict[str, Any]) -> int:
    """Client transactions a repetition issued: commits plus those that gave
    up after ``max_restarts`` retries."""
    return outcome["commits"] + outcome["gave_up"]


def end_to_end(results: list[dict[str, Any]]) -> dict[str, float]:
    """Combine ``timed`` repetitions.

    Wall metrics are medians over repetitions, in seconds at the reference
    host speed (see ``hostspeed``); the model metrics pool the
    repetitions' counts (throughput, abort rate) or take the median of
    their per-repetition percentiles.
    """
    outcomes = [r["outcome"] for r in results]
    commits = sum(o["commits"] for o in outcomes)
    aborts = sum(o["aborts"] for o in outcomes)
    return {
        "commits_per_s": statistics.median(
            o["commits"] / r["reference_s"] for r, o in zip(results, outcomes)
        ),
        "setup_s": statistics.median(s for r in results for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "abort_rate": aborts / (commits + aborts),
        "model_throughput": commits / sum(o["duration"] for o in outcomes),
        "model_p50_rw": statistics.median(o["p50_rw"] for o in outcomes),
        "model_p99_rw": statistics.median(o["p99_rw"] for o in outcomes),
        "model_p99_ro": statistics.median(o["p99_ro"] for o in outcomes),
    }


def _per_call_us(summary: dict[str, dict[str, Any]], names: tuple[str, ...]) -> float:
    calls = sum(summary.get(n, {}).get("calls", 0) for n in names)
    self_ns = sum(summary.get(n, {}).get("self_ns", 0) for n in names)
    return self_ns / calls / 1e3 if calls else 0.0


def _calls(summary: dict[str, dict[str, Any]], names: tuple[str, ...]) -> int:
    return sum(summary.get(n, {}).get("calls", 0) for n in names)


def _mean(samples: dict[str, list[float]], names: tuple[str, ...]) -> float:
    """Mean of the boundary samples (kept as ``[sum, count]``) of ``names``."""
    total = sum(samples.get(n, (0, 0))[0] for n in names)
    count = sum(samples.get(n, (0, 0))[1] for n in names)
    return total / count if count else 0.0


def net_of_spans(summary: dict[str, dict[str, Any]], span_ns: float) -> dict[str, dict[str, Any]]:
    """``summary`` with the cost of the spans taken out of the self times.

    A span's wrapper does its bookkeeping inside its parent's interval, so
    each span with ``children`` child spans gives back ``span_ns`` per child.
    """
    return {
        name: dict(entry, self_ns=entry["self_ns"] - span_ns * entry["children"])
        for name, entry in summary.items()
    }


def shares_of(
    net: dict[str, dict[str, Any]], traced_ns: int, span_ns: float
) -> tuple[dict[str, float], float]:
    """Each layer's self share of the traced wall time ``traced_ns`` (the
    root span), and the share the spans themselves cost.

    ``net`` comes from :func:`net_of_spans` with the same ``span_ns``; every
    span but the root is some span's child, so the shares plus the overhead
    share add up to exactly 1.
    """
    spans = sum(entry["calls"] for entry in net.values())
    self_ns = layer_self_ns(net, LAYERS)
    shares = {layer: self_ns[layer] / traced_ns for layer in LAYERS}
    return shares, span_ns * (spans - 1) / traced_ns


def per_layer(
    plain: dict[str, Any], spans: dict[str, Any], count: dict[str, Any], witnessed: dict[str, Any]
) -> dict[str, float]:
    """The per-layer table from the passes over one repetition;
    ``witnessed`` is the pass that ran the 1SR witness."""
    outcome = spans["outcome"]
    commits = outcome["commits"]
    attempts = commits + outcome["aborts"]
    span_ns = statistics.median(spans["span_ns"])
    s = net_of_spans(spans["spans"], span_ns)
    samples = spans["samples"]
    extra = spans["extra"]
    shares, overhead = shares_of(s, spans["root_ns"], span_ns)
    vc_names = tuple(f"core.{m}" for m in VC_CALLS)
    lookups = tuple(f"storage.{m}" for m in LOOKUPS)
    records = tuple(f"histories.{m}" for m in RECORDS)
    distributed_self = sum(e["self_ns"] for e in s.values() if e["layer"] == "distributed")
    protocol_ops = ("protocols.read", "protocols.write", "protocols.commit")
    out = {
        "sim.events_per_commit": outcome["events"] / commits,
        "workload.next_txn_us": _per_call_us(s, ("workload.next_txn",)),
        "core.vc_calls_per_commit": _calls(s, vc_names) / commits,
        "core.vc_us": _per_call_us(s, vc_names),
        "core.vc_queue_len": _mean(samples, ("core.vc_register",)),
        "core.vc_lag_mean": outcome["vc_lag_mean"],
        "protocols.read_us": _per_call_us(s, ("protocols.read",)),
        "protocols.write_us": _per_call_us(s, ("protocols.write",)),
        "protocols.commit_us": _per_call_us(s, ("protocols.commit",)),
        "protocols.pending_ratio": _mean(samples, protocol_ops),
        "protocols.useful_ratio": commits / attempts,
        "cc.acquires_per_commit": _calls(s, ("cc.acquire",)) / commits,
        "cc.acquire_us": _per_call_us(s, ("cc.acquire",)),
        "cc.wait_ratio": _mean(samples, ("cc.acquire",)),
        "cc.deadlocks_per_1k": 1000.0 * extra["deadlocks"] / commits,
        "storage.lookups_per_commit": _calls(s, lookups) / commits,
        "storage.chain_len_per_lookup": _mean(
            samples, ("storage.version_leq", "storage.committed_version_leq")
        ),
        "storage.lookup_us": _per_call_us(s, lookups),
        "storage.installs_per_commit": _calls(s, ("storage.install",)) / commits,
        "storage.versions_retained": extra["versions_retained"],
        "storage.gc_s": s.get("storage.gc_collect", {}).get("total_ns", 0) / 1e9,
        "storage.gc_reclaimed": extra["gc_reclaimed"],
        "histories.records_per_commit": _calls(s, records) / commits,
        "histories.record_us": _per_call_us(s, records),
        "histories.retained_ops": extra["retained_ops"],
        "distributed.messages_per_commit": extra["messages"] / commits,
        "distributed.commit_us": distributed_self / commits / 1e3,
        "obs.events_per_commit": _calls(s, ("obs.emit",)) / commits,
        "obs.emit_us": _per_call_us(s, ("obs.emit",)),
        "obs.witness_us": _per_call_us(s, ("obs.witness_export",)),
        "obs.slo_us": _per_call_us(s, ("obs.slo_export",)),
        "obs.witness_peak_tracked": witnessed["witness_peak_tracked"],
        "trace.overhead_share": overhead,
        "trace.span_ns": span_ns,
        "trace.span_ns_spread": spread(spans["span_ns"]),
        "trace.spans_per_commit": sum(e["calls"] for e in s.values()) / commits,
        "trace.commits_per_s": commits / (spans["root_ns"] / 1e9),
        "trace.untraced_commits_per_s": plain["outcome"]["commits"] / plain["wall_s"],
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = shares[layer]
    calls = count["calls"]
    counted_commits = count["outcome"]["commits"]
    for layer in LAYERS + ("other",):
        out[f"{layer}.calls_per_commit"] = calls[layer] / counted_commits
    out["total.calls_per_commit"] = sum(calls.values()) / counted_commits
    return out


def spread(values: list[float]) -> float:
    """Interquartile range over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


REPLAY_FIELDS = ("commits", "aborts", "restarts", "events", "commits_ro", "commits_rw")


def replay_mismatches(reference: dict[str, Any], others: list[tuple[str, dict[str, Any]]]) -> list[str]:
    """Passes over one repetition under one hash seed must do the same
    simulated work: spans, call counting and the witness observe, never
    steer."""
    failures = []
    for label, outcome in others:
        for field in REPLAY_FIELDS:
            if outcome[field] != reference[field]:
                failures.append(
                    f"{label} pass replayed {field}={outcome[field]}, plain pass {reference[field]}"
                )
    return failures
