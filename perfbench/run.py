"""Wall-clock benchmark of the repro library, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single-2pl --seed 1 --seconds 10 --trace 0

``--trace 0`` runs ``round(seconds / REP_SECONDS)`` repetitions
of the workload, each in a fresh worker process, and reports the end-to-end
metrics.  ``--trace 1`` runs one repetition three ways -- untraced, with
per-layer spans, and under the call-counting hook -- plus, on the
single-node workloads, once more with the 1SR witness attached, and reports
the per-layer metrics.  Every run checks the paper's invariants (see
``workloads.check_run``).

Each run sets its own ``PYTHONHASHSEED``, derived from the workload and the
seed and printed with the results, so any outcome can be replayed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import zlib

from hostspeed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every run must finish well inside the three minutes a run may take.
RUN_BUDGET_S = 170.0

#: Wall seconds one repetition takes on the reference host, worker start-up
#: included: ``--seconds`` becomes a fixed number of repetitions, so the
#: model metrics do not depend on how fast the host is.
REP_SECONDS = 2.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def hash_seed(workload: str, seed: int) -> int:
    """The run's ``PYTHONHASHSEED`` (1..2**32-1; 0 would disable hashing
    randomisation rather than fix it)."""
    return 1 + zlib.crc32(f"{workload}:{seed}".encode()) % (2**32 - 1)


def rep_seed(seed: int, index: int) -> int:
    """Workload seed of repetition ``index`` of the run seeded ``seed``."""
    return seed * 1000 + index


class Worker:
    """Starts worker processes one at a time under the run's hash seed."""

    def __init__(self, workload: str, hash_seed_value: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED=str(hash_seed_value))

    def __call__(self, mode: str, seed: int) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before the {mode} pass")
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(seed), "--mode", mode,
        ]
        try:
            done = subprocess.run(
                command, env=self.env, cwd=ROOT, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass did not finish in time") from exc
        if done.returncode != 0:
            raise BenchError(
                f"{mode} pass exited with {done.returncode}:\n{done.stderr[-4000:]}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro wall-clock benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so subprocess.run kills and reaps
    # the worker it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    import report
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed_value = hash_seed(args.workload, args.seed)
    run = Worker(args.workload, seed_value, time.monotonic() + RUN_BUDGET_S)

    try:
        if args.trace == 0:
            reps = max(1, round(args.seconds / REP_SECONDS))
            results = [run("timed", rep_seed(args.seed, i)) for i in range(reps)]
            metrics = report.end_to_end(results)
            units = load_units("end_to_end")
            failures = [f for r in results for f in r["outcome"]["failures"]]
        else:
            seed = rep_seed(args.seed, 0)
            plain = run("plain", seed)
            spans = run("spans", seed)
            count = run("count", seed)
            witnessed = spans if workload.observed else run("witness", seed)
            results = [plain, spans, count] + ([] if workload.observed else [witnessed])
            metrics = report.per_layer(plain, spans, count, witnessed)
            units = load_units("per_layer")
            failures = [f for r in results for f in r["outcome"]["failures"]]
            failures += report.replay_mismatches(
                plain["outcome"], [(r["mode"], r["outcome"]) for r in results[1:]]
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(report.logical_transactions(r["outcome"]) for r in results)
    failed = sum(
        report.logical_transactions(r["outcome"]) if r["outcome"]["failures"]
        else r["outcome"]["gave_up"]
        for r in results
    )
    print_table(args, workload, seed_value, results, metrics, units, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def load_units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def print_table(args, workload, seed_value, results, metrics, units, failures) -> None:
    outcomes = [r["outcome"] for r in results]
    print(
        f"workload {workload.name}: {workload.protocol}, {workload.n_clients} clients, "
        f"{workload.duration:g} vu per repetition, seed {args.seed}, "
        f"PYTHONHASHSEED={seed_value}, {len(results)} worker passes"
    )
    print(
        "samples: commits " + "/".join(str(o["commits"]) for o in outcomes)
        + ", aborts " + "/".join(str(o["aborts"]) for o in outcomes)
        + ", rw latencies " + "/".join(str(o["n_rw"]) for o in outcomes)
        + ", ro latencies " + "/".join(str(o["n_ro"]) for o in outcomes)
    )
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    timed = [r for r in results if r["mode"] == "timed"]
    if timed:
        wall_rate = statistics.median(r["outcome"]["commits"] / r["wall_s"] for r in timed)
        speed = REFERENCE_S / statistics.median(r["kernel_s"] for r in timed)
        print(
            f"uncorrected wall clock: {wall_rate:.6g} commits/s, "
            f"host at {speed:.3f} of the reference speed"
        )
    witness = [r["witness"] for r in results if "witness" in r]
    print(
        "checks: " + ("all passed" if not failures else "; ".join(failures))
        + (f"; witness ok in {sum(witness)}/{len(witness)} passes" if witness else "")
    )


if __name__ == "__main__":
    sys.exit(main())
