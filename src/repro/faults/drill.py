"""Seeded fault-injection drills over the distributed protocols.

A *drill* runs a randomized multi-client workload against one distributed
database (``dvc`` — the paper's distributed VC + 2PL — or ``dmv2pl``, the
ref [8] baseline) on the virtual clock, with a
:class:`~repro.faults.courier.FaultyCourier` corrupting the network per a
seeded :class:`~repro.faults.schedule.FaultSchedule` and a crasher process
fail-stopping random sites (WAL-replay restart).  A
:class:`~repro.faults.invariants.FaultInvariantChecker` asserts the paper's
invariants throughout; the :class:`DrillReport` carries the verdict plus
fault/commit tallies.  Everything — client think times, key choices, fault
draws, crash times — derives from the master seed, so any failing drill
replays bit-for-bit from ``(protocol, seed, knobs)``.

``python -m repro drill`` runs campaigns of these (see :func:`main`);
``run_campaign`` is the library entry point.

DMV2PL drills run read-write clients only: its read-only anomaly (torn
global reads) is the paper result the protocol exists to demonstrate, not
a fault-handling bug, so drills assert serializability of the read-write
subhistory plus durability — the properties crashes and message faults
could actually break.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any

from repro.distributed.database import DistributedVCDatabase
from repro.distributed.dmv2pl import DistributedMV2PL
from repro.errors import ProtocolError, TransactionAborted
from repro.faults.campaign import (
    Campaign,
    CampaignReport,
    apply_verdicts,
    fields_of,
    run_cli,
    slo_engine,
)
from repro.faults.courier import FaultyCourier, RetryPolicy
from repro.faults.invariants import FaultInvariantChecker
from repro.faults.schedule import (
    DEFAULT_SPEC,
    REPLICATION_SPEC,
    FaultSchedule,
    FaultSpec,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

PROTOCOLS = ("dvc", "dmv2pl")


@dataclass(kw_only=True)
class DrillReport(CampaignReport):
    """Outcome of one seeded drill."""

    protocol: str
    duration: float
    commits: int = 0
    aborts: int = 0
    ro_commits: int = 0
    crashes: int = 0
    messages: int = 0
    faults: dict[str, int] = field(default_factory=dict)

    def line(self) -> str:
        return f"{self.protocol:7s} {super().line()}"

    def label(self) -> str:
        return f"{self.protocol} {super().label()}"

    def details(self) -> dict[str, Any]:
        return fields_of(
            self,
            "protocol seed duration commits aborts ro_commits crashes messages faults",
        )

    def summary(self) -> str:
        faults = self.faults
        return (
            f"commits={self.commits:<4d} aborts={self.aborts:<3d} "
            f"crashes={self.crashes:<2d} drops={faults.get('drops', 0):<3d} "
            f"dups={faults.get('duplicates', 0):<3d} "
            f"parked={faults.get('partition_deferrals', 0)}"
        ) + self.tags()


def run_drill(
    protocol: str = "dvc",
    seed: int = 0,
    *,
    duration: float = 300.0,
    n_sites: int = 3,
    writers: int = 4,
    readers: int = 2,
    spec: FaultSpec | None = None,
    retry: RetryPolicy | None = None,
    crash_mean: float | None = 90.0,
    tracer: Tracer = NULL_TRACER,
    slo: bool = False,
    witness: bool = False,
) -> DrillReport:
    """Run one seeded fault drill; returns its :class:`DrillReport`.

    ``crash_mean`` is the mean virtual time between site crash-restarts
    (``None`` disables crashes).  Crashes stop at ``0.8 * duration`` so the
    run always has a quiet tail in which in-flight work settles before the
    final invariant sweep.

    With ``slo`` an :class:`~repro.obs.slo.SLOEngine` with the ``faults``
    profile rides the drill (sharing ``tracer`` when one is given,
    otherwise on its own private tracer); its verdict lands in
    ``report.slo`` and an unexpected breach becomes a violation.

    With ``witness`` a sealing :class:`~repro.obs.witness.WitnessEngine`
    certifies the drill's ``history.*`` stream online; its verdict lands in
    ``report.witness`` and any MVSG cycle (or a tainted seal) becomes a
    violation — the live counterpart of the oracle's post-mortem check.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; pick from {PROTOCOLS}")
    spec = spec if spec is not None else DEFAULT_SPEC
    sim = Simulator()
    streams = RandomStreams(seed)
    latency_rng = streams.stream("latency")
    schedule = FaultSchedule(spec=spec, seed=seed)
    courier = FaultyCourier(
        schedule=schedule,
        retry=retry,
        sim=sim,
        latency=lambda: latency_rng.expovariate(1.0),
    )
    if protocol == "dvc":
        db: Any = DistributedVCDatabase(
            n_sites=n_sites, courier=courier, prepare_timeout=80.0
        )
    else:
        db = DistributedMV2PL(n_sites=n_sites, courier=courier)
        readers = 0  # RO anomaly is the paper result, not a fault bug
    from repro.obs.instrument import attach_tracer

    engine = certifier = None
    if slo:
        from repro.obs.slo import faults_objectives

        engine = slo_engine(faults_objectives(), duration, recorder=8192)
    if witness:
        from repro.obs.witness import WitnessEngine

        certifier = WitnessEngine(seal=True)
    for observer in (engine, certifier):
        if observer is None:
            continue
        if tracer.enabled:
            tracer.add_exporter(observer)
        else:
            # NULL_TRACER is shared and immutable: give the observers
            # their own private tracer instead.
            tracer = Tracer(exporters=[observer])
    if tracer.enabled:
        tracer.clock = lambda: sim.now  # fault timelines in virtual time
    instrumentation = attach_tracer(db, tracer)
    checker = FaultInvariantChecker(db)
    rng = streams.stream("clients")
    keys = [f"s{s}:k{i}" for s in range(1, n_sites + 1) for i in range(4)]
    report = DrillReport(protocol=protocol, seed=seed, duration=duration)

    def writer_client(_i: int):
        while sim.now < duration:
            yield rng.expovariate(0.3)
            if sim.now >= duration:
                return
            txn = db.begin()
            try:
                for key in rng.sample(keys, 2):
                    value = yield db.read(txn, key)
                    yield db.write(txn, key, (value or 0) + 1)
                yield db.commit(txn)
                checker.note_commit(txn)
                report.commits += 1
            except (TransactionAborted, ProtocolError):
                # TransactionAborted: deadlock victim, site failure, or 2PC
                # timeout surfaced through a pending future.  ProtocolError:
                # the transaction was fault-aborted while the client slept
                # between operations, so the next operation's entry guard
                # fired.  Either way: clean up and move on.
                if txn.is_active:
                    db.abort(txn)
                report.aborts += 1

    def reader_client(_i: int):
        while sim.now < duration:
            yield rng.expovariate(0.4)
            if sim.now >= duration:
                return
            txn = db.begin(read_only=True, origin_site=rng.randint(1, n_sites))
            for key in rng.sample(keys, 3):
                yield db.read(txn, key)
            yield db.commit(txn)
            report.ro_commits += 1

    def crasher():
        assert crash_mean is not None
        while True:
            yield rng.expovariate(1.0 / crash_mean)
            # Leave a quiet tail: no crashes in the last fifth of the run,
            # so decided commits settle before the final sweep.
            if sim.now >= 0.8 * duration:
                return
            sid = rng.randint(1, n_sites)
            db.crash_restart_site(sid)
            schedule.counts.crashes += 1
            report.crashes += 1
            checker.snapshot()

    def watcher():
        while sim.now < duration:
            yield duration / 20.0
            checker.snapshot()

    for i in range(writers):
        sim.spawn(writer_client(i), name=f"writer-{i}")
    for i in range(readers):
        sim.spawn(reader_client(i), name=f"reader-{i}")
    if crash_mean is not None:
        sim.spawn(crasher(), name="crasher")
    sim.spawn(watcher(), name="watcher")
    sim.run()

    report.wedged = [p.name for p in sim.blocked_processes()]
    checker.check_final()
    report.violations = list(checker.violations)
    report.messages = courier.delivered
    report.faults = schedule.counts.as_dict()
    for observer in (engine, certifier):
        if observer is not None:
            observer.finish()
            tracer.remove_exporter(observer)
    apply_verdicts(report, engine, certifier)
    if tracer.enabled:
        tracer.emit(
            "fault.drill.done",
            protocol=protocol,
            seed=seed,
            ok=report.ok,
            commits=report.commits,
            aborts=report.aborts,
            crashes=report.crashes,
        )
    instrumentation.detach()
    return report


def run_campaign(
    protocols: tuple[str, ...] | list[str] = PROTOCOLS,
    seeds: int = 20,
    seed_base: int = 0,
    **drill_kwargs: Any,
) -> list[DrillReport]:
    """Run ``seeds`` drills per protocol; returns every report."""
    reports: list[DrillReport] = []
    for protocol in protocols:
        for offset in range(seeds):
            reports.append(run_drill(protocol, seed_base + offset, **drill_kwargs))
    return reports


def _protocol_sweeps(args: argparse.Namespace) -> list[argparse.Namespace]:
    protocols = PROTOCOLS if args.protocol == "both" else (args.protocol,)
    return [argparse.Namespace(**{**vars(args), "protocol": p}) for p in protocols]


def _spec_flags(spec: FaultSpec) -> dict[str, float]:
    return dict(drop=spec.drop, duplicate=spec.duplicate, delay_spike=spec.delay_spike)


def _spec(args: argparse.Namespace) -> FaultSpec:
    return FaultSpec(
        drop=args.drop, duplicate=args.duplicate, delay_spike=args.delay_spike
    )


def _spec_text(args: argparse.Namespace) -> str:
    return f"spec=(drop={args.drop}, dup={args.duplicate}, spike={args.delay_spike})"


def _fault_totals(reports: list[DrillReport]) -> str:
    commits = sum(r.commits for r in reports)
    faults = sum(sum(r.faults.values()) for r in reports)
    return f"{len(reports)} drills, {commits} commits, {faults} injected faults"


#: Every ``drill --campaign``: what it runs, and the flags it reads.
CAMPAIGNS: dict[str, Campaign] = {
    "faults": Campaign(
        entry="repro.faults.drill:run_drill",
        kwargs=lambda a: dict(
            protocol=a.protocol,
            duration=a.duration,
            n_sites=a.sites,
            spec=_spec(a),
            crash_mean=a.crash_mean or None,
            slo=a.slo,
            witness=a.witness,
        ),
        header=lambda a: (
            f"fault drill: protocols="
            f"{','.join(s.protocol for s in _protocol_sweeps(a))} "
            f"seeds={a.seeds} {_spec_text(a)} crash_mean={a.crash_mean or 'off'}"
        ),
        flags=dict(
            protocol="both",
            sites=3,
            **_spec_flags(DEFAULT_SPEC),
            crash_mean=90.0,
            slo=False,
            witness=False,
        ),
        traced=True,
        totals=_fault_totals,
        sweeps=_protocol_sweeps,
    ),
    "overload": Campaign(
        entry="repro.qos.overload:run_overload_campaign",
        kwargs=lambda a: dict(duration=a.duration, policy=a.policy),
        header=lambda a: (
            f"overload campaign: seeds={a.seeds} policy={a.policy} "
            f"duration={a.duration}"
        ),
        flags=dict(policy="fifo"),
    ),
    "replication": Campaign(
        entry="repro.replica.campaign:run_replication_campaign",
        kwargs=lambda a: dict(
            duration=a.duration,
            n_replicas=a.replicas,
            spec=_spec(a),
            mode=a.mode,
            promote=not a.no_promote,
        ),
        header=lambda a: (
            f"replication campaign: seeds={a.seeds} replicas={a.replicas} "
            f"duration={a.duration} mode={a.mode} {_spec_text(a)} "
            f"promote={not a.no_promote}"
        ),
        flags=dict(
            replicas=3,
            mode="async",
            no_promote=False,
            **_spec_flags(REPLICATION_SPEC),
        ),
    ),
    "memory": Campaign(
        entry="repro.qos.memory:run_memory_campaign",
        kwargs=lambda a: dict(duration=a.duration),
        header=lambda a: f"memory campaign: seeds={a.seeds} duration={a.duration}",
    ),
    "availability": Campaign(
        entry="repro.replica.availability:run_availability_campaign",
        kwargs=lambda a: dict(duration=a.duration, n_replicas=a.replicas),
        header=lambda a: (
            f"availability campaign: seeds={a.seeds} replicas={a.replicas} "
            f"duration={a.duration} mode=quorum (partition -> automatic "
            f"fail-over + crash-point sweep)"
        ),
        flags=dict(replicas=3),
    ),
    "shard": Campaign(
        entry="repro.shard.campaign:run_shard_campaign",
        kwargs=lambda a: dict(duration=a.duration, n_shards=a.sites),
        header=lambda a: (
            f"shard campaign: seeds={a.seeds} shards={a.sites} "
            f"duration={a.duration} (partition one shard -> fail-over "
            f"mid-batch; certify 1SR + vector consistency + determinism + "
            f"fail-over isolation)"
        ),
        flags=dict(sites=3),
    ),
}


#: The flags some campaigns read (see :attr:`Campaign.flags`).
FLAGS: dict[str, dict[str, Any]] = {
    "--protocol": dict(
        choices=(*PROTOCOLS, "both"), help="distributed protocol to drill"
    ),
    "--policy": dict(
        choices=("fifo", "lifo-shed", "priority"),
        help="admission shedding policy",
    ),
    "--sites": dict(type=int, help="sites (shards) per database"),
    "--replicas": dict(type=int, help="replica count"),
    "--no-promote": dict(
        action="store_true", help="skip the mid-run primary fail-over"
    ),
    "--mode": dict(
        choices=("async", "quorum"),
        help="durability: async acknowledges at the local force (RPO = lag), "
        "quorum at majority durability (RPO = 0)",
    ),
    "--drop": dict(type=float, help="drop probability"),
    "--duplicate": dict(type=float, help="duplicate probability"),
    "--delay-spike": dict(type=float, help="delay-spike probability"),
    "--crash-mean": dict(
        type=float,
        help="mean virtual time between site crash-restarts (0 disables)",
    ),
    "--slo": dict(action="store_true", help="run the online SLO watchdogs"),
    "--witness": dict(
        action="store_true", help="certify 1SR online (docs/witness.md)"
    ),
}


def main(argv: list[str] | None = None) -> int:
    """``python -m repro drill`` — seeded campaigns with a verdict."""
    return run_cli(CAMPAIGNS, FLAGS, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
