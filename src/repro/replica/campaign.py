"""Seeded replication campaign: snapshot consistency under network faults.

One campaign runs a writer population against the primary and a reader
population whose snapshots route through :class:`ReplicatedDatabase` to the
replica tier, while a :class:`~repro.faults.FaultyCourier` corrupts the
shipping channels per a seeded spec — drops, duplicates, delay spikes, and
per-replica partition windows derived from the master seed.  Half-way
through (by default) the primary fail-stops and the most advanced replica
is promoted through the recovery path.

Checked throughout and at the end:

* **snapshot consistency** — no read-only transaction ever observes a
  version whose creator ``tn`` exceeds its snapshot number (``sn =
  vtnc_replica`` at begin), i.e. no replica serves above its watermark;
* **monotone watermarks** — every replica's ``vtnc`` only advances, and
  never exceeds the primary's;
* **convergence** — after the run drains and shipping catches up, every
  replica's committed store state equals the (current) primary's, and the
  watermarks meet the primary's ``vtnc``;
* **determinism** — a second run from the same seed produces an identical
  fingerprint (commit/read tallies, event count, final watermarks, and a
  hash of the converged store).

``python -m repro drill --campaign replication`` sweeps seeds through this;
the bench artifact's ``replica`` block uses the scaling benchmark in
:mod:`repro.replica.bench` instead.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.errors import ProtocolError, TransactionAborted
from repro.faults.campaign import CampaignReport, apply_verdicts, fields_of, slo_engine
from repro.faults.courier import FaultyCourier, RetryPolicy
from repro.faults.schedule import (
    REPLICATION_SPEC,
    FaultSchedule,
    FaultSpec,
    PartitionWindow,
)
from repro.obs.pipeline import ObsPipeline
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import ReplicationMode
from repro.replica.session import ReplicatedDatabase
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.stats import Summary


@dataclass
class ReplicationPhase:
    """What one seeded run observed."""

    rw_commits: int = 0
    rw_aborts: int = 0
    ro_commits: int = 0
    ro_reads: int = 0
    ro_served: int = 0
    ro_redirects: int = 0
    ro_stale: int = 0
    max_lag_txns: int = 0
    staleness: Summary = field(default_factory=Summary)
    promoted_replica: int | None = None
    #: Transactions acknowledged to a session but absent from the promoted
    #: primary at fail-over — the measured RPO.  None until a promotion
    #: happens.  Async mode loses exactly the replication lag; quorum mode
    #: must measure 0 (its acknowledged commits are majority-durable).
    rpo_txns: int | None = None
    #: Watermark lag ``old_vtnc - promoted_vtnc`` at the fail-over moment.
    failover_lag_txns: int | None = None
    events_dispatched: int = 0
    final_vtncs: tuple = ()
    primary_vtnc: int = 0
    store_fingerprint: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    messages: int = 0
    violations: list[str] = field(default_factory=list)
    wedged: list[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Two same-seed runs must agree on every component."""
        return (
            self.rw_commits,
            self.rw_aborts,
            self.ro_commits,
            self.ro_reads,
            self.ro_served,
            self.ro_redirects,
            self.ro_stale,
            self.events_dispatched,
            self.final_vtncs,
            self.primary_vtnc,
            self.store_fingerprint,
            self.rpo_txns,
            self.failover_lag_txns,
        )


@dataclass(kw_only=True)
class ReplicationReport(CampaignReport):
    """Outcome of one seeded replication campaign."""

    duration: float
    n_replicas: int
    writers: int
    readers: int
    promote: bool
    phase: ReplicationPhase
    mode: str = "async"
    faults: dict[str, int] = field(default_factory=dict)

    def details(self) -> dict[str, Any]:
        return {
            **fields_of(self, "seed duration n_replicas writers readers promote mode"),
            **fields_of(
                self.phase,
                "rpo_txns failover_lag_txns rw_commits rw_aborts ro_commits "
                "ro_reads ro_served ro_redirects ro_stale max_lag_txns",
            ),
            "staleness_max": self.phase.staleness.maximum,
            **fields_of(self.phase, "promoted_replica final_vtncs primary_vtnc"),
            "faults": dict(self.faults),
            "messages": self.phase.messages,
        }

    def summary(self) -> str:
        phase = self.phase
        return (
            f"rw={phase.rw_commits:<4d} ro={phase.ro_commits:<5d} "
            f"lag_max={phase.max_lag_txns:<3d} "
            f"redirects={phase.ro_redirects:<4d} "
            f"promoted=r{phase.promoted_replica or '-'} "
            f"rpo={phase.rpo_txns if phase.rpo_txns is not None else '-'} "
            f"drops={self.faults.get('drops', 0):<3d} "
            f"parked={self.faults.get('partition_deferrals', 0)}"
        ) + self.tags(slo=False)


def _committed_dump(store) -> dict:
    """Committed versions with tn > 0 — the replicated portion of a store.

    The initial version 0 of every object exists implicitly on each copy
    (the primary materializes it lazily on first touch, replicas on first
    applied write), so only shipped versions participate in convergence.
    """
    dump: dict = {}
    for key in store.keys():
        chain = [
            (v.tn, v.value)
            for v in store.object(key).versions()
            if v.tn > 0 and not v.pending
        ]
        if chain:
            dump[key] = tuple(chain)
    return dump


def _dump_fingerprint(dump: dict) -> int:
    payload = repr(sorted(dump.items(), key=lambda item: repr(item[0])))
    return zlib.crc32(payload.encode("utf-8"))


def _partition_windows(
    streams: RandomStreams, duration: float, n_replicas: int
) -> tuple[PartitionWindow, ...]:
    """Seed-derived partition windows over the shipping channels.

    Each replica's ``ship.<rid>`` channel gets (with high probability) one
    outage somewhere in the first two-thirds of the run, healing well
    before the end so convergence is reachable.
    """
    rng = streams.stream("replica.partitions")
    windows = []
    for rid in range(1, n_replicas + 1):
        if rng.random() < 0.85:
            start = rng.uniform(0.15, 0.45) * duration
            length = rng.uniform(0.05, 0.20) * duration
            windows.append(PartitionWindow(f"ship.{rid}", start, start + length))
    return tuple(windows)


def _run_phase(
    seed: int,
    *,
    duration: float,
    n_replicas: int,
    writers: int,
    readers: int,
    spec: FaultSpec,
    max_staleness: int,
    promote_at: float | None,
    n_keys: int = 8,
    mode: str = "async",
    engine: Any | None = None,
    witness: Any | None = None,
) -> ReplicationPhase:
    """One seeded run.  ``engine`` is an optional
    :class:`~repro.obs.slo.SLOEngine` — and ``witness`` an optional
    :class:`~repro.obs.witness.WitnessEngine` — fed online through an
    :class:`~repro.obs.ObsPipeline` attached to the cluster (and
    re-attached after a fail-over rebuilds the primary and shipper)."""
    sim = Simulator()
    streams = RandomStreams(seed)
    latency_rng = streams.stream("latency")
    full_spec = FaultSpec(
        drop=spec.drop,
        duplicate=spec.duplicate,
        delay_spike=spec.delay_spike,
        spike_factor=spec.spike_factor,
        partitions=spec.partitions
        + _partition_windows(streams, duration, n_replicas),
    )
    schedule = FaultSchedule(spec=full_spec, seed=seed)
    courier = FaultyCourier(
        schedule=schedule,
        retry=RetryPolicy(max_attempts=6, base=0.5, cap=10.0),
        sim=sim,
        latency=lambda: latency_rng.expovariate(2.0),
    )
    cluster = ReplicaCluster(
        n_replicas=n_replicas, courier=courier, checked=True, mode=mode
    )
    pipeline = ObsPipeline(sim=sim, engine=engine, witness=witness)
    pipeline.attach(cluster)
    tracer = pipeline.tracer
    session = ReplicatedDatabase(
        cluster, max_staleness=max_staleness, stale_policy="redirect"
    )
    stats = ReplicationPhase()
    keys = [f"k{i}" for i in range(n_keys)]
    last_vtnc: dict[int, int] = {rid: 0 for rid in cluster.replicas}
    #: Transaction numbers whose commit future resolved successfully — the
    #: set the durability promise is *about*.  In async mode resolution is
    #: the local force; in quorum mode it is the majority ack.
    acked_tns: set[int] = set()

    def check_watermarks() -> None:
        # In quorum mode the primary defers its own visibility advance
        # (vc_complete) until the majority ack, so a replica that already
        # applied the shipped COMMIT record legitimately sits above the
        # primary's vtnc for a beat; the ceiling there is the assigned-tn
        # frontier (every shipped COMMIT carries a registered tn <= tnc).
        primary_vtnc = cluster.primary.vc.vtnc
        ceiling = (
            primary_vtnc if mode == "async" else cluster.primary.vc.tnc
        )
        for rid, replica in cluster.replicas.items():
            prev = last_vtnc.get(rid, 0)
            if replica.vtnc < prev:
                stats.violations.append(
                    f"replica {rid} watermark regressed {prev} -> {replica.vtnc}"
                )
            last_vtnc[rid] = replica.vtnc
            if replica.vtnc > ceiling:
                stats.violations.append(
                    f"replica {rid} watermark {replica.vtnc} above primary "
                    f"frontier {ceiling}"
                )
            lag = cluster.lag_txns(replica)
            if lag > stats.max_lag_txns:
                stats.max_lag_txns = lag
            if tracer.enabled:
                # Primary-measured watermark lag: the anomaly signal the
                # replica_lag watchdog watches.  (The replica's own
                # staleness_bound freezes during a full partition — it
                # hears nothing — so only this primary-side view spikes.)
                tracer.emit("replica.lag", replica=rid, lag=lag)
        for rid in list(last_vtnc):
            if rid not in cluster.replicas:
                del last_vtnc[rid]  # promoted out of the replica set

    def writer(i: int):
        rng = streams.stream(f"replica.writer-{i}")
        while sim.now < duration:
            yield rng.expovariate(0.5)
            if sim.now >= duration:
                return
            db = cluster.primary  # re-fetch: survives a fail-over
            txn = db.begin()
            try:
                for key in rng.sample(keys, 2):
                    yield rng.expovariate(2.0)  # service time
                    value = yield db.read(txn, key)
                    yield db.write(txn, key, (value or 0) + 1)
                done = db.commit(txn)
                # Record the ack at *resolution* time (synchronous with the
                # force in async mode, with the majority ack in quorum
                # mode), not at the generator's next resumption — so a
                # fail-over landing between the two cannot undercount.
                done.add_callback(
                    lambda f, txn=txn: (
                        acked_tns.add(txn.tn)
                        if not f.failed and txn.tn is not None
                        else None
                    )
                )
                yield done
                stats.rw_commits += 1
            except (TransactionAborted, ProtocolError):
                # Deadlock victim, or the primary failed over while this
                # client held an open transaction (SITE_FAILURE through a
                # pending lock future, or ProtocolError from the entry
                # guard of an already-aborted descriptor).
                if txn.is_active:
                    db.abort(txn)
                stats.rw_aborts += 1

    def reader(i: int):
        rng = streams.stream(f"replica.reader-{i}")
        while sim.now < duration:
            yield rng.expovariate(1.0)
            if sim.now >= duration:
                return
            with session.snapshot() as snap:
                staleness = snap.staleness
                if staleness is not None:
                    stats.staleness.add(staleness)
                for key in rng.sample(keys, 3):
                    snap.read(key)
                    stats.ro_reads += 1
                # The invariant under test: no read above the snapshot,
                # hence never above the serving replica's watermark.
                for key, tn in snap.txn.read_set.items():
                    if tn is not None and snap.txn.sn is not None:
                        if tn > snap.txn.sn:
                            stats.violations.append(
                                f"read of tn {tn} above sn {snap.txn.sn} "
                                f"(key {key!r})"
                            )
            stats.ro_commits += 1

    def watcher():
        while sim.now < duration:
            yield duration / 50.0
            check_watermarks()

    def promoter():
        assert promote_at is not None
        yield promote_at
        promoted = cluster.fail_over()
        stats.promoted_replica = promoted.replica_id
        # The measured RPO: commits acknowledged to a session whose tn the
        # promoted primary does not cover.  (Post-promotion tns restart
        # above promoted_vtnc, so this is computed exactly once, here.)
        promoted_vtnc = cluster.last_failover["promoted_vtnc"]
        stats.rpo_txns = sum(1 for tn in acked_tns if tn > promoted_vtnc)
        stats.failover_lag_txns = cluster.last_failover["lag_txns"]
        # fail_over() built a fresh primary and shipper; re-attach so
        # post-promotion events keep flowing to the watchdogs.
        pipeline.attach(cluster)
        check_watermarks()

    for i in range(writers):
        sim.spawn(writer(i), name=f"writer-{i}")
    for i in range(readers):
        sim.spawn(reader(i), name=f"reader-{i}")
    sim.spawn(watcher(), name="watermark-watcher")
    if promote_at is not None:
        sim.spawn(promoter(), name="promoter")
    sim.run()

    # Quiesce: re-ship anything unacknowledged until every replica holds the
    # full durable log (two rounds cover acks lost in the final drain).
    for _ in range(3):
        cluster.shipper.catch_up_all()
        sim.run()
        if all(
            cluster.lag_records(r) == 0 for r in cluster.replicas.values()
        ):
            break
    check_watermarks()

    stats.wedged = [p.name for p in sim.blocked_processes()]
    stats.events_dispatched = sim.events_dispatched
    stats.primary_vtnc = cluster.primary.vc.vtnc
    stats.final_vtncs = tuple(
        cluster.replicas[rid].vtnc for rid in sorted(cluster.replicas)
    )
    counters = cluster.counters
    stats.ro_served = counters.get("replica.ro.served")
    stats.ro_redirects = counters.get("replica.ro.redirect")
    stats.ro_stale = counters.get("replica.ro.stale")

    # Convergence: every replica's committed state equals the primary's.
    primary_dump = _committed_dump(cluster.primary.store)
    stats.store_fingerprint = _dump_fingerprint(primary_dump)
    for rid in sorted(cluster.replicas):
        replica = cluster.replicas[rid]
        if _committed_dump(replica.store) != primary_dump:
            stats.violations.append(
                f"replica {rid} store diverged from primary after healing"
            )
        if replica.vtnc != cluster.primary.vc.vtnc:
            stats.violations.append(
                f"replica {rid} watermark {replica.vtnc} != primary "
                f"{cluster.primary.vc.vtnc} after healing"
            )
    stats.faults = schedule.counts.as_dict()
    stats.messages = courier.delivered
    pipeline.close()  # detach, finish the engine's last window
    return stats


def run_replication_campaign(
    seed: int = 0,
    *,
    duration: float = 400.0,
    n_replicas: int = 3,
    writers: int = 4,
    readers: int = 6,
    max_staleness: int = 8,
    spec: FaultSpec | None = None,
    mode: "ReplicationMode | str" = "async",
    promote: bool = True,
    verify_determinism: bool = True,
    slo: bool = True,
    witness: bool = True,
) -> ReplicationReport:
    """Run one seeded replication campaign and check its guarantees.

    With ``promote`` the primary fail-stops at ``0.55 * duration`` and the
    most advanced replica takes over through the recovery path.  With
    ``verify_determinism`` the whole run repeats from the same seed and the
    two fingerprints must match.

    With ``slo`` (the default) an :class:`~repro.obs.slo.SLOEngine` rides
    the run, evaluating the staleness objectives online: the hard bound on
    what served snapshots may observe, zero RO blocking, and the
    ``replica_lag`` anomaly watchdog whose breaches during injected
    partition windows are *expected* (they trigger the flight recorder —
    the bundle captures the partition that caused them — without failing
    the campaign).  The verdict lands in ``report.slo``; under
    ``verify_determinism`` the replay carries a fresh engine and both
    verdict blocks must compare equal.

    With ``witness`` (the default) a sealing
    :class:`~repro.obs.witness.WitnessEngine` certifies the primary's
    history stream online — across the fail-over, whose ``replica.promote``
    event retires the promoted replica's watermark from the sealing floor —
    and an MVSG cycle (or a tainted seal) is a campaign violation.
    """
    from repro.faults.determinism import verify_double_run
    from repro.obs.slo import replication_objectives

    spec = spec if spec is not None else REPLICATION_SPEC
    mode = ReplicationMode(mode).value

    outcome = verify_double_run(
        partial(
            _run_phase,
            seed,
            duration=duration,
            n_replicas=n_replicas,
            writers=writers,
            readers=readers,
            spec=spec,
            max_staleness=max_staleness,
            mode=mode,
            promote_at=0.55 * duration if promote else None,
        ),
        slo=slo,
        witness=witness,
        make_engine=lambda: slo_engine(
            replication_objectives(max_staleness=max_staleness, writers=writers),
            duration,
        ),
        verify=verify_determinism,
    )
    phase = outcome.result

    report = ReplicationReport(
        seed=seed,
        duration=duration,
        n_replicas=n_replicas,
        writers=writers,
        readers=readers,
        promote=promote,
        phase=phase,
        mode=mode,
        faults=dict(phase.faults),
        wedged=phase.wedged,
    )
    report.violations.extend(phase.violations)
    if not phase.rw_commits:
        report.violations.append("no read-write commits: workload inert")
    if not phase.ro_commits:
        report.violations.append("no read-only commits: replica path inert")
    if promote and phase.promoted_replica is None:
        report.violations.append("promotion did not happen")
    if promote and phase.promoted_replica is not None:
        # The durability promise, stated as data.  Quorum mode acknowledges
        # only majority-durable commits, so a fail-over may lose *nothing*
        # that was acknowledged (RPO=0).  Async mode acknowledges at the
        # local force, so what it loses is exactly the replication lag.
        if phase.rpo_txns is None:
            report.violations.append("promotion happened but RPO not measured")
        elif mode == ReplicationMode.QUORUM.value and phase.rpo_txns != 0:
            report.violations.append(
                f"quorum mode lost {phase.rpo_txns} acknowledged commits "
                "at fail-over (RPO must be 0)"
            )
        elif (
            mode == ReplicationMode.ASYNC.value
            and phase.rpo_txns != phase.failover_lag_txns
        ):
            report.violations.append(
                f"async RPO {phase.rpo_txns} != measured replication lag "
                f"{phase.failover_lag_txns} at fail-over"
            )
    apply_verdicts(report, outcome.engine, outcome.certifier, outcome.deterministic)
    return report
