"""Seeded overload campaign: the read-only fast-path guarantee under stress.

The campaign drives the paper's central VC + 2PL scheduler with a
read-write load far beyond admission capacity (4x by default) while a
steady population of read-only clients runs alongside, and measures what
the QoS layer promises:

* read-write arrivals beyond capacity are **shed** with a typed
  :class:`~repro.errors.Overloaded` (never silently dropped) and back off
  with deterministic seeded jitter;
* admitted read-write transactions carry a virtual-time **deadline**; a
  reaper sweeps the lock manager so a writer stuck behind a convoy aborts
  with ``DEADLINE_EXCEEDED`` instead of waiting forever;
* read-only transactions **never** pass admission, are never shed, never
  deadline-abort, and their latency distribution stays flat — the
  campaign runs an uncontended read-only baseline first and compares p99s;
* snapshot staleness stays bounded (each RO begin reports its
  ``qos.staleness`` bound);
* every decision is visible as a ``qos.*`` trace event.

Both phases run on the virtual clock from one master seed, so the whole
campaign is deterministic: same seed, same sheds, same misses, same
latencies.  ``python -m repro drill --campaign overload`` runs a sweep of
these; the bench artifact embeds one run's headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.errors import AbortReason, Overloaded, TransactionAborted
from repro.faults.campaign import CampaignReport, apply_verdicts, fields_of, slo_engine
from repro.obs.pipeline import ObsPipeline
from repro.qos.admission import AdmissionController
from repro.qos.retry import BackoffPolicy
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.stats import Summary

#: Acceptance ceiling: overload RO p99 may not exceed this multiple of the
#: uncontended baseline (ISSUE acceptance criterion).
RO_P99_CEILING = 1.5

#: Per-window watchdog ceiling for the online RO-p99 objective, as a
#: multiple of the baseline phase's whole-run p99.  Looser than the
#: run-level gate above because a windowed p99 over a few dozen samples is
#: effectively a maximum with much heavier tails; the run-level 1.5x check
#: still applies unchanged.
RO_P99_WINDOW_CEILING = 2.0


@dataclass
class PhaseStats:
    """What one phase of the campaign observed."""

    ro_latency: Summary = field(default_factory=Summary)
    ro_commits: int = 0
    ro_shed: int = 0
    ro_deadline_misses: int = 0
    rw_commits: int = 0
    rw_shed: int = 0
    rw_deadline_misses: int = 0
    rw_aborts_other: int = 0
    staleness: Summary = field(default_factory=Summary)
    qos_events: dict[str, int] = field(default_factory=dict)
    events_dispatched: int = 0

    def fingerprint(self) -> tuple:
        """Determinism fingerprint: two same-seed runs must agree on this."""
        return (
            self.ro_commits,
            self.rw_commits,
            self.rw_shed,
            self.rw_deadline_misses,
            self.rw_aborts_other,
            round(self.ro_latency.mean, 9),
            self.events_dispatched,
        )


@dataclass(kw_only=True)
class OverloadReport(CampaignReport):
    """Outcome of one seeded overload campaign."""

    duration: float
    capacity: int
    writers: int
    readers: int
    policy: str
    deadline: float
    baseline: PhaseStats
    overload: PhaseStats

    @property
    def shed_rate(self) -> float:
        attempts = self.overload.rw_commits + self.overload.rw_shed
        attempts += self.overload.rw_deadline_misses + self.overload.rw_aborts_other
        return self.overload.rw_shed / attempts if attempts else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        admitted = self.overload.rw_commits + self.overload.rw_deadline_misses
        admitted += self.overload.rw_aborts_other
        return self.overload.rw_deadline_misses / admitted if admitted else 0.0

    @property
    def ro_p99_ratio(self) -> float:
        base = self.baseline.ro_latency.p99
        return self.overload.ro_latency.p99 / base if base > 0 else 1.0

    def details(self) -> dict[str, Any]:
        overload = self.overload
        return {
            **fields_of(self, "seed duration capacity writers readers policy deadline"),
            "shed_rate": round(self.shed_rate, 6),
            "deadline_miss_rate": round(self.deadline_miss_rate, 6),
            **fields_of(
                overload,
                "rw_commits rw_shed rw_deadline_misses "
                "ro_commits ro_shed ro_deadline_misses",
            ),
            "ro_p99_baseline": round(self.baseline.ro_latency.p99, 6),
            "ro_p99_overload": round(overload.ro_latency.p99, 6),
            "ro_p99_ratio": round(self.ro_p99_ratio, 6),
            "staleness_max": overload.staleness.maximum,
            "qos_events": dict(overload.qos_events),
        }

    def summary(self) -> str:
        return (
            f"shed={self.shed_rate:<7.2%} "
            f"miss={self.deadline_miss_rate:<7.2%} "
            f"ro_p99x={self.ro_p99_ratio:<5.2f} "
            f"rw_commits={self.overload.rw_commits:<5d} "
            f"ro_commits={self.overload.ro_commits}"
        ) + self.tags(slo=False)


def _run_phase(
    seed: int,
    *,
    duration: float,
    capacity: int,
    writers: int,
    readers: int,
    policy: str,
    deadline: float,
    n_keys: int = 6,
    reap_period: float = 1.0,
    engine: Any | None = None,
    witness: Any | None = None,
) -> PhaseStats:
    """One closed-loop run; ``writers=0`` gives the uncontended RO baseline.

    The writer population hammers a small hot key set so admitted writers
    genuinely convoy on locks — that is what makes deadlines bite — while
    arrivals beyond ``capacity`` are shed at begin and retry with seeded
    exponential backoff, exactly the loop ``Session.run`` implements.

    ``engine`` is an optional :class:`~repro.obs.slo.SLOEngine` evaluated
    online over the phase's event stream (the overload phase's watchdogs);
    ``witness`` an optional :class:`~repro.obs.witness.WitnessEngine`
    certifying the phase's ``history.*`` stream live.
    """
    from repro.protocols.vc_two_phase_locking import VC2PLScheduler

    sim = Simulator()
    scheduler = VC2PLScheduler(checked=False)
    scheduler.admission = AdmissionController(
        capacity=capacity, queue_limit=2 * capacity, policy=policy
    )
    pipeline = ObsPipeline(sim=sim, ring=65_536, engine=engine, witness=witness)
    pipeline.attach(scheduler)
    tracer = pipeline.tracer
    streams = RandomStreams(seed)
    backoff = BackoffPolicy(base=0.5, factor=2.0, cap=8.0, jitter=0.5)
    stats = PhaseStats()
    keys = [f"k{i}" for i in range(n_keys)]

    def writer(i: int):
        rng = streams.stream(f"writer-{i}")
        jitter_rng = streams.stream(f"backoff-{i}")
        attempt = 0
        while sim.now < duration:
            yield rng.expovariate(1.0)
            if sim.now >= duration:
                return
            try:
                txn = scheduler.begin(deadline=sim.now + deadline)
            except Overloaded:
                stats.rw_shed += 1
                yield backoff.delay(attempt, jitter_rng)
                attempt += 1
                continue
            attempt = 0
            try:
                for key in rng.sample(keys, 2):
                    yield rng.expovariate(1.0 / 2.0)  # service time
                    value = yield scheduler.read(txn, key)
                    yield scheduler.write(txn, key, (value or 0) + 1)
                yield scheduler.commit(txn)
                stats.rw_commits += 1
            except TransactionAborted as exc:
                if txn.is_active:
                    scheduler.abort(txn)
                if exc.reason is AbortReason.DEADLINE_EXCEEDED:
                    stats.rw_deadline_misses += 1
                else:
                    stats.rw_aborts_other += 1

    def reader(i: int):
        rng = streams.stream(f"reader-{i}")
        while sim.now < duration:
            yield rng.expovariate(1.0 / 2.0)
            if sim.now >= duration:
                return
            start = sim.now
            try:
                txn = scheduler.begin(read_only=True)
            except Overloaded:  # pragma: no cover - the guarantee under test
                stats.ro_shed += 1
                # Tripwire for the zero-RO-shed objective: this event is
                # structurally unreachable (RO begins bypass admission);
                # if it ever fires, the watchdog breaches immediately.
                tracer.emit("slo.ro_shed", seed=seed)
                continue
            staleness = txn.meta.get("qos.staleness")
            if staleness is not None:
                stats.staleness.add(staleness)
            try:
                for key in rng.sample(keys, 3):
                    yield rng.expovariate(1.0)  # service time
                    yield scheduler.read(txn, key)
                yield scheduler.commit(txn)
            except TransactionAborted as exc:  # pragma: no cover - ditto
                if txn.is_active:
                    scheduler.abort(txn)
                if exc.reason is AbortReason.DEADLINE_EXCEEDED:
                    stats.ro_deadline_misses += 1
                continue
            stats.ro_commits += 1
            stats.ro_latency.add(sim.now - start)

    def reaper():
        # The lock manager is clock-free by design: deadlines on queued
        # requests only fire when someone sweeps them with "now".
        while sim.now < duration:
            yield reap_period
            scheduler.locks.expire_due(sim.now)

    for i in range(writers):
        sim.spawn(writer(i), name=f"writer-{i}")
    for i in range(readers):
        sim.spawn(reader(i), name=f"reader-{i}")
    if writers:
        sim.spawn(reaper(), name="deadline-reaper")
    sim.run()
    pipeline.close()  # detach, finish the engine's last window, flush

    for event in pipeline.events():
        if event["name"].startswith("qos."):
            stats.qos_events[event["name"]] = (
                stats.qos_events.get(event["name"], 0) + 1
            )
    stats.events_dispatched = sim.events_dispatched
    return stats


def run_overload_campaign(
    seed: int = 0,
    *,
    duration: float = 400.0,
    capacity: int = 4,
    overload_factor: float = 4.0,
    readers: int = 4,
    policy: str = "fifo",
    deadline: float = 10.0,
    verify_determinism: bool = True,
    slo: bool = True,
    witness: bool = True,
) -> OverloadReport:
    """Run one seeded overload campaign and check the acceptance criteria.

    Phase 1 measures the read-only latency distribution with zero
    read-write load (the uncontended baseline).  Phase 2 adds
    ``capacity * overload_factor`` read-write writers and re-measures.
    With ``verify_determinism`` the overload phase runs twice and the two
    fingerprints must match — a mismatch is reported as a violation, not
    an exception, so campaigns report it like any other failed guarantee.

    With ``slo`` (the default) an :class:`~repro.obs.slo.SLOEngine` rides
    the overload phase, evaluating the RO-p99/zero-shed/staleness
    objectives online; its verdict lands in ``report.slo`` and an
    unexpected breach is a campaign violation.  Under
    ``verify_determinism`` the replay carries a fresh engine and both
    verdict blocks must compare equal — the watchdogs themselves are held
    to the seeded-replay standard.

    With ``witness`` (the default) a sealing
    :class:`~repro.obs.witness.WitnessEngine` certifies the overload
    phase's history stream online; an MVSG cycle (or a tainted seal) is a
    campaign violation, and under ``verify_determinism`` its verdict block
    must replay byte-identically too.
    """
    from repro.faults.determinism import verify_double_run
    from repro.obs.slo import overload_objectives

    writers = max(1, int(capacity * overload_factor))
    knobs = dict(
        duration=duration,
        capacity=capacity,
        readers=readers,
        policy=policy,
        deadline=deadline,
    )
    baseline = _run_phase(seed, writers=0, **knobs)
    # The overload phase's watchdogs are anchored to this baseline's p99.
    base_p99 = baseline.ro_latency.p99
    ceiling = RO_P99_WINDOW_CEILING * base_p99 if base_p99 > 0 else None
    outcome = verify_double_run(
        partial(_run_phase, seed, writers=writers, **knobs),
        slo=slo,
        witness=witness,
        make_engine=lambda: slo_engine(
            overload_objectives(capacity=capacity, ro_p99_ceiling=ceiling),
            duration,
        ),
        verify=verify_determinism,
    )
    overload = outcome.result

    report = OverloadReport(
        seed=seed,
        duration=duration,
        capacity=capacity,
        writers=writers,
        readers=readers,
        policy=policy,
        deadline=deadline,
        baseline=baseline,
        overload=overload,
    )
    checks = report.violations
    if overload.ro_shed:
        checks.append(f"read-only transactions shed: {overload.ro_shed}")
    if overload.ro_deadline_misses:
        checks.append(
            f"read-only deadline aborts: {overload.ro_deadline_misses}"
        )
    if not overload.rw_shed:
        checks.append("no shedding at 4x capacity: admission gate inert")
    if baseline.ro_latency.p99 > 0 and (
        overload.ro_latency.p99 > RO_P99_CEILING * baseline.ro_latency.p99
    ):
        checks.append(
            f"RO p99 {overload.ro_latency.p99:.3f} above "
            f"{RO_P99_CEILING}x baseline {baseline.ro_latency.p99:.3f}"
        )
    # Staleness bound: with at most `capacity` admitted writers in flight,
    # a snapshot can trail the newest commit by at most that many numbers.
    if overload.staleness.maximum > capacity:
        checks.append(
            f"staleness {overload.staleness.maximum} above bound {capacity}"
        )
    if not any(name.startswith("qos.") for name in overload.qos_events):
        checks.append("no qos.* trace events emitted")
    apply_verdicts(report, outcome.engine, outcome.certifier, outcome.deterministic)
    return report
