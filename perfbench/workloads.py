"""The benchmark's three workloads and the per-run correctness checks.

Each workload drives the public ``repro.bench.runner.run_simulation`` in one
process: simulated clients are generator coroutines on the virtual clock,
each a closed loop that starts its next transaction only after the previous
one finished.  ``build`` makes the subject, the ``WorkloadSpec`` (from the
workload seed alone), the ``SimConfig`` and, where the workload runs one,
the observability pipeline; ``run_simulation`` receives only the spec.

Why these three (see README.md for the measured numbers):

* ``single-2pl`` -- paper Figure 4 on one node.  GC is off, so version
  chains and the retained history grow with the run: storage lookups and
  history memory show here.  ``distributed`` and ``obs`` do no work.
* ``wide-to`` -- VC+TO over 5,000 objects with 256 clients and GC every 50
  units.  TO registers at begin, so ``VCQueue`` holds ~160 entries and the
  checked-mode invariant dominates; no locks are taken (``cc`` idle) and
  chains stay short -- the opposite storage pattern to ``single-2pl``.
* ``dist-observed`` -- dvc-2pl on 3 sites with the observability stack of
  ``python -m repro bench`` attached live.  The only workload where
  ``distributed`` and ``obs`` work; for a tracer, witness or courier change
  the prediction on the other two workloads is "no change".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.bench.runner import SimConfig
from repro.distributed.courier import Courier
from repro.distributed.database import DistributedVCDatabase
from repro.obs.pipeline import ObsPipeline
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.witness import WitnessEngine
from repro.protocols.registry import make_scheduler
from repro.sim.engine import Simulator
from repro.workload.mixes import balanced
from repro.workload.spec import WorkloadSpec

#: Ring capacity for ``dist-observed``: far above the ~39 events per commit
#: of one repetition, so the ring never drops (a dropped event fails a check).
RING_CAPACITY = 1 << 21


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``duration`` is the virtual length of one repetition.
    """

    name: str
    protocol: str
    duration: float
    n_clients: int
    gc_period: float
    overrides: tuple[tuple[str, Any], ...] = ()
    observed: bool = False

    def spec(self, seed: int) -> WorkloadSpec:
        return balanced(seed=seed, **dict(self.overrides))

    def config(self, duration: float | None = None) -> SimConfig:
        return SimConfig(
            duration=self.duration if duration is None else duration,
            n_clients=self.n_clients,
            gc_period=self.gc_period,
            # Clients retry an aborted transaction until it commits, so no
            # client request fails.  Under TO a transaction on hot keys can
            # lose more than the runner's default of 10 times; once the
            # other clients stop at ``duration`` it commits unopposed.
            max_restarts=1000,
            # 1SR is certified by the streaming witness instead: the offline
            # checker takes minutes on a long history.
            check_serializability=False,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("single-2pl", "vc-2pl", 6000.0, 8, 0.0),
        Workload(
            "wide-to", "vc-to", 200.0, 256, 50.0,
            overrides=(("n_objects", 5000), ("zipf_theta", 0.6)),
        ),
        Workload("dist-observed", "dvc-2pl", 3500.0, 8, 0.0, observed=True),
    )
}


@dataclass
class Subject:
    """Everything one repetition runs: the simulator, the scheduler or
    topology, and the observability pipeline (``None`` = ``NULL_TRACER``)."""

    sim: Simulator
    scheduler: Any
    pipeline: ObsPipeline | None

    @property
    def tracer(self):
        return self.pipeline.tracer if self.pipeline is not None else None

    @property
    def witness(self) -> WitnessEngine | None:
        return self.pipeline.witness if self.pipeline is not None else None


def build(workload: Workload, *, witness: bool = False) -> Subject:
    """Construct a fresh subject for one repetition.

    ``witness`` attaches a sealed ``WitnessEngine`` (alone) to a workload
    that otherwise runs under ``NULL_TRACER``; ``dist-observed`` always has
    its full stack.
    """
    sim = Simulator()
    if workload.protocol == "dvc-2pl":
        scheduler = DistributedVCDatabase(
            n_sites=3, courier=Courier(sim=sim, latency=1.0)
        )
    else:
        scheduler = make_scheduler(workload.protocol)
    pipeline = None
    if workload.observed:
        pipeline = ObsPipeline(
            sim=sim,
            ring=RING_CAPACITY,
            witness=WitnessEngine(seal=True),
            engine=SLOEngine(
                bench_objectives(ro_never_blocks=True),
                window=workload.duration / 16.0,
            ),
        )
    elif witness:
        pipeline = ObsPipeline(sim=sim, witness=WitnessEngine(seal=True))
    return Subject(sim, scheduler, pipeline)


def parts_of(scheduler: Any) -> list[Any]:
    """Every site of a distributed database, or the single-node scheduler."""
    sites = getattr(scheduler, "sites", None)
    return [sites[sid] for sid in sorted(sites)] if isinstance(sites, dict) else [scheduler]


def vc_counters(scheduler: Any) -> list[tuple[str, int, int]]:
    """``(name, vtnc, tnc)`` for every version-control module of a subject
    (a site's VC calls its tnc ``next_local_number``)."""
    counters = []
    for index, part in enumerate(parts_of(scheduler)):
        vc = part.vc
        tnc = vc.next_local_number if hasattr(vc, "next_local_number") else vc.tnc
        counters.append((f"vc{index}", vc.vtnc, tnc))
    return counters


def check_run(metrics: Any, subject: Subject) -> list[str]:
    """The paper's invariants and the observability verdicts for one run.

    Returns the failed checks (empty = the run is correct).
    """
    failures: list[str] = []
    counters = metrics.counters
    if metrics.commits == 0:
        failures.append("no transaction committed")
    # Read-only transactions never abort, block or touch CC.
    if metrics.aborts_ro:
        failures.append(f"aborts_ro={metrics.aborts_ro}")
    for name in ("block.ro", "cc.ro"):
        if counters.get(name, 0):
            failures.append(f"{name}={counters[name]}")
    for name, vtnc, tnc in vc_counters(subject.scheduler):
        if not vtnc < tnc:
            failures.append(f"{name}: vtnc={vtnc} >= tnc={tnc}")
    pipeline = subject.pipeline
    if pipeline is not None:
        if pipeline.ring is not None and pipeline.ring.dropped:
            failures.append(f"ring dropped {pipeline.ring.dropped} events")
        report = pipeline.witness.report()
        if not (report["ok"] and report["serializable"]):
            failures.append(
                f"witness ok={report['ok']} serializable={report['serializable']}"
            )
        if pipeline.engine is not None and not pipeline.engine.report()["ok"]:
            failures.append("SLO verdict not ok")
    return failures
