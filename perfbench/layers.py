"""Which entry points of ``src/repro`` belong to which layer, and how the
traced and counting passes observe them.

The layers are the modules of ``src/repro`` the workloads exercise.  A span
name is ``<layer>.<entry point>``; the scheduler's (or distributed
database's) ``begin/read/write/commit/abort`` are the ``protocols`` layer
whichever class defines them, and the runner's client code runs inside
``Simulator.run`` and so counts as ``sim``.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any

from repro.cc.lock_manager import LockManager
from repro.core.version_control import VersionControl
from repro.distributed.courier import Courier
from repro.distributed.database import Site
from repro.distributed.dvc import DistributedVersionControl
from repro.histories.recorder import HistoryRecorder
from repro.obs.exporters import RingBufferExporter
from repro.obs.metrics import Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.tracer import NullTracer, Tracer
from repro.obs.witness import WitnessEngine
from repro.sim.engine import Simulator
from repro.storage.gc import GarbageCollector
from repro.storage.versioned_object import VersionedObject
from repro.workload.spec import WorkloadGenerator

from report import LAYERS, LOOKUPS, RECORDS, VC_CALLS
from spans import Instrumenter


def layer_of_span(name: str) -> str:
    return name.split(".", 1)[0]


def _pending(future: Any) -> float:
    return 1.0 if future.pending else 0.0


def _length(obj: Any, *_args: Any) -> float:
    return float(len(obj))


def instrument(instrumenter: Instrumenter, scheduler: Any) -> None:
    """Wrap every layer entry point the workloads reach."""
    wrap = instrumenter.wrap
    wrap(Simulator, "run", "sim.run")
    wrap(WorkloadGenerator, "next_txn", "workload.next_txn")
    for method in VC_CALLS:
        pre = _length if method == "vc_register" else None
        wrap(VersionControl, method, f"core.{method}", txn_arg=0, pre=pre)
    subject_cls = type(scheduler)
    wrap(subject_cls, "begin", "protocols.begin")
    for method in ("read", "write", "commit"):
        wrap(subject_cls, method, f"protocols.{method}", txn_arg=0, post=_pending)
    wrap(subject_cls, "abort", "protocols.abort", txn_arg=0)
    wrap(LockManager, "acquire", "cc.acquire", txn_arg=0, post=_pending)
    wrap(LockManager, "release_all", "cc.release_all", txn_arg=0)
    for method in LOOKUPS:  # the two searches also sample the chain length
        pre = _length if method != "latest_committed" else None
        wrap(VersionedObject, method, f"storage.{method}", pre=pre)
    for method in ("install", "commit_pending", "remove"):
        wrap(VersionedObject, method, f"storage.{method}")
    wrap(GarbageCollector, "collect", "storage.gc_collect")
    for method in RECORDS:
        wrap(HistoryRecorder, method, f"histories.{method}", txn_arg=0)
    wrap(Courier, "dispatch", "distributed.dispatch")
    wrap(Site, "receive", "distributed.receive")
    for method in ("vc_start", "hold", "adopt", "observe", "complete", "discard", "try_advance_to"):
        wrap(DistributedVersionControl, method, f"distributed.dvc_{method}")
    # Counters and histograms are always on, tracer or not.
    wrap(MetricsRegistry, "counter", "obs.metrics_counter")
    wrap(Histogram, "record", "obs.metrics_record")
    wrap(Gauge, "set", "obs.metrics_gauge")
    wrap(Tracer, "emit", "obs.emit")
    wrap(NullTracer, "emit", "obs.emit")
    wrap(RingBufferExporter, "export", "obs.ring_export")
    wrap(WitnessEngine, "export", "obs.witness_export")
    wrap(SLOEngine, "export", "obs.slo_export")


def layer_of_module(module: str | None) -> str:
    """Layer of a Python module; ``repro.bench`` (the runner's client code)
    counts as ``sim``, anything outside the layers as ``other``."""
    if module and module.startswith("repro."):
        package = module.split(".", 2)[1]
        if package in LAYERS:
            return package
        if package == "bench":
            return "sim"
    return "other"


class CallCounter:
    """Count Python-level calls by module through a ``sys.setprofile`` hook.

    Every ``call`` event counts, generator resumptions included, so the
    counts are exact for a given input and hash seed.  The hook slows the
    interpreter several-fold, which is why it runs in its own pass.
    """

    def __init__(self) -> None:
        self.by_module: Counter[str | None] = Counter()

    def _hook(self, frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            self.by_module[frame.f_globals.get("__name__")] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> bool:
        sys.setprofile(None)
        return False

    def by_layer(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS + ("other",)}
        for module, count in self.by_module.items():
            out[layer_of_module(module)] += count
        return out
