"""Double-run byte-determinism verification, shared by every campaign.

Every seeded drill campaign makes the same promise: run the identical
phase twice from the same seed and *everything* observable matches — the
phase's own fingerprint (counters, faults, outcomes, rounded metrics), the
streaming SLO engine's full report, and the witness certifier's report.
That is what makes a failure replayable from its seed alone, and it is a
real check on the stack (a stray ``random.random()``, dict-order
dependence, or wall-clock leak breaks it instantly).

Every campaign calls :func:`verify_double_run` with a
``run(engine=…, witness=…)`` callable bound to its seed and knobs; the helper
builds the live observer pair, runs once, and — when verification is on —
builds a *fresh* pair, reruns, and compares.  The campaign then hands the
outcome to :func:`repro.faults.campaign.apply_verdicts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class DoubleRun:
    """Outcome of a (possibly verified) campaign phase run."""

    #: The live run's phase result, exactly as ``run`` returned it.
    result: Any
    #: The live run's SLO engine (None when ``slo`` was off).
    engine: Any | None
    #: The live run's witness certifier (None when ``witness`` was off).
    certifier: Any | None
    #: True when no replay was requested, or the replay matched everywhere.
    deterministic: bool


def verify_double_run(
    run: Callable[..., Any],
    *,
    slo: bool = False,
    witness: bool = False,
    make_engine: Callable[[], Any] | None = None,
    verify: bool = True,
    extra_check: Callable[[], bool] | None = None,
) -> DoubleRun:
    """Run a campaign phase, optionally replay it, and compare everything.

    ``run(engine=…, witness=…)`` executes one phase under the given
    observers and returns its result object; ``make_engine`` builds a fresh
    SLO engine per run (required when ``slo`` is set — engines accumulate
    state and must never be shared between the live run and the replay).
    ``extra_check`` is a campaign-specific continuation evaluated only if
    everything else matched — e.g. the availability campaign's crash-point
    resweep.

    Comparison is three-deep, mirroring what the drill later prints:
    phase fingerprints, then full SLO reports, then witness reports.
    """
    from repro.obs.witness import WitnessEngine

    if slo and make_engine is None:
        raise ValueError("slo=True requires a make_engine factory")

    engine = make_engine() if slo else None
    certifier = WitnessEngine(seal=True) if witness else None
    result = run(engine=engine, witness=certifier)
    deterministic = True
    if verify:
        replay_engine = make_engine() if slo else None
        replay_certifier = WitnessEngine(seal=True) if witness else None
        replay = run(engine=replay_engine, witness=replay_certifier)
        deterministic = replay.fingerprint() == result.fingerprint()
        if deterministic and engine is not None:
            deterministic = replay_engine.report() == engine.report()
        if deterministic and certifier is not None:
            deterministic = replay_certifier.report() == certifier.report()
        if deterministic and extra_check is not None:
            deterministic = extra_check()
    return DoubleRun(
        result=result,
        engine=engine,
        certifier=certifier,
        deterministic=deterministic,
    )
