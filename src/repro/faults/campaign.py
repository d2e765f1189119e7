"""The one harness every seeded campaign plugs into.

A campaign (``faults``, ``overload``, ``memory``, ``replication``,
``availability``, ``shard``) owns its scenario: the simulated phase, that
phase's ``fingerprint()``, and the checks only it can make.  The rest is
here, once: the report base, the SLO engine factory, the verdict step, and
the ``python -m repro drill`` loop.  The double run is
:func:`repro.faults.determinism.verify_double_run`.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

#: Tumbling windows per run for a campaign's online SLO engine.
SLO_WINDOWS = 16

#: Flags every campaign reads.
COMMON_FLAGS = ("campaign", "seeds", "seed_base", "duration", "quiet")


def fields_of(obj: Any, names: str) -> dict[str, Any]:
    """``obj``'s attributes ``names`` (space-separated), in that order;
    lists, tuples and dicts come back as fresh lists and dicts."""
    out = {}
    for name in names.split():
        value = getattr(obj, name)
        if isinstance(value, (list, tuple)):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        out[name] = value
    return out


@dataclass(kw_only=True)
class CampaignReport:
    """Outcome of one seeded run.  Subclasses add their own fields and
    their part of the per-seed line (:meth:`summary`)."""

    seed: int
    violations: list[str] = field(default_factory=list)
    #: Processes still blocked once the run drained (None: not collected).
    wedged: list[str] | None = None
    #: Whether the seeded replay matched (None: no replay).
    deterministic: bool | None = None
    #: ``SLOEngine.report()`` (None: no SLO engine rode the run).
    slo: dict[str, Any] | None = None
    #: ``WitnessEngine.report()`` (None: no witness rode the run).
    witness: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.wedged

    def details(self) -> dict[str, Any]:
        """The ``as_dict`` entries ahead of the verdict, ``seed`` among them."""
        return {"seed": self.seed}

    def summary(self) -> str:
        raise NotImplementedError

    def tags(self, *, slo: bool = True) -> str:
        """The `` slo=… witness=…`` tail of a per-seed line."""
        tags = ""
        if slo and self.slo is not None:
            tags += f" slo={'ok' if self.slo['ok'] else 'BREACH'}"
        if self.witness is not None:
            tags += f" witness={'1SR' if self.witness['ok'] else 'FAIL'}"
        return tags

    def label(self) -> str:
        """Names this run in a FAILED header."""
        return f"seed={self.seed}"

    def line(self) -> str:
        return f"seed={self.seed:<4d} {'ok' if self.ok else 'FAIL':4s} {self.summary()}"

    def as_dict(self) -> dict[str, Any]:
        out = self.details()
        if self.deterministic is not None:
            out["deterministic"] = self.deterministic
        out["violations"] = list(self.violations)
        if self.wedged is not None:
            out["wedged"] = list(self.wedged)
        out.update(slo=self.slo, witness=self.witness, ok=self.ok)
        return out


def slo_engine(objectives: list, duration: float, *, recorder: int = 16_384):
    """An SLO engine with :data:`SLO_WINDOWS` windows per ``duration`` and a
    flight recorder holding ``recorder`` events."""
    from repro.obs.slo import FlightRecorder, SLOEngine

    return SLOEngine(
        objectives,
        window=duration / SLO_WINDOWS,
        recorder=FlightRecorder(capacity=recorder),
    )


def apply_verdicts(
    report: CampaignReport,
    engine: Any | None,
    certifier: Any | None,
    deterministic: bool | None = None,
) -> None:
    """Record the replay, SLO and witness verdicts on ``report``; a failed
    replay, an unexpected breach or a witness gate violation each become
    a violation."""
    if deterministic is not None:
        report.deterministic = deterministic
        if not deterministic:
            report.violations.append("campaign not deterministic under fixed seed")
    if engine is not None:
        report.slo = engine.report()
        report.violations.extend(
            f"slo breach: {b.objective} value={b.value:g} vs {b.threshold} "
            f"at window [{b.window_start:g}, {b.window_end:g})"
            for b in engine.unexpected_breaches
        )
    if certifier is not None:
        report.witness = certifier.report()
        report.violations.extend(certifier.gate_violations())


@dataclass(frozen=True)
class Campaign:
    """One ``drill --campaign`` entry, run by :func:`run_cli`."""

    #: ``"module:function"``, called as ``function(seed=…, **kwargs(args))``
    #: and imported only when run (the campaign modules import this one).
    entry: str
    kwargs: Callable[[argparse.Namespace], dict[str, Any]]
    #: The first output line.
    header: Callable[[argparse.Namespace], str]
    #: Flags read beyond :data:`COMMON_FLAGS`, with this campaign's default
    #: for each.  Any other flag is an error; the replay line repeats these.
    flags: dict[str, Any] = field(default_factory=dict)
    #: Whether ``--trace PATH`` applies (passed on as ``tracer=``).
    traced: bool = False
    #: The totals line ahead of ``, K failed``.
    totals: Callable[[list], str] = lambda reports: f"{len(reports)} campaigns"
    #: The flag sets to sweep the seed range under, in order.
    sweeps: Callable[[argparse.Namespace], list] = lambda args: [args]


def replay_line(campaign: Campaign, args: argparse.Namespace, seed: int) -> str:
    """The command that reruns exactly this seed of this sweep."""
    words = [
        f"python -m repro drill --campaign {args.campaign} --seeds 1 "
        f"--seed-base {seed} --duration {args.duration}"
    ]
    for dest in campaign.flags:
        value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
        if value is not False:
            words.append(flag if value is True else f"{flag} {value}")
    return " ".join(words)


def parse_flags(
    campaigns: dict[str, Campaign],
    flags: dict[str, dict[str, Any]],
    argv: list[str] | None = None,
) -> tuple[Campaign, argparse.Namespace]:
    """Parse ``python -m repro drill`` arguments for the chosen campaign.

    ``flags`` maps each campaign-specific option to its argparse options.
    Those parse to None when absent: a given flag the chosen campaign does
    not read is an argparse error (exit 2), an absent one takes the
    campaign's default.
    """
    parser = argparse.ArgumentParser(
        prog="repro drill",
        description="Run seeded campaigns and check the paper's invariants.",
    )
    parser.add_argument(
        "--campaign",
        choices=tuple(campaigns),
        default=next(iter(campaigns)),
        help="which campaign; each is described in its module: "
        + ", ".join(
            f"{name} ({campaign.entry.partition(':')[0]})"
            for name, campaign in campaigns.items()
        ),
    )
    parser.add_argument("--seeds", type=int, default=20, help="seeds per sweep")
    parser.add_argument("--seed-base", type=int, default=0, help="first seed")
    parser.add_argument(
        "--duration", type=float, default=300.0, help="virtual time per run"
    )
    for flag, options in flags.items():
        dest = flag[2:].replace("-", "_")
        readers = ", ".join(
            f"{name}={campaign.flags[dest]}"
            for name, campaign in campaigns.items()
            if dest in campaign.flags
        )
        text = f"{options['help']} ({readers})"
        parser.add_argument(flag, **{**options, "default": None, "help": text})
    parser.add_argument("--trace", metavar="PATH", help="write every event as JSONL")
    parser.add_argument(
        "--quiet", action="store_true", help="only print the final verdict"
    )
    args = parser.parse_args(argv)
    campaign = campaigns[args.campaign]
    accepted = {*COMMON_FLAGS, *campaign.flags}
    if campaign.traced:
        accepted.add("trace")
    for dest, value in vars(args).items():
        if value is not None and dest not in accepted:
            parser.error(
                f"--{dest.replace('_', '-')} does not apply to "
                f"--campaign {args.campaign}"
            )
    for dest, default in campaign.flags.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    return campaign, args


def run_cli(
    campaigns: dict[str, Campaign],
    flags: dict[str, dict[str, Any]],
    argv: list[str] | None = None,
) -> int:
    """Sweep one campaign over the seed range; 1 if any seed failed."""
    campaign, args = parse_flags(campaigns, flags, argv)
    module, _, name = campaign.entry.partition(":")
    entry = getattr(importlib.import_module(module), name)
    extra: dict[str, Any] = {}
    if args.trace:
        from repro.obs.exporters import JsonlExporter
        from repro.obs.tracer import Tracer

        extra["tracer"] = Tracer(exporters=[JsonlExporter(args.trace)])

    print(campaign.header(args))
    runs = []
    for sweep in campaign.sweeps(args):
        kwargs = campaign.kwargs(sweep)
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            runs.append((entry(seed=seed, **kwargs, **extra), sweep))
            if not args.quiet:
                print(f"  {runs[-1][0].line()}")
    if extra:
        extra["tracer"].close()

    failed = [(report, sweep) for report, sweep in runs if not report.ok]
    print(f"{campaign.totals([report for report, _ in runs])}, {len(failed)} failed")
    for report, sweep in failed:
        print(f"FAILED {report.label()}:", file=sys.stderr)
        for violation in report.violations:
            print(f"  violation: {violation}", file=sys.stderr)
        for process in report.wedged or ():
            print(f"  wedged process: {process}", file=sys.stderr)
        print(f"  replay: {replay_line(campaign, sweep, report.seed)}", file=sys.stderr)
    return 1 if failed else 0
