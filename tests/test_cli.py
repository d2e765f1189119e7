"""Tests for the ``python -m repro`` command-line interface."""

import shlex
from dataclasses import dataclass, field

import pytest

from repro.__main__ import main
from repro.faults.campaign import CampaignReport
from repro.faults.drill import CAMPAIGNS, DrillReport
from repro.faults.drill import main as drill_main


class TestCLI:
    def test_help(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Commands" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vc-2pl" in out
        assert "mvto-reed" in out

    def test_demo_default(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "history 1SR: True" in out
        assert "read-only CC ops: 0" in out

    @pytest.mark.parametrize("protocol", ["vc-to", "vc-occ", "mvto-reed"])
    def test_demo_other_protocols(self, protocol, capsys):
        assert main(["demo", protocol]) == 0
        assert "history 1SR: True" in capsys.readouterr().out

    def test_selfcheck(self, capsys):
        assert main(["selfcheck", "vc-to"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_report_single_experiment(self, capsys):
        assert main(["report", "EXP-J"]) == 0
        out = capsys.readouterr().out
        assert "EXP-J" in out
        assert "dvc-2pl" in out

    def test_report_unknown_id(self, capsys):
        assert main(["report", "EXP-Z"]) == 2

    def test_drill(self, capsys):
        args = ["drill", "--seeds", "1", "--duration", "100", "--protocol", "dvc"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_drill_with_slo_watchdogs(self, capsys):
        args = [
            "drill", "--seeds", "1", "--duration", "100",
            "--protocol", "dvc", "--slo",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "slo=ok" in out
        assert "0 failed" in out

    def test_drill_memory_campaign(self, capsys):
        args = [
            "drill", "--campaign", "memory",
            "--seeds", "1", "--duration", "200",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "memory campaign" in out
        assert "slo=ok" in out
        assert "0 failed" in out

    def test_watch_replays_a_drill_trace(self, tmp_path, capsys):
        trace = tmp_path / "drill.jsonl"
        args = [
            "drill", "--seeds", "1", "--duration", "100",
            "--protocol", "dvc", "--trace", str(trace),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["watch", str(trace), "--profile", "faults"]) == 0
        assert "slo verdict: ok" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        out = capsys.readouterr().out
        assert "drill" in out
        assert "watch" in out


def _failing_entry(calls):
    """A campaign entry that records its kwargs and fails every seed."""

    @dataclass(kw_only=True)
    class Failed(CampaignReport):
        commits: int = 0
        faults: dict = field(default_factory=dict)

        def summary(self):
            return "fake"

    def entry(**kwargs):
        calls.append(kwargs)
        return Failed(
            seed=kwargs["seed"], violations=["boom"], wedged=["writer-0"]
        )

    return entry


def _patch_entry(monkeypatch, campaign, calls):
    module, _, name = CAMPAIGNS[campaign].entry.partition(":")
    monkeypatch.setattr(f"{module}.{name}", _failing_entry(calls))


class TestDrillCampaigns:
    @pytest.mark.parametrize(
        "campaign, duration",
        [
            ("faults", "80"),
            ("overload", "100"),
            ("replication", "100"),
            ("memory", "150"),
            ("availability", "60"),
            ("shard", "60"),
        ],
    )
    def test_every_campaign_passes_through_the_cli(
        self, campaign, duration, capsys
    ):
        args = [
            "drill", "--campaign", campaign, "--seeds", "1",
            "--duration", duration,
        ]
        assert main(args) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_failed_seed_prints_violations_and_replay(self, monkeypatch, capsys):
        calls = []
        _patch_entry(monkeypatch, "shard", calls)
        args = [
            "drill", "--campaign", "shard", "--seeds", "2", "--seed-base", "7",
            "--duration", "120", "--sites", "4",
        ]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert "2 campaigns, 2 failed" in out
        assert "FAILED seed=8:" in err
        assert "  violation: boom" in err
        assert "  wedged process: writer-0" in err
        assert (
            "  replay: python -m repro drill --campaign shard --seeds 1 "
            "--seed-base 8 --duration 120.0 --sites 4"
        ) in err

    def test_failed_drill_names_its_protocol(self, monkeypatch, capsys):
        def entry(**kwargs):
            return DrillReport(
                protocol=kwargs["protocol"], seed=kwargs["seed"],
                duration=kwargs["duration"], violations=["boom"], wedged=[],
            )

        monkeypatch.setattr("repro.faults.drill.run_drill", entry)
        argv = ["--protocol", "both", "--seeds", "1", "--seed-base", "2"]
        assert drill_main(argv) == 1
        err = capsys.readouterr().err
        assert "FAILED dvc seed=2:" in err
        assert "FAILED dmv2pl seed=2:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--protocol", "both", "--sites", "4", "--crash-mean", "0",
             "--drop", "0.2", "--slo"],
            ["--campaign", "overload", "--policy", "lifo-shed"],
            ["--campaign", "replication", "--replicas", "5", "--mode",
             "quorum", "--no-promote", "--delay-spike", "0.01"],
            ["--campaign", "memory"],
            ["--campaign", "availability", "--replicas", "5"],
            ["--campaign", "shard", "--sites", "2"],
        ],
        ids=lambda argv: argv[1] if argv[0] == "--campaign" else "faults",
    )
    def test_replay_line_reproduces_the_run(self, argv, monkeypatch, capsys):
        campaign = argv[1] if argv[0] == "--campaign" else "faults"
        calls = []
        _patch_entry(monkeypatch, campaign, calls)
        argv = [*argv, "--seeds", "2", "--seed-base", "3", "--duration", "77"]
        assert drill_main(argv) == 1
        replays = [
            line.split("replay: ", 1)[1]
            for line in capsys.readouterr().err.splitlines()
            if "replay: " in line
        ]
        original = list(calls)
        assert len(replays) == len(original) >= 2
        for line, kwargs in zip(replays, original):
            calls.clear()
            words = shlex.split(line)
            assert words[:4] == ["python", "-m", "repro", "drill"]
            assert drill_main(words[4:]) == 1
            assert calls == [kwargs]

    def test_explicit_fault_rate_reaches_the_replication_campaign(
        self, monkeypatch, capsys
    ):
        calls = []
        _patch_entry(monkeypatch, "replication", calls)
        argv = ["--campaign", "replication", "--seeds", "1", "--drop", "0.08"]
        drill_main(argv)
        capsys.readouterr()
        spec = calls[0]["spec"]
        assert (spec.drop, spec.duplicate, spec.delay_spike) == (0.08, 0.08, 0.08)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--campaign", "availability", "--slo", "--witness"],
            ["--campaign", "memory", "--policy", "fifo"],
            ["--campaign", "shard", "--mode", "async"],
            ["--campaign", "overload", "--replicas", "3"],
            ["--campaign", "availability", "--no-promote"],
            ["--campaign", "replication", "--trace", "x.jsonl"],
            ["--replicas", "3"],
        ],
    )
    def test_flags_of_another_campaign_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            drill_main(argv)
        assert exc.value.code == 2
        assert "does not apply to --campaign" in capsys.readouterr().err
