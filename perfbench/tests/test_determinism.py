"""One hash seed gives the same model outcome and exact counts twice."""

import json
import os
import subprocess
import sys

import pytest

from run import hash_seed

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pass(workload, mode, seed_value, duration):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", "11", "--mode", mode, "--duration", str(duration)],
        env=dict(os.environ, PYTHONHASHSEED=str(seed_value)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    outcome = result["outcome"]
    counts = {
        name: entry["calls"] for name, entry in result.get("spans", {}).items()
    }
    return outcome, counts, result.get("calls")


@pytest.mark.parametrize(
    "workload, duration", [("single-2pl", 150), ("wide-to", 20), ("dist-observed", 150)]
)
def test_same_hash_seed_replays_exactly(workload, duration):
    seed_value = hash_seed(workload, 11)
    for mode in ("spans", "count"):
        first = _pass(workload, mode, seed_value, duration)
        assert first == _pass(workload, mode, seed_value, duration)
        outcome = first[0]
        assert outcome["failures"] == [] and outcome["commits"] > 0


def test_hash_seed_is_derived_from_workload_and_seed():
    assert hash_seed("single-2pl", 1) == hash_seed("single-2pl", 1)
    assert hash_seed("single-2pl", 1) != hash_seed("single-2pl", 2)
    assert 1 <= hash_seed("wide-to", 0) < 2**32
