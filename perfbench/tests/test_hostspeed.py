"""The host-speed correction: its arithmetic, and that it never steers a run."""

import dataclasses
import gc

import pytest

from hostspeed import REFERENCE_S, TICKS, corrected, kernel, time_kernel
from report import REPLAY_FIELDS
from workloads import WORKLOADS
from worker import run_pass


def test_correction_scales_by_the_kernel_speed():
    assert corrected(2.0, [REFERENCE_S] * 3) == pytest.approx(2.0)
    # The host ran at half speed: the work would have taken half as long.
    assert corrected(2.0, [2 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(1.0)
    assert corrected(2.0, [REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(1.0)


def test_kernel_is_fixed_work_and_leaves_the_collector_as_found():
    assert kernel() == kernel()
    assert gc.isenabled()
    assert len(time_kernel(3)) == 3 and gc.isenabled()
    gc.disable()
    try:
        time_kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("name, duration", [("wide-to", 20.0), ("dist-observed", 200.0)])
def test_timed_pass_replays_the_plain_pass(name, duration):
    workload = dataclasses.replace(WORKLOADS[name], duration=duration)
    timed = run_pass(workload, 3, "timed")
    plain = run_pass(workload, 3, "plain")
    for field in REPLAY_FIELDS:
        expected = plain["outcome"][field] + (TICKS if field == "events" else 0)
        assert timed["outcome"][field] == expected, field
    for field in ("duration", "p50_rw", "p99_rw", "p99_ro", "failures"):
        assert timed["outcome"][field] == plain["outcome"][field], field
    assert 0 < timed["wall_s"] and 0 < timed["reference_s"]
