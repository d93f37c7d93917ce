"""Goodput-SLO chaos soak over both transports — the acceptance drill.

``examples/scenarios/soak.json`` — worker w2 silently dies at iteration
9 (lease eviction), the AM is killed at iteration 14 (a journal-replayed
successor takes over) — runs once per transport through the scenario
runner, and every assertion reads the cached runs: the SLO floors hold,
the survivors finish bit-identical, and the recovery *counts* match
across memory and TCP even though the timings differ.

This is also the networked-path coverage of the failure histograms:
failure.detection_latency_seconds and failure.mttr_seconds asserted
here are fed by the AM's lease supervisor straight into its metric
registry, on the in-memory transport and on loopback TCP alike.
"""

import os

import pytest

from repro.net import Scenario
from repro.net.scenario import run

TRANSPORTS = ("memory", "tcp")

SOAK = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios",
    "soak.json",
)

#: Generous ceiling: TCP recovery pays reconnect backoff on dead peer
#: links, which lands well past the memory transport's MTTR.
MTTR_CEILING = 30.0


@pytest.fixture(scope="module")
def soaks(tmp_path_factory):
    """Run the scenario once per transport; cache the runs."""
    scenario = Scenario.load(SOAK)
    assert scenario.transports == TRANSPORTS
    return run(scenario, str(tmp_path_factory.mktemp("soak")))


@pytest.fixture(params=TRANSPORTS)
def soaked(request, soaks):
    outcome = soaks[request.param]
    return outcome.job, outcome.report


class TestChaosSoak:
    def test_slo_holds(self, soaked):
        job, report = soaked
        report.assert_slo(goodput_floor=0.3, mttr_ceiling=MTTR_CEILING)
        assert 0.0 < report.goodput <= 1.0
        assert report.wall_seconds > 0

    def test_workers_finished_or_died_on_schedule(self, soaked):
        job, report = soaked
        assert job.errors == {}
        assert job.killed == ["w2"]
        assert sorted(job.results) == ["w0", "w1"]

    def test_survivors_bit_identical(self, soaked):
        job, report = soaked
        digests = job.master.status()["digests"]
        assert sorted(digests) == ["w0", "w1"]
        assert len(set(digests.values())) == 1, digests

    def test_failover_and_eviction_counts(self, soaked):
        job, report = soaked
        assert report.counts["failovers"] == 1
        assert report.counts["condemned"] == 1
        assert report.counts["evictions_minted"] == 1
        status = job.master.status()
        assert status["epoch"] == 2
        # The eviction committed before the AM kill, so the successor
        # replays w2 as departed, not still-condemned.
        assert "w2" in status["departed"]
        # The initial scale hosts no adjustment; the only commit is the
        # lease eviction's shrink.
        assert status["adjustments_committed"] == 1
        assert status["group"] == ["w0", "w1"]

    def test_telemetry_histograms_fed_from_networked_path(self, soaked):
        """The detection and MTTR histograms are driven by the
        networked AM (lease expiry -> condemn -> commit), not by the
        single-process runtime."""
        job, report = soaked
        snap = job.master.metrics.snapshot()
        detection = snap["failure.detection_latency_seconds"]
        mttr = snap["failure.mttr_seconds"]
        assert detection["count"] >= 1
        assert mttr["count"] >= 1
        assert report.mean_detection is not None
        assert report.mean_mttr is not None
        assert report.mean_mttr <= MTTR_CEILING
        assert report.recoveries >= 1

    def test_a_star_fallback_keeps_the_generation_on_the_star(self, soaked):
        """w2 dies at iteration 9: the survivors' ring times out once,
        falls back to the star, and stays there until the eviction's
        commit installs the next ring — so recovery pays one
        ``ring_step_timeout`` (2 s), not one per iteration until the
        commit."""
        job, report = soaked
        for worker in ("w0", "w1"):
            assert job.results[worker]["ring_fallbacks"] == 1, job.results
        assert report.mean_mttr < 2.5

    def test_goodput_gauges_exported(self, soaked):
        job, report = soaked
        snap = job.master.metrics.snapshot()
        assert snap["goodput.ratio"] == pytest.approx(report.goodput)
        assert snap["goodput.wall_seconds"] == pytest.approx(
            report.wall_seconds
        )

    def test_recovery_counts_match_across_transports(self, soaks):
        """The schedule is keyed by iteration, so what happened — as
        opposed to how long it took — must replay identically over the
        in-memory transport and loopback TCP."""
        reports = {t: outcome.report for t, outcome in soaks.items()}
        for label in (
            "failovers", "condemned", "evictions_minted", "workers_evicted",
        ):
            values = {t: r.counts[label] for t, r in reports.items()}
            assert len(set(values.values())) == 1, (label, values)

    def test_digests_match_across_transports(self, soaks):
        """Same seed, same schedule, same survivors: the final model is
        bit-identical no matter which wire carried the job."""
        digests = {
            t: set(outcome.job.master.status()["digests"].values())
            for t, outcome in soaks.items()
        }
        assert digests["memory"] == digests["tcp"]
