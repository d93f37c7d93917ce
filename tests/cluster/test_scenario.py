"""The deterministic churn scenario — the cluster plane's acceptance drill.

One scripted run per transport drives admit → grow → spot-shrink →
preempt → complete → re-admit against live in-process jobs, and every
assertion reads the cached runs: the full life cycle happened, the SLO
gates hold, and — the strongest check — each job's final parameter
digest is bit-identical across the in-memory transport and loopback
TCP, because every resize commit is pinned to the same iteration of
the job's logical clock.
"""

import pytest

from repro.cluster import ChurnScenario
from repro.cluster.scenario import GROW_PIN, SHRINK_PIN
from repro.observability import validate_events

from .replay import assert_replay_matches

TRANSPORTS = ("memory", "tcp")

_runs = {}


def run_for(transport):
    if transport not in _runs:
        scenario = ChurnScenario(transport)
        scenario.run()
        _runs[transport] = scenario
    return _runs[transport]


def report_for(transport):
    return run_for(transport).report


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestChurnScenario:
    def test_full_life_cycle(self, transport):
        report = report_for(transport)
        assert report.completion_order == ["jobA", "jobB", "jobC"]
        assert report.preemptions == 1
        # 3 grows + 2 shrinks (the victim is stopped, not shrunk).
        assert report.resizes == 5
        assert set(report.digests) == {"jobA", "jobB", "jobC"}

    def test_slo_gates_hold(self, transport):
        report = report_for(transport)
        report.assert_slo(
            makespan_ceiling=60.0, queueing_delay_ceiling=10.0,
            goodput_floor=0.02,
        )

    def test_trace_is_valid_and_carries_decisions(self, transport):
        report = report_for(transport)
        assert validate_events(report.events) == []
        names = {e.get("name") for e in report.events}
        assert {"cluster.submit", "cluster.admit", "cluster.resize",
                "cluster.preempt", "cluster.capacity",
                "cluster.complete", "cluster.reschedule"} <= names
        assert "worker.iteration" in names

    def test_metrics_account_every_decision(self, transport):
        metrics = report_for(transport).metrics
        assert metrics["cluster.submits"] == 3
        assert metrics["cluster.admits"] == 4  # 3 + jobC's re-admission
        assert metrics["cluster.preempts"] == 1
        assert metrics["cluster.resizes"] == 5
        assert metrics["cluster.completions"] == 3
        assert metrics["cluster.queueing_delay_seconds"]["count"] == 4

    def test_journal_replays_to_the_live_state(self, transport):
        assert_replay_matches(run_for(transport).scheduler)


def test_digests_bit_identical_across_transports():
    memory = report_for("memory")
    tcp = report_for("tcp")
    assert memory.digests == tcp.digests
    assert memory.preemptions == tcp.preemptions
    assert memory.completion_order == tcp.completion_order


def test_pins_are_coordination_boundaries():
    assert GROW_PIN % 4 == 0 and SHRINK_PIN % 4 == 0
    assert GROW_PIN < SHRINK_PIN
