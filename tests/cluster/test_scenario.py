"""The churn scenario file — the cluster plane's acceptance drill.

``examples/scenarios/churn.json`` runs once per transport through the
one scenario runner, driving admit → grow → spot-shrink → preempt →
complete → re-admit against live in-process jobs, and every assertion
reads the cached runs and their artifacts: the full life cycle
happened, the SLO gates hold, and — the strongest check — each job's
final parameter digest is bit-identical across the in-memory transport
and loopback TCP, because every resize commit is pinned to the same
iteration of the job's logical clock.
"""

import json
import os

import pytest

from repro.net.scenario import load, run
from repro.observability import load_trace_events, validate_events

from .replay import assert_replay_matches

CHURN = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                     "scenarios", "churn.json")
TRANSPORTS = ("memory", "tcp")


@pytest.fixture(scope="module")
def churn():
    return load(CHURN)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("churn")


@pytest.fixture(scope="module")
def runs(churn, out):
    """Run the file once over both transports; cache the runs."""
    assert churn.transports == TRANSPORTS
    return run(churn, str(out))


def artifact(out, transport, name):
    path = out / transport / name
    if name == "trace.json":
        return load_trace_events(str(path))
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestChurnScenario:
    def test_full_life_cycle(self, runs, transport):
        outcome = runs[transport]
        assert outcome.status["completion_order"] == ["jobA", "jobB", "jobC"]
        assert outcome.job.preemptions == 1
        assert set(outcome.status["digests"]) == {"jobA", "jobB", "jobC"}
        # The burst was admitted whole at the one-worker minimum before
        # spot capacity arrived.
        kinds = [(r["kind"], r["data"]) for r in outcome.job.journal.records()]
        first_capacity = [k for k, _ in kinds].index("capacity")
        admits = [d for k, d in kinds[:first_capacity] if k == "admit"]
        assert sorted(d["job_id"] for d in admits) == ["jobA", "jobB", "jobC"]
        assert {d["workers"] for d in admits} == {1}

    def test_slo_gates_hold(self, churn, runs, transport):
        status = runs[transport].status
        assert status["makespan"] <= churn.makespan_ceiling
        assert status["max_queueing_delay"] <= churn.queueing_ceiling
        assert runs[transport].report.goodput >= churn.goodput_floor

    def test_trace_is_valid_and_carries_decisions(self, runs, out,
                                                  transport):
        events = artifact(out, transport, "trace.json")
        assert validate_events(events) == []
        names = {e.get("name") for e in events}
        assert {"cluster.submit", "cluster.admit", "cluster.resize",
                "cluster.preempt", "cluster.capacity",
                "cluster.complete", "cluster.reschedule"} <= names
        assert "worker.iteration" in names

    def test_metrics_account_every_decision(self, runs, out, transport):
        metrics = artifact(out, transport, "metrics.json")
        assert metrics["cluster.submits"] == 3
        assert metrics["cluster.admits"] == 4  # 3 + jobC's re-admission
        assert metrics["cluster.preempts"] == 1
        # 3 grows + 2 shrinks (the victim is stopped, not shrunk).
        assert metrics["cluster.resizes"] == 5
        assert metrics["cluster.completions"] == 3
        assert metrics["cluster.queueing_delay_seconds"]["count"] == 4

    def test_journal_replays_to_the_live_state(self, runs, out, transport):
        sched = runs[transport].job
        assert_replay_matches(sched)
        # The journal file under the artifacts holds the same records.
        with open(out / transport / "journal.jsonl") as f:
            assert sum(1 for _ in f) == len(sched.journal.records())


def test_digests_bit_identical_across_transports(runs):
    memory, tcp = runs["memory"], runs["tcp"]
    assert memory.status["digests"] == tcp.status["digests"]
    assert memory.job.preemptions == tcp.job.preemptions
    assert memory.status["completion_order"] == tcp.status["completion_order"]


def test_pins_are_coordination_boundaries(churn):
    pins = [event.pin for event in churn.capacity]
    assert pins == sorted(pins) and len(set(pins)) == len(pins)
    for job in churn.jobs:
        assert all(pin % job.coordination_interval == 0 for pin in pins)
