"""Replay ≡ live for the cluster scheduler (the AM's replay oracle twin)."""

from repro.cluster import ClusterJournalState


def assert_replay_matches(sched) -> None:
    """Folding ``sched``'s journal must give exactly its live state."""
    state = ClusterJournalState.replay(sched.journal.records())
    assert state.queue == sched.queue
    assert list(state.running) == list(sched.running)
    assert {jid: state.jobs[jid].workers for jid in state.running} == {
        jid: live.workers for jid, live in sched.running.items()
    }
    assert {jid: job.preemptions for jid, job in state.jobs.items()} == {
        jid: job.preemptions for jid, job in sched.jobs.items()
    }
    assert state.completed == sched.completed
    assert state.capacity == sched.capacity
    assert state.preemptions == sched.preemptions
