"""Fault tolerance (paper §V-D): AM fail-over and a lossy control plane.

Part 1 kills the networked application master in the middle of a
scale-out and promotes a successor replayed from its write-ahead
journal.  The fenced predecessor answers every request with the
retryable ``am_superseded`` error, and the successor finishes the
adjustment the predecessor accepted.

Part 2 pushes worker reports through a link whose fault plan drops and
duplicates messages; unique message IDs + timeout-resend + receiver dedup
deliver each report exactly once.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.coordination import FaultPlan, MessageType
from repro.net import (
    ChunkedUploader,
    JobSpec,
    NetworkedApplicationMaster,
    RetryableError,
    ServerCore,
    memory_link,
    promote,
)


def am_failover():
    print("=== Part 1: AM crash and takeover mid scale-out ===")
    spec = JobSpec(iterations=8, coordination_interval=4,
                   iteration_sleep=0.0, ring_enabled=False)
    old = NetworkedApplicationMaster(spec, ["w0", "w1"])
    links = {w: memory_link(old.core, w) for w in ("w0", "w1", "w2", "w3")}
    driver = memory_link(old.core, "driver")
    for worker in ("w0", "w1"):
        assert links[worker].request(MessageType.JOIN, {})["status"] == "start"
    assert driver.request(
        MessageType.ADJUSTMENT_REQUEST,
        {"kind": "scale_out", "add": ["w2", "w3"]},
    )["accepted"]
    # w2's first JOIN poll is its report; w3 is still starting.
    assert links["w2"].request(MessageType.JOIN, {})["status"] == "pending"
    status = driver.request(MessageType.STATUS)
    print(f"AM epoch {status['epoch']} before the crash: adjustment "
          f"pending={status['adjustment_pending']}, group={status['group']}")

    print("... the AM dies; a standby replays its journal and takes over ...")
    successor = promote(old, old.journal)
    for link in list(links.values()) + [driver]:
        link.transport.redirect(successor.core)
    stale = memory_link(old.core, "w0")
    try:
        stale.request(MessageType.STATUS)
    except RetryableError as exc:
        assert exc.reason == "am_superseded"
        print(f"predecessor answers: {exc.reason} ({exc})")
    else:
        raise AssertionError("the fenced predecessor answered")

    # Reports are not journaled: both joiners report to the successor.
    for worker in ("w2", "w3"):
        links[worker].request(MessageType.JOIN, {})
    for worker in ("w0", "w1"):
        directive = links[worker].request(
            MessageType.COORDINATE, {"iteration": 4, "ring_epoch": -1},
        )
        assert directive["kind"] == "adjust"
        if directive["upload"]:
            state = {"params": {"w": np.arange(64.0)}, "optimizer": {},
                     "loader": {}}
            ChunkedUploader(links[worker], chunk_bytes=128).upload(state)
    status = driver.request(MessageType.STATUS)
    assert status["epoch"] == 2 and status["adjustments_committed"] == 1
    assert status["group"] == ["w0", "w1", "w2", "w3"]
    print(f"AM epoch {status['epoch']} committed the scale-out; group is "
          f"now {status['group']}")
    for link in list(links.values()) + [driver, stale]:
        link.close()
    successor.close()


def lossy_control_plane():
    print("\n=== Part 2: exactly-once reports over a lossy link ===")
    received = []
    am = ServerCore(
        handler=lambda m: received.append(m.payload["worker"]) or {"ok": True}
    )
    link = memory_link(
        am, "reporter", ack_timeout=0.01, max_attempts=6,
        fault_plan=FaultPlan(drop_every=3, duplicate_every=4),
    )
    for i in range(20):
        reply = link.request(MessageType.JOIN, {"worker": f"w{i}"})
        assert reply == {"ok": True}
    faults = link.transport._faults
    print(f"sends attempted: {faults.arrived} "
          f"(dropped {faults.dropped}, duplicated {faults.duplicated}, "
          f"resent {link.resends})")
    print(f"reports handled exactly once: {len(received)}/20, "
          f"duplicates discarded: {am.duplicates}")
    assert received == [f"w{i}" for i in range(20)]
    assert am.duplicates == faults.duplicated


if __name__ == "__main__":
    am_failover()
    lossy_control_plane()
