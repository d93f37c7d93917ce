"""Fault tolerance (paper §V-D): AM fail-over and a lossy control plane.

Part 1 crashes the application master mid-adjustment and recovers it from
the persisted state machine (the etcd stand-in), then finishes the
adjustment with the recovered AM.

Part 2 pushes worker reports through a link whose fault plan drops and
duplicates messages; unique message IDs + timeout-resend + receiver dedup
deliver each report exactly once.

Run:  python examples/fault_tolerance.py
"""

from repro.coordination import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
    FaultPlan,
    KeyValueStore,
    MessageType,
)
from repro.net import ServerCore, memory_link


def am_failover():
    print("=== Part 1: AM crash and recovery mid-adjustment ===")
    store = KeyValueStore()
    am = ApplicationMaster("job0", ["w0", "w1", "w2", "w3"], store=store)
    am.request_adjustment(
        AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4", "w5"))
    )
    am.worker_report("w4")
    print(f"AM state before crash: {am.state.value}, reported={sorted(am.reported)}")

    print("... AM process dies; a replacement recovers from the store ...")
    recovered = ApplicationMaster.recover("job0", store)
    print(f"recovered state: {recovered.state.value}, "
          f"reported={sorted(recovered.reported)}")

    recovered.worker_report("w5")  # the missing report arrives
    directive = recovered.coordinate("w0", recovered.commit_iteration)
    assert directive.kind is DirectiveKind.ADJUST
    recovered.finish_adjustment()
    print(f"adjustment committed by the recovered AM; group is now "
          f"{recovered.group}")


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
        reply = link.request(MessageType.WORKER_REPORT, {"worker": f"w{i}"})
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
