"""Live measurement: the wall-clock cost of an in-process commit.

The Fig. 15 numbers come from calibrated models of the paper's hardware;
this benchmark measures the networked AM's commits on real threads —
request to committed adjustment: the joiners' report polls, the plan
and its scaling decision, the directive acks, the snapshot upload and
fetch.  It cannot reproduce the paper's absolute seconds — the state is
a toy MLP and the transport is memory — but it demonstrates that the
protocol machinery itself adds only milliseconds on top of the data
movement, i.e. the ~1 s adjustments in Fig. 15 are transfer-bound, not
protocol-bound.
"""

import statistics
import time

from conftest import fmt_row

from repro.coordination.messages import MessageType
from repro.core import ElasticJob
from repro.net import JobSpec, LocalJob

ADJUSTMENTS = 6


def run_live_job():
    job = ElasticJob(
        workers=2, total_batch_size=64, seed=61, train_size=1024,
        test_size=256, coordination_interval=1, iterations=600,
        iteration_sleep=0.002,
    )
    with job:
        for step in range(ADJUSTMENTS):
            assert job.wait_until_iteration(job.status()["iteration"] + 3)
            if step % 2 == 0:
                job.scale_out(2)
            else:
                job.scale_in(2)
            assert job.wait_for_adjustments(step + 1)
    assert len(set(job.digests().values())) == 1
    return [adjustment.latency for adjustment in job.history]


def test_live_commit_latency(benchmark, save_result):
    latencies = benchmark.pedantic(run_live_job, rounds=1, iterations=1)

    widths = (10, 12)
    lines = [fmt_row(("Commit", "Latency (ms)"), widths)]
    for index, latency in enumerate(latencies):
        lines.append(fmt_row((index, f"{latency * 1e3:.2f}"), widths))
    lines.append(
        f"mean {statistics.mean(latencies) * 1e3:.2f} ms, "
        f"max {max(latencies) * 1e3:.2f} ms over {len(latencies)} commits"
    )
    save_result("live_commit_latency", lines)

    assert len(latencies) == ADJUSTMENTS
    # Protocol overhead is milliseconds — adjustments are transfer-bound.
    assert max(latencies) < 0.25


def run_networked_job(transport):
    """One scale-out commit on the networked AM over either transport."""
    spec = JobSpec(
        iterations=24, coordination_interval=4, iteration_sleep=0.005,
    )
    job = LocalJob(transport, spec, ["w0", "w1"])
    # Each TCP link dials once, as tcp_link does by default.
    dial = {"connect_attempts": 1} if transport == "tcp" else {}

    def start(worker):
        job.start_worker(
            worker, link_options={"ack_timeout": 0.5, **dial},
            poll_interval=0.01,
        )

    for worker in ("w0", "w1"):
        start(worker)
    driver = job.link("driver", ack_timeout=2.0, **dial)
    while driver.request(MessageType.STATUS)["iteration"] < 4:
        time.sleep(0.01)
    assert driver.request(
        MessageType.ADJUSTMENT_REQUEST,
        {"kind": "scale_out", "add": ["w2", "w3"]},
    )["accepted"]
    for worker in ("w2", "w3"):
        start(worker)
    job.join(60)
    status = driver.request(MessageType.STATUS)
    job.close()
    assert status["complete"] and status["adjustments_committed"] == 1
    assert len(set(status["digests"].values())) == 1
    return status["commit_latencies"]


def test_networked_commit_latency(benchmark, save_result):
    """In-memory vs loopback-TCP commit latency on the networked AM.

    One scale-out (2 -> 4 workers) per transport; the commit latency is
    request -> finished adjustment, including the joiners' report polls
    and the state replication round-trip over the wire.
    """
    memory_latencies = run_networked_job("memory")
    tcp_latencies = benchmark.pedantic(
        run_networked_job, args=("tcp",), rounds=1, iterations=1
    )

    widths = (10, 14, 14)
    lines = [fmt_row(("Commit", "memory (ms)", "tcp (ms)"), widths)]
    for index in range(max(len(memory_latencies), len(tcp_latencies))):
        def cell(values):
            return (
                f"{values[index] * 1e3:.2f}" if index < len(values) else "-"
            )
        lines.append(
            fmt_row((index, cell(memory_latencies), cell(tcp_latencies)),
                    widths)
        )
    lines.append(
        f"memory mean {statistics.mean(memory_latencies) * 1e3:.2f} ms; "
        f"tcp mean {statistics.mean(tcp_latencies) * 1e3:.2f} ms "
        f"(loopback sockets, JSON codec)"
    )
    save_result("networked_commit_latency", lines)

    assert len(memory_latencies) == 1
    assert len(tcp_latencies) == 1
    # Loose bound: one commit (including joiner polling at 10 ms cadence
    # and snapshot replication) stays well under a second over loopback.
    assert max(tcp_latencies) < 5.0
