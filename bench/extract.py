"""From one job's proxy log to its metric samples.

Every timing is read from worker-side stamps in the log; counts come
from public state the record captured after the run.  A job yields one
sample of each end-to-end metric and a bag of per-layer samples that
``run.py`` pools over the run's jobs.
"""

from __future__ import annotations

import collections

from . import stats
from .jobs import BASE_IDS, BASE_WORKERS, INTERVAL, TOTAL_BATCH, WARMUP

MB = 1024.0 * 1024.0

#: AM journal record kinds an adjustment writes.
ADJUST_KINDS = ("request", "plan", "ack", "snapshot", "commit")


def _by_worker(log, kind):
    out = collections.defaultdict(list)
    for entry in log:
        if entry[1] == kind:
            out[entry[0]].append(entry)
    return out


def job_end_to_end(record) -> "dict[str, tuple] | None":
    """``setup_s``, ``train_samples_per_s``, ``iter_ms_p50`` of one job,
    each as ``(value, start, end)``: the sample and the stretch of the
    job it was measured over (what the host factor is taken over).

    None when the job never got through its schedule (it is already
    counted as failed; it contributes no timing sample).
    """
    shape = record.shape
    coords = _by_worker(record.log, "coordinate")
    syncs = _by_worker(record.log, "sync")
    warm = [
        e[2] for w in BASE_IDS for e in coords.get(w, ()) if e[4] == WARMUP
    ]
    last = [
        e[3] for entries in syncs.values() for e in entries
        if e[4] == shape.iterations - 1
    ]
    if len(warm) != BASE_WORKERS or not last:
        return None
    t_warm = max(warm)
    steady = stats.steady_periods(rank0_periods(record), BASE_WORKERS,
                                  BASE_WORKERS)
    if not steady:
        return None
    t_last = max(last)
    return {
        "setup_s": (t_warm - record.t_start, record.t_start, t_warm),
        "train_samples_per_s": (
            shape.timed_iterations * TOTAL_BATCH / (t_last - t_warm),
            t_warm, t_last,
        ),
        "iter_ms_p50": (
            stats.median(steady) / INTERVAL * 1e3, t_warm, t_last,
        ),
    }


def rank0_periods(record) -> "list[dict]":
    """Rank 0's timed coordination periods (warm-up excluded)."""
    coords = [
        (e[4], e[2], e[5]) for e in record.log
        if e[0] == "w0" and e[1] == "coordinate"
    ]
    return [
        p for p in stats.periods(coords, INTERVAL)
        if p["iteration"] >= WARMUP
    ]


def iteration_markers(log) -> "dict[str, dict[int, float]]":
    """Per worker, when each iteration's communication began.

    Compute is done and the gradient exchange starts: the SYNC issue on
    the star, the first ring segment on the ring.
    """
    markers: "dict[str, dict[int, float]]" = collections.defaultdict(dict)
    for who, kind, t0, _t1, iteration, _tag, _n in log:
        if iteration is None or kind not in ("sync", "peer.ring_segment"):
            continue
        seen = markers[who].get(iteration)
        if seen is None or t0 < seen:
            markers[who][iteration] = t0
    return markers


def job_layers(record) -> "dict[str, list[float]]":
    """Per-layer samples of one job (lists; pooled over the run)."""
    log = record.log
    shape = record.shape
    out: "dict[str, list[float]]" = collections.defaultdict(list)
    commits = {
        int(e[5].split(":")[2]) for e in log
        if e[1] == "coordinate" and e[5] and e[5].startswith("adjust:")
    }

    # -- master: the AM as the workers see it
    sync_groups = collections.defaultdict(list)
    for who, kind, t0, t1, iteration, tag, nbytes in log:
        if who == "driver":
            continue
        if kind == "sync" and iteration >= WARMUP:
            out["master.sync_wait_ms"].append((t1 - t0) * 1e3)
            sync_groups[iteration].append(t0)
        elif kind == "coordinate" and iteration >= WARMUP:
            out["master.coordinate_ms"].append((t1 - t0) * 1e3)
        elif kind == "peer.connect":
            out["peers.connect_ms"].append((t1 - t0) * 1e3)
        elif kind == "peer.ring_segment":
            out["collective.segment_rtt_us"].append((t1 - t0) * 1e6)
    for issued in sync_groups.values():
        if len(issued) > 1:
            out["master.sync_barrier_spread_ms"].append(
                (max(issued) - min(issued)) * 1e3
            )
    out["master.commit_ms"] = [s * 1e3 for s in record.commit_latencies]

    # -- collective: ring traffic per member-iteration
    ring_iters = sum(
        r.get("ring_iterations", 0) for r in record.results.values()
    )
    all_iters = sum(
        r.get("iterations_run", 0) for r in record.results.values()
    )
    segments = [e for e in log if e[1] == "peer.ring_segment"]
    if ring_iters:
        out["collective.segments_per_member_iter"].append(
            len(segments) / ring_iters
        )
        out["collective.peer_bytes_per_member_iter"].append(
            sum(e[6] for e in segments) / ring_iters
        )
    if all_iters and shape.peer is not None:
        out["collective.ring_iteration_share"].append(ring_iters / all_iters)
    first_segment = collections.defaultdict(dict)
    for e in segments:
        seen = first_segment[e[0]].get(e[4])
        if seen is None or e[2] < seen:
            first_segment[e[0]][e[4]] = e[2]
    for who, kind, _t0, t1, iteration, tag, _n in log:
        if kind == "coordinate" and tag and tag.startswith("adjust:"):
            later = [
                t for it, t in first_segment.get(who, {}).items()
                if it > iteration
            ]
            if later:
                out["collective.reform_ms"].append((min(later) - t1) * 1e3)

    # -- agent: stalls, joins, the pooled iteration tail
    periods = rank0_periods(record)
    for period in periods:
        if not period["adjusted"]:
            continue
        steady = stats.steady_periods(periods, period["size"], BASE_WORKERS)
        name = (
            "agent.scale_out_stall_ms" if period["size"] == BASE_WORKERS
            else "agent.scale_in_stall_ms"
        )
        out[name].append(stats.stall(period["seconds"], steady) * 1e3)
    joins = _by_worker(log, "join")
    syncs = _by_worker(log, "sync")
    for worker, polls in joins.items():
        if worker in BASE_IDS:
            continue
        trained = [e[3] for e in syncs.get(worker, ())]
        if trained:
            out["agent.join_ms"].append(
                (min(trained) - min(e[2] for e in polls)) * 1e3
            )
    for who, marks in iteration_markers(log).items():
        for iteration, t0 in marks.items():
            nxt = marks.get(iteration + 1)
            if (
                nxt is not None and iteration >= WARMUP
                and iteration + 1 not in commits
            ):
                out["agent.iter_ms_pooled"].append((nxt - t0) * 1e3)

    # -- chunks: the state hand-off as uploader and joiners see it
    for worker, entries in _by_worker(log, "state_chunk").items():
        done = [e[3] for e in log if e[0] == worker and e[1] == "state_done"]
        if done:
            out["chunks.upload_ms"].append(
                (max(done) - min(e[2] for e in entries)) * 1e3
            )
    fetches = collections.defaultdict(list)
    for e in log:
        if e[1] in ("state_fetch", "peer.state_fetch"):
            fetches[e[0]].append(e)
    for worker, entries in fetches.items():
        seconds = max(e[3] for e in entries) - min(e[2] for e in entries)
        nbytes = sum(e[6] for e in entries)
        out["chunks.state_fetch_ms"].append(seconds * 1e3)
        if seconds > 0 and nbytes:
            out["chunks.fetch_mb_per_s"].append(nbytes / MB / seconds)
        out["chunks.pending_polls_per_fetch"].append(
            sum(1 for e in entries if e[5] == "pending")
        )

    # -- counts from public state
    iterations = shape.iterations
    out["master.am_bytes_per_iter"].append(
        record.am_metrics.get("net.sync.grad_bytes", 0) / iterations
    )
    out["master.msgs_per_iter"].append(
        record.status.get("handled", 0) / iterations
    )
    out["chunks.am_chunks_served"].append(
        record.am_metrics.get("net.chunks.served", 0)
    )
    out["chunks.replans"].append(
        record.worker_metrics.get("net.shards.replans", 0)
    )
    adjusts = len(record.commit_latencies)
    if adjusts:
        out["journal.records_per_adjust"].append(
            sum(record.journal_kinds.get(k, 0) for k in ADJUST_KINDS)
            / adjusts
        )
    out["transport.dedup_hits"].append(record.status.get("duplicates", 0))
    out["transport.retransmits"].append(record.resends)
    out["shm.leaked_segments"].append(
        sum(1 for f in record.failures if f.startswith("leaked shm"))
    )
    out["proc.cpu_ms_per_iter"].append(record.cpu_s / iterations * 1e3)
    out["proc.threads_peak"].append(record.threads_peak)
    if record.traced:
        out["obs.spans_per_iter"].append(record.span_events / iterations)
    return out


# -- the cluster workload ------------------------------------------------------


def _job_iterations(log):
    """job id -> worker -> [(iteration, t0, t1)], from recorder spans."""
    jobs = collections.defaultdict(lambda: collections.defaultdict(list))
    for who, kind, t0, t1, iteration, _tag, _n in log:
        if kind == "iteration":
            job, _, _worker = who.rpartition("-w")
            jobs[job][who].append((iteration, t0, t1))
    return jobs


def segment_end_to_end(record, small_batch: int, warmup: int):
    """The cluster segment's three end-to-end samples, each as
    ``(value, start, end)`` like :func:`job_end_to_end` (None if broken)."""
    jobs = _job_iterations(record.log)
    if not record.waves or record.failures:
        return None
    rates, per_iter, all_ends = [], [], []
    for t_submit, job_ids in record.waves:
        ends, trained = [], 0
        for job in job_ids:
            spans = [s for spans in jobs[job].values() for s in spans]
            if not spans:
                return None
            first = min(s[1] for s in spans)
            last = max(s[2] for s in spans)
            iterations = max(s[0] for s in spans) + 1
            ends.append(last)
            trained += iterations * small_batch
            per_iter.append((last - first) / iterations * 1e3)
        rates.append(trained / (max(ends) - t_submit))
        all_ends += ends
    first_wave = record.waves[0][1]
    warm = []
    for job in first_wave:
        base_worker = f"{job}-w0"
        done = [
            s[2] for s in jobs[job][base_worker] if s[0] == warmup - 1
        ]
        if not done:
            return None
        warm.append(done[0])
    t_first, t_last = record.waves[0][0], max(all_ends)
    return {
        "setup_s": (max(warm) - record.t_start, record.t_start, max(warm)),
        "train_samples_per_s": (stats.median(rates), t_first, t_last),
        "iter_ms_p50": (stats.median(per_iter), t_first, t_last),
    }


def segment_layers(record, iterations_per_job: int):
    """Per-layer samples of one cluster segment."""
    log = record.log
    out: "dict[str, list[float]]" = collections.defaultdict(list)
    jobs = _job_iterations(log)
    # SUBMITs were issued in wave order, one per job
    submitted = [job for _t, job_ids in record.waves for job in job_ids]
    issued = [e[2] for e in log if e[1] == "submit"]
    for job, t_submit in zip(submitted, issued):
        starts = [s[1] for spans in jobs[job].values() for s in spans]
        if starts:
            out["cluster.admit_ms"].append((min(starts) - t_submit) * 1e3)
    for e in log:
        if e[1] == "sched.step":
            out["cluster.step_ms"].append((e[3] - e[2]) * 1e3)
    # A flip is committed when every job's second worker trained its
    # first (grow) or last (shrink) iteration.
    flips = [e for e in log if e[1] == "sched.set_capacity"]
    for wave, (_t, job_ids) in enumerate(record.waves):
        pair = flips[2 * wave:2 * wave + 2]
        if len(pair) < 2:
            continue
        grown, shrunk = [], []
        for job in job_ids:
            joiners = [
                spans for who, spans in jobs[job].items()
                if not who.endswith("-w0")
            ]
            for spans in joiners:
                grown.append(min(s[1] for s in spans))
                shrunk.append(max(s[2] for s in spans))
        if grown:
            out["cluster.resize_ms"].append((max(grown) - pair[0][2]) * 1e3)
            out["cluster.resize_ms"].append((max(shrunk) - pair[1][2]) * 1e3)
    for job_spans in jobs.values():
        for spans in job_spans.values():
            ordered = sorted(spans)
            for (it0, t0, _), (it1, t1, _) in zip(ordered, ordered[1:]):
                if it1 == it0 + 1:
                    out["agent.iter_ms_pooled"].append((t1 - t0) * 1e3)
    total_iterations = max(1, len(jobs) * iterations_per_job)
    out["master.msgs_per_iter"].append(record.am_handled / total_iterations)
    resizes = record.journal_kinds.get("resize", 0)
    if resizes:
        out["journal.records_per_adjust"].append(
            sum(record.journal_kinds.values()) / resizes
        )
    out["transport.dedup_hits"].append(record.am_duplicates)
    out["transport.retransmits"].append(record.resends)
    out["proc.cpu_ms_per_iter"].append(record.cpu_s / total_iterations * 1e3)
    out["proc.threads_peak"].append(record.threads_peak)
    if record.traced:
        out["obs.spans_per_iter"].append(
            record.span_events / total_iterations
        )
    return out
