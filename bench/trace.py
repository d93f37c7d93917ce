"""Spans built in the benchmark from the proxies' logs.

The program is not asked for spans here: every span is a call the
harness saw at a layer boundary (``bench.<layer>.<call>``), nested
under the iteration it served (``bench.agent.iteration``) or the
adjustment it belonged to (``bench.agent.adjust`` / ``bench.agent.join``).
Spans stay in memory until the run ends, then go out as one Chrome
trace with a self-time table.
"""

from __future__ import annotations

import collections
import json

from . import stats

#: log kind -> span name
CALLS = {
    "sync": "bench.master.sync",
    "coordinate": "bench.master.coordinate",
    "join": "bench.master.join",
    "state_upload": "bench.master.final_report",
    "status": "bench.master.status",
    "adjustment_request": "bench.master.adjustment_request",
    "state_chunk": "bench.chunks.upload_chunk",
    "state_done": "bench.chunks.upload_done",
    "state_fetch": "bench.chunks.fetch",
    "peer.state_fetch": "bench.chunks.shard_fetch",
    "peer.ring_segment": "bench.collective.segment",
    "peer.ring_fetch": "bench.collective.peer_state",
    "peer.connect": "bench.peers.connect",
    "peer.serve": "bench.peers.serve",
    "submit": "bench.cluster.submit",
    "sched.step": "bench.cluster.step",
    "sched.set_capacity": "bench.cluster.set_capacity",
    "runner.start": "bench.cluster.runner_start",
    "runner.resize": "bench.cluster.runner_resize",
    "iteration": "bench.agent.iteration",
}

ITERATION = "bench.agent.iteration"
ADJUST = "bench.agent.adjust"
JOIN = "bench.agent.join"


def _span(name, track, start, end, **args):
    return {"name": name, "track": track, "start": start, "end": end,
            "args": args}


def spans_from_log(log, job: str) -> "list[dict]":
    """Every logged call as a span, plus the synthesized parents."""
    spans = []
    by_worker = collections.defaultdict(list)
    for who, kind, t0, t1, iteration, tag, nbytes in log:
        track = f"{job}/{who}"
        args = {}
        if iteration is not None:
            args["iteration"] = iteration
        if tag:
            args["tag"] = tag
        if nbytes:
            args["bytes"] = nbytes
        spans.append(_span(CALLS.get(kind, "bench." + kind), track, t0, t1,
                           **args))
        by_worker[who].append((kind, t0, t1, iteration, tag))
    for who, entries in by_worker.items():
        track = f"{job}/{who}"
        if any(kind == "iteration" for kind, *_ in entries):
            continue  # the recorder already gave real iteration spans
        spans.extend(_worker_parents(track, entries))
    return spans


def _worker_parents(track, entries) -> "list[dict]":
    """Iteration / adjust / join spans of one worker, from its calls."""
    out = []
    calls = collections.defaultdict(list)
    for kind, t0, t1, iteration, tag in entries:
        if iteration is not None and kind in (
            "sync", "coordinate", "peer.ring_segment"
        ):
            calls[iteration].append((t0, t1, kind, tag))
    previous_end = None
    for iteration in sorted(calls):
        starts = [c[0] for c in calls[iteration]]
        end = max(c[1] for c in calls[iteration])
        start = min(starts) if previous_end is None else min(
            previous_end, min(starts)
        )
        out.append(_span(ITERATION, track, start, end, iteration=iteration))
        previous_end = end
        adjust = [
            c for c in calls[iteration]
            if c[2] == "coordinate" and c[3] and c[3].startswith("adjust:")
        ]
        if adjust:
            # the adjustment ends where the commit iteration's gradient
            # exchange begins (or with the directive, for a leaver)
            after = [
                c[0] for c in calls[iteration]
                if c[2] != "coordinate" and c[0] >= adjust[0][1]
            ]
            out.append(_span(
                ADJUST, track, adjust[0][0],
                min(after) if after else adjust[0][1],
                iteration=iteration, directive=adjust[0][3],
            ))
    joins = [e for e in entries if e[0] == "join"]
    trained = [e[1] for e in entries if e[0] == "sync"]
    if joins and trained and any(e[4] == "join" for e in joins):
        out.append(_span(JOIN, track, min(e[1] for e in joins), min(trained)))
    return out


def assign_parents(spans) -> "list[dict]":
    """Give every span an id and the id of its tightest enclosing span
    on the same track (siblings may overlap: pipelined windows do)."""
    by_track = collections.defaultdict(list)
    for index, span in enumerate(spans):
        span["id"] = index
        span["parent"] = None
        by_track[span["track"]].append(span)
    for track_spans in by_track.values():
        track_spans.sort(key=lambda s: (s["start"], -s["end"]))
        stack = []
        for span in track_spans:
            while stack and stack[-1]["end"] < span["end"]:
                stack.pop()
            if stack:
                span["parent"] = stack[-1]["id"]
            stack.append(span)
    return spans


def self_time_table(spans) -> "list[dict]":
    """Per span name: count, total and self milliseconds."""
    selfs = stats.self_times(spans)
    rows = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span["name"]]
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += selfs[span["id"]]
    return [
        {"name": name, "count": count, "total_ms": total * 1e3,
         "self_ms": own * 1e3}
        for name, (count, total, own) in sorted(
            rows.items(), key=lambda item: -item[1][2]
        )
    ]


def chrome_events(spans, origin: float) -> "list[dict]":
    """Chrome ``trace_event`` complete events, one thread row per track."""
    tracks = sorted({span["track"] for span in spans})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": track}}
        for track, tid in tids.items()
    ]
    for span in spans:
        events.append({
            "name": span["name"], "cat": span["name"].split(".")[1],
            "ph": "X", "pid": 1, "tid": tids[span["track"]],
            "ts": (span["start"] - origin) * 1e6,
            "dur": max(0.0, span["end"] - span["start"]) * 1e6,
            "args": dict(span["args"], id=span["id"], parent=span["parent"]),
        })
    return events


def write_trace(path: str, spans, origin: float, workload: str) -> dict:
    """Write the Chrome trace; returns the self-time table it carries."""
    table = self_time_table(spans)
    with open(path, "w") as handle:
        json.dump({
            "traceEvents": chrome_events(spans, origin),
            "displayTimeUnit": "ms",
            "otherData": {"workload": workload, "self_time": table},
        }, handle)
    return table
