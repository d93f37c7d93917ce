"""Fleet-level observability: clock alignment, trace merging, goodput.

Per-process tracers and registries (PR 2/PR 6) only ever see one
process's timeline.  This module is the fleet half:

* :func:`clock_sample` — the NTP-style midpoint offset of one matched
  request/reply timestamp quadruple; every reply carries the server's
  half, and an observed link records each as a ``net.clock_sample``
  instant, so the trace is the one record of clock offsets;
* :class:`TraceMerger` — merges N per-process Chrome traces into one
  fleet trace with named process rows, applying per-process clock
  offsets (the min-rtt sample against the reference process) so
  send/recv pairs line up, always emitting a ``validate_events``-clean
  result;
* :class:`GoodputReport` / :func:`derive_report` — goodput/MTTR and
  overhead accounting (moved here from ``repro.net.soak`` and
  generalized with per-category overhead and upload series);
* :class:`FleetCollector` — the AM-side fold of live ``TELEMETRY``
  deltas into per-worker, per-job and fleet-rollup views, including a
  Prometheus-style text exposition.

Nothing here imports ``repro.net`` — the net layer imports *us* — so
the collector can also be driven offline from exported trace files.
"""

from __future__ import annotations

import threading
import typing

from .tracing import load_trace_events, track_names

#: trace instants counted by :func:`derive_report` (all emitted by the
#: failover paths; see docs/OBSERVABILITY.md).
_INSTANT_COUNTS = {
    "am.failover": "failovers",
    "worker.condemned": "condemned",
    "am.eviction_minted": "evictions_minted",
    "worker.enrolled": "enrollments",
    "worker.stale_repair": "stale_repairs",
    "worker.evicted": "workers_evicted",
    "am.plan_aborted": "plans_aborted",
}

#: duration-span name prefixes attributed to each overhead category by
#: :func:`derive_report`.  Replication is state movement, rescheduling
#: is adjustment-protocol time, degradation is repair/reconnect time.
_OVERHEAD_PREFIXES = {
    "replication": ("net.state_upload", "net.state_fetch", "replicate."),
    "rescheduling": ("adjust.", "am.plan", "sync.barrier"),
    "degradation": ("net.reconnect", "net.allreduce.degraded",
                    "worker.stale_repair"),
}


class SLOViolation(AssertionError):
    """A goodput/MTTR service level was missed."""


def clock_sample(
    t0: float, t1: float, t2: float, t3: float
) -> "tuple[float, float]":
    """``(offset, rtt)`` of one request/reply quadruple.

    ``t0``/``t3`` are the client's send and receive times on its clock,
    ``t1``/``t2`` the server's receive and reply-send on its own.  The
    midpoint ``((t1 - t0) + (t2 - t3)) / 2`` approximates
    ``server_clock - client_clock`` with error bounded by rtt/2, which
    is why :class:`TraceMerger` trusts the sample with the smallest rtt
    — the classic minimum-delay filter.
    """
    offset = ((t1 - t0) + (t2 - t3)) / 2.0
    rtt = max(0.0, (t3 - t0) - (t2 - t1))
    return offset, rtt


def _clock_offset_from_events(
    events: "typing.Sequence[dict]", reference: str
) -> "float | None":
    """The min-rtt offset of the ``net.clock_sample`` instants a trace
    recorded against ``reference``.

    A meshed worker also samples its peer links; those offsets are
    against another worker's clock, not the reference's, so they never
    count.
    """
    best: "tuple[float, float] | None" = None
    for event in events:
        if event.get("ph") != "i" or event.get("name") != "net.clock_sample":
            continue
        args = event.get("args") or {}
        offset = args.get("offset")
        if args.get("peer") != reference or not isinstance(
            offset, (int, float)
        ):
            continue
        rtt = args.get("rtt")
        rtt = float(rtt) if isinstance(rtt, (int, float)) else float("inf")
        if best is None or rtt < best[0]:
            best = (rtt, float(offset))
    return best[1] if best is not None else None


def _process_name(events: "typing.Sequence[dict]") -> "str | None":
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            name = (event.get("args") or {}).get("name")
            if name:
                return str(name)
    return None


class TraceMerger:
    """Merge per-process Chrome traces into one aligned fleet trace.

    Each :meth:`add` contributes one process's events.  The merged
    output gives every process its own ``pid`` row (named via
    ``process_name`` metadata) and every logical track its own ``tid``;
    per-process clock offsets — recovered from each process's own
    ``net.clock_sample`` instants against the reference process — shift
    timestamps onto the reference process's clock so request/reply
    pairs line up.

    The merge is *deterministic regardless of add order* (processes are
    sorted by name, tracks by name) and always yields a
    ``validate_events``-clean trace: malformed events are dropped, and
    an empty merge still emits one synthetic ``fleet.merge`` instant.
    """

    def __init__(self, reference: str = "am"):
        self.reference = reference
        self._processes: "dict[str, dict]" = {}

    def add(
        self,
        events: "typing.Sequence[dict] | str",
        process: "str | None" = None,
    ) -> str:
        """Contribute one process's events (a list or a trace-file path).

        The process's offset — seconds to *add* to its timestamps to
        land on the reference clock — is the min-rtt
        ``net.clock_sample`` instant it recorded against the reference
        (0.0 for the reference itself or when no such sample exists).
        Re-adding the same process name replaces its events (last add
        wins), which is what makes re-shipped full snapshots idempotent.
        """
        if isinstance(events, str):
            events = load_trace_events(events)
        events = list(events)
        name = process or _process_name(events) or f"proc{len(self._processes)}"
        offset = 0.0
        if name != self.reference:
            offset = _clock_offset_from_events(events, self.reference) or 0.0
        self._processes[name] = {"events": events, "offset": offset}
        return name

    def offsets(self) -> "dict[str, float]":
        """Per-process offsets (seconds) that :meth:`merge` will apply."""
        return {
            name: entry["offset"]
            for name, entry in sorted(self._processes.items())
        }

    @staticmethod
    def _usable(event: dict) -> bool:
        if not isinstance(event, dict) or not event.get("name"):
            return False
        phase = event.get("ph")
        if phase not in ("X", "i", "C"):
            return False
        if not isinstance(event.get("ts"), (int, float)):
            return False
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return False
        return True

    def merge(self) -> "list[dict]":
        """One fleet trace: metadata rows first, then aligned events."""
        metas: "list[dict]" = []
        data: "list[dict]" = []
        for pid, (name, entry) in enumerate(
            sorted(self._processes.items()), start=1
        ):
            events = entry["events"]
            offset_us = entry["offset"] * 1e6
            local_tracks = track_names(events)
            # Deterministic tid assignment: every track name this
            # process references, sorted.  Shipped records carry their
            # track name inline; file events resolve via metadata.
            referenced: "set[str]" = set()
            usable = []
            for event in events:
                if not self._usable(event):
                    continue
                track = event.get("track")
                if track is None:
                    key = (event.get("pid", 1), event.get("tid", 0))
                    track = local_tracks.get(key, f"tid{key[1]}")
                referenced.add(str(track))
                usable.append((str(track), event))
            tids = {t: i for i, t in enumerate(sorted(referenced), start=1)}
            metas.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": name},
            })
            for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
                metas.append({
                    "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": track},
                })
            for track, event in usable:
                record = {
                    k: v for k, v in event.items()
                    if k not in ("idx", "track", "pid", "tid", "ts")
                }
                record["pid"] = pid
                record["tid"] = tids[track]
                record["ts"] = float(event["ts"]) + offset_us
                data.append(record)
        data.sort(key=lambda e: (e["ts"], e["pid"], e["tid"],
                                 str(e.get("name"))))
        if not data:
            data = [{
                "name": "fleet.merge", "cat": "fleet", "ph": "i", "s": "t",
                "ts": 0.0, "pid": 1, "tid": 0,
                "args": {"processes": len(self._processes)},
            }]
        return metas + data


class GoodputReport:
    """What a run measured, plus the SLO verdict machinery."""

    def __init__(self, **fields):
        self.job: "str | None" = fields.pop("job", None)
        self.goodput: float = fields.pop("goodput", 0.0)
        self.busy_seconds: float = fields.pop("busy_seconds", 0.0)
        self.wall_seconds: float = fields.pop("wall_seconds", 0.0)
        self.iterations: int = fields.pop("iterations", 0)
        self.workers: int = fields.pop("workers", 0)
        self.recoveries: int = fields.pop("recoveries", 0)
        self.mean_mttr: "float | None" = fields.pop("mean_mttr", None)
        self.max_mttr: "float | None" = fields.pop("max_mttr", None)
        self.mean_detection: "float | None" = fields.pop(
            "mean_detection", None
        )
        self.counts: "dict[str, int]" = fields.pop("counts", {})
        #: seconds of overhead per category (see _OVERHEAD_PREFIXES).
        self.overhead: "dict[str, float]" = fields.pop("overhead", {})
        #: (start_s, duration_s) of every checkpoint/state upload.
        self.upload_series: "list[tuple[float, float]]" = fields.pop(
            "upload_series", []
        )
        self.extra = fields

    def assert_slo(
        self, goodput_floor: float = 0.3, mttr_ceiling: float = 10.0
    ) -> "GoodputReport":
        """Raise :class:`SLOViolation` unless the floors hold; else self."""
        problems = []
        if self.goodput < goodput_floor:
            problems.append(
                f"goodput {self.goodput:.3f} below floor {goodput_floor:.3f}"
            )
        if self.max_mttr is not None and self.max_mttr > mttr_ceiling:
            problems.append(
                f"max MTTR {self.max_mttr:.2f}s above ceiling "
                f"{mttr_ceiling:.2f}s"
            )
        if problems:
            raise SLOViolation("; ".join(problems))
        return self

    def rows(self) -> "list[tuple[str, str]]":
        def fmt(value, unit=""):
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.3f}{unit}"
            return f"{value}{unit}"

        rows = [
            ("goodput", fmt(self.goodput)),
            ("busy", fmt(self.busy_seconds, "s")),
            ("wall", fmt(self.wall_seconds, "s")),
            ("iterations", fmt(self.iterations)),
            ("workers", fmt(self.workers)),
            ("recoveries", fmt(self.recoveries)),
            ("mean MTTR", fmt(self.mean_mttr, "s")),
            ("max MTTR", fmt(self.max_mttr, "s")),
            ("mean detection", fmt(self.mean_detection, "s")),
        ]
        for category in sorted(self.overhead):
            rows.append(
                (f"overhead.{category}", fmt(self.overhead[category], "s"))
            )
        if self.upload_series:
            total = sum(d for _, d in self.upload_series)
            rows.append(("uploads", fmt(len(self.upload_series))))
            rows.append(("upload time", fmt(total, "s")))
        for name in sorted(self.counts):
            rows.append((name, fmt(self.counts[name])))
        return rows

    def format(self) -> str:
        rows = self.rows()
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        if self.job:
            lines.insert(0, f"[job {self.job}]")
        return "\n".join(lines)


def _overhead_category(name: str) -> "str | None":
    for category, prefixes in _OVERHEAD_PREFIXES.items():
        if any(name == p or name.startswith(p) for p in prefixes):
            return category
    return None


def derive_report(
    events: "typing.Sequence[dict]",
    metrics: "dict | None" = None,
    job: "str | None" = None,
) -> GoodputReport:
    """Compute goodput/MTTR from Chrome-trace events (+ a metrics snapshot).

    Goodput is the fraction of the job's wall-clock each participating
    worker spent inside ``worker.iteration`` spans, averaged over the
    workers that emitted any — time lost to barriers, failover backoff,
    re-enrollment, and repair shows up directly as the gap to 1.0.
    Overhead spans (replication / rescheduling / degradation) are
    accounted per category, and every state upload lands in
    ``upload_series``.  Works on a live tracer's ``to_events()``, a
    :class:`TraceMerger` output, or a reloaded trace file.
    """
    # Keyed by (pid, tid): in a merged fleet trace every process has its
    # own tid 1, so tid alone would collapse all workers into one lane.
    names_by_lane = {
        (e.get("pid", 1), e["tid"]): e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    busy_us: "dict[str, float]" = {}
    #: (track, iteration) -> the pid whose buffer it was first seen in.
    holder: "dict[tuple, typing.Any]" = {}
    counts = {label: 0 for label in _INSTANT_COUNTS.values()}
    overhead = {category: 0.0 for category in _OVERHEAD_PREFIXES}
    upload_series: "list[tuple[float, float]]" = []
    iterations = 0
    t_lo: "float | None" = None
    t_hi: "float | None" = None
    for event in events:
        phase = event.get("ph")
        if phase not in ("X", "i"):
            continue
        ts = float(event.get("ts", 0.0))
        end = ts + float(event.get("dur", 0.0))
        t_lo = ts if t_lo is None else min(t_lo, ts)
        t_hi = end if t_hi is None else max(t_hi, end)
        name = event.get("name")
        if phase == "X" and name == "worker.iteration":
            # A worker is its track: the agent names its lane by its
            # worker id, in whichever process the span was recorded.
            track = event.get("track")
            if track is None:
                track = names_by_lane.get(
                    (event.get("pid", 1), event.get("tid"))
                )
            if track is None:
                track = f"{event.get('pid', 1)}/{event.get('tid')}"
            # A copy of a worker's iteration in another process's buffer
            # counts once: thread workers sharing a tracer each ship the
            # whole buffer, and the AM's own events hold the same spans.
            # A re-run of an iteration (a preempted job restarting) is a
            # second span in the same buffer, and counts again.
            iteration = (event.get("args") or {}).get("iteration")
            pid = event.get("pid", 1)
            if (
                iteration is not None
                and holder.setdefault((track, iteration), pid) != pid
            ):
                continue
            busy_us[track] = busy_us.get(track, 0.0) + float(
                event.get("dur", 0.0)
            )
            iterations += 1
        elif phase == "X":
            category = _overhead_category(str(name))
            if category is not None:
                overhead[category] += float(event.get("dur", 0.0)) / 1e6
            if name == "net.state_upload":
                upload_series.append(
                    (ts / 1e6, float(event.get("dur", 0.0)) / 1e6)
                )
        elif phase == "i" and name in _INSTANT_COUNTS:
            counts[_INSTANT_COUNTS[name]] += 1
    wall = (t_hi - t_lo) / 1e6 if t_lo is not None else 0.0
    busy = sum(busy_us.values()) / 1e6
    workers = len(busy_us)
    goodput = busy / (wall * workers) if wall > 0 and workers else 0.0

    recoveries = counts.get("condemned", 0)
    mean_mttr = max_mttr = mean_detection = None
    if metrics:
        mttr = metrics.get("failure.mttr_seconds") or {}
        detection = metrics.get("failure.detection_latency_seconds") or {}
        if mttr.get("count"):
            recoveries = int(mttr["count"])
            mean_mttr = mttr.get("mean")
            max_mttr = mttr.get("max")
        if detection.get("count"):
            mean_detection = detection.get("mean")
    return GoodputReport(
        job=job,
        goodput=goodput,
        busy_seconds=busy,
        wall_seconds=wall,
        iterations=iterations,
        workers=workers,
        recoveries=recoveries,
        mean_mttr=mean_mttr,
        max_mttr=max_mttr,
        mean_detection=mean_detection,
        counts=counts,
        overhead=overhead,
        upload_series=upload_series,
    )


def merge_metric_snapshots(snapshots: "typing.Sequence[dict]") -> dict:
    """Fold N ``MetricRegistry.snapshot()``-shaped dicts into one rollup.

    Counters and gauges sum; histogram stats combine exactly for
    count/sum/min/max/mean, while quantiles are count-weighted means of
    the per-source estimates — approximate, clearly better than
    dropping them, and documented as such in OBSERVABILITY.md.
    """
    rollup: "dict[str, typing.Any]" = {}
    weights: "dict[str, float]" = {}
    for snapshot in snapshots:
        for name, value in (snapshot or {}).items():
            if isinstance(value, dict):
                entry = rollup.setdefault(name, {})
                count = float(value.get("count") or 0)
                entry["count"] = entry.get("count", 0) + int(count)
                entry["sum"] = entry.get("sum", 0.0) + float(
                    value.get("sum") or 0.0
                )
                for extreme, pick in (("min", min), ("max", max)):
                    v = value.get(extreme)
                    if v is not None:
                        held = entry.get(extreme)
                        entry[extreme] = v if held is None else pick(held, v)
                for key, v in value.items():
                    if not key.startswith("p") or v is None or not count:
                        continue
                    prior_weight = weights.get(f"{name}.{key}", 0.0)
                    prior = entry.get(key)
                    total = prior_weight + count
                    entry[key] = (
                        v if prior is None
                        else (prior * prior_weight + v * count) / total
                    )
                    weights[f"{name}.{key}"] = total
            else:
                rollup[name] = rollup.get(name, 0.0) + float(value or 0.0)
    for entry in rollup.values():
        if isinstance(entry, dict):
            entry["mean"] = (
                entry["sum"] / entry["count"] if entry.get("count") else None
            )
    return dict(sorted(rollup.items()))


def prometheus_text(rollup: dict, prefix: str = "elan") -> str:
    """Prometheus text-format exposition of a metric rollup dict."""

    def sanitize(name: str) -> str:
        return "".join(
            c if c.isalnum() or c == "_" else "_" for c in name
        )

    lines = []
    for name, value in sorted(rollup.items()):
        metric = f"{prefix}_{sanitize(name)}"
        if isinstance(value, dict):
            lines.append(f"# TYPE {metric} summary")
            for key, v in value.items():
                if key in ("count", "sum"):
                    lines.append(f"{metric}_{key} {v}")
                elif key.startswith("p") and v is not None:
                    try:
                        quantile = float(key[1:]) / 100.0
                    except ValueError:
                        continue
                    lines.append(
                        f'{metric}{{quantile="{quantile:g}"}} {v}'
                    )
        else:
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"


class FleetCollector:
    """AM-side fold of live TELEMETRY deltas into a fleet view.

    Holds, per worker: the shipped trace events (keyed by the worker's
    own buffer index, so re-shipped full snapshots overwrite
    idempotently), the latest snapshot of its metric registry (named by
    the id shipped beside it, so workers sharing one registry hold the
    same latest snapshot and a rollup counts it once), and drop
    accounting.  Clock offsets are not held: the merger recovers each
    worker's from the ``net.clock_sample`` instants among its events.
    Per-job and fleet rollups are derived on demand — by the AM, or by
    a client from the :meth:`to_payload` dump it queried.  The collector is deliberately *not*
    journaled: a successor AM starts empty and workers re-ship full
    snapshots on re-enrollment (see docs/PROTOCOL.md).
    """

    def __init__(self, job_id: "str | None" = None):
        self.job_id = job_id
        self._lock = threading.Lock()
        self._workers: "dict[str, dict]" = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def workers(self) -> "list[str]":
        with self._lock:
            return sorted(self._workers)

    def ingest(self, payload: dict, sender: "str | None" = None) -> dict:
        """Fold one TELEMETRY delta; returns the reply payload.

        A delta whose ``start`` index is beyond what we hold means this
        collector never saw the worker's earlier events (successor AM
        after a failover): the reply carries ``resync`` and the shipper
        answers with a full snapshot.
        """
        worker = str(payload.get("worker") or sender or "?")
        full = bool(payload.get("full"))
        events = payload.get("events") or ()
        with self._lock:
            entry = self._workers.setdefault(worker, {
                "job": None, "events": {}, "metrics": {}, "registry": None,
                "dropped": 0, "deltas": 0,
            })
            if full:
                entry["events"] = {}
            entry["deltas"] += 1
            entry["job"] = payload.get("job") or entry["job"]
            if payload.get("metrics") is not None:
                entry["registry"] = registry = payload.get("registry")
                # A registry shared by in-process workers: its latest
                # snapshot is every sharer's.
                for held in self._workers.values():
                    if held is entry or (
                        registry is not None and held["registry"] == registry
                    ):
                        held["metrics"] = payload["metrics"]
            entry["dropped"] = max(
                entry["dropped"], int(payload.get("dropped") or 0)
            )
            held_next = max(entry["events"], default=-1) + 1
            for record in events:
                index = int(record.get("idx", held_next))
                entry["events"][index] = dict(record)
            start = payload.get("start")
            resync = (
                not full
                and start is not None
                and int(start) > held_next
            )
        return {"ok": True, "resync": bool(resync), "worker": worker}

    # -- views ------------------------------------------------------------------

    def worker_events(self, worker: str) -> "list[dict]":
        with self._lock:
            entry = self._workers.get(worker) or {"events": {}}
            return [
                entry["events"][i] for i in sorted(entry["events"])
            ]

    def worker_metrics(self, worker: str) -> dict:
        with self._lock:
            entry = self._workers.get(worker) or {}
            return dict(entry.get("metrics") or {})

    def jobs(self) -> "dict[str, list[str]]":
        """job id -> sorted worker ids shipped under it."""
        with self._lock:
            out: "dict[str, list[str]]" = {}
            for worker, entry in self._workers.items():
                job = str(entry.get("job") or self.job_id or "?")
                out.setdefault(job, []).append(worker)
        return {job: sorted(ws) for job, ws in sorted(out.items())}

    def merger(
        self,
        am_events: "typing.Sequence[dict] | None" = None,
        workers: "typing.Sequence[str] | None" = None,
        am_process: str = "am",
    ) -> TraceMerger:
        """A :class:`TraceMerger` loaded with the collected fleet view."""
        merger = TraceMerger(reference=am_process)
        if am_events is not None:
            merger.add(list(am_events), process=am_process)
        for worker in workers if workers is not None else self.workers():
            with self._lock:
                entry = self._workers.get(worker)
                if entry is None:
                    continue
                events = [entry["events"][i] for i in sorted(entry["events"])]
            merger.add(events, process=worker)
        return merger

    def merged_events(
        self, am_events: "typing.Sequence[dict] | None" = None
    ) -> "list[dict]":
        """One clock-aligned fleet trace from everything collected."""
        return self.merger(am_events=am_events).merge()

    def rollup(
        self, am_metrics: "dict | None" = None,
        am_registry: "str | None" = None,
        workers: "typing.Iterable[str] | None" = None,
    ) -> dict:
        """Metric rollup across ``workers`` (default: every one) and the
        AM's ``am_metrics``, one snapshot per registry: the latest each
        shipped, and the AM's, newest of all, for ``am_registry`` (its
        :attr:`MetricRegistry.id`, which in-process workers may share)."""
        latest: "dict[typing.Any, dict]" = {}
        with self._lock:
            for worker in sorted(self._workers) if workers is None else workers:
                entry = self._workers.get(worker)
                if entry is not None:
                    key = entry["registry"] or ("worker", worker)
                    latest[key] = entry["metrics"]
        if am_metrics:
            latest[am_registry or ("am",)] = am_metrics
        return merge_metric_snapshots(list(latest.values()))

    def report(
        self,
        am_events: "typing.Sequence[dict] | None" = None,
        am_metrics: "dict | None" = None,
        am_registry: "str | None" = None,
    ) -> "dict[str, GoodputReport]":
        """Per-job reports plus the ``"fleet"`` rollup report.

        MTTR/detection histograms live in the AM's own registry (the
        lease evictor feeds them), so ``am_metrics`` should be the AM's
        ``metrics.snapshot()`` when available, and ``am_registry`` its
        id.
        """
        reports: "dict[str, GoodputReport]" = {}
        for job, workers in self.jobs().items():
            events = self.merger(am_events=am_events, workers=workers).merge()
            reports[job] = derive_report(
                events, self.rollup(am_metrics, am_registry, workers), job=job
            )
        reports["fleet"] = derive_report(
            self.merged_events(am_events=am_events),
            self.rollup(am_metrics, am_registry), job="fleet",
        )
        return reports

    # -- (de)serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe dump of the whole fleet view (CLI export, tests)."""
        with self._lock:
            return {
                "job_id": self.job_id,
                "workers": {
                    worker: {
                        "job": entry["job"],
                        "metrics": entry["metrics"],
                        "registry": entry["registry"],
                        "dropped": entry["dropped"],
                        "deltas": entry["deltas"],
                        "events": [
                            entry["events"][i] for i in sorted(entry["events"])
                        ],
                    }
                    for worker, entry in sorted(self._workers.items())
                },
            }

    @classmethod
    def from_payload(cls, payload: dict) -> "FleetCollector":
        collector = cls(job_id=payload.get("job_id"))
        for worker, entry in (payload.get("workers") or {}).items():
            events = entry.get("events") or ()
            collector._workers[str(worker)] = {
                "job": entry.get("job"),
                "metrics": dict(entry.get("metrics") or {}),
                "registry": entry.get("registry"),
                "dropped": int(entry.get("dropped") or 0),
                "deltas": int(entry.get("deltas") or 0),
                "events": {
                    int(r.get("idx", i)): dict(r)
                    for i, r in enumerate(events)
                },
            }
        return collector
