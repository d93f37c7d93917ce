"""Nested spans on an injectable clock, exported as Chrome trace events.

The tracer is the shared timeline instrument of the reproduction: the
live networked stack drives it with a wall clock
(:func:`time.perf_counter`), the discrete-event harnesses drive it with
their simulated ``now``, and both share one span taxonomy (see
``docs/OBSERVABILITY.md``) so an adjustment's phases can be compared
across harnesses.

Output is the Chrome trace-event format (the JSON array flavor), one
event per line, so an exported file opens directly in ``chrome://tracing``
or https://ui.perfetto.dev.  Tracks (the viewer's horizontal lanes) are
logical — worker ids, ``am``, ``supervisor`` — not OS threads; the
exporter assigns each track a stable ``tid`` plus a ``thread_name``
metadata event so the viewer labels lanes by their logical name.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import typing


@dataclasses.dataclass
class Span:
    """One traced interval (or point, when ``end == start``) on a track."""

    name: str
    cat: str
    track: str
    start: float
    end: "float | None"
    args: dict
    #: Chrome trace phase: "X" complete span, "i" instant, "C" counter.
    phase: str = "X"

    @property
    def duration(self) -> float:
        """Seconds covered (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start


class Tracer:
    """Thread-safe span recorder with an injectable clock.

    Two recording styles coexist:

    * *clocked* — :meth:`span` (a context manager), :meth:`begin` /
      :meth:`end`, :meth:`instant`, :meth:`counter` read ``self.clock``;
    * *retrospective* — :meth:`add_span`, :meth:`add_instant`,
      :meth:`add_counter` take explicit timestamps, for harnesses whose
      clock is a local variable (the scheduling simulator) or created
      after the tracer (the replication executor's inner DES kernel).
    """

    def __init__(
        self,
        clock: "typing.Callable[[], float] | None" = None,
        process: str = "elan",
        enabled: bool = True,
    ):
        self.clock = clock or time.perf_counter
        self.process = process
        self.enabled = enabled
        self._lock = threading.Lock()
        self._events: typing.List[Span] = []
        self._track_ids: typing.Dict[str, int] = {}

    # -- recording (clocked) ---------------------------------------------------

    def begin(self, name: str, track: "str | None" = None,
              cat: str = "", **args) -> "Span | None":
        """Open a span now; close it later with :meth:`end`."""
        if not self.enabled:
            return None
        span = Span(
            name=name, cat=cat, track=self._resolve_track(track),
            start=self.clock(), end=None, args=dict(args),
        )
        with self._lock:
            self._events.append(span)
        return span

    def end(self, span: "Span | None", **extra_args) -> None:
        """Close a span opened by :meth:`begin` (None-safe)."""
        if span is None or not self.enabled:
            return
        span.end = self.clock()
        if extra_args:
            span.args.update(extra_args)

    def span(self, name: str, track: "str | None" = None,
             cat: str = "", **args):
        """Context manager: a span covering the ``with`` block."""
        return _SpanContext(self, name, track, cat, args)

    def instant(self, name: str, track: "str | None" = None,
                cat: str = "", **args) -> None:
        """Record a point event at the current clock time."""
        if self.enabled:
            self.add_instant(name, self.clock(), track=track, cat=cat, **args)

    def counter(self, name: str, value: float,
                track: "str | None" = None) -> None:
        """Record a counter sample at the current clock time."""
        if self.enabled:
            self.add_counter(name, self.clock(), value, track=track)

    # -- recording (retrospective) ---------------------------------------------

    def add_span(self, name: str, start: float, end: float,
                 track: "str | None" = None, cat: str = "", **args) -> None:
        """Record an already-measured interval."""
        if not self.enabled:
            return
        span = Span(name=name, cat=cat, track=self._resolve_track(track),
                    start=start, end=end, args=dict(args))
        with self._lock:
            self._events.append(span)

    def add_instant(self, name: str, when: float,
                    track: "str | None" = None, cat: str = "", **args) -> None:
        """Record a point event at an explicit timestamp."""
        if not self.enabled:
            return
        span = Span(name=name, cat=cat, track=self._resolve_track(track),
                    start=when, end=when, args=dict(args), phase="i")
        with self._lock:
            self._events.append(span)

    def add_counter(self, name: str, when: float, value: float,
                    track: "str | None" = None) -> None:
        """Record a counter sample at an explicit timestamp."""
        if not self.enabled:
            return
        span = Span(name=name, cat="counter",
                    track=self._resolve_track(track), start=when, end=when,
                    args={"value": value}, phase="C")
        with self._lock:
            self._events.append(span)

    def _resolve_track(self, track: "str | None") -> str:
        if track is None:
            track = threading.current_thread().name
        with self._lock:
            if track not in self._track_ids:
                self._track_ids[track] = len(self._track_ids) + 1
        return track

    # -- queries ---------------------------------------------------------------

    def spans(self, name: "str | None" = None) -> "list[Span]":
        """Finished duration spans, optionally filtered by name."""
        with self._lock:
            return [
                e for e in self._events
                if e.phase == "X" and e.end is not None
                and (name is None or e.name == name)
            ]

    def instants(self, name: "str | None" = None) -> "list[Span]":
        """Instant events, optionally filtered by name."""
        with self._lock:
            return [
                e for e in self._events
                if e.phase == "i" and (name is None or e.name == name)
            ]

    def span_names(self) -> "set[str]":
        """The taxonomy: names of all duration spans recorded so far."""
        return {s.name for s in self.spans()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- export ----------------------------------------------------------------

    def to_events(self) -> "list[dict]":
        """Chrome trace-event dicts (metadata first, then events).

        Timestamps are converted to microseconds; still-open spans are
        skipped (they have no duration to report).
        """
        with self._lock:
            events = list(self._events)
            track_ids = dict(self._track_ids)
        out: typing.List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": self.process},
        }]
        for track, tid in sorted(track_ids.items(), key=lambda kv: kv[1]):
            out.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": track},
            })
        for event in events:
            if event.phase == "X" and event.end is None:
                continue
            record = {
                "name": event.name,
                "cat": event.cat or "default",
                "ph": event.phase,
                "ts": event.start * 1e6,
                "pid": 1,
                "tid": track_ids.get(event.track, 0),
                "args": event.args,
            }
            if event.phase == "X":
                record["dur"] = (event.end - event.start) * 1e6
            elif event.phase == "i":
                record["s"] = "t"  # thread-scoped instant
            out.append(record)
        return out

    def collect_events(
        self,
        start: int = 0,
        pending: "typing.Sequence[int]" = (),
        limit: "int | None" = None,
    ) -> "tuple[list[dict], int, list[int]]":
        """Incremental export: closed events at index >= ``start``.

        The telemetry shipper calls this with a cursor (``start``) plus
        the indices it had to skip last time because their spans were
        still open (``pending``).  Returns ``(records, next_start,
        still_pending)``: each record is a Chrome-trace event dict
        carrying its buffer index (``"idx"``) — so a receiver can fold
        re-shipped snapshots idempotently — and its logical ``"track"``
        name (tids are process-local and meaningless across the wire).
        ``limit`` bounds the number of indices examined per call.
        """
        with self._lock:
            events = list(self._events)
            track_ids = dict(self._track_ids)
        indices = sorted(set(int(i) for i in pending if 0 <= i < len(events))
                         | set(range(start, len(events))))
        if limit is not None:
            indices = indices[:limit]
        records: typing.List[dict] = []
        still_pending: typing.List[int] = []
        next_start = start
        for index in indices:
            event = events[index]
            if index >= next_start:
                next_start = index + 1
            if event.phase == "X" and event.end is None:
                still_pending.append(index)
                continue
            record = {
                "idx": index,
                "name": event.name,
                "cat": event.cat or "default",
                "ph": event.phase,
                "ts": event.start * 1e6,
                "pid": 1,
                "tid": track_ids.get(event.track, 0),
                "track": event.track,
                "args": event.args,
            }
            if event.phase == "X":
                record["dur"] = (event.end - event.start) * 1e6
            elif event.phase == "i":
                record["s"] = "t"
            records.append(record)
        return records, next_start, still_pending

    def export(self, path: str) -> int:
        """Write the trace as Chrome-trace JSONL; returns the event count.

        The file is a JSON array with one event object per line — valid
        JSON for Perfetto/``chrome://tracing`` *and* line-parseable.
        """
        return write_trace_events(path, self.to_events())


def write_trace_events(
    path: str, events: "typing.Sequence[dict]"
) -> int:
    """Write Chrome trace events in :meth:`Tracer.export`'s file format.

    Shared by the tracer, the ``fleet export`` CLI and the multiprocess
    job driver so every trace file on disk is byte-compatible.
    """
    lines = [json.dumps(e, separators=(",", ":"), sort_keys=True)
             for e in events]
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(lines) + "\n]\n")
    return len(events)


class _SpanContext:
    """Context manager backing :meth:`Tracer.span`."""

    def __init__(self, tracer: Tracer, name: str, track: "str | None",
                 cat: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.track = track
        self.cat = cat
        self.args = args
        self.span: "Span | None" = None

    def __enter__(self) -> "Span | None":
        self.span = self.tracer.begin(
            self.name, track=self.track, cat=self.cat, **self.args
        )
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.span)


# -- reading traces back -------------------------------------------------------


def load_trace_events(path: str) -> "list[dict]":
    """Parse an exported trace file back into event dicts.

    Accepts the exporter's JSON-array-one-per-line layout, a plain JSON
    array, the ``{"traceEvents": [...]}`` object form, and unterminated
    arrays (the Chrome format explicitly allows a missing ``]``).
    """
    with open(path) as f:
        text = f.read().strip()
    if not text:
        return []
    try:
        parsed = json.loads(text)
        if isinstance(parsed, dict):
            return list(parsed.get("traceEvents", []))
        return list(parsed)
    except json.JSONDecodeError:
        pass
    # Tolerant line-by-line fallback (unterminated array / pure JSONL).
    events = []
    for line in text.splitlines():
        line = line.strip().rstrip(",")
        if line in ("", "[", "]"):
            continue
        events.append(json.loads(line))
    return events


def validate_events(events: "typing.Sequence[dict]") -> "list[str]":
    """Schema-check trace events; returns a list of problems (empty = ok).

    Guards the export format against drift: every event needs ``name``,
    ``ph`` and a numeric ``ts``; complete spans additionally need a
    non-negative numeric ``dur``.
    """
    problems = []
    data = [e for e in events if e.get("ph") != "M"]
    if not data:
        problems.append("trace contains no events (metadata only)")
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not event.get("name"):
            problems.append(f"{where}: missing name")
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "M", "B", "E"):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: missing/non-numeric ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete span needs dur >= 0")
    return problems


def summarize_events(events: "typing.Sequence[dict]") -> "list[tuple]":
    """Aggregate complete spans by name.

    Returns ``(name, count, total_s, mean_s, max_s)`` rows sorted by
    total time descending — the per-phase breakdown the CLI prints.
    """
    totals: typing.Dict[str, typing.List[float]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        durations = totals.setdefault(event["name"], [])
        durations.append(float(event.get("dur", 0.0)) / 1e6)
    rows = [
        (name, len(ds), sum(ds), sum(ds) / len(ds), max(ds))
        for name, ds in totals.items()
    ]
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def track_names(events: "typing.Sequence[dict]") -> "dict[tuple, str]":
    """``(pid, tid) -> logical track name`` from thread_name metadata."""
    names: typing.Dict[tuple, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            key = (event.get("pid", 1), event.get("tid", 0))
            names[key] = str((event.get("args") or {}).get("name", key))
    return names


def summarize_point_events(
    events: "typing.Sequence[dict]",
) -> "tuple[list[tuple], list[tuple]]":
    """Aggregate instant and counter events by name.

    Complements :func:`summarize_events` (duration spans only).
    Returns ``(instant_rows, counter_rows)``: instant rows are
    ``(name, count, {track: count})`` sorted by count descending;
    counter rows are ``(name, samples, last_value, {track: samples})``.
    Tracks resolve through thread_name metadata, falling back to
    ``pid/tid``.
    """
    tracks = track_names(events)

    def _track(event: dict) -> str:
        key = (event.get("pid", 1), event.get("tid", 0))
        return tracks.get(key, f"{key[0]}/{key[1]}")

    instants: typing.Dict[str, typing.Dict[str, int]] = {}
    counters: typing.Dict[str, dict] = {}
    for event in events:
        phase = event.get("ph")
        name = event.get("name", "?")
        if phase == "i":
            per_track = instants.setdefault(name, {})
            track = _track(event)
            per_track[track] = per_track.get(track, 0) + 1
        elif phase == "C":
            entry = counters.setdefault(name, {"samples": 0, "last": None,
                                               "tracks": {}})
            entry["samples"] += 1
            entry["last"] = (event.get("args") or {}).get("value")
            track = _track(event)
            entry["tracks"][track] = entry["tracks"].get(track, 0) + 1
    instant_rows = [
        (name, sum(per_track.values()), per_track)
        for name, per_track in instants.items()
    ]
    instant_rows.sort(key=lambda r: (-r[1], r[0]))
    counter_rows = [
        (name, entry["samples"], entry["last"], entry["tracks"])
        for name, entry in counters.items()
    ]
    counter_rows.sort(key=lambda r: (-r[1], r[0]))
    return instant_rows, counter_rows
