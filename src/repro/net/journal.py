"""Write-ahead journal for the networked application master.

The AM appends every externally visible control-plane transition —
membership, fencing epochs, adjustment requests, commit plans, acks,
snapshot blobs, commits, final reports, progress boundaries — to an
append-only journal *before* replying to the worker that caused it
(journal-before-reply).  :class:`JournalState` is the fold of those
records and :meth:`JournalState.apply` the one transition function: the
live AM applies each record to its state as it journals it, and a
standby or restarted AM replays the journal into the same class, bumps
the fencing epoch past every epoch ever journaled, and resumes the job:
an in-flight 5-step commit is either completed (all the acks and the
snapshot are in the journal) or cleanly aborted back to the last
committed generation.

Two invariants make replay safe:

* **journaled ⊇ replied** — anything a worker could have observed is in
  the journal, so the successor can never *forget* a commitment; work
  the predecessor did but never replied to is simply re-driven by the
  workers' timeout-resend (:class:`~repro.net.transport.ReliableLink`).
* **torn tails are dropped, not fatal** — records carry a checksum over
  their canonical encoding; replay stops at the first corrupt or
  truncated line (a crash mid-``append``), which by the first invariant
  can only lose un-replied work.

An in-memory journal keeps each record as given — a deep copy taken at
``append`` (tuples become lists, numpy scalars plain numbers, byte
buffers ``bytes``, arrays private copies), so nothing a caller later
mutates can rewrite history — and hands out deep copies of it.  Nobody
reads it back as text, so it encodes nothing.  Only a file-backed
journal encodes: each record becomes one JSONL line with ndarray/bytes
values in base64 envelopes (:func:`repro.net.wire.encode_payload`; the
wire itself carries arrays raw, in binary frames) and a checksum over
the same JSON text, so a journal file is both human-greppable and able
to hold a chunked snapshot blob verbatim.  Reopening a file decodes it
once.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import typing

import numpy as np

from .wire import decode_payload, encode_payload

#: Record kinds the journal knows how to replay.  ``append`` accepts
#: only these so a typo'd kind fails at write time, not at failover.
RECORD_KINDS = frozenset({
    "init",       # job_id, spec payload, initial workers
    "epoch",      # a fencing epoch acquired by some AM incarnation
    "peer",       # a worker's advertised peer address
    "request",    # an accepted adjustment request (auto=True: eviction)
    "plan",       # a minted commit plan (boundary, groups, uploader,
                  # shards, batch schedule)
    "ack",        # one worker's adjust-directive ack
    "snapshot",   # the uploaded state blob (verbatim) + its geometry
    "commit",     # a committed adjustment (the point of no return)
    "abort",      # an in-flight plan abandoned back to the last commit
    "final",      # one worker's final report (digest, removed flag)
    "progress",   # a coordination-boundary progress watermark
    "condemn",    # a worker condemned by lease expiry
})


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sum_of(seq: int, kind_text: str, body: str) -> str:
    """The checksum over ``[seq, kind, data]``, from the JSON texts of
    the kind and the (encoded) data."""
    canonical = f"[{seq},{kind_text},{body}]"
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _checksum(seq: int, kind: str, data: dict) -> str:
    """The checksum of one record over its canonical encoding."""
    return _sum_of(seq, _dumps(kind), _dumps(data))


def _copy(obj):
    """A deep copy in the shape a decoded journal record has.

    The types :func:`~repro.net.wire.encode_payload` maps come back as
    :func:`~repro.net.wire.decode_payload` would return them (a list for
    a tuple, a plain number for a numpy scalar, ``bytes`` for any byte
    buffer, a private array copy), without the base64 round trip.
    ``bytes`` are immutable and shared.
    """
    if isinstance(obj, dict):
        return {key: _copy(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_copy(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (bytearray, memoryview)):
        return bytes(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class JournalError(RuntimeError):
    """The journal cannot accept a record (bad kind, closed file)."""


class Journal:
    """Append-only, checksummed record log (file-backed or in-memory).

    With a ``path`` every record is written and flushed as one JSONL
    line before :meth:`append` returns — the durability point the
    journal-before-reply discipline counts on.  Without a path records
    live in a list, which is what in-process failover tests and the
    chaos soak use (the "disk" survives because the successor AM is
    handed the same object).  Either way the list holds the records as
    given (deep copies, decoded), so :meth:`records` never decodes.
    """

    def __init__(self, path: "str | None" = None, metrics=None,
                 kinds: "frozenset[str] | None" = None):
        """``kinds`` overrides the accepted record-kind set (default:
        the AM's :data:`RECORD_KINDS`) — the cluster scheduler journals
        its own decision kinds through the same checksummed machinery."""
        self.path = path
        self.metrics = metrics
        self.kinds = RECORD_KINDS if kinds is None else frozenset(kinds)
        self._lock = threading.Lock()
        self._records: "list[dict]" = []
        self._seq = 0
        self._file = None
        self.truncated = 0
        if path is not None:
            existing = self._read_file(path)
            self._records = existing
            self._seq = existing[-1]["seq"] + 1 if existing else 0
            self._file = open(path, "a", encoding="utf-8")

    # -- writing ---------------------------------------------------------------

    def append(self, kind: str, /, **data) -> dict:
        """Durably append one record; returns it, ``data`` as given."""
        if kind not in self.kinds:
            raise JournalError(f"unknown journal record kind {kind!r}")
        kept = _copy(data)
        with self._lock:
            seq = self._seq
            self._seq += 1
            if self._file is not None:
                # One JSON pass: the data's text is both the checksum's
                # canonical form and the line's ``data`` field.
                body = _dumps(encode_payload(kept))
                kind_text = _dumps(kind)
                line = (
                    f'{{"data":{body},"kind":{kind_text},"seq":{seq},'
                    f'"sum":"{_sum_of(seq, kind_text, body)}"}}\n'
                )
                self._file.write(line)
                self._file.flush()
                os.fsync(self._file.fileno())
                if self.metrics is not None:
                    self.metrics.counter("am.journal.bytes").inc(len(line))
            self._records.append({"seq": seq, "kind": kind, "data": kept})
            if self.metrics is not None:
                self.metrics.counter("am.journal.appends").inc()
        return {"seq": seq, "kind": kind, "data": dict(data)}

    # -- reading ---------------------------------------------------------------

    def records(self) -> "list[dict]":
        """All valid records, as deep copies (ndarrays/bytes restored)."""
        with self._lock:
            raw = list(self._records)
        return [
            {"seq": r["seq"], "kind": r["kind"], "data": _copy(r["data"])}
            for r in raw
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _read_file(self, path: str) -> "list[dict]":
        """Parse and decode an existing journal file, dropping any torn
        tail."""
        if not os.path.exists(path):
            return []
        records: "list[dict]" = []
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    seq = record["seq"]
                    kind = record["kind"]
                    data = record["data"]
                    if record.get("sum") != _checksum(seq, kind, data):
                        raise ValueError("checksum mismatch")
                    if kind not in self.kinds:
                        raise ValueError(f"unknown kind {kind!r}")
                    if records and seq != records[-1]["seq"] + 1:
                        raise ValueError("sequence gap")
                except (ValueError, KeyError, TypeError):
                    # A torn or corrupt line ends the journal: nothing
                    # after it can be trusted (sequence is broken).
                    self.truncated += 1
                    break
                records.append(
                    {"seq": seq, "kind": kind, "data": decode_payload(data)}
                )
        return records

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class JournalState:
    """The AM's durable control state: the fold of its journal.

    :meth:`apply` is the one transition function of the replicated
    state machine (§V-D).  The live AM holds a ``JournalState`` as *the*
    state and applies each record the moment it is journaled
    (``NetworkedApplicationMaster._record``); a successor folds the same
    records with :meth:`replay` and derives everything volatile from
    the result — there is no second spelling of a transition to keep in
    step.  ``last_snapshot`` deliberately survives a commit: a joiner
    whose offer reply was lost keeps polling JOIN after the commit, so
    the committed generation's snapshot must stay servable.
    """

    def __init__(self):
        self.job_id: "str | None" = None
        self.spec_payload: "dict | None" = None
        self.initial_workers: "tuple[str, ...]" = ()
        self.epoch = 0
        self.peers: "dict[str, str]" = {}
        self.generation = 0
        #: membership per live generation (the committed one plus an
        #: in-flight plan's); retired generations are pruned at commit.
        self.groups: "dict[int, tuple[str, ...]]" = {}
        self.pending_request: "dict | None" = None
        #: the in-flight ``plan`` record: generation, commit boundary,
        #: groups, elected uploader and shard owners.
        self.plan: "dict | None" = None
        self.acked: "set[str]" = set()
        self.last_snapshot: "dict | None" = None
        self.last_commit: "dict | None" = None
        #: the committed generation's batch schedule (total batch, LR
        #: ramp); None until the first commit — the spec's own.
        self.schedule: "dict | None" = None
        self.final: "dict[str, dict]" = {}
        self.departed: "dict[str, dict]" = {}
        #: boundary watermark: one ``progress`` record per boundary.
        self.progress = 0
        self.condemned: "set[str]" = set()
        self.adjustments_committed = 0
        self.commit_latencies: "list[float]" = []
        self.replayed = 0

    @classmethod
    def replay(cls, records: "typing.Iterable[dict]") -> "JournalState":
        state = cls()
        for record in records:
            state.apply(record["kind"], record["data"])
            state.replayed += 1
        return state

    def apply(self, kind: str, data: dict) -> None:
        """Fold one record into the state — live and at replay alike."""
        if kind == "init":
            self.job_id = data["job_id"]
            self.spec_payload = data["spec"]
            self.initial_workers = tuple(data["workers"])
            self.groups[0] = tuple(data["workers"])
        elif kind == "epoch":
            self.epoch = max(self.epoch, int(data["epoch"]))
        elif kind == "peer":
            self.peers[data["worker"]] = data["addr"]
        elif kind == "request":
            self.pending_request = dict(data)
        elif kind == "plan":
            self.plan = dict(data)
            self.acked = set()
            self.groups[int(data["generation"])] = tuple(data["new_group"])
        elif kind == "ack":
            if self.plan is not None and (
                int(data["generation"]) == int(self.plan["generation"])
            ):
                self.acked.add(data["worker"])
        elif kind == "snapshot":
            self.last_snapshot = dict(data)
        elif kind == "commit":
            self.generation = int(data["generation"])
            # Membership of retired generations is dead weight: any
            # sync for them is rejected by the generation guard anyway.
            self.groups[self.generation] = tuple(data["new_group"])
            self.groups = {
                g: grp for g, grp in self.groups.items()
                if g >= self.generation
            }
            self.last_commit = dict(data)
            self.schedule = data.get("schedule", self.schedule)
            self.plan = None
            self.pending_request = None
            self.acked = set()
            self.adjustments_committed += 1
            if data.get("latency") is not None:
                self.commit_latencies.append(float(data["latency"]))
            for worker, info in (data.get("departed") or {}).items():
                self.departed[worker] = dict(info)
        elif kind == "abort":
            if self.plan is not None:
                self.groups.pop(int(self.plan["generation"]), None)
            self.plan = None
            self.pending_request = None
            self.acked = set()
        elif kind == "final":
            info = {
                "iteration": data.get("iteration"),
                "digest": data.get("digest"),
                "removed": bool(data.get("removed")),
            }
            if info["removed"]:
                self.departed[data["worker"]] = info
            else:
                self.final[data["worker"]] = info
        elif kind == "progress":
            self.progress = max(self.progress, int(data["iteration"]))
        elif kind == "condemn":
            self.condemned.add(data["worker"])

    @property
    def current_group(self) -> "tuple[str, ...]":
        return self.groups.get(self.generation, self.initial_workers)

    @property
    def complete(self) -> bool:
        """Every current-group member filed a final report, none pending."""
        return self.plan is None and all(
            w in self.final for w in self.current_group
        )

    @property
    def plan_snapshot(self) -> "dict | None":
        """The in-flight plan's ``snapshot`` record, once it has landed."""
        snap = self.last_snapshot
        if (
            self.plan is not None and snap is not None
            and snap["generation"] == self.plan["generation"]
        ):
            return snap
        return None


def joiners_of(plan: dict) -> "list[str]":
    """The workers a ``plan`` (or ``commit``) record adds to the group."""
    old = set(plan["old_group"])
    return [w for w in plan["new_group"] if w not in old]
