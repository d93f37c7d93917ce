"""Timing proxies: the benchmark's only view into a running job.

Nothing here reaches into the program.  A :class:`TimedLink` stands in
for the :class:`~repro.net.ReliableLink` a worker is handed and logs
every request with worker-side ``perf_counter`` stamps; a
:class:`TimedPeerHost` does the same for the peer mesh (connects and
ring segments); a :class:`SpanRecorder` is a duck-typed tracer for the
one place the harness cannot hand in its own links (the cluster
runners' workers).  All three append plain tuples to one list per job —
``list.append`` is atomic, so worker threads share it without a lock.

Log record: ``(who, kind, t0, t1, iteration, tag, nbytes)``.
"""

from __future__ import annotations

import contextlib
import time

_now = time.perf_counter

def _nbytes(data) -> int:
    """Bytes of a chunk (bytes / memoryview) or of a ring bucket (views)."""
    if data is None:
        return 0
    if isinstance(data, (list, tuple)):
        return sum(getattr(view, "nbytes", 0) for view in data)
    nbytes = getattr(data, "nbytes", None)
    return len(data) if nbytes is None else nbytes


class TimedLink:
    """A ReliableLink look-alike that stamps every request."""

    def __init__(self, link, who: str, log: list, plane: str = "am",
                 parting: "list | None" = None):
        self._link = link
        self._who = who
        self._log = log
        #: "am" for the control link, "peer" for ring / shard links.
        self._prefix = "" if plane == "am" else plane + "."
        #: where a closed link waits for its host to close it (peer plane).
        self._parting = parting

    def request(self, msg_type, payload=None, ack_timeout=None):
        kind = self._prefix + msg_type.value
        iteration = payload.get("iteration") if payload else None
        t0 = _now()
        try:
            reply = self._link.request(
                msg_type, payload, ack_timeout=ack_timeout
            )
        except BaseException as exc:
            self._log.append(
                (self._who, kind, t0, _now(), iteration,
                 "error:" + type(exc).__name__, 0)
            )
            raise
        t1 = _now()
        tag = reply.get("kind") or reply.get("status")
        if tag == "adjust":
            # Survivors report the membership they were told to adopt:
            # the serial replay follows exactly these group sizes.
            tag = "adjust:%d:%d" % (
                len(reply["group"]), reply["commit_iteration"]
            )
        nbytes = _nbytes(payload.get("data")) if payload else 0
        if not nbytes:
            nbytes = _nbytes(reply.get("data"))
        self._log.append((self._who, kind, t0, t1, iteration, tag, nbytes))
        return reply

    def close(self) -> None:
        if self._parting is not None:
            self._parting.append(self._link)
        else:
            self._link.close()

    def __getattr__(self, name):
        # transport / trace_context / clock_sync / resends ...
        return getattr(self._link, name)


class TimedPeerHost:
    """A PeerHost look-alike: times connects, wraps the links it returns.

    The one place a proxy changes what the program does: a peer link its
    owner closes stays open until the host itself is closed at the end
    of the job.  A worker that leaves at a scale-in closes its ring
    links with its last ``ring-send`` threads still holding buckets for
    the successor; when the successor is leaving too, nobody repairs the
    loss and it dies 15 s later (README, program defects: once per
    ~200 churn jobs over the shm mesh).  Endpoints are still released on
    time; only the outbound links linger.
    """

    def __init__(self, host, log: list):
        self._host = host
        self._log = log
        self._parting: list = []

    def serve(self, core, worker_id: str) -> str:
        t0 = _now()
        addr = self._host.serve(core, worker_id)
        self._log.append((worker_id, "peer.serve", t0, _now(), None, None, 0))
        return addr

    def connect(self, addr: str, node_id: str, **kwargs):
        t0 = _now()
        link = self._host.connect(addr, node_id=node_id, **kwargs)
        self._log.append((node_id, "peer.connect", t0, _now(), None, None, 0))
        return TimedLink(link, node_id, self._log, plane="peer",
                         parting=self._parting)

    def release(self, addr: str) -> None:
        self._host.release(addr)

    def close(self) -> None:
        while self._parting:
            self._parting.pop().close()
        self._host.close()


class SpanRecorder:
    """The tracer-shaped hook for workers the harness cannot wire itself.

    ``ElasticJobRunner(tracer=...)`` hands this to every worker it
    starts; only ``worker.iteration`` begin/end pairs are kept (as
    ``iteration`` log records), plus send counts.  Everything
    else the program offers the hook is dropped unread.
    """

    enabled = True

    def __init__(self, log: list):
        self._log = log
        self.sends = 0
        self.send_ids: set = set()

    def begin(self, name, track=None, cat="", **args):
        if name != "worker.iteration":
            return None
        return (track, _now(), args.get("iteration"))

    def end(self, token, **extra) -> None:
        if token is not None:
            who, t0, iteration = token
            self._log.append((who, "iteration", t0, _now(), iteration, None, 0))

    def span(self, name, track=None, cat="", **args):
        return contextlib.nullcontext()

    def instant(self, name, track=None, cat="", **args) -> None:
        if name == "net.send":
            self.sends += 1
            self.send_ids.add((track, args.get("msg_id")))
