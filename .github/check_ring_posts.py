"""CI check on one worker trace of the ring scenario smokes.

Ring segments must have left as one-way posts, the injected peer reset
must have landed on one and been absorbed by the link (an immediate
retry of the lost send, or a replay of unconfirmed posts on the redial)
— and never by degrading the ring.  The worker's peer server must have
accepted at least one connection.  A ring iteration is confirmed once:
no more distinct confirming requests (non-post segments; a resend
reuses its msg_id) than allreduce spans.
"""

import json
import sys

events = json.load(open(sys.argv[1]))
segments = [
    e["args"] for e in events
    if e["name"] == "net.send" and e["args"].get("type") == "ring_segment"
]
posts = [args for args in segments if args.get("post")]
confirmations = {args["msg_id"] for args in segments if not args.get("post")}
allreduces = sum(1 for e in events if e["name"] == "net.allreduce")
lost = [args for args in segments if not args["delivered"]]
replayed = sum(
    e["args"].get("replayed", 0) for e in events
    if e["name"] == "net.reconnect"
)
degraded = [e for e in events if e["name"] == "net.allreduce.degraded"]
accepts = [e["args"] for e in events if e["name"] == "net.accept"]
print(
    f"{len(segments)} ring_segment sends, {len(posts)} posts, "
    f"{len(confirmations)} confirmations over {allreduces} allreduces, "
    f"{len(lost)} lost to the reset, {replayed} replayed, "
    f"{len(degraded)} degraded, {len(accepts)} peer connections accepted"
)
assert posts, "no ring segment left as a post"
assert len(confirmations) <= allreduces, (
    f"{len(confirmations)} confirming requests for {allreduces} iterations"
)
assert lost or replayed, "the injected peer reset never hit a ring segment"
assert not degraded, degraded
assert accepts, "the worker's peer server accepted no connection"
