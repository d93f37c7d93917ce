"""The in-process job the end-to-end tests drive."""

import time

from repro.coordination.messages import MessageType
from repro.net import LocalJob


class Harness(LocalJob):
    """A :class:`LocalJob` with the suite's link settings (0.5 s acks;
    on TCP 0.2 s heartbeats and one dial, so a failed dial fails the
    test) and a ``join_all`` that asserts success."""

    def link(self, node_id, **options):
        options.setdefault("ack_timeout", 0.5)
        if self.transport == "tcp":
            options.setdefault("heartbeat_interval", 0.2)
            options.setdefault("connect_attempts", 1)
        return super().link(node_id, **options)

    def join_all(self, timeout=90.0):
        finished = self.join(timeout)
        assert not self.errors, self.errors
        assert finished, "workers still running"


def wait_for_iteration(driver, iteration, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        status = driver.request(MessageType.STATUS)
        if status["iteration"] >= iteration:
            return status
        assert time.monotonic() < deadline, status
        time.sleep(0.02)
