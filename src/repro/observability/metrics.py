"""Counters, gauges and streaming histograms behind a metric registry.

The registry is the numeric half of the observability layer (spans are
the temporal half): hot paths record one observation per event and the
registry keeps O(1) state per metric.  Quantiles use the P² algorithm
(Jain & Chlamtac, 1985) — five markers per tracked quantile updated by
parabolic interpolation — so p50/p95/p99 of thousands of iteration
timings cost a few floats, no sample buffers, no dependencies.
"""

from __future__ import annotations

import bisect
import secrets
import threading
import typing


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (e.g. current worker count)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    Holds five markers whose heights converge to
    ``(min, p/2, p, (1+p)/2, max)`` quantiles; each observation moves at
    most three markers by parabolic (falling back to linear)
    interpolation.  Exact for the first five observations (sorted
    buffer), approximate afterwards.
    """

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.p = p
        self.count = 0
        self._heights: typing.List[float] = []  # marker heights q[0..4]
        self._positions: typing.List[float] = []  # marker positions n[0..4]

    def observe(self, x: float) -> None:
        self.count += 1
        if self.count <= 5:
            bisect.insort(self._heights, x)
            if self.count == 5:
                self._positions = [0.0, 1.0, 2.0, 3.0, 4.0]
            return
        q, n = self._heights, self._positions
        if x < q[0]:
            q[0] = x
            cell = 0
        elif x >= q[4]:
            q[4] = x
            cell = 3
        else:
            cell = next(i for i in range(4) if q[i] <= x < q[i + 1])
        for i in range(cell + 1, 5):
            n[i] += 1.0
        # Nudge the three middle markers toward their desired positions.
        total = float(self.count - 1)
        desired = (0.0, self.p / 2, self.p, (1 + self.p) / 2, 1.0)
        for i in (1, 2, 3):
            drift = desired[i] * total - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                drift <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if drift >= 0 else -1.0
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, n = self._heights, self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, n = self._heights, self._positions
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> "float | None":
        """Current estimate (None before any observation)."""
        if self.count == 0:
            return None
        if self.count < 5:
            # Exact: linear interpolation over the sorted buffer.
            rank = self.p * (len(self._heights) - 1)
            low = int(rank)
            high = min(low + 1, len(self._heights) - 1)
            fraction = rank - low
            return (
                self._heights[low] * (1 - fraction)
                + self._heights[high] * fraction
            )
        return self._heights[2]


class Histogram:
    """Streaming distribution summary: count/sum/min/max + P² quantiles."""

    def __init__(self, name: str,
                 quantiles: typing.Sequence[float] = (0.5, 0.95, 0.99)):
        self.name = name
        self._lock = threading.Lock()
        self._estimators = {q: P2Quantile(q) for q in quantiles}
        self.count = 0
        self.sum = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for estimator in self._estimators.values():
                estimator.observe(value)

    @property
    def mean(self) -> "float | None":
        with self._lock:
            return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> "float | None":
        """Estimate of quantile ``q`` (must be one of the tracked set)."""
        with self._lock:
            if q not in self._estimators:
                raise KeyError(f"histogram {self.name!r} does not track {q}")
            return self._estimators[q].value()

    def snapshot(self) -> dict:
        """All summary statistics as one plain dict."""
        with self._lock:
            stats = {
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "mean": self.sum / self.count if self.count else None,
            }
            for q, estimator in self._estimators.items():
                stats[f"p{q * 100:g}"] = estimator.value()
            return stats


class MetricRegistry:
    """Named metrics, created on first use, queried as one snapshot.

    ``id`` names this registry across processes: a snapshot shipped
    beside it lets a fleet rollup count a registry that several
    in-process workers share once, not once per shipper.
    """

    def __init__(self):
        self.id = secrets.token_hex(8)
        self._lock = threading.Lock()
        self._metrics: typing.Dict[str, object] = {}

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str,
        quantiles: typing.Sequence[float] = (0.5, 0.95, 0.99),
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram, lambda: Histogram(name, quantiles))

    def names(self) -> "list[str]":
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """{name: value | histogram stats} for every registered metric.

        The one metric format, JSON-safe: TELEMETRY ships it, metric
        dumps hold it, and every reader takes it as a plain dict.
        """
        with self._lock:
            metrics = dict(self._metrics)
        out = {}
        for name, metric in sorted(metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value  # Counter | Gauge
        return out
