"""Pure arithmetic of the ledger: quartiles, periods, stalls, self time.

Nothing here touches the program or the clock, so every rule the ledger
depends on is testable on synthetic logs (``bench/test_harness.py``).
"""

from __future__ import annotations

import statistics

LOWER, HIGHER = "lower", "higher"


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> "tuple[float, float, float]":
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)`` cuts them."""
    values = [float(v) for v in values]
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def aggregate(values, better: str) -> dict:
    """One run's value from its K segment samples.

    Other tenants only ever slow a segment down, so the quartile on the
    fast side (Q1 of times, Q3 of rates) is the estimate that repeats;
    the median, the spread and K are kept beside it.
    """
    values = [float(v) for v in values]
    q1, q2, q3 = quartiles(values)
    return {
        "value": q1 if better == LOWER else q3,
        "median": q2,
        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
        "k": len(values),
    }


def tail(values, beyond: int = 10) -> "tuple[float, float]":
    """The highest percentile with at least ``beyond`` samples past it.

    Returns ``(percentile, value)``; with too few samples to leave
    ``beyond`` of them past any point, ``(0.0, 0.0)``.
    """
    ordered = sorted(float(v) for v in values)
    index = len(ordered) - beyond - 1
    if index < 0:
        return 0.0, 0.0
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def relative_difference(a: float, b: float) -> float:
    """|a - b| as a share of their mean (0 when both are 0)."""
    mean = (abs(a) + abs(b)) / 2.0
    return abs(a - b) / mean if mean else 0.0


def worst_pairwise(values) -> float:
    """The largest :func:`relative_difference` over all pairs."""
    values = list(values)
    return max(
        (relative_difference(a, b)
         for i, a in enumerate(values) for b in values[i + 1:]),
        default=0.0,
    )


# -- coordination periods ------------------------------------------------------


def periods(coordinates, interval: int) -> "list[dict]":
    """Coordination periods of one rank from its COORDINATE records.

    ``coordinates`` is ``[(iteration, t0, tag), ...]``; a period runs
    from one boundary's COORDINATE issue to the next boundary's, so it
    is only defined between *consecutive* boundaries.  ``adjusted`` is
    set when the opening COORDINATE came back as an adjust directive;
    ``size`` is the group size that trained the period (``None`` until
    an adjust directive has told us).
    """
    ordered = sorted(coordinates)
    out = []
    size = None
    for (it0, t0, tag0), (it1, t1, _tag1) in zip(ordered, ordered[1:]):
        adjusted = bool(tag0) and str(tag0).startswith("adjust:")
        if adjusted:
            size = int(str(tag0).split(":")[1])
        if it1 - it0 != interval:
            continue
        out.append({
            "iteration": it0, "seconds": t1 - t0, "adjusted": adjusted,
            "size": size,
        })
    return out


def steady_periods(all_periods, size: int, base: int) -> "list[float]":
    """Durations of adjustment-free periods trained at ``size`` workers."""
    return [
        p["seconds"] for p in all_periods
        if not p["adjusted"] and (p["size"] if p["size"] is not None
                                  else base) == size
    ]


def stall(adjusted_seconds: float, steady) -> float:
    """Training time an adjustment cost: the adjusted period minus the
    steady period at the post-commit size (never below zero)."""
    steady = list(steady)
    if not steady:
        return 0.0
    return max(0.0, adjusted_seconds - median(steady))


# -- spans ---------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)``s."""
    covered = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            covered += stop - start
            end = stop
        elif stop > end:
            covered += stop - end
            end = stop
    return covered


def self_times(spans) -> "dict[int, float]":
    """Self time per span: duration minus the union of its children.

    ``spans`` is ``[{"id", "parent", "start", "end"}, ...]``; children
    are clipped to their parent so an overhanging child cannot drive a
    self time negative.
    """
    children: "dict[int, list]" = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        stop = min(span["end"], parent["end"])
        if stop > start:
            children.setdefault(parent["id"], []).append((start, stop))
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], ()))
        for span in spans
    }
