"""The ledger: sets of runs, the A/A verdict, and the diff of two sets.

A *set* is one run of every workload; it is what ``BENCH_<pr>.json``
holds.  ``evaluate_aa`` judges N sets of identical code against the
catalog's bounds; ``compare`` is the ledger diff a later change is
judged by.  Both are pure functions over the stored dictionaries.
"""

from __future__ import annotations

from . import catalog, stats
from .stats import LOWER


def cell_key(workload: str, metric: str) -> str:
    return f"{workload}/{metric}"


def set_cells(ledger_set: dict) -> "dict[str, dict]":
    """``workload/metric`` -> stored cell, end-to-end metrics only."""
    cells = {}
    for workload, run in ledger_set["runs"].items():
        for metric in catalog.END_TO_END:
            cell = run["end_to_end"].get(metric.name)
            if cell is not None:
                cells[cell_key(workload, metric.name)] = cell
    return cells


def failed_share(ledger_set: dict) -> float:
    attempted = sum(r["attempted"] for r in ledger_set["runs"].values())
    failed = sum(r["failed"] for r in ledger_set["runs"].values())
    return failed / attempted if attempted else 0.0


#: sets not labelled noisy that an A/A verdict needs at least.
MIN_QUIET_SETS = 5
#: environment keys two ledgers must share for their values to compare.
ENVIRONMENT_KEYS = ("cpu", "nproc", "python", "numpy")
#: how far two ledgers' calm-core probe times may differ before their
#: host factors no longer mean the same thing (share of the base's; runs
#: of identical code on this host differ by up to 0.10).
PROBE_DRIFT = 0.15


def resolves(metric, cell: dict) -> bool:
    """The run behind ``cell`` could resolve a change of the bound's size.

    ``setup_s`` always counts as resolved, here as in the driver's own
    spread check: a bring-up is tens of milliseconds of thread starts,
    so its segments scatter by more than any bound while their fast
    quartile repeats -- it is gated on its value alone.
    """
    return metric.name == "setup_s" or cell["spread"] <= metric.bound


def is_noisy(ledger_set: dict) -> bool:
    """A set holds a run that could not resolve one of its own metrics."""
    cells = set_cells(ledger_set)
    return any(
        not resolves(metric, cells[cell_key(workload, metric.name)])
        for workload in ledger_set["runs"]
        for metric in catalog.END_TO_END
        if cell_key(workload, metric.name) in cells
    )


def evaluate_aa(sets: "list[dict]") -> dict:
    """Judge N sets of identical code against the catalog's bounds.

    Per metric x workload: every set's value and spread and the worst
    pairwise difference over the sets not labelled noisy; ``tight``
    above half the bound (the bound is no longer twice the
    disagreement), ``fail`` above the bound.  The verdict is ``ok`` only
    with at least :data:`MIN_QUIET_SETS` quiet sets, every cell ``ok``
    and every bound <= 0.10; anything else is ``fail``, with reasons.
    """
    noisy_sets = [i for i, s in enumerate(sets) if is_noisy(s)]
    quiet = [s for i, s in enumerate(sets) if i not in noisy_sets]
    reasons = []
    if len(quiet) < MIN_QUIET_SETS:
        reasons.append(
            f"{len(quiet)} sets not labelled noisy, {MIN_QUIET_SETS} needed"
        )
    cells = {}
    for workload in catalog.WORKLOADS:
        for metric in catalog.END_TO_END:
            key = cell_key(workload, metric.name)
            worst = stats.worst_pairwise(
                set_cells(s)[key]["value"] for s in quiet
            )
            status = "ok"
            if worst > metric.bound:
                status = "fail"
            elif worst > metric.bound / 2.0:
                status = "tight"
            if status != "ok":
                reasons.append(
                    f"{key}: bound {metric.bound:.2f} < 2 x worst pairwise "
                    f"{worst:.4f}"
                )
            cells[key] = {
                "values": [set_cells(s)[key]["value"] for s in sets],
                "spreads": [set_cells(s)[key]["spread"] for s in sets],
                "worst_pairwise": worst, "bound": metric.bound,
                "status": status,
            }
    for metric in catalog.END_TO_END:
        if metric.bound > catalog.BOUND_CAP:
            reasons.append(
                f"bound of {metric.name} above {catalog.BOUND_CAP:.2f}"
            )
    return {
        "sets": len(sets), "noisy_sets": noisy_sets,
        "judged_sets": len(quiet),
        "verdict": "fail" if reasons else "ok", "reasons": reasons,
        "cells": cells,
    }


def format_aa(verdict: dict) -> str:
    lines = [
        f"{key:<48} worst pairwise {cell['worst_pairwise']:.4f} "
        f"bound {cell['bound']:.2f} {cell['status']}"
        for key, cell in verdict["cells"].items()
    ]
    lines.append(
        f"A/A verdict: {verdict['verdict']} over {verdict['judged_sets']} "
        f"of {verdict['sets']} sets (noisy: {verdict['noisy_sets']})"
    )
    lines += [f"  because {reason}" for reason in verdict["reasons"]]
    return "\n".join(lines)


def environment_differences(base: dict, other: dict) -> "list[str]":
    """Why two ledgers' values may not be comparable at all.

    Values are reported at a reference core speed measured by a
    pure-Python probe: another interpreter, numpy or CPU model moves the
    probe independently of the program.  The runs' own calm-core probe
    times catch the same drift when the fingerprint does not.
    """
    out = []
    a_env, b_env = base.get("environment", {}), other.get("environment", {})
    for key in ENVIRONMENT_KEYS:
        if a_env.get(key) != b_env.get(key):
            out.append(f"{key}: {a_env.get(key)} != {b_env.get(key)}")
    for workload, run in base["runs"].items():
        a = run["host"]["probe_us_calm"]
        b = other["runs"].get(workload, run)["host"]["probe_us_calm"]
        if a and abs(b - a) / a > PROBE_DRIFT:
            out.append(
                f"{workload}: calm-core probe {b:.0f} us against base "
                f"{a:.0f} us"
            )
    return out


def compare(base: dict, other: dict) -> dict:
    """The ledger diff: ``other`` judged against ``base``.

    ``unresolved`` when either side's run could not resolve the metric
    (:func:`resolves`); ``regressed`` / ``improved`` when the value
    moved past the bound in that direction; otherwise ``unchanged``.
    Every ratio carries its base.
    """
    rows = []
    a_cells, b_cells = set_cells(base), set_cells(other)
    for workload in catalog.WORKLOADS:
        for metric in catalog.END_TO_END:
            key = cell_key(workload, metric.name)
            a, b = a_cells.get(key), b_cells.get(key)
            if a is None or b is None:
                rows.append({"cell": key, "status": "missing"})
                continue
            ratio = b["value"] / a["value"] if a["value"] else float("inf")
            worse = ratio - 1.0 if metric.better == LOWER else 1.0 - ratio
            if not (resolves(metric, a) and resolves(metric, b)):
                status = "unresolved"
            elif worse > metric.bound:
                status = "regressed"
            elif -worse > metric.bound:
                status = "improved"
            else:
                status = "unchanged"
            rows.append({
                "cell": key, "status": status, "base": a["value"],
                "other": b["value"], "ratio": ratio, "unit": metric.unit,
                "bound": metric.bound,
                "spreads": [a["spread"], b["spread"]],
            })
    return {
        "rows": rows,
        "environment": environment_differences(base, other),
        "failed_share": [failed_share(base), failed_share(other)],
        "regressed": [r["cell"] for r in rows if r["status"] == "regressed"],
        "improved": [r["cell"] for r in rows if r["status"] == "improved"],
        "unresolved": [r["cell"] for r in rows
                       if r["status"] == "unresolved"],
    }


def compare_exit_code(diff: dict) -> int:
    """Non-zero on a regression or a higher failed share."""
    worse_failures = diff["failed_share"][1] > diff["failed_share"][0]
    return 1 if diff["regressed"] or worse_failures else 0


def format_compare(diff: dict) -> str:
    lines = [
        f"NOT COMPARABLE, environment differs -- {difference}"
        for difference in diff["environment"]
    ]
    for row in diff["rows"]:
        if row["status"] == "missing":
            lines.append(f"{row['cell']:<48} missing")
            continue
        lines.append(
            f"{row['cell']:<48} {row['status']:<10} "
            f"{row['other']:.4f} / {row['base']:.4f} {row['unit']} "
            f"= {row['ratio']:.4f} (bound {row['bound']:.2f}, spreads "
            f"{row['spreads'][0]:.3f} {row['spreads'][1]:.3f})"
        )
    lines.append(
        f"failed share: {diff['failed_share'][1]:.4f} against base "
        f"{diff['failed_share'][0]:.4f}"
    )
    return "\n".join(lines)
