"""Pure-function tests of the ledger's arithmetic, on synthetic logs.

Outside the tier-1 ``testpaths``; run with
``python -m pytest bench/test_harness.py -q`` from the repository root
(no program import needed: every function under test takes plain data).
"""

import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import catalog, hostspeed, ledger, stats, trace  # noqa: E402


# -- period extraction -----------------------------------------------------------


def _coordinates():
    # rank 0 of a 4 -> 2 -> 4 churn, interval 4, 10 ms iterations at 4
    # workers and 5 ms at 2; the two adjusted periods stall 8 / 100 ms.
    return [
        (4, 0.040, "continue"), (8, 0.080, "continue"),
        (12, 0.120, "adjust:2:12"), (16, 0.148, "continue"),
        (20, 0.168, "continue"), (24, 0.188, "adjust:4:24"),
        (28, 0.328, "continue"), (32, 0.368, "continue"),
    ]


def test_periods_need_consecutive_boundaries():
    coordinates = _coordinates()
    del coordinates[4]  # the COORDINATE at 20 never made it into the log
    found = stats.periods(coordinates, 4)
    assert [p["iteration"] for p in found] == [4, 8, 12, 24, 28]
    assert all(abs(p["seconds"] - 0.040) < 1e-9 for p in found[:2])


def test_periods_track_group_size_and_adjustments():
    found = {p["iteration"]: p for p in stats.periods(_coordinates(), 4)}
    assert found[8]["size"] is None and not found[8]["adjusted"]
    assert found[12]["adjusted"] and found[12]["size"] == 2
    assert found[16]["size"] == 2 and not found[16]["adjusted"]
    assert found[24]["adjusted"] and found[24]["size"] == 4
    assert found[28]["size"] == 4
    assert 32 not in found  # the closing period has no closing COORDINATE


def test_steady_periods_select_by_size():
    found = stats.periods(_coordinates(), 4)
    at_base = stats.steady_periods(found, 4, base=4)
    at_two = stats.steady_periods(found, 2, base=4)
    assert [round(s, 3) for s in at_base] == [0.040, 0.040, 0.040]
    assert [round(s, 3) for s in at_two] == [0.020, 0.020]


# -- stall arithmetic --------------------------------------------------------------


def test_stall_is_adjusted_minus_steady_at_post_commit_size():
    found = {p["iteration"]: p for p in stats.periods(_coordinates(), 4)}
    everything = list(found.values())
    scale_in = stats.stall(
        found[12]["seconds"], stats.steady_periods(everything, 2, 4)
    )
    scale_out = stats.stall(
        found[24]["seconds"], stats.steady_periods(everything, 4, 4)
    )
    assert abs(scale_in - 0.008) < 1e-9
    assert abs(scale_out - 0.100) < 1e-9


def test_stall_never_negative_and_zero_without_reference():
    assert stats.stall(0.010, [0.020, 0.030]) == 0.0
    assert stats.stall(0.5, []) == 0.0


# -- the fast-quartile aggregator ---------------------------------------------------


def test_aggregate_takes_the_fast_side():
    times = [10.0, 10.2, 10.1, 14.0, 15.5, 10.3, 19.0, 10.0, 10.4, 13.0]
    q1, q2, q3 = statistics.quantiles(times, n=4)
    lower = stats.aggregate(times, stats.LOWER)
    assert lower["value"] == q1 and lower["median"] == q2
    assert lower["k"] == 10
    assert abs(lower["spread"] - (q3 - q1) / q2) < 1e-12
    rates = [1000.0 / t for t in times]
    higher = stats.aggregate(rates, stats.HIGHER)
    assert higher["value"] == statistics.quantiles(rates, n=4)[2]


def test_aggregate_ignores_slow_interference():
    calm = [10.0 + 0.01 * i for i in range(12)]
    busy = calm[:8] + [t * 1.6 for t in calm[8:]]  # a neighbour woke up
    a = stats.aggregate(calm, stats.LOWER)["value"]
    b = stats.aggregate(busy, stats.LOWER)["value"]
    assert abs(a - b) / a < 0.005
    assert abs(statistics.mean(busy) - statistics.mean(calm)) / a > 0.1


def test_aggregate_degenerate_inputs():
    assert stats.aggregate([], stats.LOWER)["k"] == 0
    one = stats.aggregate([3.0], stats.HIGHER)
    assert one["value"] == 3.0 and one["spread"] == 0.0


# -- the tail rule -------------------------------------------------------------------


def test_tail_leaves_at_least_ten_beyond():
    values = list(range(1, 101))  # 1..100
    percentile, value = stats.tail(values)
    assert value == 90 and percentile == 90.0
    assert sum(1 for v in values if v > value) == 10
    percentile, value = stats.tail(list(range(1000)))
    assert percentile == 99.0 and value == 989


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(list(range(10))) == (0.0, 0.0)
    assert stats.tail(list(range(11))) == (100.0 / 11, 0.0)


# -- span self time ------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps 1
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # overhangs
        {"id": 4, "parent": 1, "start": 1.5, "end": 2.0},
    ]
    own = stats.self_times(spans)
    assert own[0] == 10.0 - (5.0 + 1.0)
    assert own[1] == 3.0 - 0.5
    assert own[2] == 3.0 and own[4] == 0.5


def test_parents_follow_containment_per_track():
    spans = [
        {"name": "bench.agent.iteration", "track": "j/w0", "start": 0.0,
         "end": 10.0, "args": {}},
        {"name": "bench.master.sync", "track": "j/w0", "start": 2.0,
         "end": 5.0, "args": {}},
        {"name": "bench.collective.segment", "track": "j/w0", "start": 3.0,
         "end": 8.0, "args": {}},  # pipelined sibling, overlaps the sync
        {"name": "bench.master.sync", "track": "j/w1", "start": 2.5,
         "end": 4.0, "args": {}},  # another track never nests here
    ]
    trace.assign_parents(spans)
    assert spans[1]["parent"] == spans[0]["id"]
    assert spans[2]["parent"] == spans[0]["id"]
    assert spans[3]["parent"] is None
    table = {row["name"]: row for row in trace.self_time_table(spans)}
    assert abs(table["bench.agent.iteration"]["self_ms"] - 4000.0) < 1e-6


def test_worker_log_becomes_iteration_adjust_and_join_spans():
    log = [
        ("w0", "coordinate", 1.00, 1.01, 12, "adjust:2:12", 0),
        ("w0", "state_chunk", 1.02, 1.05, None, None, 4096),
        ("w0", "sync", 1.08, 1.10, 12, None, 0),
        ("w0", "sync", 1.12, 1.14, 13, None, 0),
        ("w4", "join", 0.90, 0.91, None, "pending", 0),
        ("w4", "join", 1.04, 1.05, None, "join", 0),
        ("w4", "state_fetch", 1.05, 1.07, None, None, 4096),
        ("w4", "sync", 1.09, 1.10, 12, None, 0),
    ]
    spans = trace.assign_parents(trace.spans_from_log(log, "job0"))
    named = {}
    for span in spans:
        named.setdefault((span["track"], span["name"]), []).append(span)
    adjust = named[("job0/w0", trace.ADJUST)][0]
    assert (adjust["start"], adjust["end"]) == (1.00, 1.08)
    chunk = named[("job0/w0", "bench.chunks.upload_chunk")][0]
    assert chunk["parent"] == adjust["id"]
    iteration = [s for s in named[("job0/w0", trace.ITERATION)]
                 if s["args"]["iteration"] == 12][0]
    assert adjust["parent"] == iteration["id"]
    join = named[("job0/w4", trace.JOIN)][0]
    assert (join["start"], join["end"]) == (0.90, 1.09)
    fetch = named[("job0/w4", "bench.chunks.fetch")][0]
    assert fetch["parent"] == join["id"]


# -- the ledger ----------------------------------------------------------------------


def _set(scale=1.0, spread=0.01, failed=0, python="3.11.0", calm=262.0):
    """A ledger set whose ``iter_ms_p50`` cells are scaled by ``scale``
    and whose every cell claims the within-run ``spread``."""
    runs = {}
    for workload in catalog.WORKLOADS:
        cells = {}
        for metric in catalog.END_TO_END:
            value = 100.0 * (scale if metric.name == "iter_ms_p50" else 1.0)
            cells[metric.name] = {"value": value, "median": value,
                                  "spread": spread, "k": 12,
                                  "unit": metric.unit}
        runs[workload] = {"end_to_end": cells, "attempted": 100,
                          "failed": failed,
                          "host": {"probe_us_calm": calm}}
    return {"runs": runs, "environment": {
        "cpu": "x", "nproc": 2, "python": python, "numpy": "1.0"}}


BOUND = catalog.BY_NAME["iter_ms_p50"].bound
TIMED = 2 * len(catalog.WORKLOADS)  # cells whose spread can blur them


def test_compare_classifies_every_cell():
    base = _set()
    assert ledger.compare(base, _set())["regressed"] == []
    slower = ledger.compare(base, _set(scale=1 + 2 * BOUND))
    assert len(slower["regressed"]) == len(catalog.WORKLOADS)
    assert all(c.endswith("iter_ms_p50") for c in slower["regressed"])
    assert ledger.compare_exit_code(slower) == 1
    faster = ledger.compare(base, _set(scale=1 - 2 * BOUND))
    assert len(faster["improved"]) == len(catalog.WORKLOADS)
    assert ledger.compare_exit_code(faster) == 0
    for row in slower["rows"]:
        assert row["base"] == 100.0 and "ratio" in row


def test_compare_and_noisy_label_treat_setup_alike():
    """A wide spread blurs a timed cell; setup_s is judged on its value
    in both places, so it can never hide as permanently unresolved."""
    blurred_set = _set(scale=1 + 2 * BOUND, spread=1.2 * BOUND)
    blurred = ledger.compare(_set(), blurred_set)
    assert blurred["regressed"] == []
    assert len(blurred["unresolved"]) == TIMED
    assert not any(c.endswith("setup_s") for c in blurred["unresolved"])
    assert ledger.is_noisy(blurred_set)
    only_setup = _set()
    for run in only_setup["runs"].values():
        run["end_to_end"]["setup_s"]["spread"] = 3 * BOUND
    assert not ledger.is_noisy(only_setup)
    assert ledger.compare(_set(), only_setup)["unresolved"] == []


def test_compare_fails_on_a_higher_failed_share():
    diff = ledger.compare(_set(), _set(failed=1))
    assert diff["regressed"] == [] and ledger.compare_exit_code(diff) == 1


def test_compare_flags_another_interpreter_or_probe():
    assert ledger.compare(_set(), _set())["environment"] == []
    other = ledger.compare(_set(), _set(python="3.12.1"))
    assert other["environment"] == ["python: 3.11.0 != 3.12.1"]
    assert "NOT COMPARABLE" in ledger.format_compare(other)
    assert ledger.compare(_set(), _set(calm=262.0 * 1.08))["environment"] == []
    drifted = ledger.compare(_set(), _set(calm=262.0 * 1.2))
    assert len(drifted["environment"]) == len(catalog.WORKLOADS)


def test_aa_needs_five_quiet_sets_and_bounds_twice_the_disagreement():
    calm = [_set(), _set(scale=1.01), _set(scale=0.99), _set(scale=1.005),
            _set(scale=0.995)]
    verdict = ledger.evaluate_aa(calm)
    assert verdict["verdict"] == "ok" and verdict["judged_sets"] == 5
    few = ledger.evaluate_aa(calm[:4])
    assert few["verdict"] == "fail" and "5 needed" in few["reasons"][0]
    tight = ledger.evaluate_aa(calm + [_set(scale=1 + 0.75 * BOUND)])
    assert tight["verdict"] == "fail"
    assert tight["cells"]["star_tcp_churn/iter_ms_p50"]["status"] == "tight"
    assert any("< 2 x worst pairwise" in r for r in tight["reasons"])
    failing = ledger.evaluate_aa(calm + [_set(scale=1 + 2 * BOUND)])
    assert failing["cells"]["star_tcp_churn/iter_ms_p50"]["status"] == "fail"
    excused = ledger.evaluate_aa(
        calm + [_set(scale=1 + 2 * BOUND, spread=1.2 * BOUND)]
    )
    assert excused["verdict"] == "ok" and excused["noisy_sets"] == [5]
    assert len(excused["cells"]["star_tcp_churn/iter_ms_p50"]["values"]) == 6


# -- the host factor -----------------------------------------------------------------


def test_factor_is_the_mean_probe_over_the_samples_own_interval():
    calm, slow = hostspeed.REFERENCE_S, 1.5 * hostspeed.REFERENCE_S
    probes = [(t / 10.0, calm if t < 50 else slow) for t in range(100)]
    assert hostspeed.factor(probes, 1.0, 3.0, pad=0.0) == 1.0
    assert abs(hostspeed.factor(probes, 6.0, 8.0, pad=0.0) - 1.5) < 1e-9
    # half of [4, 6] ran slow: the wall clock is the sum of both parts
    assert abs(hostspeed.factor(probes, 4.0, 5.95, pad=0.0) - 1.25) < 1e-9
    # an interval between two probes takes the nearest; none at all, 1
    assert abs(hostspeed.factor(probes, 7.01, 7.02, pad=0.0) - 1.5) < 1e-9
    assert hostspeed.factor([], 0.0, 1.0) == 1.0
    assert hostspeed.calm_probe(probes) == calm


def test_catalog_is_well_formed():
    spec = catalog.benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= catalog.BOUND_CAP <= 0.25
               for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert 2 <= len(spec["workloads"]) <= 8 and len(spec["per_layer"]) <= 128
