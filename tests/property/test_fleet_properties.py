"""Property-based tests for the fleet trace merger.

The merger's contract: feed it *any* combination of per-process traces
— arbitrary interleavings, subsets, truncated tails, malformed events —
and it always produces a ``validate_events``-clean fleet trace, and the
same combination always produces the *same* trace regardless of the
order the processes were added in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    TraceMerger,
    Tracer,
    derive_report,
    validate_events,
)

span_names = st.sampled_from(
    ["worker.iteration", "net.send", "sync.barrier", "net.state_upload"]
)
instant_names = st.sampled_from(
    ["worker.enrolled", "worker.condemned", "am.failover"]
)

# One recorded event: (kind, name, track, start_s, dur_s).
events_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("span"), span_names, st.sampled_from(["main", "aux"]),
            st.floats(0.0, 100.0, allow_nan=False),
            st.floats(0.0, 5.0, allow_nan=False),
        ),
        st.tuples(
            st.just("instant"), instant_names,
            st.sampled_from(["main", "aux"]),
            st.floats(0.0, 100.0, allow_nan=False),
            st.just(0.0),
        ),
    ),
    max_size=12,
)


def build_trace(process, recorded, offset=None):
    tracer = Tracer(clock=lambda: 0.0, process=process)
    for kind, name, track, start, dur in recorded:
        if kind == "span":
            tracer.add_span(name, start, start + dur, track=track)
        else:
            tracer.add_instant(name, start, track=track)
    events = tracer.to_events()
    if offset is not None:
        # The process's own clock-sync evidence, as shipped on the wire.
        events.append({
            "name": "net.clock_sample", "cat": "net", "ph": "i", "s": "t",
            "ts": 0.0, "pid": 1, "tid": 1,
            "args": {"peer": "am", "offset": offset, "rtt": 0.001},
        })
    return events


process_traces = st.dictionaries(
    keys=st.sampled_from(["am", "w0", "w1", "w2"]),
    values=st.tuples(
        events_strategy,
        st.one_of(st.none(), st.floats(-10.0, 10.0, allow_nan=False)),
    ),
    min_size=0, max_size=4,
)


class TestMergerProperties:
    @given(traces=process_traces, order=st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_merge_is_always_valid_and_order_independent(
        self, traces, order
    ):
        """Any subset of processes, added in any order, merges into a
        validate-clean trace — and the result is byte-identical no
        matter the add order."""
        names = sorted(traces)
        shuffled = list(names)
        order.shuffle(shuffled)
        sorted_merger, shuffled_merger = TraceMerger(), TraceMerger()
        for name in names:
            recorded, offset = traces[name]
            sorted_merger.add(build_trace(name, recorded, offset), name)
        for name in shuffled:
            recorded, offset = traces[name]
            shuffled_merger.add(build_trace(name, recorded, offset), name)
        merged = sorted_merger.merge()
        assert validate_events(merged) == []
        assert merged == shuffled_merger.merge()
        # The merge never invents or loses data events: every usable
        # input event survives, nothing else appears.
        expected = sum(
            len(r) + (1 if offset is not None else 0)
            for r, offset in traces.values()
        )
        produced = [e for e in merged if e.get("ph") != "M"]
        if expected:
            assert len(produced) == expected
        # ...and a goodput report can always be derived from it.
        derive_report(merged)

    @given(
        traces=process_traces,
        truncate=st.integers(0, 12),
        victim=st.sampled_from(["am", "w0", "w1", "w2"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncated_tails_still_merge_clean(
        self, traces, truncate, victim
    ):
        """A worker that died mid-ship leaves a truncated event list;
        the merge of the partial view must still validate."""
        merger = TraceMerger()
        for name in sorted(traces):
            recorded, offset = traces[name]
            events = build_trace(name, recorded, offset)
            if name == victim:
                events = events[:truncate]
            merger.add(events, name)
        assert validate_events(merger.merge()) == []

    @given(traces=process_traces)
    @settings(max_examples=50, deadline=None)
    def test_offsets_shift_timestamps_exactly(self, traces):
        """Every merged event's timestamp is its source timestamp plus
        its process's offset — alignment is a pure shift, never a
        reorder within a process."""
        merger = TraceMerger()
        for name in sorted(traces):
            recorded, offset = traces[name]
            merger.add(build_trace(name, recorded, offset), name)
        offsets = merger.offsets()
        merged = merger.merge()
        pid_names = {
            e["pid"]: e["args"]["name"] for e in merged
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        for name in sorted(traces):
            recorded, _ = traces[name]
            source_ts = sorted(start * 1e6 for _, _, _, start, _ in recorded)
            pid = next(
                (p for p, n in pid_names.items() if n == name), None
            )
            if pid is None:
                assert not recorded
                continue
            shifted = sorted(
                e["ts"] - offsets[name] * 1e6 for e in merged
                if e.get("ph") != "M" and e["pid"] == pid
                and e.get("name") not in ("net.clock_sample", "fleet.merge")
            )
            assert len(shifted) == len(source_ts)
            for got, want in zip(shifted, source_ts):
                assert abs(got - want) < 1e-6
