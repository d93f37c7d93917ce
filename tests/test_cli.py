"""Tests for the repro-elan command-line interface."""

import os

import pytest

from repro.cli import build_parser, main

REPO = os.path.join(os.path.dirname(__file__), "..")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--policy", "lottery"])


class TestCommands:
    def test_models_prints_table1(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "VGG-19" in out and "143M" in out
        assert "Transformer" in out

    def test_scaling_prints_curves(self, capsys):
        assert main(["scaling", "--model", "MobileNet-v2"]) == 0
        out = capsys.readouterr().out
        assert "strong scaling" in out
        assert "weak scaling" in out
        assert "optimal workers" in out

    def test_scaling_eval_cluster(self, capsys):
        assert main(["scaling", "--cluster", "eval"]) == 0
        assert "eval cluster" in capsys.readouterr().out

    def test_adjust_reports_speedup(self, capsys):
        assert main([
            "adjust", "--kind", "scale_out",
            "--old-workers", "4", "--new-workers", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Elan" in out and "S&R" in out and "speedup" in out

    def test_elastic_training_prints_table4(self, capsys):
        assert main(["elastic-training"]) == 0
        out = capsys.readouterr().out
        assert "512 (16)" in out
        assert "time to solution" in out

    def test_schedule_runs_small_trace(self, capsys):
        assert main([
            "schedule", "--policy", "e-fifo", "--jobs", "25",
            "--gpus", "64", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "average JCT" in out
        assert "utilization" in out

    def test_demo_runs_live_job(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "replicas consistent: True" in out


class TestTraceAndCapacityCommands:
    def test_trace_generate_and_save(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--jobs", "20", "--seed", "4",
                     "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "20 jobs" in out
        assert path.exists()

    def test_trace_load_summarizes(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        main(["trace", "--jobs", "15", "--seed", "4", "--save", str(path)])
        capsys.readouterr()
        assert main(["trace", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "15 jobs" in out

    def test_capacity_sweep_prints_table(self, capsys):
        assert main(["capacity", "--jobs", "25", "--gpus", "48,96",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "e-fifo" in out and "Avg JCT" in out


class TestTracingCommand:
    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tracing", "replay", "x.json"])

    def test_demo_summarize_validate_pipeline(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["demo", "--trace", str(path), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "events" in out and path.exists()

        assert main(["tracing", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["tracing", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out and "adjust.commit" in out

    def test_validate_flags_broken_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('[{"name":"x","ph":"X","ts":0}]')
        assert main(["tracing", "validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestSoakCommand:
    def _trace(self, tmp_path):
        """A miniature soaked-job trace: two busy workers, one failover."""
        import time

        from repro.observability import Tracer

        tracer = Tracer(process="t")
        for worker in ("w0", "w1"):
            with tracer.span("worker.iteration", track=worker):
                time.sleep(0.005)
        tracer.instant("am.failover", track="am", epoch=2, replayed=9)
        tracer.instant("worker.condemned", track="am", worker="w2")
        path = tmp_path / "soak-trace.json"
        tracer.export(str(path))
        return str(path)

    def test_replay_passes_its_floors(self, tmp_path, capsys):
        """A saved soak trace is gated offline by ``fleet report``."""
        assert main([
            "fleet", "report", self._trace(tmp_path),
            "--goodput-floor", "0.0", "--mttr-ceiling", "60",
        ]) == 0
        captured = capsys.readouterr()
        assert "goodput" in captured.out
        assert "failovers" in captured.out
        assert "SLO violation" not in captured.err

    def test_soak_parser_defaults(self):
        """The soak is a scenario file: ``scenario FILE [--out DIR]``,
        and the file holds the schedule the old flags defaulted to."""
        from repro.net.scenario import load

        args = build_parser().parse_args(
            ["scenario", "examples/scenarios/soak.json"]
        )
        assert args.file == "examples/scenarios/soak.json"
        assert args.out is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak"])
        soak = load(os.path.join(REPO, "examples", "scenarios", "soak.json"))
        assert soak.transports == ("memory", "tcp")
        assert soak.initial == ("w0", "w1", "w2")
        assert soak.am_kill == 14
        assert soak.worker_kills == {"w2": 9}

    def test_a_bad_scenario_file_exits_2(self, tmp_path, capsys):
        import json
        import re

        def cluster(jobs):
            return {"transports": ["memory"], "expect": {},
                    "cluster": {"policy": "e-fifo", "gpus": 2, "jobs": jobs}}

        for data, error in [
            ({"transports": ["tcp"], "workers": {}, "spec": {},
              "expect": {}, "extra": 1}, r"scenario\.extra: unknown key"),
            (cluster([{"job_id": "a"}, {"job_id": "b", "itertions": 8}]),
             r"cluster\.jobs\[1\]: .*'itertions'"),
            (cluster([]), r"cluster\.jobs: expected a non-empty list"),
        ]:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            assert main(["scenario", str(path)]) == 2, data
            err = capsys.readouterr().err
            assert re.search(error, err), err


class TestTracingMetricsAction:
    def _metrics_file(self, tmp_path):
        import json

        from repro.observability import MetricRegistry

        registry = MetricRegistry()
        registry.counter("worker.iterations").inc(12)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("iteration.seconds").observe(value)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        return str(path)

    def test_metrics_prints_snapshot_table(self, tmp_path, capsys):
        assert main(["tracing", "metrics", self._metrics_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "worker.iterations" in out and "12" in out
        assert "iteration.seconds.count" in out
        assert "iteration.seconds.p50" in out

    def test_summarize_reports_instants_and_counters(self, tmp_path, capsys):
        from repro.observability import Tracer

        tracer = Tracer(process="t")
        tracer.add_span("worker.iteration", 0.0, 1.0, track="w0")
        tracer.add_instant("worker.enrolled", 0.5, track="w0")
        tracer.add_instant("worker.enrolled", 0.7, track="w1")
        tracer.add_counter("queue.depth", 0.9, 4.0, track="am")
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        assert main(["tracing", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Instant" in out and "worker.enrolled" in out
        assert "w0=1" in out and "w1=1" in out
        assert "Counter" in out and "queue.depth" in out and "4" in out


class TestFleetCommand:
    def _traces(self, tmp_path):
        """Two per-worker trace files, busy half the one-second wall."""
        from repro.observability import Tracer

        paths = []
        for worker in ("w0", "w1"):
            tracer = Tracer(process=worker)
            tracer.add_span("worker.iteration", 0.0, 0.5, track=worker)
            tracer.add_instant("worker.enrolled", 1.0, track=worker)
            path = tmp_path / f"{worker}.json"
            tracer.export(str(path))
            paths.append(str(path))
        return paths

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "inspect"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet", "report"])
        assert args.connect is None
        assert args.goodput_floor is None
        assert args.ack_timeout == 2.0

    def test_report_from_files(self, tmp_path, capsys):
        assert main(["fleet", "report", *self._traces(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[job fleet]" in out
        assert "goodput" in out and "workers" in out

    def test_report_gates_on_goodput_floor(self, tmp_path, capsys):
        assert main([
            "fleet", "report", *self._traces(tmp_path),
            "--goodput-floor", "0.99",
        ]) == 1
        assert "SLO violation" in capsys.readouterr().err

    def test_export_then_validate_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.json"
        assert main([
            "fleet", "export", *self._traces(tmp_path),
            "--out", str(out_path),
        ]) == 0
        assert "merged fleet events" in capsys.readouterr().out
        assert main(["tracing", "validate", str(out_path)]) == 0
        # The merged file keeps both workers as named processes and
        # feeds straight back into a file-based report.
        text = out_path.read_text()
        assert '"w0"' in text and '"w1"' in text
        assert main(["fleet", "report", str(out_path)]) == 0
        import re

        assert re.search(r"workers\s+2", capsys.readouterr().out)

    def test_export_requires_out(self, tmp_path, capsys):
        assert main(["fleet", "export", *self._traces(tmp_path)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_actions_need_a_source(self, capsys):
        for action in ("report", "export", "prom"):
            argv = ["fleet", action]
            if action == "export":
                argv += ["--out", "x.json"]
            assert main(argv) == 2
            assert "needs" in capsys.readouterr().err

    def test_prom_from_metric_files(self, tmp_path, capsys):
        import json

        from repro.observability import MetricRegistry

        paths = []
        for worker, count in (("w0", 3), ("w1", 4)):
            registry = MetricRegistry()
            registry.counter("worker.iterations").inc(count)
            path = tmp_path / f"{worker}-metrics.json"
            path.write_text(json.dumps(registry.snapshot()))
            paths.append(str(path))
        assert main(["fleet", "prom", *paths]) == 0
        out = capsys.readouterr().out
        assert "# TYPE elan_worker_iterations gauge" in out
        assert "elan_worker_iterations 7" in out

    def test_connect_queries_a_live_am(self, tmp_path, capsys):
        """``--connect`` fetches the AM's one fleet dump and derives the
        report, the merged trace and the rollup on the client — the same
        answers the AM's own collector gives.  Each worker records into
        its own tracer and registry, as a worker process would."""
        import re

        from repro.net import JobSpec, LocalJob
        from repro.observability import (
            MetricRegistry,
            Tracer,
            load_trace_events,
            validate_events,
        )

        spec = JobSpec(
            iterations=8, coordination_interval=4, iteration_sleep=0.01,
            telemetry_interval=0.05,
        )
        job = LocalJob(
            "tcp", spec, ["w0", "w1"], tracer=Tracer(process="am"),
            metrics=MetricRegistry(),
        )
        try:
            for worker in ("w0", "w1"):
                tracer, metrics = Tracer(process=worker), MetricRegistry()
                job.start_worker(
                    worker, link_options={"tracer": tracer, "metrics": metrics},
                    tracer=tracer, metrics=metrics,
                )
            assert job.join(60.0) and not job.errors
            connect = f"{job.server.host}:{job.server.port}"

            assert main(["fleet", "report", "--connect", connect]) == 0
            out = capsys.readouterr().out
            expected = job.master.fleet.report(
                am_events=job.tracer.to_events(),
                am_metrics=job.master.metrics.snapshot(),
            )["fleet"]
            fleet_rows = out[out.index("[job fleet]"):]
            assert re.search(rf"goodput\s+{expected.goodput:.3f}\n", fleet_rows)
            assert re.search(
                rf"iterations\s+{expected.iterations}\n", fleet_rows
            )
            assert re.search(rf"workers\s+{expected.workers}\n", fleet_rows)
            assert expected.workers == 2

            trace = tmp_path / "fleet.json"
            assert main([
                "fleet", "export", "--connect", connect, "--out", str(trace),
            ]) == 0
            merged = load_trace_events(str(trace))
            assert not validate_events(merged)
            processes = {
                e["args"]["name"] for e in merged
                if e.get("ph") == "M" and e.get("name") == "process_name"
            }
            assert {"w0", "w1"} <= processes

            prom = tmp_path / "fleet.prom"
            assert main([
                "fleet", "prom", "--connect", connect, "--out", str(prom),
            ]) == 0
            assert "elan_telemetry_ships" in prom.read_text()
        finally:
            job.close()
