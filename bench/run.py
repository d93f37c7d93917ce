#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload for about ``S`` seconds (whole process, imports and
all) and prints, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones (half the jobs plain, half with the program's own tracer attached,
then the isolated drives), and a Chrome trace lands in ``bench/out/``.

Other modes: ``--set OUT.json`` (one run of every workload, the
``BENCH_<pr>.json`` format), ``--aa N`` (sets back to back until N are
quiet, the A/A ledger), ``--compare A.json B.json`` (the ledger diff),
``--check`` (BENCHMARK.json and the README table against the catalog),
``--smoke`` (every workload at ~1/10 length).
"""

import os
import sys
import time

_T0 = time.perf_counter()

# -- hygiene, before numpy is imported ------------------------------------------
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes order sets and dicts of strings; pin them for every run.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

if __name__ == "__main__" and hasattr(os, "sched_setaffinity"):
    # One core for the whole workload process.  Its threads serialise on
    # the GIL anyway; spread over two vCPUs every GIL hand-off is a
    # cross-core wake-up whose cost depends on whether a neighbour holds
    # the other core that minute (measured: unpinned runs drift 13-45 %
    # apart and are slower, pinned runs repeat to ~3 %).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BASELINE_DIR = os.path.join(BENCH_DIR, "baseline")
PR = 12
#: no new segment starts later than this many seconds into the process
HARD_STOP_S = 110.0

import argparse  # noqa: E402
import json  # noqa: E402


def _process_age() -> float:
    """Seconds since this process (the first interpreter) was started."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def _load_program() -> float:
    """Import numpy and the program; returns ``harness.import_s``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"bench: the program is not here ({SRC}/repro is missing); "
            "run from a checkout of the repository\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import numpy  # noqa: F401
    import repro.cluster  # noqa: F401
    import repro.net  # noqa: F401

    return _process_age()


def _scratch_tmp() -> None:
    """Keep the shm transport's Unix sockets inside the checkout.

    ``ShmServer`` binds under ``tempfile.gettempdir()``; AF_UNIX paths
    are short (108 bytes), so the directory is given relative to the
    working directory when that is shorter.
    """
    import tempfile

    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    relative = os.path.relpath(tmp)
    best = relative if len(relative) < len(tmp) else tmp
    if len(best) <= 60:
        tempfile.tempdir = best


def _between_jobs() -> None:
    """Return memory to the OS so every job starts from the same heap."""
    import ctypes
    import gc

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _settle(limit: float = 0.1) -> None:
    """Let the job's last server threads exit before anything is timed."""
    import threading

    end = time.perf_counter() + limit
    while threading.active_count() > 1 and time.perf_counter() < end:
        time.sleep(0.005)


def _reap_tracker() -> None:
    """Stop and wait for the one child process a run can start.

    ``multiprocessing.shared_memory`` (under the shm transport) spawns a
    resource-tracker process on first use; left alone it outlives this
    process by a moment.  The benchmark ends every process it started.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def fingerprint() -> dict:
    import platform

    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "loadavg": list(os.getloadavg()),
    }


# -- one run of one workload -----------------------------------------------------


def run_workload(name, seed, seconds, traced, smoke=False) -> dict:
    """Rehearse, then repeat identical segments until the time is up."""
    import_s = _load_program()
    _scratch_tmp()
    from bench import (
        catalog, cluster_waves, extract, hostspeed, jobs, stats,
    )

    load_start = list(os.getloadavg())
    deadline = time.perf_counter() - _process_age() + seconds
    k_min = 2 if smoke else 10
    drive_reserve = (1.5 if smoke else 5.0) if traced else 0.0
    is_cluster = name == catalog.W4
    index = [0]

    def one(attach: bool):
        _between_jobs()
        index[0] += 1
        if is_cluster:
            record = cluster_waves.run_segment(seed, index[0], traced=attach)
        else:
            record = jobs.run_job(jobs.SHAPES[name], seed, traced=attach)
        _settle()
        return record

    sampler = hostspeed.Sampler()
    try:
        t0 = time.perf_counter()
        rehearsal = one(False)
        durations = [time.perf_counter() - t0]
        records = []
        # K >= 10 is worth running over the budget for -- but never past
        # the point where one more (deadline-bounded) job could break the
        # driver's 180 s limit on a host that has all but stopped.
        hard_stop = deadline - seconds + HARD_STOP_S
        while True:
            estimate = stats.median(durations) * 1.15 + 0.2
            over_budget = (
                time.perf_counter() + estimate + drive_reserve > deadline
            )
            if (len(records) >= k_min and over_budget) or (
                time.perf_counter() + estimate > hard_stop
            ):
                break
            t0 = time.perf_counter()
            # traced runs alternate: plain, attached, plain, attached ...
            records.append(one(traced and len(records) % 2 == 1))
            durations.append(time.perf_counter() - t0)
    finally:
        probes = sampler.stop()

    attempted = rehearsal.attempted + sum(r.attempted for r in records)
    failures = [f"rehearsal: {f}" for f in rehearsal.failures]
    for number, record in enumerate(records):
        failures += [f"job {number}: {f}" for f in record.failures]
    plain = [r for r in records if not r.traced]

    def end_to_end(record):
        if is_cluster:
            return extract.segment_end_to_end(
                record, cluster_waves.reference_spec(seed).total_batch_size,
                cluster_waves.WARMUP,
            )
        return extract.job_end_to_end(record)

    # Every plain segment's samples, each brought to the reference core
    # speed by the probes taken while it was being measured.
    raw = {m.name: [] for m in catalog.END_TO_END}
    corrected = {m.name: [] for m in catalog.END_TO_END}
    factors = {m.name: [] for m in catalog.END_TO_END}
    for record in plain:
        # a failed segment is counted, never timed
        values = None if record.failures else end_to_end(record)
        if values is None:
            continue
        for metric in catalog.END_TO_END:
            value, start, end = values[metric.name]
            host = hostspeed.factor(probes, start, end)
            raw[metric.name].append(value)
            factors[metric.name].append(host)
            corrected[metric.name].append(
                value * host if metric.better == stats.HIGHER
                else value / host
            )
    cells = {}
    noisy = False
    for metric in catalog.END_TO_END:
        cell = stats.aggregate(corrected[metric.name], metric.better)
        cell["raw"] = stats.aggregate(raw[metric.name], metric.better)["value"]
        cell["host_factor"] = stats.median(factors[metric.name])
        cell["unit"] = metric.unit
        cell["noisy"] = cell["spread"] > metric.bound
        cell["samples"] = corrected[metric.name]
        cell["raw_samples"] = raw[metric.name]
        noisy = noisy or (cell["noisy"] and metric.name != "setup_s")
        cells[metric.name] = cell
    probe_times = [s for _t, s in probes]
    host = {
        "reference_us": hostspeed.REFERENCE_S * 1e6,
        "probe_us_mean": sum(probe_times) / max(1, len(probe_times)) * 1e6,
        "probe_us_calm": hostspeed.calm_probe(probes) * 1e6,
        "probes": len(probes),
    }
    host["factor"] = host["probe_us_mean"] / host["reference_us"]

    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "k": len(plain), "jobs": len(records),
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "noisy": noisy, "end_to_end": cells,
        "host": host,
        "wall_s": _process_age(), "loadavg": [load_start,
                                              list(os.getloadavg())],
    }
    if traced:
        result["per_layer"] = per_layer(
            name, seed, records, cells, import_s, smoke
        )
        result["per_layer"]["harness.host_factor"] = host["factor"]
        result["trace_file"] = write_trace(name, records)
    return result


def per_layer(name, seed, records, cells, import_s, smoke) -> dict:
    """Every per-layer metric of the catalog; 0 where bypassed."""
    import resource

    from bench import catalog, cluster_waves, drives, extract, jobs, stats

    is_cluster = name == catalog.W4
    pooled = {}
    for record in records:
        layers = (
            extract.segment_layers(record, cluster_waves.JOB_ITERATIONS)
            if is_cluster else extract.job_layers(record)
        )
        for key, values in layers.items():
            # timings come from plain jobs only; an attached tracer
            # would be measuring itself
            if record.traced and key not in ("obs.spans_per_iter",
                                             "chunks.replans"):
                continue
            pooled.setdefault(key, []).extend(values)
    out = {m.name: 0.0 for m in catalog.PER_LAYER}
    for metric in catalog.PER_LAYER:
        if metric.name.endswith("_p50"):
            values = pooled.get(metric.name[:-len("_p50")])
            if values:
                out[metric.name] = stats.median(values)
    for key in ("collective.segments_per_member_iter",
                "collective.peer_bytes_per_member_iter",
                "collective.ring_iteration_share",
                "master.am_bytes_per_iter", "master.msgs_per_iter",
                "chunks.fetch_mb_per_s", "chunks.pending_polls_per_fetch",
                "chunks.am_chunks_served", "journal.records_per_adjust",
                "obs.spans_per_iter", "proc.cpu_ms_per_iter"):
        if pooled.get(key):
            out[key] = stats.median(pooled[key])
    for key in ("transport.dedup_hits", "transport.retransmits",
                "shm.leaked_segments", "chunks.replans"):
        out[key] = float(sum(pooled.get(key, ())))
    out["proc.threads_peak"] = float(max(pooled.get("proc.threads_peak",
                                                     [0])))
    out["agent.iter_ms_tail"] = stats.tail(
        pooled.get("agent.iter_ms_pooled", ())
    )[1]
    iteration_ms = cells["iter_ms_p50"]["median"]
    if iteration_ms and not is_cluster:
        out["master.coord_overhead_permille"] = (
            out["master.coordinate_ms_p50"] / jobs.INTERVAL
            / iteration_ms * 1000.0
        )
    plain = [r for r in records if not r.traced]
    attached = [r for r in records if r.traced]
    if plain and attached:
        def wall(group):
            return stats.median(r.t_end - r.t_start for r in group)

        out["obs.trace_overhead_ratio"] = wall(attached) / wall(plain) - 1.0

    # -- the isolated drives: only layers this workload runs
    repeats = 0.25 if smoke else 1.0

    def n(count):
        return max(3, int(count * repeats))

    if is_cluster:
        spec = cluster_waves.reference_spec(seed)
        out.update(drives.training(
            spec, [1] * cluster_waves.JOB_ITERATIONS
        ))
        out.update(drives.memory_transport(n(400)))
        out.update(drives.planner(1, n(100)))
        out.update(drives.journal(n(2000)))
    else:
        shape = jobs.SHAPES[name]
        spec = jobs.job_spec(shape, seed)
        out.update(drives.training(spec, [jobs.BASE_WORKERS] * 32))
        out.update(drives.wire_codec(spec, n(40)))
        out.update(drives.tcp_transport(n(300), n(24)))
        out.update(drives.reduce(spec, repeats=n(20)))
        if shape.peer is not None:
            out.update(drives.allreduce(spec, shape.peer, rounds=n(8)))
            out.update(drives.codecs(spec, n(12)))
        if shape.peer == "shm":
            out.update(drives.shm_transport(n(300), n(24)))
        if shape.schedule:
            out.update(drives.chunk_codec(spec, n(12)))
            out.update(drives.planner(max(1, shape.shards), n(100)))
            out.update(drives.journal(n(2000)))
        if shape.shards:
            out.update(drives.shard_fanin(spec, shape.shards, n(6)))
    out["proc.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out["harness.import_s"] = import_s
    return out


def write_trace(name, records) -> str:
    """Chrome trace of the run's first jobs + self-time table of all."""
    from bench import trace

    os.makedirs(OUT_DIR, exist_ok=True)
    spans = []
    for number, record in enumerate(records[:4]):
        label = f"job{number}" + ("+tracer" if record.traced else "")
        spans += trace.spans_from_log(record.log, label)
    trace.assign_parents(spans)
    path = os.path.join(OUT_DIR, f"trace_{name}.json")
    origin = min((s["start"] for s in spans), default=0.0)
    table = trace.write_trace(path, spans, origin, name)
    print(f"self time, first {min(4, len(records))} jobs ({path}):")
    for row in table[:12]:
        print(f"  {row['name']:<34} n={row['count']:<6} "
              f"total={row['total_ms']:>10.2f} ms  "
              f"self={row['self_ms']:>10.2f} ms")
    return os.path.relpath(path, ROOT)


def report(result: dict) -> None:
    """Human lines, the detail file, and the contract's last line."""
    from bench import catalog

    print(f"{result['workload']} seed={result['seed']} "
          f"K={result['k']} jobs={result['jobs']} "
          f"wall={result['wall_s']:.1f}s failed={result['failed']}/"
          f"{result['attempted']}" + (" NOISY" if result["noisy"] else ""))
    host = result["host"]
    print(f"  host: probe {host['probe_us_mean']:.0f} us mean over "
          f"{host['probes']} probes (calm {host['probe_us_calm']:.0f}, "
          f"reference {host['reference_us']:.0f}) -> factor "
          f"{host['factor']:.3f}")
    for name, cell in result["end_to_end"].items():
        print(f"  {name:<22} {cell['value']:>12.4f} {cell['unit']:<10} "
              f"raw={cell['raw']:.4f} x{cell['host_factor']:.3f} "
              f"median={cell['median']:.4f} "
              f"spread={cell['spread']:.3f} K={cell['k']}"
              + (" noisy" if cell["noisy"] else ""))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(
        OUT_DIR, "run_{workload}_t{trace}_s{seed}.json".format(**result)
    )
    with open(detail, "w") as handle:
        json.dump(result, handle, indent=1)
    if result["trace"]:
        metrics = {
            m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
            for m in catalog.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["value"],
                     "unit": m.unit}
            for m in catalog.END_TO_END
        }
    print(json.dumps({
        "correct": result["failed"] == 0 and result["k"] > 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"], "metrics": metrics,
    }))


# -- sets, A/A, compare, check -----------------------------------------------------


def _slim(run: dict) -> dict:
    """A run as the committed ledgers keep it: values, raw values, host
    factors, spreads and K -- not every sample (those stay in out/)."""
    for cell in run["end_to_end"].values():
        cell.pop("samples", None)
        cell.pop("raw_samples", None)
    return run


def run_set(seed: int, seconds: int, smoke: bool) -> dict:
    """One fresh process per workload, as the driver runs them."""
    import subprocess

    from bench import catalog

    runs = {}
    env_start = fingerprint()
    for name in catalog.WORKLOADS:
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"run of {name} exited {done.returncode}")
        detail = os.path.join(OUT_DIR, f"run_{name}_t0_s{seed}.json")
        with open(detail) as handle:
            runs[name] = _slim(json.load(handle))
    return {
        "pr": PR, "seed": seed, "seconds": seconds, "runs": runs,
        "environment": env_start,
        "loadavg_end": list(os.getloadavg()),
        "deviations": list(catalog.DEVIATIONS),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--set", metavar="OUT.json")
    parser.add_argument("--aa", type=int, metavar="N")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        sys.path.insert(0, ROOT)
        from bench import ledger

        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            diff = ledger.compare(json.load(a), json.load(b))
        print(ledger.format_compare(diff))
        return ledger.compare_exit_code(diff)
    if args.check:
        sys.path.insert(0, ROOT)
        from bench import catalog

        return check(catalog)

    _load_program()
    from bench import catalog, ledger

    seconds = args.seconds or catalog.RUN_SECONDS
    if args.smoke and args.seconds is None:
        seconds = max(3, seconds // 10)
    if args.aa:
        # A set with a noisy run may be made again, but every set made
        # stays in the ledger; twice the asked-for number is the limit.
        sets = []
        while (
            sum(not ledger.is_noisy(s) for s in sets) < args.aa
            and len(sets) < 2 * args.aa
        ):
            print(f"-- A/A set {len(sets) + 1} (want {args.aa} quiet)")
            sets.append(run_set(args.seed, seconds, args.smoke))
        verdict = ledger.evaluate_aa(sets)
        verdict["environment"] = fingerprint()
        verdict["deviations"] = list(catalog.DEVIATIONS)
        os.makedirs(BASELINE_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR if args.smoke else BASELINE_DIR, f"AA_{PR}.json"
        )
        with open(path, "w") as handle:
            json.dump({"verdict": verdict, "sets": sets}, handle, indent=1)
        print(ledger.format_aa(verdict))
        print(f"-> {path}")
        return 1 if verdict["verdict"] == "fail" else 0
    if args.set:
        ledger_set = run_set(args.seed, seconds, args.smoke)
        with open(args.set, "w") as handle:
            json.dump(ledger_set, handle, indent=1)
        return 0
    if args.workload not in catalog.WORKLOADS:
        if args.smoke and args.workload is None:
            for name in catalog.WORKLOADS:
                report(run_workload(name, args.seed, seconds, bool(args.trace),
                                    smoke=True))
            return 0
        parser.error(
            f"--workload must be one of {', '.join(catalog.WORKLOADS)}"
        )
    report(run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        smoke=args.smoke))
    return 0


def _main() -> int:
    try:
        return main()
    finally:
        _reap_tracker()


def check(catalog) -> int:
    """BENCHMARK.json and the README's metric table must say what the
    catalog says, within the contract's limits and ISSUE 12's bound cap."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        stored = json.load(handle)
    problems = []
    expected = catalog.benchmark_json()
    for key in expected:
        if stored.get(key) != expected[key]:
            problems.append(f"{key} differs from the catalog")
    if set(stored) != set(expected):
        problems.append(f"keys {sorted(stored)} != {sorted(expected)}")
    for workload in expected["workloads"]:
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"why of {workload['name']} is not one short line")
    names = [m["name"] for m in expected["end_to_end"] + expected["per_layer"]]
    names += [w["name"] for w in expected["workloads"]]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for metric in expected["end_to_end"]:
        if not 0 < metric["bound"] <= catalog.BOUND_CAP:
            problems.append(
                f"bound of {metric['name']} outside "
                f"(0, {catalog.BOUND_CAP:.2f}]"
            )
    if os.path.getsize(path) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    with open(os.path.join(BENCH_DIR, "README.md")) as handle:
        readme = set(handle.read().splitlines())
    for row in catalog.markdown_table().splitlines():
        if row not in readme:
            problems.append(f"README.md lacks the catalog row {row[:40]}...")
    for problem in problems:
        print("CHECK FAILED:", problem)
    if not problems:
        print(f"BENCHMARK.json matches the catalog "
              f"({len(expected['workloads'])} workloads, "
              f"{len(expected['end_to_end'])} end-to-end and "
              f"{len(expected['per_layer'])} per-layer metrics)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(_main())
