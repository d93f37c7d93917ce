"""The scenario loader and runner (``repro.net.scenario``).

The loader turns a JSON file from outside the program into a
:class:`Scenario`, a :class:`ClusterScenario` (the file has a
``cluster`` section) or a :class:`ScenarioError` that names the
offending field; every committed file under ``examples/scenarios/``
must load.
One small thread-worker scenario runs end to end in memory.
"""

import copy
import glob
import json
import os

import pytest

from repro.net.scenario import (
    ClusterScenario,
    Scenario,
    ScenarioError,
    load,
    run,
)

SCENARIOS = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios"
)

BASE = {
    "transports": ["tcp"],
    "workers": {"kind": "processes", "peer_transport": "tcp",
                "initial": ["w0", "w1"]},
    "spec": {"iterations": 16, "telemetry_interval": 0.5},
    "scale_out": {"at": 4, "add": ["w2"]},
    "faults": {},
    "expect": {"commits": 1, "survivors": ["w0", "w1", "w2"],
               "goodput_floor": 0.0, "mttr_ceiling": 60.0},
}


def with_(base=BASE, **changes):
    """``base`` with the ``__``-joined paths (``spec__iterations``) set."""
    data = copy.deepcopy(base)
    for path, value in changes.items():
        *parents, key = path.split("__")
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = value
    return data


def rejects(data, field):
    with pytest.raises(ScenarioError, match=field):
        Scenario.from_dict(data, "bad")


class TestLoader:
    def test_every_committed_scenario_loads(self):
        paths = sorted(glob.glob(os.path.join(SCENARIOS, "*.json")))
        assert [os.path.basename(p) for p in paths] == [
            "burst.json", "chaos.json", "churn.json", "dataplane.json",
            "fleet.json", "ring-shm.json", "ring-tcp.json", "sharded.json",
            "soak.json",
        ]
        for path in paths:
            scenario = load(path)
            assert scenario.name == os.path.basename(path)[:-5]
            if isinstance(scenario, ClusterScenario):
                assert scenario.capacity, path
                continue
            assert set(scenario.survivors) == (
                set(scenario.initial) | set(scenario.joiners)
            ) - scenario.dead

    def test_base_loads(self):
        scenario = Scenario.from_dict(with_(), "base")
        assert scenario.joiners == ("w2",)
        assert scenario.spec.iterations == 16

    def test_unknown_top_level_key(self):
        rejects(with_(schedule=[]), r"scenario\.schedule: unknown key")

    def test_unknown_key_in_a_section(self):
        rejects(with_(faults__worker_kill={"w0": 3}),
                r"faults\.worker_kill: unknown key")

    def test_misspelt_spec_field(self):
        rejects(with_(spec__itertions=8), r"spec: .*'itertions'")

    @pytest.mark.parametrize("fault", [
        "worker_kills", "link_resets", "peer_resets", "shard_owner_death",
    ])
    def test_fault_aimed_at_a_worker_never_started(self, fault):
        value = 3 if fault in ("worker_kills", "shard_owner_death") else [3]
        rejects(with_(**{f"faults__{fault}": {"w9": value}}),
                rf"faults\.{fault}\.w9: the scenario never starts 'w9'")

    def test_process_workers_on_the_memory_transport(self):
        rejects(with_(transports=["memory", "tcp"]),
                r"transports: process workers need tcp")

    def test_shard_owner_death_on_thread_workers(self):
        rejects(with_(workers={"kind": "threads", "initial": ["w0", "w1"]},
                      faults__shard_owner_death={"w0": 1}),
                r"faults\.shard_owner_death: .*thread worker")

    def test_shard_owner_death_of_a_worker_owning_no_shard(self):
        rejects(with_(spec__replication_shards=1,
                      faults__shard_owner_death={"w1": 1}),
                r"faults\.shard_owner_death\.w1: owns no shard")

    def test_more_than_one_am_kill(self):
        rejects(with_(faults__am_kills=[8, 12]),
                r"faults\.am_kills: \[8, 12\] — one AM kill at most")

    def test_process_workers_without_telemetry(self):
        rejects(with_(spec__telemetry_interval=0),
                r"spec\.telemetry_interval")

    def test_missing_expectation(self):
        data = with_()
        del data["expect"]["commits"]
        rejects(data, r"expect\.commits: missing")


CLUSTER = {
    "transports": ["memory"],
    "cluster": {
        "policy": "e-fifo", "gpus": 2,
        "jobs": [{"job_id": "a"}, {"job_id": "b", "priority": 1}],
        "capacity": [{"at": 8, "gpus": 1}, {"at": 2, "gpus": 4, "pin": 4}],
    },
    "expect": {"preemptions": 0, "resizes": 1, "makespan_ceiling": 60.0,
               "queueing_ceiling": 10.0, "goodput_floor": 0.0},
}


def cluster_with(**changes):
    return with_(CLUSTER, **changes)


class TestClusterLoader:
    def test_base_loads_with_events_in_firing_order(self):
        scenario = ClusterScenario.from_dict(cluster_with(), "base")
        assert [job.job_id for job in scenario.jobs] == ["a", "b"]
        assert [(e.at, e.gpus, e.pin) for e in scenario.capacity] == [
            (2, 4, 4), (8, 1, None)]
        assert scenario.completion_order is None

    def test_the_shape_picks_the_scenario_class(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(CLUSTER))
        assert isinstance(load(str(path)), ClusterScenario)
        assert load(str(path)).name == "mine"

    @pytest.mark.parametrize("changes,field", [
        ({"workers": {}}, r"scenario\.workers: unknown key"),
        ({"cluster__jobs": [{"job_id": "a", "itertions": 8}]},
         r"cluster\.jobs\[0\]: .*'itertions'"),
        ({"cluster__jobs": []}, r"cluster\.jobs: expected a non-empty list"),
        ({"cluster__jobs": [{"job_id": "a"}] * 2},
         r"cluster\.jobs: job ids \['a', 'a'\] repeat"),
        ({"cluster__policy": "lifo"}, r"cluster\.policy: 'lifo' is not one of"),
        ({"cluster__capacity": [{"at": 1, "gpus": 2, "when": 3}]},
         r"cluster\.capacity\[0\]\.when: unknown key"),
        ({"expect__completion_order": ["a", "c"]},
         r"expect\.completion_order: \['a', 'c'\]"),
    ])
    def test_rejects_naming_the_field(self, changes, field):
        with pytest.raises(ScenarioError, match=field):
            ClusterScenario.from_dict(cluster_with(**changes), "bad")


class TestRunner:
    def test_thread_scale_out_with_resets_in_memory(self, tmp_path):
        """Threads on the memory pipe: a scale-out under an AM-link and
        a ring-link reset meets the exact AM-sync tally and leaves the
        AM trace and metric dump under ``out_dir``."""
        scenario = Scenario.from_dict({
            "transports": ["memory"],
            "workers": {"kind": "threads", "initial": ["w0", "w1"]},
            "spec": {"iterations": 20, "iteration_sleep": 0.02},
            "scale_out": {"at": 4, "add": ["w2"]},
            "faults": {"link_resets": {"w0": [6]},
                       "peer_resets": {"w1": [5]}},
            "expect": {"commits": 1, "survivors": ["w0", "w1", "w2"],
                       "goodput_floor": 0.1, "mttr_ceiling": 60.0},
        }, "threads")
        outcome = run(scenario, str(tmp_path))["memory"]
        assert outcome.status["adjustments_committed"] == 1
        assert outcome.job.transport == "memory"
        for artifact in ("trace.json", "metrics.json", "journal.jsonl"):
            assert (tmp_path / "memory" / artifact).exists(), artifact
