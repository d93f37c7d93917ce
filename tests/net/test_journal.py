"""Tests for the AM's write-ahead journal and its replay semantics.

The journal is the whole failover story: journal-before-reply means a
successor can never forget a commitment a worker observed, and the
torn-tail rule means a crash mid-append only ever loses un-replied
work.  These tests pin down the record format, the file round-trip,
corruption handling, and the :class:`JournalState` replay rules that
:meth:`NetworkedApplicationMaster.from_journal` builds on.
"""

import json

import numpy as np
import pytest

from repro.net import (
    Journal,
    JournalError,
    JournalState,
    NetworkedApplicationMaster,
)
from repro.net.journal import RECORD_KINDS, _checksum


#: A fixed record sequence: nested dicts, a tuple, non-ASCII text, a
#: numpy scalar, a bytes blob and an ndarray.
GOLDEN_RECORDS = [
    ("init", {"job_id": "golden",
              "spec": {"seed": 7, "lr": 0.05, "name": "\u00e9"},
              "workers": ("w0", "w1")}),
    ("epoch", {"epoch": 1}),
    ("peer", {"worker": "w0", "addr": "tcp://127.0.0.1:7001"}),
    ("plan", {"generation": 1, "commit_iteration": 8,
              "old_group": ["w0", "w1"], "new_group": ["w0", "w1", "w2"],
              "uploader": "w0",
              "shards": {"transfer_id": "shard/g1", "owners": ["w0"],
                         "count": 1},
              "schedule": {"total_batch": 48, "lr": 0.075}}),
    ("snapshot", {"generation": 1, "transfer_id": "shard/g1",
                  "blob": bytes(range(40)) * 2, "total_bytes": 80,
                  "total_chunks": 1, "chunk_bytes": 1024,
                  "digest": "ab" * 32}),
    ("final", {"worker": "w1", "iteration": np.int64(24), "digest": None,
               "removed": False,
               "grads": np.arange(6, dtype=np.float32).reshape(2, 3)}),
    ("commit", {"generation": 1, "commit_iteration": 8,
                "old_group": ["w0", "w1"], "new_group": ["w0", "w1", "w2"],
                "uploader": "w0", "schedule": None, "latency": 0.125,
                "departed": {}}),
]

#: The file a journal wrote for GOLDEN_RECORDS before the writer became
#: one JSON pass per record; the file format must not change.
GOLDEN_LINES = [
    (
        '{"data":{"job_id":"golden","spec":{"lr":0.05,"name":"\\u00e9","se'
        'ed":7},"workers":["w0","w1"]},"kind":"init","seq":0,"sum":"61c94'
        'd7fab7ba7a5"}'
    ),
    (
        '{"data":{"epoch":1},"kind":"epoch","seq":1,"sum":"e9939b39df3194'
        '0d"}'
    ),
    (
        '{"data":{"addr":"tcp://127.0.0.1:7001","worker":"w0"},"kind":"pe'
        'er","seq":2,"sum":"55b9480bba7f72d0"}'
    ),
    (
        '{"data":{"commit_iteration":8,"generation":1,"new_group":["w0","'
        'w1","w2"],"old_group":["w0","w1"],"schedule":{"lr":0.075,"total_'
        'batch":48},"shards":{"count":1,"owners":["w0"],"transfer_id":"sh'
        'ard/g1"},"uploader":"w0"},"kind":"plan","seq":3,"sum":"a9f1b1b45'
        'b6710d4"}'
    ),
    (
        '{"data":{"blob":{"__bytes__":"AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGB'
        'kaGxwdHh8gISIjJCUmJwABAgMEBQYHCAkKCwwNDg8QERITFBUWFxgZGhscHR4fIC'
        'EiIyQlJic="},"chunk_bytes":1024,"digest":"ababababababababababab'
        'ababababababababababababababababababababab","generation":1,"tota'
        'l_bytes":80,"total_chunks":1,"transfer_id":"shard/g1"},"kind":"s'
        'napshot","seq":4,"sum":"0d6f95cf74962bc4"}'
    ),
    (
        '{"data":{"digest":null,"grads":{"__nd__":"AAAAAAAAgD8AAABAAABAQA'
        'AAgEAAAKBA","dtype":"float32","shape":[2,3]},"iteration":24,"rem'
        'oved":false,"worker":"w1"},"kind":"final","seq":5,"sum":"fc829a4'
        '93d2a4d70"}'
    ),
    (
        '{"data":{"commit_iteration":8,"departed":{},"generation":1,"late'
        'ncy":0.125,"new_group":["w0","w1","w2"],"old_group":["w0","w1"],'
        '"schedule":null,"uploader":"w0"},"kind":"commit","seq":6,"sum":"'
        'aa68d87d095e22ab"}'
    ),
]


class TestJournalAppend:
    def test_in_memory_round_trip(self):
        journal = Journal()
        journal.append("init", job_id="j", spec={}, workers=["w0", "w1"])
        journal.append("epoch", epoch=1)
        journal.append("progress", iteration=4)
        records = journal.records()
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert [r["kind"] for r in records] == ["init", "epoch", "progress"]
        assert records[0]["data"]["workers"] == ["w0", "w1"]
        assert len(journal) == 3

    def test_appended_and_handed_out_data_cannot_rewrite_history(self):
        journal = Journal()
        group = ["w0", "w1"]
        blob = bytearray(b"abc")
        array = np.zeros(3)
        journal.append("snapshot", group=group, blob=blob, state=array)
        group.append("w2")
        blob[0] = 0
        array[0] = 7.0
        first = journal.records()[0]["data"]
        first["group"].append("w3")
        first["state"][1] = 9.0
        first["new"] = True
        data = journal.records()[0]["data"]
        assert data["group"] == ["w0", "w1"]
        assert data["blob"] == b"abc"
        np.testing.assert_array_equal(data["state"], np.zeros(3))
        assert "new" not in data

    def test_records_have_the_decoded_types(self):
        """A kept record reads back as a file-backed one would."""
        journal = Journal()
        journal.append(
            "final", workers=("w0", "w1"), iteration=np.int64(4),
            blob=memoryview(b"xy"),
        )
        data = journal.records()[0]["data"]
        assert data["workers"] == ["w0", "w1"]
        assert type(data["iteration"]) is int
        assert type(data["blob"]) is bytes

    def test_unknown_kind_rejected_at_write_time(self):
        journal = Journal()
        with pytest.raises(JournalError):
            journal.append("typo_kind", x=1)
        assert len(journal) == 0

    def test_kind_is_positional_only(self):
        # An adjustment request record carries its *own* "kind" field
        # (scale_in / scale_out) in the data — the record kind must not
        # collide with it.
        journal = Journal()
        record = journal.append(
            "request", kind="scale_in", add=[], remove=["w2"], auto=True
        )
        assert record["kind"] == "request"
        assert record["data"]["kind"] == "scale_in"
        replayed = journal.records()[0]
        assert replayed["kind"] == "request"
        assert replayed["data"]["kind"] == "scale_in"


class TestJournalFile:
    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first = Journal(path)
        first.append("init", job_id="j", spec={}, workers=["w0"])
        first.append("epoch", epoch=1)
        first.close()

        second = Journal(path)
        assert [r["seq"] for r in second.records()] == [0, 1]
        record = second.append("epoch", epoch=2)
        assert record["seq"] == 2
        second.close()

        third = Journal(path)
        assert [r["kind"] for r in third.records()] == [
            "init", "epoch", "epoch",
        ]
        assert third.truncated == 0
        third.close()

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path)
        journal.append("init", job_id="j", spec={}, workers=["w0"])
        journal.append("epoch", epoch=1)
        journal.close()
        # A crash mid-append leaves a torn, unparseable last line.
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 2, "kind": "progr')

        reopened = Journal(path)
        assert [r["seq"] for r in reopened.records()] == [0, 1]
        assert reopened.truncated == 1
        # Appends continue from the surviving prefix.
        assert reopened.append("progress", iteration=8)["seq"] == 2
        reopened.close()

    def test_corrupt_middle_line_ends_the_journal_there(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path)
        journal.append("init", job_id="j", spec={}, workers=["w0"])
        journal.append("epoch", epoch=1)
        journal.append("progress", iteration=4)
        journal.close()

        lines = open(path, encoding="utf-8").read().splitlines()
        middle = json.loads(lines[1])
        middle["data"]["epoch"] = 99  # flipped bits, stale checksum
        lines[1] = json.dumps(middle, sort_keys=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

        reopened = Journal(path)
        # Nothing after the corrupt record can be trusted (its sequence
        # chain is broken), so the journal ends right before it.
        assert [r["seq"] for r in reopened.records()] == [0]
        assert reopened.truncated == 1
        reopened.close()

    def test_sequence_gap_ends_the_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path)
        for i in range(3):
            journal.append("progress", iteration=i)
        journal.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        # Drop the middle line: seq 0 then seq 2 is a gap.
        with open(path, "w", encoding="utf-8") as f:
            f.write(lines[0] + "\n" + lines[2] + "\n")
        reopened = Journal(path)
        assert [r["seq"] for r in reopened.records()] == [0]
        assert reopened.truncated == 1
        reopened.close()

    def test_ndarray_payload_survives_the_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        params = {"w": np.arange(12, dtype=np.float64).reshape(3, 4)}
        journal = Journal(path)
        journal.append(
            "snapshot", generation=1,
            state={"params": params, "optimizer": {"t": 3}, "loader": {}},
        )
        journal.close()

        reopened = Journal(path)
        state = reopened.records()[0]["data"]["state"]
        np.testing.assert_array_equal(state["params"]["w"], params["w"])
        assert state["params"]["w"].dtype == np.float64
        assert state["optimizer"] == {"t": 3}
        reopened.close()

    def test_file_bytes_match_the_golden_lines(self, tmp_path):
        """The one-pass writer produces, byte for byte, the lines the
        two-pass writer (checksum dump, then line dump) produced."""
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path)
        for kind, data in GOLDEN_RECORDS:
            journal.append(kind, **data)
        journal.close()
        with open(path, "rb") as f:
            written = f.read()
        assert written == "".join(
            line + "\n" for line in GOLDEN_LINES
        ).encode("utf-8")
        reopened = Journal(path)
        records = reopened.records()
        assert reopened.truncated == 0
        assert records[4]["data"]["blob"] == bytes(range(40)) * 2
        np.testing.assert_array_equal(
            records[5]["data"]["grads"],
            np.arange(6, dtype=np.float32).reshape(2, 3),
        )
        reopened.close()

    def test_checksum_covers_seq_kind_and_data(self):
        a = _checksum(0, "epoch", {"epoch": 1})
        assert a != _checksum(1, "epoch", {"epoch": 1})
        assert a != _checksum(0, "progress", {"epoch": 1})
        assert a != _checksum(0, "epoch", {"epoch": 2})


class TestJournalStateReplay:
    def _records(self, *pairs):
        journal = Journal()
        for kind, data in pairs:
            journal.append(kind, **data)
        return journal.records()

    def test_commit_applies_generation_and_group(self):
        state = JournalState.replay(self._records(
            ("init", {"job_id": "j", "spec": {}, "workers": ["w0", "w1"]}),
            ("epoch", {"epoch": 1}),
            ("plan", {"generation": 1, "commit_iteration": 4,
                      "old_group": ["w0", "w1"],
                      "new_group": ["w0", "w1", "w2"], "uploader": "w0"}),
            ("ack", {"worker": "w0", "generation": 1}),
            ("commit", {"generation": 1, "commit_iteration": 4,
                        "old_group": ["w0", "w1"],
                        "new_group": ["w0", "w1", "w2"], "uploader": "w0",
                        "latency": 0.5, "departed": {}}),
        ))
        assert state.generation == 1
        assert state.groups[1] == ("w0", "w1", "w2")
        assert state.plan is None and state.pending_request is None
        assert state.acked == set()
        assert state.adjustments_committed == 1
        assert state.commit_latencies == [0.5]
        assert state.last_commit["commit_iteration"] == 4
        assert state.replayed == 5

    def test_abort_clears_plan_and_its_group(self):
        state = JournalState.replay(self._records(
            ("init", {"job_id": "j", "spec": {}, "workers": ["w0", "w1"]}),
            ("request", {"kind": "scale_out", "add": ["w2"], "remove": []}),
            ("plan", {"generation": 1, "commit_iteration": 4,
                      "old_group": ["w0", "w1"],
                      "new_group": ["w0", "w1", "w2"], "uploader": "w0"}),
            ("abort", {}),
        ))
        assert state.plan is None and state.pending_request is None
        assert state.generation == 0
        assert 1 not in state.groups
        assert state.current_group == ("w0", "w1")

    def test_epoch_is_max_monotone(self):
        state = JournalState.replay(self._records(
            ("epoch", {"epoch": 1}),
            ("epoch", {"epoch": 3}),
            ("epoch", {"epoch": 2}),
        ))
        assert state.epoch == 3

    def test_takeover_without_init_record_is_refused(self):
        """A journal that never recorded a job has nothing to take over."""
        with pytest.raises(JournalError):
            NetworkedApplicationMaster.from_journal(Journal())

    def test_final_and_condemn_records(self):
        state = JournalState.replay(self._records(
            ("init", {"job_id": "j", "spec": {}, "workers": ["w0", "w1"]}),
            ("condemn", {"worker": "w1"}),
            ("final", {"worker": "w0", "iteration": 8,
                       "digest": "abc", "removed": False}),
            ("final", {"worker": "w1", "iteration": 4,
                       "digest": None, "removed": True}),
            ("progress", {"iteration": 8}),
            ("progress", {"iteration": 4}),
        ))
        assert state.condemned == {"w1"}
        assert state.final == {
            "w0": {"iteration": 8, "digest": "abc", "removed": False},
        }
        assert "w1" in state.departed
        assert state.progress == 8  # watermark never regresses

    def test_ack_for_stale_generation_ignored(self):
        state = JournalState.replay(self._records(
            ("plan", {"generation": 2, "commit_iteration": 8,
                      "old_group": ["w0"], "new_group": ["w0", "w1"],
                      "uploader": "w0"}),
            ("ack", {"worker": "w0", "generation": 1}),
            ("ack", {"worker": "w0", "generation": 2}),
        ))
        assert state.acked == {"w0"}

    def test_every_record_kind_is_replayable(self):
        # RECORD_KINDS is the write-time whitelist; _apply must accept
        # every member or a journaled record could brick failover.
        samples = {
            "init": {"job_id": "j", "spec": {}, "workers": ["w0"]},
            "epoch": {"epoch": 1},
            "peer": {"worker": "w0", "addr": "mem://w0"},
            "request": {"kind": "scale_in", "add": [], "remove": ["w0"]},
            "plan": {"generation": 1, "commit_iteration": 4,
                     "old_group": ["w0"], "new_group": ["w1"],
                     "uploader": None},
            "ack": {"worker": "w0", "generation": 1},
            "snapshot": {"generation": 1, "state": {}},
            "commit": {"generation": 1, "commit_iteration": 4,
                       "old_group": ["w0"], "new_group": ["w1"],
                       "uploader": None, "latency": 0.1, "departed": {}},
            "abort": {},
            "final": {"worker": "w0", "iteration": 4, "digest": "d",
                      "removed": False},
            "progress": {"iteration": 4},
            "condemn": {"worker": "w0"},
        }
        assert set(samples) == RECORD_KINDS
        journal = Journal()
        for kind, data in samples.items():
            journal.append(kind, **data)
        state = JournalState.replay(journal.records())
        assert state.replayed == len(RECORD_KINDS)
