"""Write-ahead log tests: durability framing, torn-tail recovery."""

import os
import shutil
import struct
from pathlib import Path

import pytest

from repro.dag.graph import DAGStructure
from repro.errors import WALError
from repro.profit.functions import FlatThenLinear
from repro.resilience import WAL_MAGIC, WriteAheadLog, open_wal
from repro.resilience.wal import encode_record, pack_frame, scan_frames
from repro.sim.jobs import JobSpec
from repro.workloads import WorkloadConfig, generate_workload
from repro.workloads.serialize import spec_to_dict

#: A WAL of JSON (v1) records, written before records became binary:
#: :func:`fixture_specs`, each recorded at its arrival.
V1_FIXTURE = Path(__file__).parent / "fixtures" / "wal_v1.wal"


def specs(n=12, seed=5):
    return generate_workload(
        WorkloadConfig(n_jobs=n, m=8, load=2.0, epsilon=1.0, seed=seed)
    )


def fixture_specs():
    """The submissions :data:`V1_FIXTURE` holds: four throughput jobs and
    one general-profit job."""
    return specs(4) + [
        JobSpec(
            100,
            DAGStructure([1.0, 2.5, 0.5], [(0, 1), (0, 2)], name="gp"),
            arrival=9,
            profit_fn=FlatThenLinear(3.0, 6, 4),
        )
    ]


def as_dicts(entries):
    return [(t, spec_to_dict(spec)) for t, spec in entries]


class TestRoundtrip:
    def test_record_returns_index_and_reopens(self, tmp_path):
        path = tmp_path / "s.wal"
        jobs = specs()
        with WriteAheadLog(path) as wal:
            for i, spec in enumerate(jobs):
                assert wal.record(spec.arrival, spec) == i
            assert len(wal) == len(jobs)

        reopened = WriteAheadLog(path)
        assert reopened.truncated_bytes == 0
        assert [(t, sp.job_id) for t, sp in reopened] == [
            (sp.arrival, sp.job_id) for sp in jobs
        ]
        # the reloaded specs are full equal objects, not just ids
        for (_, got), want in zip(reopened, jobs):
            assert got == want
        reopened.close()

    def test_general_profit_job_roundtrips(self, tmp_path):
        path = tmp_path / "s.wal"
        with WriteAheadLog(path) as wal:
            for spec in fixture_specs():
                wal.record(spec.arrival, spec)
        with WriteAheadLog(path) as reopened:
            assert as_dicts(reopened) == as_dicts(
                (sp.arrival, sp) for sp in fixture_specs()
            )
            assert reopened.entries[-1][1].profit_fn is not None

    def test_key_for_is_stable(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        assert wal.key_for(0) == wal.key_for(0)
        assert wal.key_for(0) != wal.key_for(1)
        wal.close()

    def test_empty_file_gets_magic(self, tmp_path):
        path = tmp_path / "s.wal"
        WriteAheadLog(path).close()
        assert path.read_bytes() == WAL_MAGIC

    def test_open_wal_helper(self, tmp_path):
        wal = open_wal(tmp_path / "s.wal", fsync_every=1)
        assert wal.fsync_every == 1
        wal.close()


class TestDurability:
    def test_fsync_batching_defers_pending(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        wal = WriteAheadLog(tmp_path / "s.wal", fsync_every=4)
        baseline = len(synced)
        for spec in specs(3):
            wal.record(spec.arrival, spec)
        assert len(synced) == baseline  # below the batch threshold
        wal.record(specs(4)[-1].arrival, specs(4)[-1])
        assert len(synced) == baseline + 1  # batch boundary fsyncs
        wal.close()

    def test_rejects_bad_fsync_every(self, tmp_path):
        with pytest.raises(WALError):
            WriteAheadLog(tmp_path / "s.wal", fsync_every=0)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not.wal"
        path.write_bytes(b"definitely not a wal file")
        with pytest.raises(WALError):
            WriteAheadLog(path)


class TestTornTail:
    def _filled(self, tmp_path, n=6):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        for spec in specs(n):
            wal.record(spec.arrival, spec)
        wal.close()
        return path

    def test_truncated_frame_is_cut(self, tmp_path):
        path = self._filled(tmp_path)
        clean = path.read_bytes()
        path.write_bytes(clean[:-3])  # tear the last record's payload

        wal = WriteAheadLog(path)
        assert len(wal) == 5
        assert wal.truncated_bytes > 0
        # the file itself was repaired: reopening is clean
        wal.close()
        again = WriteAheadLog(path)
        assert again.truncated_bytes == 0
        assert len(again) == 5
        again.close()

    def test_crc_corruption_truncates_from_there(self, tmp_path):
        path = self._filled(tmp_path)
        data = bytearray(path.read_bytes())
        # corrupt one payload byte inside the 3rd record: find its offset
        offset = len(WAL_MAGIC)
        frame = struct.Struct("<II")
        for _ in range(2):
            length, _ = frame.unpack(data[offset : offset + frame.size])
            offset += frame.size + length
        data[offset + frame.size + 1] ^= 0xFF
        path.write_bytes(bytes(data))

        wal = WriteAheadLog(path)
        # records after the corrupt one are unreachable: longest valid prefix
        assert len(wal) == 2
        assert wal.truncated_bytes > 0
        wal.close()

    def test_appends_after_truncation_are_valid(self, tmp_path):
        path = self._filled(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        wal = WriteAheadLog(path)
        survivors = len(wal)
        extra = specs(8)[-1]
        wal.record(extra.arrival, extra)
        wal.close()
        reopened = WriteAheadLog(path)
        assert len(reopened) == survivors + 1
        assert reopened.entries[-1][1] == extra
        reopened.close()


def binary_record(**fields):
    """A binary record payload of the first test spec, with ``nodes``
    (the header's node count) or single bytes ``at`` offsets replaced."""
    payload = bytearray(encode_record(3, specs(1)[0]))
    if "nodes" in fields:
        # record head <Bq> (9 bytes), then the spec header
        # <BBqqqd...>: the node count sits 2 + 4 * 8 bytes into it
        struct.pack_into("<I", payload, 9 + 34, fields["nodes"])
    for offset, value in fields.get("at", {}).items():
        payload[offset] = value
    return bytes(payload)


class TestMalformedRecord:
    """A frame whose CRC matches was written that way, not torn: a
    payload that does not decode is a structured error, not a crash."""

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"t":1}',
            b"not json",
            b"[1,2]",
            b'{"t":"x","spec":{}}',
            b"\xff\xfe",
            pytest.param(b"", id="empty"),
            pytest.param(b"\x02", id="version-only"),
            pytest.param(binary_record()[:30], id="truncated-header"),
            # the length check comes before any allocation
            pytest.param(binary_record(nodes=2**31), id="2**31-nodes"),
            pytest.param(binary_record(at={0: 0x03}), id="record-version"),
            pytest.param(binary_record(at={9: 0x07}), id="spec-version"),
            pytest.param(binary_record(at={10: 0x04}), id="unknown-flags"),
        ],
    )
    def test_checksummed_garbage_raises_wal_error(self, tmp_path, payload):
        path = tmp_path / "s.wal"
        path.write_bytes(WAL_MAGIC + pack_frame(payload))
        with pytest.raises(WALError, match=r"s\.wal: record 0 "):
            WriteAheadLog(path)

    def test_error_names_the_record_index(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        for spec in specs(3):
            wal.record(spec.arrival, spec)
        wal.close()
        path.write_bytes(path.read_bytes() + pack_frame(b'{"t":1}'))
        with pytest.raises(WALError, match="record 3 passes its CRC"):
            WriteAheadLog(path)


class TestOldFormat:
    """Logs written with JSON records stay readable, alone or followed
    by binary records."""

    def test_v1_fixture_recovers(self, tmp_path):
        frames, _ = scan_frames(V1_FIXTURE.read_bytes(), WAL_MAGIC, "fixture")
        assert {payload[:1] for payload in frames} == {b"{"}
        path = tmp_path / "s.wal"
        shutil.copyfile(V1_FIXTURE, path)
        with WriteAheadLog(path) as wal:
            assert wal.truncated_bytes == 0
            assert as_dicts(wal) == as_dicts(
                (sp.arrival, sp) for sp in fixture_specs()
            )

    def test_binary_appends_after_v1_records(self, tmp_path):
        path = tmp_path / "s.wal"
        shutil.copyfile(V1_FIXTURE, path)
        extra = specs(8, seed=6)
        with WriteAheadLog(path) as wal:
            for spec in extra:
                wal.record(spec.arrival, spec)
        frames, _ = scan_frames(path.read_bytes(), WAL_MAGIC, "mixed")
        assert [payload[:1] for payload in frames] == [b"{"] * 5 + [b"\x02"] * 8
        with WriteAheadLog(path) as mixed:
            assert as_dicts(mixed) == as_dicts(
                (sp.arrival, sp) for sp in fixture_specs() + extra
            )
