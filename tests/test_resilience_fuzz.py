"""Corrupt-input properties of the durable files.

Byte flips and truncations of a checkpoint generation, a submission WAL
and a steal journal either load what survives -- the previous checkpoint
generation, or a valid record prefix -- or raise a
:class:`~repro.errors.ReproError`.  They never raise a raw exception.
The same holds for checksummed frames whose payload is arbitrary, and
for a service snapshot file without its digest sidecar and a scenario
spec file: either loads, or raises a ``ReproError``.
"""

import json
import os
import tempfile

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sns import SNSScheduler
from repro.errors import ReproError, SimulationError, WALError
from repro.resilience import WAL_MAGIC, CheckpointStore, WriteAheadLog
from repro.resilience.transactions import TXN_MAGIC, StealJournal
from repro.resilience.wal import pack_frame, scan_frames
from repro.scenarios import ScenarioSpec, load_spec
from repro.service import SchedulingService
from repro.service.snapshot import (
    load_snapshot,
    save_snapshot,
    service_from_dict,
)
from repro.workloads import WorkloadConfig, generate_workload
from repro.workloads.serialize import spec_to_dict

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: one mutation of a file's bytes: flip bits at some offsets, or cut it
mutations = st.one_of(
    st.tuples(
        st.just("flip"),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        ),
    ),
    st.tuples(st.just("cut"), st.integers(min_value=0)),
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.sampled_from(["intent", "transfer", "commit", "abort", "expire"])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["t", "spec", "k", "txn", "job", "src", "dst", "kind", "payload",
             "reason", "structure", "job_id", "arrival", "deadline", "work"]
        ),
        inner,
        max_size=6,
    ),
    max_leaves=12,
)

#: checksummed payloads: arbitrary bytes, or arbitrary JSON documents
payloads = st.one_of(
    st.binary(max_size=64),
    json_values.map(lambda doc: json.dumps(doc).encode("utf-8")),
)


def mutate(data: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "cut":
        return data[: arg % (len(data) + 1)]
    out = bytearray(data)
    for offset, mask in arg:
        out[offset % len(out)] ^= mask
    return bytes(out)


def frame_ends(data: bytes, magic: bytes) -> list[int]:
    """Byte offsets at which each valid prefix of ``data`` ends."""
    frames, _ = scan_frames(data, magic, "<clean>")
    ends = [len(magic)]
    for payload in frames:
        ends.append(ends[-1] + 8 + len(payload))
    return ends


SPECS = generate_workload(
    WorkloadConfig(n_jobs=6, m=8, load=2.0, epsilon=1.0, seed=5)
)


def wal_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "s.wal")
        wal = WriteAheadLog(path)
        for spec in SPECS:
            wal.record(spec.arrival, spec)
        wal.close()
        with open(path, "rb") as fh:
            return fh.read()


def journal_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "steals.txn")
        journal = StealJournal(path)
        for job_id in range(4):
            txn = journal.begin(t=job_id, job_id=job_id, src=0, dst=1, kind="parked")
            if job_id % 2:
                journal.transfer(txn, {"spec": {"job_id": job_id}})
                journal.commit(txn)
            else:
                journal.abort(txn, "src-retained")
        journal.close()
        with open(path, "rb") as fh:
            return fh.read()


def journal_state(journal: StealJournal):
    return journal.seq, {
        txn_id: (txn.state, txn.payload, txn.reason, txn.settled_seq)
        for txn_id, txn in journal.txns.items()
    }


def open_bytes(cls, name: str, data: bytes, read):
    """Open ``data`` as a ``cls`` file; ``read`` it, or the ReproError."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, name)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            log = cls(path)
        except ReproError as exc:
            return exc
        try:
            return read(log)
        finally:
            log.close()


def wal_entries(wal):
    return [(t, spec_to_dict(spec)) for t, spec in wal.entries]


CLEAN_WAL = wal_bytes()
WAL_PREFIXES = [
    open_bytes(WriteAheadLog, "s.wal", CLEAN_WAL[:end], wal_entries)
    for end in frame_ends(CLEAN_WAL, WAL_MAGIC)
]
CLEAN_JOURNAL = journal_bytes()
JOURNAL_PREFIXES = [
    open_bytes(StealJournal, "steals.txn", CLEAN_JOURNAL[:end], journal_state)
    for end in frame_ends(CLEAN_JOURNAL, TXN_MAGIC)
]


def snapshot_doc(tag):
    return {"engine": {"t": tag}, "queue": [{"spec": None}], "tag": tag}


class TestCheckpointGeneration:
    @FUZZ
    @given(mutation=mutations)
    def test_damaged_latest_falls_back_a_generation(self, mutation):
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root, keep=2)
            store.save(0, 10, snapshot_doc(10))
            path = store.save(0, 20, snapshot_doc(20))
            with open(path, "rb") as fh:
                clean = fh.read()
            damaged = mutate(clean, mutation)
            with open(path, "wb") as fh:
                fh.write(damaged)
            if damaged == clean:
                assert store.load(0) == (20, snapshot_doc(20))
            else:
                assert store.load(0) == (10, snapshot_doc(10))
                assert store.corrupt_detected == 1


class TestWriteAheadLog:
    @FUZZ
    @given(mutation=mutations)
    def test_damage_loads_a_prefix_or_raises(self, mutation):
        got = open_bytes(
            WriteAheadLog, "s.wal", mutate(CLEAN_WAL, mutation), wal_entries
        )
        assert isinstance(got, ReproError) or got in WAL_PREFIXES

    @FUZZ
    @given(payload=payloads)
    def test_checksummed_payload_loads_or_raises_wal_error(self, payload):
        got = open_bytes(
            WriteAheadLog, "s.wal", WAL_MAGIC + pack_frame(payload), wal_entries
        )
        assert isinstance(got, (WALError, list))


class TestStealJournal:
    @FUZZ
    @given(mutation=mutations)
    def test_damage_loads_a_prefix_or_raises(self, mutation):
        got = open_bytes(
            StealJournal,
            "steals.txn",
            mutate(CLEAN_JOURNAL, mutation),
            journal_state,
        )
        assert isinstance(got, ReproError) or got in JOURNAL_PREFIXES

    @FUZZ
    @given(payload=payloads)
    def test_checksummed_payload_loads_or_raises_wal_error(self, payload):
        got = open_bytes(
            StealJournal,
            "steals.txn",
            TXN_MAGIC + pack_frame(payload),
            journal_state,
        )
        assert isinstance(got, (WALError, tuple))


def service_snapshot_bytes() -> bytes:
    service = SchedulingService(
        m=4, scheduler=SNSScheduler(epsilon=1.0), capacity=4, max_in_flight=2
    )
    service.start()
    for spec in sorted(SPECS, key=lambda sp: (sp.arrival, sp.job_id)):
        service.submit(spec, t=spec.arrival)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "service.json")
        save_snapshot(service, path)
        with open(path, "rb") as fh:
            return fh.read()


CLEAN_SNAPSHOT = service_snapshot_bytes()


def load_file(name: str, data: bytes, load):
    """Write ``data`` to ``name`` and ``load`` the path, or the
    ReproError it raises."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, name)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return load(path)
        except ReproError as exc:
            return exc


class TestServiceSnapshot:
    @FUZZ
    @given(mutation=mutations)
    def test_damage_without_sidecar_loads_or_raises(self, mutation):
        got = load_file(
            "service.json",
            mutate(CLEAN_SNAPSHOT, mutation),
            lambda path: load_snapshot(path, SNSScheduler(epsilon=1.0)),
        )
        assert isinstance(got, (SchedulingService, SimulationError))

    @FUZZ
    @given(doc=json_values)
    def test_arbitrary_document_restores_or_raises(self, doc):
        try:
            service_from_dict(doc, SNSScheduler(epsilon=1.0))
        except SimulationError:
            pass

    def test_missing_section_is_named(self):
        with pytest.raises(SimulationError, match="'service'"):
            service_from_dict({"version": 1}, SNSScheduler(epsilon=1.0))
        data = json.loads(CLEAN_SNAPSHOT)
        del data["scheduler"]
        with pytest.raises(SimulationError, match="'scheduler'"):
            service_from_dict(data, SNSScheduler(epsilon=1.0))
        data = json.loads(CLEAN_SNAPSHOT)
        del data["engine"]["config"]["m"]
        with pytest.raises(SimulationError, match="'m'"):
            service_from_dict(data, SNSScheduler(epsilon=1.0))

    def test_ill_typed_section_is_named(self):
        data = json.loads(CLEAN_SNAPSHOT)
        data["queue"] = 7
        with pytest.raises(SimulationError, match="queue"):
            service_from_dict(data, SNSScheduler(epsilon=1.0))

    def test_undecodable_file_raises(self):
        for data in (CLEAN_SNAPSHOT[:-1], b"\xff" + CLEAN_SNAPSHOT):
            got = load_file(
                "service.json",
                data,
                lambda path: load_snapshot(path, SNSScheduler(epsilon=1.0)),
            )
            assert isinstance(got, SimulationError)


SPEC = ScenarioSpec().with_overrides(
    {"mode": "cluster", "cluster.shards": 2, "faults.chaos": "crash:1:40"}
)


class TestScenarioSpecFile:
    @FUZZ
    @given(
        fmt=st.sampled_from(["toml", "json"]),
        mutation=mutations,
    )
    def test_damage_loads_or_raises(self, fmt, mutation):
        text = SPEC.to_toml() if fmt == "toml" else SPEC.to_json()
        clean = text.encode("utf-8")
        got = load_file(f"spec.{fmt}", mutate(clean, mutation), load_spec)
        assert isinstance(got, (ScenarioSpec, ReproError))
