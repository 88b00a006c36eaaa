"""Corrupt-input properties of the durable files.

Byte flips and truncations of a checkpoint generation, a submission WAL
and a steal journal either load what survives -- the previous checkpoint
generation, or a valid record prefix -- or raise a
:class:`~repro.errors.ReproError`.  They never raise a raw exception.
The same holds for checksummed frames whose payload is arbitrary.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, WALError
from repro.resilience import WAL_MAGIC, CheckpointStore, WriteAheadLog
from repro.resilience.transactions import TXN_MAGIC, StealJournal
from repro.resilience.wal import pack_frame, scan_frames
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
