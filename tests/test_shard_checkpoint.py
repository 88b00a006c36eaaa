"""Encoded shard checkpoints.

A shard snapshot stays pickled bytes from the shard that takes it to the
recovery that restores it: the cluster parent reads only the record's
engine clock, and decodes a record only to write the digest-verified
JSON files of a ``checkpoint_dir``.  Those files are byte-identical to
the ones written when snapshots crossed the pipe as dicts.
"""

import hashlib
import json
import os
import pickle

import pytest

from repro.cluster import ClusterService, ShardCheckpoint, ShardConfig, coordinate
from repro.cluster.shard import make_shard
from repro.gateway.load import LoadConfig, LoadGenerator
from repro.resilience import DEFAULT_RPC_POLICY, WAL_MAGIC, SupervisorConfig
from repro.resilience.transactions import TXN_MAGIC
from repro.resilience.wal import decode_record, scan_frames
from repro.workloads import WorkloadConfig, generate_workload

CFG = ShardConfig(m=4, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})
MODES = ["inprocess", "process"]

#: SHA-256 of the sorted ``{relative path: SHA-256 of the file}`` map of
#: every file :func:`durable_run` leaves under ``wal_dir`` and
#: ``checkpoint_dir``, equal in both modes.  It moved once, when WAL
#: records became binary (``689232fc...`` with JSON records); the
#: checkpoint and steal-journal files kept their bytes.
DURABLE_FILES_DIGEST = (
    "185104a96ec07c677d9222fa080dbff9c2ae075d78af6df0ca22e97f6dc82337"
)


def workload(n_jobs=40, seed=9):
    specs = generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=4, load=2.5, epsilon=1.0, seed=seed)
    )
    specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
    return specs


def fed(mode, specs):
    shard = make_shard(0, CFG, mode)
    shard.start()
    for spec in specs:
        shard.submit(spec, spec.arrival)
    return shard


def outcome(result):
    """Records, sheds and profit of a shard or cluster result."""
    records = getattr(result, "records", None)
    return (
        result.result.records if records is None else records,
        [(s.job_id, s.time, s.reason) for s in result.shed],
        repr(result.total_profit),
    )


@pytest.mark.parametrize("mode", MODES)
class TestShardSnapshot:
    def test_snapshot_is_an_encoded_record(self, mode):
        specs = workload()
        shard = fed(mode, specs[:20])
        try:
            checkpoint = shard.snapshot()
            assert type(checkpoint) is ShardCheckpoint
            assert type(checkpoint.blob) is bytes
            snapshot = pickle.loads(checkpoint.blob)
            assert checkpoint.decode() == snapshot
            assert checkpoint.t == snapshot["engine"]["t"]
            assert checkpoint.t == specs[19].arrival
            # both modes encode the same service state
            reference = fed("inprocess", specs[:20])
            assert reference.snapshot().decode() == snapshot
            reference.finish()
        finally:
            shard.finish()

    def test_restore_then_finish_matches_an_uninterrupted_shard(self, mode):
        specs = workload()
        baseline = fed(mode, specs).finish()

        shard = fed(mode, specs[:20])
        checkpoint = shard.snapshot()
        for spec in specs[20:26]:  # lost with the crash, replayed below
            shard.submit(spec, spec.arrival)
        shard.kill()
        shard.restore(checkpoint)
        for spec in specs[20:]:
            shard.submit(spec, spec.arrival)
        assert outcome(shard.finish()) == outcome(baseline)

    def test_record_restores_across_modes(self, mode):
        specs = workload()
        baseline = fed(mode, specs).finish()
        donor = fed("process" if mode == "inprocess" else "inprocess", specs[:20])
        checkpoint = donor.snapshot()
        donor.finish()

        shard = make_shard(0, CFG, mode)
        shard.restore(checkpoint)
        for spec in specs[20:]:
            shard.submit(spec, spec.arrival)
        assert outcome(shard.finish()) == outcome(baseline)


def durable_run(mode, root=None, crash_at=60):
    """The pinned 300-job supervised durable run, with shard 0 crashed
    at ``crash_at`` (after the first checkpoints); on-disk checkpoints
    and WALs under ``root`` when it is given, in memory otherwise."""
    specs = LoadGenerator(
        LoadConfig(n_jobs=300, m=16, load=2.0, seed=5, process="flash-crowd")
    ).specs()
    durable = {}
    if root is not None:
        durable = dict(
            wal_dir=str(root / "wal"),
            wal_fsync_every=8,
            checkpoint_dir=str(root / "ckpt"),
        )
    cluster = ClusterService(
        16,
        2,
        config=ShardConfig(
            m=1,
            scheduler="sns",
            scheduler_kwargs={"epsilon": 1.0},
            capacity=24,
            max_in_flight=12,
            shed_policy="reject-lowest-density",
        ),
        router="band-aware",
        mode=mode,
        supervisor=SupervisorConfig(),
        rpc=DEFAULT_RPC_POLICY,
        checkpoint_every=16,
        **durable,
    )
    coordinate(
        cluster,
        refresh_every=16,
        steal_batch=8,
        steal_margin=1.5,
        max_displaced=2,
        max_moves_per_job=8,
    )
    crashed = False
    for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
        if not crashed and spec.arrival >= crash_at:
            cluster.inject_crash(0)
            crashed = True
        cluster.submit(spec, t=spec.arrival)
    result = cluster.finish()
    # the crash was restored from a checkpoint, not from an empty shard
    assert [(e.shard, e.time) for e in result.recoveries] == [(0, crash_at)]
    assert result.recoveries[0].checkpoint_time > 0
    return cluster, result


def counting_decodes(monkeypatch):
    """Record every :meth:`ShardCheckpoint.decode` made in this process
    (forked shard workers inherit the patch but not the list)."""
    parent = os.getpid()
    decoded = []
    decode = ShardCheckpoint.decode

    def counted(self):
        if os.getpid() == parent:
            decoded.append(self.t)
        return decode(self)

    monkeypatch.setattr(ShardCheckpoint, "decode", counted)
    return decoded


class TestClusterKeepsBytes:
    @pytest.mark.parametrize("mode", MODES)
    def test_in_memory_checkpoints_stay_encoded(self, mode, monkeypatch):
        decoded = counting_decodes(monkeypatch)
        cluster, _ = durable_run(mode)
        assert set(cluster.checkpoints) == {0, 1}
        for index, (log_index, checkpoint) in cluster.checkpoints.items():
            assert type(checkpoint) is ShardCheckpoint
            assert 0 < log_index <= len(cluster.logs[index])
        # only an in-process shard decodes, and only to restore
        assert decoded == ([] if mode == "process" else [50])

    def test_disk_and_memory_runs_agree(self, tmp_path, monkeypatch):
        decoded = counting_decodes(monkeypatch)
        _, on_disk = durable_run("process", tmp_path)
        assert decoded  # the parent decodes to write the JSON files
        _, in_memory = durable_run("process")
        assert outcome(on_disk) == outcome(in_memory)


@pytest.mark.parametrize("mode", MODES)
def test_durable_files_are_pinned(mode, tmp_path):
    cluster, _ = durable_run(mode, tmp_path)
    digests = {}
    for sub in ("wal", "ckpt"):
        for name in sorted(os.listdir(tmp_path / sub)):
            data = (tmp_path / sub / name).read_bytes()
            digests[f"{sub}/{name}"] = hashlib.sha256(data).hexdigest()
            if sub == "ckpt":
                header, body = data.split(b"\n", 1)
                assert header.startswith(b"sha256:")
                assert body.isascii()
                assert set(json.loads(body)) == {"log_index", "snapshot"}
            elif name.endswith(".txn"):
                frames, good = scan_frames(data, TXN_MAGIC, name)
                assert good == len(data) and frames
                for payload in frames:
                    assert isinstance(json.loads(payload), dict)
            else:
                # binary submission records, equal to what was submitted
                frames, good = scan_frames(data, WAL_MAGIC, name)
                assert good == len(data) and frames
                shard = int(name[len("shard-") : -len(".wal")])
                assert [decode_record(payload) for payload in frames] == (
                    cluster.logs[shard].entries
                )
                assert {payload[:1] for payload in frames} == {b"\x02"}
    assert any(name.endswith(".ckpt") for name in digests)
    blob = json.dumps(digests, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == DURABLE_FILES_DIGEST
