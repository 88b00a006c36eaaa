"""Checkpoint store tests: digests, rotation, corruption fallback."""

import hashlib

import pytest

from repro.core import SNSScheduler
from repro.errors import SimulationError
from repro.resilience import CheckpointStore
from repro.service import SchedulingService
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.workloads import WorkloadConfig, generate_workload


def snapshot_doc(tag):
    return {"engine": {"t": tag}, "queue": [], "tag": tag}


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 7, snapshot_doc(42))
        assert store.load(0) == (7, snapshot_doc(42))

    def test_missing_shard_is_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).load(3) == (0, None)

    def test_generations_rotate(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for gen in range(5):
            store.save(0, gen, snapshot_doc(gen))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "shard-000.gen000003.ckpt",
            "shard-000.gen000004.ckpt",
        ]
        assert store.load(0) == (4, snapshot_doc(4))

    def test_shards_are_independent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 1, snapshot_doc(1))
        store.save(1, 2, snapshot_doc(2))
        assert store.load(0)[0] == 1
        assert store.load(1)[0] == 2

    def test_rejects_bad_keep(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=0)


class TestCorruptionFallback:
    def test_corrupt_latest_falls_back_a_generation(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        store.save(0, 10, snapshot_doc(10))
        store.save(0, 20, snapshot_doc(20))
        assert store.corrupt_latest(0) is not None

        # no raise: the previous good generation answers
        assert store.load(0) == (10, snapshot_doc(10))
        assert store.corrupt_detected == 1

    def test_all_corrupt_means_empty_restore(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        store.save(0, 10, snapshot_doc(10))
        store.corrupt_latest(0)
        store.save(0, 20, snapshot_doc(20))
        store.corrupt_latest(0)
        assert store.load(0) == (0, None)
        assert store.corrupt_detected >= 2

    def test_corrupt_latest_on_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).corrupt_latest(0) is None

    def test_unreadable_header_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        store.save(0, 5, snapshot_doc(5))
        path = store.save(0, 6, snapshot_doc(6))
        with open(path, "wb") as fh:
            fh.write(b"garbage with no header\n{}")
        assert store.load(0) == (5, snapshot_doc(5))

    @pytest.mark.parametrize(
        "body",
        [
            b"[1,2]",
            b"{}",
            b'{"log_index":3}',
            b'{"log_index":"x","snapshot":{}}',
            b'{"log_index":1e999,"snapshot":{}}',
            b'{"log_index":-1,"snapshot":{}}',
            b'{"log_index":3,"snapshot":[1]}',
        ],
    )
    def test_digest_valid_body_of_wrong_shape_falls_back(self, tmp_path, body):
        store = CheckpointStore(tmp_path, keep=2)
        store.save(0, 5, snapshot_doc(5))
        path = store.save(0, 6, snapshot_doc(6))
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        with open(path, "wb") as fh:
            fh.write(b"sha256:" + digest + b"\n" + body)
        assert store.load(0) == (5, snapshot_doc(5))
        assert store.corrupt_detected == 1


class TestSnapshotSidecar:
    def _service(self):
        service = SchedulingService(8, SNSScheduler(epsilon=1.0))
        service.start()
        for spec in generate_workload(
            WorkloadConfig(n_jobs=10, m=8, load=2.0, epsilon=1.0, seed=2)
        ):
            service.submit(spec, t=spec.arrival)
        return service

    def test_sidecar_written_and_verified(self, tmp_path):
        path = str(tmp_path / "svc.json")
        service = self._service()
        save_snapshot(service, path)
        assert (tmp_path / "svc.json.sha256").exists()

        restored = load_snapshot(path, SNSScheduler(epsilon=1.0))
        assert restored.now == service.now
        assert restored.queue.depth == service.queue.depth

    def test_tampered_snapshot_raises(self, tmp_path):
        path = str(tmp_path / "svc.json")
        save_snapshot(self._service(), path)
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"X")
        with pytest.raises(SimulationError, match="digest"):
            load_snapshot(path, SNSScheduler(epsilon=1.0))

    def test_legacy_snapshot_without_sidecar_loads(self, tmp_path):
        path = str(tmp_path / "svc.json")
        service = self._service()
        save_snapshot(service, path)
        (tmp_path / "svc.json.sha256").unlink()
        restored = load_snapshot(path, SNSScheduler(epsilon=1.0))
        assert restored.now == service.now
