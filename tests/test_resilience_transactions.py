"""Transactional steal tests: journal durability, torn tails, replay.

The steal journal's promise is exactly-one placement for every
cross-shard move, no matter where a crash lands inside the
intent / transfer / commit triple.  These tests drive the journal and
its replay helpers directly over real in-process shards, including the
regression for a replayed submission hiding in the engine-pending heap
(invisible to both the active probe and the queue probes).
"""

import os
from dataclasses import replace

import pytest

from repro.cluster import ShardConfig
from repro.cluster.shard import InProcessShard
from repro.errors import WALError
from repro.resilience.transactions import (
    TXN_MAGIC,
    StealJournal,
    reconcile_shard,
    resolve_pending,
)
from repro.resilience.wal import pack_frame
from repro.workloads import WorkloadConfig, generate_workload


def make_spec(job_id=0, arrival=0, deadline=10_000):
    """One generated job with a generous deadline, renumbered."""
    base = generate_workload(
        WorkloadConfig(n_jobs=1, m=4, load=1.0, epsilon=1.0, seed=9)
    )[0]
    return replace(
        base, job_id=job_id, arrival=arrival, deadline=deadline
    )


def make_shard(index):
    shard = InProcessShard(
        index, ShardConfig(m=2, scheduler="sns", scheduler_kwargs={})
    )
    shard.start()
    return shard


class FakeCluster:
    def __init__(self, shards):
        self.shards = shards


def live_on(shard, job_id):
    """True when the job is live in the shard's engine (probe+restore)."""
    payload = shard.extract_running(job_id)
    if payload is None:
        return False
    shard.inject_running(payload, shard.stats().now)
    return True


class TestJournalLifecycle:
    def test_triple_settles_and_counts(self, tmp_path):
        journal = StealJournal(tmp_path / "steals.txn")
        txn_id = journal.begin(t=5, job_id=3, src=0, dst=1, kind="parked")
        journal.transfer(txn_id, {"spec": {"job_id": 3}})
        assert journal.pending() and journal.txns[txn_id].pending
        journal.commit(txn_id)
        assert not journal.pending()
        assert journal.txns[txn_id].settled_seq == journal.seq == 3
        assert journal.counts()["committed"] == 1
        journal.close()

    def test_durable_reopen_restores_states(self, tmp_path):
        path = tmp_path / "steals.txn"
        with StealJournal(path) as journal:
            a = journal.begin(t=1, job_id=1, src=0, dst=1, kind="parked")
            journal.transfer(a, {"spec": {"job_id": 1}})
            journal.commit(a)
            b = journal.begin(t=2, job_id=2, src=1, dst=0, kind="starved")
            journal.abort(b, "victim-vanished")
            c = journal.begin(t=3, job_id=3, src=0, dst=1, kind="parked")
            journal.transfer(c, {"spec": {"job_id": 3}})
        reopened = StealJournal(path)
        assert reopened.truncated_bytes == 0
        assert reopened.seq == 7
        assert reopened.txns[a].state == "committed"
        assert reopened.txns[a].settled_seq == 3
        assert reopened.txns[b].state == "aborted"
        assert reopened.txns[b].reason == "victim-vanished"
        assert reopened.txns[c].state == "transfer"
        assert [t.txn_id for t in reopened.pending()] == [c]
        reopened.close()

    def test_memory_mode_needs_no_file(self):
        journal = StealJournal(None)
        txn_id = journal.begin(t=0, job_id=0, src=0, dst=1, kind="parked")
        journal.abort(txn_id, "no-transfer")
        assert journal.counts()["aborted"] == 1
        journal.close()  # no-op


class TestTornTail:
    def test_commit_sheared_off_recovers_to_pending(self, tmp_path):
        """A torn tail inside the triple: intent+transfer survive, the
        commit frame is sheared off -- recovery reopens the move as
        *pending* (never as a phantom commit) and truncates the tear."""
        path = tmp_path / "steals.txn"
        journal = StealJournal(path, fsync_every=1)
        txn_id = journal.begin(t=7, job_id=4, src=0, dst=1, kind="parked")
        journal.transfer(txn_id, {"spec": {"job_id": 4}})
        journal.sync()
        intact = os.path.getsize(path)
        journal.commit(txn_id)
        journal.close()
        # shear the commit: keep a few garbage bytes of its frame
        with open(path, "r+b") as fh:
            fh.truncate(intact + 3)
        reopened = StealJournal(path)
        assert reopened.truncated_bytes == 3
        assert os.path.getsize(path) == intact
        txn = reopened.txns[txn_id]
        assert txn.state == "transfer" and txn.pending
        reopened.close()

    def test_torn_triple_aborts_not_duplicates(self, tmp_path):
        """End to end over real shards: extraction journaled, commit
        lost to a torn tail, donor still holds the job -- resolution
        aborts (src keeps it); the receiver never gets a copy."""
        path = tmp_path / "steals.txn"
        spec = make_spec(job_id=4, arrival=0)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        src.submit(spec, 0)
        src.advance_to(5)
        assert live_on(src, 4)

        journal = StealJournal(path, fsync_every=1)
        txn_id = journal.begin(t=5, job_id=4, src=0, dst=1, kind="parked")
        payload = src.extract_running(4)
        journal.transfer(txn_id, payload)
        src.inject_running(payload, 5)  # crash before phase 2: donor
        journal.sync()                  # kept it, nothing landed on dst
        intact = os.path.getsize(path)
        journal.commit(txn_id)
        journal.close()
        with open(path, "r+b") as fh:
            fh.truncate(intact + 2)

        reopened = StealJournal(path)
        outcomes = resolve_pending(reopened, cluster, 6)
        assert [o["outcome"] for o in outcomes] == ["aborted"]
        assert reopened.txns[txn_id].reason == "src-retained"
        assert live_on(src, 4)
        assert not live_on(dst, 4)
        reopened.close()

    def test_lost_intent_is_skipped(self, tmp_path):
        path = tmp_path / "steals.txn"
        journal = StealJournal(path, fsync_every=1)
        magic_plus_first = None
        journal.begin(t=1, job_id=1, src=0, dst=1, kind="parked")
        journal.sync()
        magic_plus_first = os.path.getsize(path)
        journal.begin(t=2, job_id=2, src=0, dst=1, kind="parked")
        journal.sync()
        second_intent_end = os.path.getsize(path)
        journal.commit(1)
        journal.close()
        # tear out the second intent but keep its commit unreadable too:
        # drop everything from the second intent on, then re-append the
        # commit bytes so recovery sees a commit for an unknown txn
        with open(path, "rb") as fh:
            data = fh.read()
        commit_bytes = data[second_intent_end:]
        with open(path, "wb") as fh:
            fh.write(data[:magic_plus_first] + commit_bytes)
        reopened = StealJournal(path)
        assert 1 not in reopened.txns  # commit for a lost intent: skipped
        assert reopened.txns[0].state == "intent"
        reopened.close()


class TestMalformedRecord:
    @pytest.mark.parametrize(
        "payload",
        [
            b'{"k":"intent"}',
            b"not json",
            b'"intent"',
            b'{"k":"commit","txn":"x"}',
            b'{"k":"intent","txn":0,"t":1,"job":1,"src":0}',
        ],
    )
    def test_checksummed_garbage_raises_wal_error(self, tmp_path, payload):
        path = tmp_path / "steals.txn"
        path.write_bytes(TXN_MAGIC + pack_frame(payload))
        with pytest.raises(WALError, match=r"steals\.txn: record 0 "):
            StealJournal(path)

    def test_error_names_the_record_index(self, tmp_path):
        path = tmp_path / "steals.txn"
        journal = StealJournal(path)
        txn_id = journal.begin(t=1, job_id=1, src=0, dst=1, kind="parked")
        journal.commit(txn_id)
        journal.close()
        path.write_bytes(path.read_bytes() + pack_frame(b'{"k":"intent"}'))
        with pytest.raises(WALError, match="record 2 passes its CRC"):
            StealJournal(path)


class TestResolvePending:
    def test_no_transfer_aborts(self):
        spec = make_spec(job_id=7)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        journal = StealJournal(None)
        # intent only, and the donor lost the job with a crash
        journal.begin(t=3, job_id=7, src=0, dst=1, kind="parked")
        outcomes = resolve_pending(journal, cluster, 4)
        assert [o["outcome"] for o in outcomes] == ["aborted"]
        assert journal.txns[0].reason == "no-transfer"

    def test_payload_lands_on_dst_as_commit(self):
        spec = make_spec(job_id=8)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        src.submit(spec, 0)
        src.advance_to(5)
        journal = StealJournal(None)
        txn_id = journal.begin(t=5, job_id=8, src=0, dst=1, kind="parked")
        journal.transfer(txn_id, src.extract_running(8))
        # donor extracted and crashed; receiver never got the inject
        outcomes = resolve_pending(journal, cluster, 6)
        assert [o["outcome"] for o in outcomes] == ["committed"]
        assert live_on(dst, 8)
        assert not live_on(src, 8)

    def test_replay_pending_copy_on_src_aborts(self):
        """Donor recovery replayed the job at the current instant: it
        is engine-pending (invisible to the active and queue probes)
        yet must still count as 'src retained'."""
        spec = make_spec(job_id=9, arrival=0)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        src.submit(spec, 0)
        src.advance_to(5)
        journal = StealJournal(None)
        txn_id = journal.begin(t=5, job_id=9, src=0, dst=1, kind="parked")
        journal.transfer(txn_id, src.extract_running(9))
        # the replayed copy re-enters at now: pending, not active
        src.submit(replace(spec, arrival=5), 5)
        assert src.extract_running(9) is None  # invisible to the probe
        outcomes = resolve_pending(journal, cluster, 5)
        assert [o["outcome"] for o in outcomes] == ["aborted"]
        assert journal.txns[txn_id].reason == "src-pending"
        src.advance_to(7)
        assert live_on(src, 9)
        assert not live_on(dst, 9)


class TestReconcileShard:
    def _committed_move(self, journal, src, dst, spec, t=5):
        src.submit(spec, 0)
        src.advance_to(t)
        txn_id = journal.begin(
            t=t, job_id=spec.job_id, src=0, dst=1, kind="parked"
        )
        payload = src.extract_running(spec.job_id)
        journal.transfer(txn_id, payload)
        dst.inject_running(payload, t)
        journal.commit(txn_id)
        return txn_id

    def test_pending_replay_copy_is_purged(self):
        """Regression: a donor recovered *after* the steal tick replays
        the stolen job's submission; the copy sits in the engine-pending
        heap where neither extract nor take_queued can see it, and used
        to survive reconciliation as a duplicate terminal record."""
        spec = make_spec(job_id=11, arrival=0)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        journal = StealJournal(None)
        self._committed_move(journal, src, dst, spec)
        # post-recovery replay resurrects the submission at now
        src.submit(replace(spec, arrival=5), 5)
        actions = reconcile_shard(journal, cluster, 0, 5)
        assert actions == [{"job": 11, "action": "purged-pending"}]
        src.advance_to(50)
        assert not live_on(src, 11)
        assert live_on(dst, 11)

    def test_active_replay_copy_is_discarded(self):
        spec = make_spec(job_id=12, arrival=0)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        journal = StealJournal(None)
        self._committed_move(journal, src, dst, spec)
        src.submit(replace(spec, arrival=5), 5)
        src.advance_to(8)  # the copy is released: live on the donor
        actions = reconcile_shard(journal, cluster, 0, 8)
        assert actions == [{"job": 12, "action": "discarded"}]
        assert not live_on(src, 12)

    def test_receiver_restore_reinjects_lost_commit(self):
        """The receiver rolled back to a checkpoint that predates the
        injection: the committed payload is re-injected from the
        journal."""
        spec = make_spec(job_id=13, arrival=0)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        journal = StealJournal(None)
        self._committed_move(journal, src, dst, spec)
        dst.restore(None)  # receiver lost everything after its start
        actions = reconcile_shard(journal, cluster, 1, 6)
        assert actions == [{"job": 13, "action": "reinjected"}]
        assert live_on(dst, 13)

    def test_checkpoint_mark_skips_settled_moves(self):
        spec = make_spec(job_id=14, arrival=0)
        src, dst = make_shard(0), make_shard(1)
        cluster = FakeCluster([src, dst])
        journal = StealJournal(None)
        txn_id = self._committed_move(journal, src, dst, spec)
        settled = journal.txns[txn_id].settled_seq
        # a checkpoint taken after the commit bakes the move in: the
        # reconcile pass must not "repair" it back
        actions = reconcile_shard(
            journal, cluster, 1, 6, since_seq=settled
        )
        assert actions == []
        assert live_on(dst, 14)


class TestForgetPending:
    def test_forget_frees_the_id(self):
        shard = make_shard(0)
        spec = make_spec(job_id=21, arrival=0)
        shard.submit(spec, 0)
        withdrawn = shard.forget_pending(21)
        assert withdrawn is not None and withdrawn.job_id == 21
        assert shard.forget_pending(21) is None
        # the id is free again: a resubmission is legal, not a duplicate
        shard.submit(spec, 0)
        shard.advance_to(3)
        assert live_on(shard, 21)

    def test_forget_misses_released_jobs(self):
        shard = make_shard(0)
        shard.submit(make_spec(job_id=22, arrival=0), 0)
        shard.advance_to(3)
        assert shard.forget_pending(22) is None
        assert live_on(shard, 22)
