"""Transactional cross-shard steals: exactly-once under crashes.

A coordinator steal is a two-phase move -- extract the victim from its
donor, inject it into its receiver -- and between the phases the job
exists only in the parent process's memory.  A crash of either endpoint
at the wrong instant therefore either *loses* the job (receiver died
before injection) or *duplicates* it (donor restored from a checkpoint
that still contains the victim).  :class:`StealJournal` closes both
holes: every move is journaled as an ``intent`` / ``transfer`` /
``commit`` triple (``transfer`` carries the full migration payload, so
an in-flight job is durable), and :func:`resolve_pending` /
:func:`reconcile_shard` replay the journal against live shard state to
re-establish exactly-one placement -- or a *recorded* expiry when the
job's deadline passed in transit and no live shard can take it.

Record kinds (CRC32-framed JSON, same byte framing as the WAL --
see :mod:`repro.resilience.wal`)::

    intent   {"k":"intent","txn":n,"t":t,"job":j,"src":i,"dst":r,"kind":s}
    transfer {"k":"transfer","txn":n,"payload":{...extract_many dict...}}
    commit   {"k":"commit","txn":n}
    abort    {"k":"abort","txn":n,"reason":str}
    expire   {"k":"expire","txn":n}

A transaction with a ``transfer`` but no terminal record is *pending*:
the extraction happened but the injection's fate is unknown.  A torn
tail inside the triple (intent present, commit sheared off) recovers to
an **abort** -- the donor keeps the job -- never to a duplicate.

The journal is decision-free: it never changes which moves the planner
makes, only makes their outcome durable, so fault-free runs with
journaling enabled stay bit-identical to unjournaled runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ShardFailedError, WALError
from repro.resilience.wal import (
    MALFORMED,
    malformed_record,
    pack_frame,
    scan_frames,
)

#: File magic for steal-transaction journals (framing shared with WAL).
TXN_MAGIC = b"RTXJ0001"

#: Transaction states, in lifecycle order.
TXN_STATES = ("intent", "transfer", "committed", "aborted", "expired")


@dataclass
class StealTxn:
    """One journaled steal: a job moving ``src`` -> ``dst`` at ``t``."""

    txn_id: int
    t: int
    job_id: int
    src: int
    dst: int
    kind: str
    state: str = "intent"
    payload: Optional[dict[str, Any]] = None
    reason: Optional[str] = None
    #: journal sequence number of the terminal record (0 = unsettled);
    #: lets recovery decide whether a restored checkpoint already
    #: reflects this move (checkpoint mark >= settled_seq) or predates
    #: it and needs repair
    settled_seq: int = 0

    @property
    def pending(self) -> bool:
        """True while the move's outcome is not yet durable."""
        return self.state in ("intent", "transfer")


class StealJournal:
    """Append-only journal of steal transactions with torn-tail recovery.

    Parameters
    ----------
    path:
        Journal file.  ``None`` keeps the journal in memory only --
        transactional semantics within the process (mid-tick crash of a
        *shard* is still recoverable) without durability against a
        parent-process fault.
    fsync_every:
        Records between fsyncs when durable (1 = every record).
    """

    def __init__(
        self,
        path: Optional[str | os.PathLike] = None,
        *,
        fsync_every: int = 8,
    ) -> None:
        if fsync_every < 1:
            raise WALError("fsync_every must be >= 1")
        self.path = None if path is None else str(path)
        self.fsync_every = int(fsync_every)
        self.txns: dict[int, StealTxn] = {}
        #: monotonic count of journal records (including recovered
        #: ones); checkpoints carry the value current at snapshot time
        self.seq = 0
        #: bytes cut off the tail when the file was opened (0 = clean)
        self.truncated_bytes = 0
        #: True while a steal tick is mid-flight: recovery hooks must
        #: not resolve transactions the tick is still executing
        self.in_tick = False
        self._pending_writes = 0
        self._fh = None
        if self.path is None:
            return
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self._recover()
            self._fh = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._fh.write(TXN_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    # Lifecycle records
    # ------------------------------------------------------------------
    def begin(
        self, *, t: int, job_id: int, src: int, dst: int, kind: str
    ) -> int:
        """Journal an ``intent`` and return the new transaction id."""
        txn_id = len(self.txns)
        txn = StealTxn(
            txn_id=txn_id, t=int(t), job_id=int(job_id),
            src=int(src), dst=int(dst), kind=str(kind),
        )
        self.txns[txn_id] = txn
        self._append({
            "k": "intent", "txn": txn_id, "t": txn.t, "job": txn.job_id,
            "src": txn.src, "dst": txn.dst, "kind": txn.kind,
        })
        return txn_id

    def transfer(self, txn_id: int, payload: dict[str, Any]) -> None:
        """Journal the extracted migration payload (job now durable)."""
        txn = self._require(txn_id, "intent")
        txn.payload = payload
        txn.state = "transfer"
        self._append({"k": "transfer", "txn": txn_id, "payload": payload})

    def commit(self, txn_id: int) -> None:
        """Journal success: the job lives on ``dst`` exactly once."""
        txn = self._require(txn_id)
        txn.state = "committed"
        self._append({"k": "commit", "txn": txn_id})
        txn.settled_seq = self.seq

    def abort(self, txn_id: int, reason: str) -> None:
        """Journal abandonment: the job stays (or returns to) ``src``."""
        txn = self._require(txn_id)
        txn.state = "aborted"
        txn.reason = str(reason)
        self._append({"k": "abort", "txn": txn_id, "reason": txn.reason})
        txn.settled_seq = self.seq

    def expire(self, txn_id: int) -> None:
        """Journal a recorded expiry: the job's deadline passed in
        transit and no live shard could take it."""
        txn = self._require(txn_id)
        txn.state = "expired"
        self._append({"k": "expire", "txn": txn_id})
        txn.settled_seq = self.seq

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pending(self) -> list[StealTxn]:
        """Unresolved transactions, oldest first."""
        return [txn for txn in self.txns.values() if txn.pending]

    def latest_for_job(self, job_id: int) -> Optional[StealTxn]:
        """The newest transaction involving ``job_id`` (any state)."""
        latest = None
        for txn in self.txns.values():
            if txn.job_id == job_id:
                latest = txn
        return latest

    def counts(self) -> dict[str, int]:
        """Transactions per state (for metrics and reports)."""
        out = {state: 0 for state in TXN_STATES}
        for txn in self.txns.values():
            out[txn.state] += 1
        return out

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush buffered records and fsync (no-op in memory mode)."""
        if self._fh is None or self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending_writes = 0

    def close(self) -> None:
        """Sync and close the journal file (idempotent)."""
        if self._fh is None or self._fh.closed:
            return
        self.sync()
        self._fh.close()

    def __enter__(self) -> "StealJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _append(self, record: dict[str, Any]) -> None:
        self.seq += 1
        if self._fh is None:
            return
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        self._fh.write(pack_frame(payload))
        self._pending_writes += 1
        if self._pending_writes >= self.fsync_every:
            self.sync()

    def _require(self, txn_id: int, *states: str) -> StealTxn:
        txn = self.txns.get(txn_id)
        if txn is None:
            raise WALError(f"unknown steal transaction {txn_id}")
        if states and txn.state not in states:
            raise WALError(
                f"steal transaction {txn_id} is {txn.state}, "
                f"expected {'/'.join(states)}"
            )
        return txn

    def _recover(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        payloads, good = scan_frames(data, TXN_MAGIC, self.path)
        for index, raw in enumerate(payloads):
            try:
                self._replay(json.loads(raw.decode("utf-8")))
            except MALFORMED as exc:
                raise malformed_record(self.path, index, exc) from exc
        if good < len(data):
            self.truncated_bytes = len(data) - good
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())

    def _replay(self, record: dict[str, Any]) -> None:
        """Apply one recovered journal record to :attr:`txns`."""
        self.seq += 1
        kind = record["k"]
        if kind == "intent":
            txn_id = int(record["txn"])
            self.txns[txn_id] = StealTxn(
                txn_id=txn_id, t=int(record["t"]),
                job_id=int(record["job"]), src=int(record["src"]),
                dst=int(record["dst"]), kind=str(record["kind"]),
            )
        else:
            txn = self.txns.get(int(record["txn"]))
            if txn is None:
                return  # intent lost to an earlier torn tail
            if kind == "transfer":
                txn.payload = record["payload"]
                txn.state = "transfer"
            elif kind == "commit":
                txn.state = "committed"
                txn.settled_seq = self.seq
            elif kind == "abort":
                txn.state = "aborted"
                txn.reason = record.get("reason")
                txn.settled_seq = self.seq
            elif kind == "expire":
                txn.state = "expired"
                txn.settled_seq = self.seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StealJournal({self.path!r}, txns={len(self.txns)}, "
            f"pending={len(self.pending())})"
        )


# ----------------------------------------------------------------------
# Replay: re-establish exactly-one placement from the journal.
# ----------------------------------------------------------------------
def _probe_active(shard, job_id: int) -> Optional[dict[str, Any]]:
    """Extract ``job_id`` from ``shard`` if it is live there.

    The caller decides whether to put the payload back (probe) or keep
    it out (discard/move); extraction+injection is lossless.
    """
    if shard is None or not shard.alive:
        return None
    try:
        results = shard.extract_many([job_id])
    except ShardFailedError:
        return None
    return results[0] if results else None


def _queued_has(shard, job_id: int, t: int) -> bool:
    """True when ``job_id`` sits in ``shard``'s ingest queue.

    Implemented as drain + re-submit (the only queue access the shard
    interface exposes); order within the queue is preserved because
    ``take_queued`` pops newest-first and submission re-appends oldest-
    first.
    """
    if shard is None or not shard.alive:
        return False
    try:
        depth = shard.stats().queue_depth
        if not depth:
            return False
        specs = shard.take_queued(depth)
    except ShardFailedError:
        return False
    found = False
    for spec in reversed(specs):  # take_queued returns newest-first
        if spec.job_id == job_id:
            found = True
        shard.submit(spec, t)
    return found


def _forget_pending(shard, job_id: int):
    """Withdraw ``job_id`` from ``shard``'s engine-pending heap.

    A log replay re-submits at the restored clock, which leaves the job
    *pending* -- released to the engine at its arrival instant but not
    yet live, so neither :func:`_probe_active` nor the queue probes can
    see it.  Returns the withdrawn spec or ``None``.
    """
    if shard is None or not shard.alive:
        return None
    try:
        return shard.forget_pending(job_id)
    except ShardFailedError:
        return None


def _purge_queued(shard, job_id: int, t: int) -> bool:
    """Remove ``job_id`` from ``shard``'s ingest queue if present."""
    if shard is None or not shard.alive:
        return False
    try:
        depth = shard.stats().queue_depth
        if not depth:
            return False
        specs = shard.take_queued(depth)
    except ShardFailedError:
        return False
    purged = False
    for spec in reversed(specs):
        if spec.job_id == job_id:
            purged = True
            continue
        shard.submit(spec, t)
    return purged


def _shard(cluster, index: int):
    shards = cluster.shards
    if 0 <= index < len(shards):
        return shards[index]
    return None


def resolve_pending(journal: StealJournal, cluster, t: int) -> list[dict]:
    """Replay every pending transaction to exactly-one placement.

    Called after a shard recovery (mid-tick crash) or at cluster start
    over a pre-existing journal.  Decision order per transaction:

    1. Job still on ``src`` (live, queued, or replay-pending)?  The
       move never durably left the donor: **abort**, donor keeps it.
       This is the torn-triple case -- intent without commit recovers
       to an abort.
    2. No journaled payload?  Nothing durable moved: **abort**.
    3. Job already live on ``dst``?  The injection won and only the
       commit record was lost: **commit**.
    4. Otherwise inject the journaled payload into ``dst`` (commit) or,
       failing that, back into ``src`` (abort).  The engine records an
       immediate expiry for payloads whose deadline passed in transit,
       so either way the job keeps exactly one terminal record.
    5. Both endpoints dead: journal a recorded **expiry**.
    """
    outcomes: list[dict] = []
    for txn in journal.pending():
        src = _shard(cluster, txn.src)
        dst = _shard(cluster, txn.dst)
        outcome = "expired"
        probe = _probe_active(src, txn.job_id)
        if probe is not None:
            src.inject_many([probe], t)
            journal.abort(txn.txn_id, "src-retained")
            outcome = "aborted"
        elif _queued_has(src, txn.job_id, t):
            journal.abort(txn.txn_id, "src-queued")
            outcome = "aborted"
        elif (spec := _forget_pending(src, txn.job_id)) is not None:
            # replayed onto the donor at the current instant: pending in
            # its engine, invisible to the probes above -- resubmit and
            # let the donor keep it
            src.submit(spec, t)
            journal.abort(txn.txn_id, "src-pending")
            outcome = "aborted"
        elif txn.payload is None:
            journal.abort(txn.txn_id, "no-transfer")
            outcome = "aborted"
        else:
            landed = _probe_active(dst, txn.job_id)
            if landed is not None:
                dst.inject_many([landed], t)
                journal.commit(txn.txn_id)
                outcome = "committed"
            else:
                placed = False
                for shard, state, reason in (
                    (dst, "committed", None),
                    (src, "aborted", "returned-to-src"),
                ):
                    if shard is None or not shard.alive:
                        continue
                    try:
                        shard.inject_many([txn.payload], t)
                    except ShardFailedError:
                        continue
                    if state == "committed":
                        journal.commit(txn.txn_id)
                    else:
                        journal.abort(txn.txn_id, reason)
                    outcome = state
                    placed = True
                    break
                if not placed:
                    journal.expire(txn.txn_id)
        outcomes.append({
            "txn": txn.txn_id, "job": txn.job_id, "src": txn.src,
            "dst": txn.dst, "outcome": outcome,
        })
    journal.sync()
    return outcomes


def reconcile_shard(
    journal: StealJournal, cluster, index: int, t: int, *,
    since_seq: int = 0,
) -> list[dict]:
    """Repair a just-recovered shard against committed/aborted steals.

    A restore rolls the shard back to its last checkpoint, which may
    predate moves the journal already settled: a donor's checkpoint can
    still *contain* a victim that committed to another shard (duplicate),
    and a receiver's checkpoint can *lack* a job whose injection
    committed (loss).  For every settled transaction touching ``index``
    the authoritative location is the journal's verdict -- committed =>
    ``dst``, aborted => ``src`` -- and this pass removes resurrected
    copies and re-injects lost ones (from the journaled payload) until
    the shard agrees.  Pending transactions are placed separately by
    :func:`resolve_pending`; this pass only drops a resurrected donor
    copy of one whose payload is already journaled.

    ``since_seq`` is the journal sequence the restored checkpoint was
    taken at: transactions settled at or before it are already baked
    into the checkpoint (repairing them would *introduce* duplicates --
    e.g. re-injecting a job the restored state already completed) and
    are skipped.
    """
    shard = _shard(cluster, index)
    if shard is None or not shard.alive:
        return []
    actions: list[dict] = []
    # newest transaction per job wins: a job can legally bounce between
    # shards across ticks, and only its final settled location is
    # authoritative
    latest: dict[int, StealTxn] = {}
    for txn in journal.txns.values():
        latest[txn.job_id] = txn
    for job_id, txn in latest.items():
        if txn.pending:
            # resolve_pending places the job; but once its payload is
            # journaled it has durably left the donor, so a copy on the
            # restored donor is a replay resurrection.  Drop it now: a
            # steal tick still in flight commits the move without
            # looking at the donor again.
            if txn.payload is not None and txn.src == index:
                action = _discard(shard, job_id, t)
                if action is not None:
                    actions.append({"job": job_id, "action": action})
            continue
        if txn.settled_seq <= since_seq:
            continue  # checkpoint already reflects this move
        home = txn.dst if txn.state == "committed" else txn.src
        if home == index:
            if txn.payload is None:
                continue
            here = _probe_active(shard, job_id)
            if here is not None:
                shard.inject_many([here], t)  # present: put the probe back
            else:
                # a replayed copy may hide in the ingest queue or the
                # engine-pending heap; the journaled payload (with its
                # execution progress) supersedes it, so clear both
                # before reinjecting -- a leftover copy would later
                # collide with the injected id
                _purge_queued(shard, job_id, t)
                _forget_pending(shard, job_id)
                try:
                    shard.inject_many([txn.payload], t)
                except ShardFailedError:
                    continue
                actions.append({"job": job_id, "action": "reinjected"})
        else:
            # restored copy of a job that settled elsewhere: discard it
            # (its single terminal record belongs to its home shard)
            action = _discard(shard, job_id, t)
            if action is not None:
                actions.append({"job": job_id, "action": action})
    return actions


def _discard(shard, job_id: int, t: int) -> Optional[str]:
    """Remove every copy of ``job_id`` from ``shard`` -- live, queued or
    replay-pending -- and name what was found (``None``: nothing)."""
    if _probe_active(shard, job_id) is not None:
        return "discarded"
    if _purge_queued(shard, job_id, t):
        return "purged-queued"
    if _forget_pending(shard, job_id) is not None:
        return "purged-pending"
    return None
