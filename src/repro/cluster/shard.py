"""Shard handles: one scheduling service per machine-pool shard.

A *shard* is one :class:`~repro.service.service.SchedulingService` over
a slice of the cluster's machines.  The cluster talks to every shard
through the same small handle interface so callers never branch on
deployment mode:

* :class:`InProcessShard` -- the service lives in this process.  Fully
  deterministic and zero-overhead; the mode the equivalence tests pin.
* :class:`ProcessShard` -- the service lives in a worker process, driven
  over a command pipe.  Submissions and clock advances are *fire and
  forget* (the parent streams commands while workers execute) and are
  batched -- buffered up to :data:`BATCH_SIZE` per pipe message -- so
  per-job IPC cost is a fraction of a pipe round-trip.  Stats/snapshot/
  finish calls are synchronous fences that flush the buffer first:
  because each worker applies its command stream in FIFO order, every
  reply is a deterministic function of the commands sent so far, so
  process-mode runs are as reproducible as in-process ones.

Every synchronous call to a worker has a *send* half
(:meth:`ProcessShard.send`: flush the buffer, send the call) and a
*receive* half (:meth:`ProcessShard.receive`: wait for the reply); the
blocking methods are send-then-receive.  A cluster-wide fence goes through
:func:`fan_out`, which sends to every shard before it reads any reply.
Each worker then drains its backlog at the same time as the others,
and the caller waits for the slowest shard rather than the sum of all
of them.  Replies are still read in shard order and each one is still a
function of that shard's own command stream, so the outputs do not
change.

Worker processes set the ``REPRO_CLUSTER_SHARD`` environment variable
so nested machinery (e.g. :func:`repro.analysis.sweep.resolve_workers`)
knows not to oversubscribe the host by spawning its own pools.

Both handles share the kill/restore contract the fault harness uses:
:meth:`kill` abandons the shard's state outright (simulating a crash),
and :meth:`restore` rebuilds it from a :class:`ShardCheckpoint` (or
from scratch), after which the cluster replays the submission-log tail.

A checkpoint stays encoded from the moment a shard produces it until a
recovery consumes it: :meth:`snapshot` returns the pickled service
snapshot (built in the worker for a process shard) plus its engine
clock, so the parent neither rebuilds nor walks the snapshot's object
graph.  Only :meth:`restore` decodes it, in the worker that needs it.

The resilience layer (:mod:`repro.resilience`) adds three disciplines
on top of the same protocol:

* **idempotency keys** -- ``submit`` accepts an optional key; a shard
  skips keys it has already applied, so replayed or re-sent batches
  never double-admit (exactly-once admission over at-least-once
  delivery);
* **at-most-once sync RPC** -- with an
  :class:`~repro.resilience.rpc.RpcPolicy` attached, synchronous calls
  are sequence-tagged, bounded by per-call deadlines, and retried with
  backoff; the worker caches its last reply per sequence number so a
  retry of an executed call returns the cache instead of re-executing;
* **liveness probes** -- :meth:`ShardHandle.ping` round-trips a
  heartbeat under a deadline, distinguishing *crash* (process dead,
  pipe broken -- :class:`~repro.errors.ShardFailedError`) from *hang*
  (no reply in time -- :class:`~repro.errors.ShardTimeoutError`).

A call's deadline runs from its own send, not from the moment the
caller starts reading its reply, so a fan-out that waits on shard 0
first does not give shard 1 extra time -- nor take any away: a reply
that is already in the pipe is read even when the deadline has passed
during the wait for another shard.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cluster.config import ShardConfig
from repro.cluster.router import ShardStats
from repro.errors import ClusterError, ShardFailedError, ShardTimeoutError
from repro.service.service import SchedulingService, ServiceResult, ShedRecord
from repro.service.snapshot import service_from_dict, service_to_dict
from repro.service.telemetry import MetricsRegistry
from repro.sim.engine import (
    SimulationResult,
    _counters_from_dict,
    _record_from_dict,
)
from repro.sim.jobs import JobSpec

#: Environment flag set inside shard worker processes (see
#: :func:`repro.analysis.sweep.resolve_workers`).
SHARD_ENV_FLAG = "REPRO_CLUSTER_SHARD"

#: Fire-and-forget commands buffered per pipe message.  Batching
#: amortizes the pickle-frame and syscall cost of the command pipe;
#: order within and across batches is FIFO, so results are unchanged.
BATCH_SIZE = 64


@dataclass(frozen=True)
class ShardCheckpoint:
    """One shard's service snapshot, kept encoded.

    ``blob`` is the :func:`~repro.service.snapshot.service_to_dict`
    graph pickled once where the service lives; ``t`` is its engine
    clock, which is all the cluster reads until a recovery hands the
    record back to :meth:`ShardHandle.restore`.  The bytes only travel
    between a cluster and its own shard workers; the on-disk checkpoint
    store keeps writing the decoded snapshot as JSON.
    """

    #: engine clock of the snapshot (``snapshot["engine"]["t"]``)
    t: int
    #: ``pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)``
    blob: bytes = field(repr=False)

    @classmethod
    def encode(cls, snapshot: dict[str, Any]) -> "ShardCheckpoint":
        """Wrap a service snapshot dict."""
        return cls(
            int(snapshot["engine"]["t"]),
            pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL),
        )

    def decode(self) -> dict[str, Any]:
        """The service snapshot dict this record encodes."""
        return pickle.loads(self.blob)


class ShardHandle:
    """Uniform interface over in-process and worker-process shards."""

    def __init__(self, index: int, config: ShardConfig) -> None:
        self.index = index
        self.config = config
        self.alive = False
        #: shard-tagged trace view (see repro.observability.recorder);
        #: attached by the cluster before start()
        self.tracer: Optional[Any] = None

    def attach_tracer(self, tracer: Optional[Any]) -> None:
        """Attach this shard's trace view; the next (re)start wires it
        into the shard's service.

        In-process shards record every service/engine event shard-
        tagged; process-mode shards keep the tracer parent-side (the
        cluster still records routing, checkpoint and recovery events
        for them, but not in-worker lifecycle events).
        """
        self.tracer = tracer

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bring the shard up with a fresh service."""
        raise NotImplementedError

    def kill(self) -> None:
        """Crash the shard: its live state is lost, not drained."""
        raise NotImplementedError

    def restore(self, checkpoint: Optional[ShardCheckpoint]) -> None:
        """Bring the shard back up from a :meth:`snapshot` record
        (``None`` restarts it empty); the caller replays the
        submission-log tail."""
        raise NotImplementedError

    # -- streaming ------------------------------------------------------
    def submit(self, spec: JobSpec, t: int, key: Optional[str] = None) -> None:
        """Submit one job at simulated time ``t`` (may be asynchronous).

        ``key`` is an optional idempotency key: a submission whose key
        the shard has already applied is silently skipped, so replays
        and re-sent batches admit each job exactly once.
        """
        raise NotImplementedError

    def advance_to(self, t: int) -> None:
        """Advance the shard clock to at least ``t`` (may be async)."""
        raise NotImplementedError

    # -- liveness -------------------------------------------------------
    def ping(self, timeout: float) -> float:
        """Heartbeat probe: returns the observed latency in seconds.

        Raises :class:`~repro.errors.ShardFailedError` when the shard
        is dead (crash) and :class:`~repro.errors.ShardTimeoutError`
        when it does not answer within ``timeout`` (hang).
        """
        raise NotImplementedError

    def drop_pipe(self) -> None:
        """Sever the shard's command channel without a clean shutdown
        (chaos injection: in-flight commands are lost; the failure is
        only observed at the next use or heartbeat)."""
        raise NotImplementedError

    # -- synchronous fences ---------------------------------------------
    def stats(self) -> ShardStats:
        """Current load stats (synchronous; drains pending commands)."""
        raise NotImplementedError

    def take_queued(self, n: int) -> list[JobSpec]:
        """Pop up to ``n`` newest queued-but-unstarted jobs (migration)."""
        raise NotImplementedError

    def coordination_view(
        self, limit: Optional[int] = None
    ) -> Optional[dict[str, Any]]:
        """Band/queue state for the cluster coordinator (synchronous).

        ``limit`` caps the parked/starved victim lists to the highest-
        density entries; ``None`` when the shard's scheduler exposes no
        band state."""
        raise NotImplementedError

    def extract_running(self, job_id: int) -> Optional[dict[str, Any]]:
        """Pull a live job out of the shard's engine (steal donor side).

        Synchronous; returns the migration payload, or ``None`` when the
        job is no longer live on this shard."""
        raise NotImplementedError

    def forget_pending(self, job_id: int) -> Optional[JobSpec]:
        """Withdraw a submitted-but-unreleased job from the engine
        (recovery reconciliation; synchronous).  Returns the withdrawn
        spec, or ``None`` when the job is not pending here."""
        raise NotImplementedError

    def inject_running(self, payload: dict[str, Any], t: int) -> None:
        """Install an extracted job into this shard's engine at ``t``
        (steal receiver side; synchronous)."""
        raise NotImplementedError

    def extract_many(
        self, job_ids: Sequence[int]
    ) -> list[Optional[dict[str, Any]]]:
        """Pull several live jobs out in one exchange (one round trip
        in process mode), in the given order."""
        raise NotImplementedError

    def inject_many(
        self, payloads: Sequence[dict[str, Any]], t: int
    ) -> None:
        """Install several extracted jobs in order, in one exchange."""
        raise NotImplementedError

    def snapshot(self) -> ShardCheckpoint:
        """Encoded checkpoint of the shard's whole service."""
        raise NotImplementedError

    def finish(self) -> ServiceResult:
        """Drain and close the shard, returning its service result."""
        raise NotImplementedError

    def _require_alive(self) -> None:
        if not self.alive:
            raise ShardFailedError(
                f"shard {self.index} is not alive", shard=self.index
            )


class InProcessShard(ShardHandle):
    """Shard whose service runs in the calling process."""

    def __init__(self, index: int, config: ShardConfig) -> None:
        super().__init__(index, config)
        self.service: Optional[SchedulingService] = None
        self._seen_keys: set[str] = set()
        #: chaos flag -- an in-process shard cannot *really* hang the
        #: caller, so the harness marks it hung and the liveness probe
        #: reports accordingly (see repro.resilience.chaos)
        self.chaos_hung = False

    def start(self) -> None:
        """Build and start a fresh service from the config."""
        self.service = self.config.build_service()
        if self.tracer is not None:
            self.service.attach_tracer(self.tracer)
        self.service.start()
        self.alive = True
        self._seen_keys = set()
        self.chaos_hung = False

    def kill(self) -> None:
        """Drop the service object on the floor (simulated crash)."""
        self.service = None
        self.alive = False
        self.chaos_hung = False

    def restore(self, checkpoint: Optional[ShardCheckpoint]) -> None:
        """Rebuild from a checkpoint, or start empty when ``None``."""
        if checkpoint is None:
            self.start()
            return
        self.service = service_from_dict(
            checkpoint.decode(), self.config.build_scheduler()
        )
        if self.tracer is not None:
            self.service.attach_tracer(self.tracer)
        self.alive = True
        self._seen_keys = set()
        self.chaos_hung = False

    def submit(self, spec: JobSpec, t: int, key: Optional[str] = None) -> None:
        """Feed the job straight into the service."""
        self._require_alive()
        if self.chaos_hung:
            raise ShardTimeoutError(
                f"shard {self.index} did not accept the submission in time",
                shard=self.index,
            )
        if key is not None:
            if key in self._seen_keys:
                return
            self._seen_keys.add(key)
        self.service.submit(spec, t=max(t, self.service.now))

    def advance_to(self, t: int) -> None:
        """Advance the service clock (no-op when already past ``t``)."""
        self._require_alive()
        if self.chaos_hung:
            raise ShardTimeoutError(
                f"shard {self.index} did not advance in time", shard=self.index
            )
        if t > self.service.now:
            self.service.advance_to(t)

    def ping(self, timeout: float) -> float:
        """Simulated heartbeat: dead raises crash, hung raises timeout,
        and a live shard answers with no latency."""
        self._require_alive()
        if self.chaos_hung:
            raise ShardTimeoutError(
                f"shard {self.index} missed its heartbeat "
                f"(deadline {timeout}s)",
                shard=self.index,
            )
        return 0.0

    def drop_pipe(self) -> None:
        """No pipe in-process: equivalent to losing the live state."""
        self.kill()

    def stats(self) -> ShardStats:
        """Exact live stats."""
        self._require_alive()
        service = self.service
        sim = service.sim
        # positional: this runs for every shard on every in-process
        # routing decision (the gateway's hottest fence)
        return ShardStats(
            self.index,
            sim.m,
            service.now,
            service.queue.depth,
            service.in_flight,
            sim.counters.completions,
        )

    def take_queued(self, n: int) -> list[JobSpec]:
        """Pop newest queued jobs off the ingest queue."""
        self._require_alive()
        return [entry.spec for entry in self.service.queue.take_newest(n)]

    def coordination_view(
        self, limit: Optional[int] = None
    ) -> Optional[dict[str, Any]]:
        """Exact live band/queue state."""
        self._require_alive()
        return self.service.coordination_view(limit)

    def extract_running(self, job_id: int) -> Optional[dict[str, Any]]:
        """Pull a live job straight out of the service."""
        self._require_alive()
        return self.service.extract_running(job_id)

    def forget_pending(self, job_id: int) -> Optional[JobSpec]:
        """Withdraw a pending job straight from the service."""
        self._require_alive()
        return self.service.forget_pending(job_id)

    def inject_running(self, payload: dict[str, Any], t: int) -> None:
        """Install an extracted job into the service."""
        self._require_alive()
        self.service.inject_running(payload, t=max(t, self.service.now))

    def extract_many(
        self, job_ids: Sequence[int]
    ) -> list[Optional[dict[str, Any]]]:
        """Pull several live jobs straight out of the service."""
        self._require_alive()
        return [self.service.extract_running(j) for j in job_ids]

    def inject_many(
        self, payloads: Sequence[dict[str, Any]], t: int
    ) -> None:
        """Install several extracted jobs in submission order."""
        self._require_alive()
        t = max(t, self.service.now)
        for payload in payloads:
            self.service.inject_running(payload, t=t)

    def snapshot(self) -> ShardCheckpoint:
        """Serialize and encode the whole service."""
        self._require_alive()
        return ShardCheckpoint.encode(service_to_dict(self.service))

    def finish(self) -> ServiceResult:
        """Drain and close; the shard is no longer alive afterwards."""
        self._require_alive()
        result = self.service.finish()
        self.alive = False
        return result


def _result_to_payload(result: ServiceResult) -> dict[str, Any]:
    """Flatten a ServiceResult into a picklable payload (worker side)."""
    from repro.sim.engine import _counters_to_dict, _record_to_dict

    sim = result.result
    return {
        "m": sim.m,
        "speed": sim.speed,
        "records": [_record_to_dict(rec) for rec in sim.records.values()],
        "counters": _counters_to_dict(sim.counters),
        "end_time": sim.end_time,
        "shed": [
            [rec.job_id, rec.time, rec.reason, rec.density, rec.profit]
            for rec in result.shed
        ],
        "metrics": result.metrics.state_to_dict(),
        "samples": result.metrics.samples,
    }


def _result_from_payload(data: dict[str, Any]) -> ServiceResult:
    """Rebuild a ServiceResult from a worker payload (parent side)."""
    records = {}
    for entry in data["records"]:
        rec = _record_from_dict(entry)
        records[rec.job_id] = rec
    metrics = MetricsRegistry()
    metrics.restore_from_dict(data["metrics"])
    metrics.samples = list(data["samples"])
    return ServiceResult(
        result=SimulationResult(
            m=int(data["m"]),
            speed=float(data["speed"]),
            records=records,
            counters=_counters_from_dict(data["counters"]),
            end_time=int(data["end_time"]),
        ),
        shed=[
            ShedRecord(
                job_id=int(job_id),
                time=int(time),
                reason=str(reason),
                density=float(density),
                profit=float(profit),
            )
            for job_id, time, reason, density, profit in data["shed"]
        ],
        metrics=metrics,
    )


def _shard_worker(conn, config: ShardConfig) -> None:
    """Worker-process main loop: apply piped commands to one service.

    The first command must be ``("start",)`` or ``("restore",
    checkpoint)``; the worker decodes the checkpoint itself.
    Submissions, advances and chaos sleeps are applied without
    replying; synchronous commands arrive wrapped as
    ``("call", seq, inner)`` and reply ``("ok", seq, payload)`` /
    ``("err", seq, message)``.  The worker caches its last reply, so a
    duplicate ``call`` (a parent retry after a timeout) is answered
    from cache instead of executing twice -- at-most-once execution
    over at-least-once delivery.  Submissions carrying an idempotency
    key are applied at most once per key.  ``finish`` replies then ends
    the loop.  Any exception is reported and kills the worker.
    """
    os.environ[SHARD_ENV_FLAG] = "1"
    service: Optional[SchedulingService] = None
    seen_keys: set[str] = set()

    def apply_async(command: tuple) -> None:
        op = command[0]
        if op == "submit":
            key = command[3] if len(command) > 3 else None
            if key is not None:
                if key in seen_keys:
                    return
                seen_keys.add(key)
            service.submit(command[1], t=max(command[2], service.now))
        elif op == "advance":
            if command[1] > service.now:
                service.advance_to(command[1])
        elif op == "sleep":  # chaos: stall the worker (hang / slow RPC)
            time.sleep(command[1])
        else:
            raise ClusterError(f"command {op!r} not allowed in a batch")

    def apply_sync(command: tuple) -> Any:
        op = command[0]
        if op == "stats":
            return {
                "now": service.now,
                "queue_depth": service.queue.depth,
                "in_flight": service.in_flight,
                "completed": service.sim.counters.completions,
            }
        if op == "take_queued":
            taken = service.queue.take_newest(command[1])
            return [entry.spec for entry in taken]
        if op == "coordination_view":
            return service.coordination_view(command[1])
        if op == "extract_running":
            return service.extract_running(command[1])
        if op == "forget_pending":
            return service.forget_pending(command[1])
        if op == "extract_many":
            return [service.extract_running(j) for j in command[1]]
        if op == "inject_running":
            service.inject_running(
                command[1], t=max(command[2], service.now)
            )
            return True
        if op == "inject_many":
            t = max(command[2], service.now)
            for payload in command[1]:
                service.inject_running(payload, t=t)
            return True
        if op == "snapshot":
            return ShardCheckpoint.encode(service_to_dict(service))
        if op == "ping":
            return {"now": service.now if service is not None else -1}
        if op == "finish":
            return _result_to_payload(service.finish())
        raise ClusterError(f"unknown shard command {op!r}")

    last_seq = -1
    last_reply: Optional[tuple] = None
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "start":
                service = config.build_service()
                service.start()
                seen_keys = set()
            elif op == "restore":
                service = service_from_dict(
                    command[1].decode(), config.build_scheduler()
                )
                seen_keys = set()
            elif op in ("submit", "advance", "sleep"):
                apply_async(command)
            elif op == "batch":
                for sub in command[1]:
                    apply_async(sub)
            elif op == "call":
                seq, inner = command[1], command[2]
                if seq == last_seq and last_reply is not None:
                    conn.send(last_reply)
                    continue
                last_reply = ("ok", seq, apply_sync(inner))
                last_seq = seq
                conn.send(last_reply)
                if inner[0] == "finish":
                    return
            elif op == "stop":
                return
            else:
                raise ClusterError(f"unknown shard command {op!r}")
    except EOFError:
        return
    except BaseException as exc:  # report, then die
        try:
            conn.send(("err", None, f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _mp_context():
    """``fork`` where the platform has it (cheap; no re-import), else
    ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class PendingCall:
    """A synchronous call sent to a worker shard, its reply not yet read.

    Returned by :meth:`ProcessShard.send`; :meth:`ProcessShard.receive`
    (or :func:`fan_out`) waits for the reply.  The deadline runs from
    :attr:`sent`, the moment the call went down the pipe.
    """

    __slots__ = ("shard", "op", "seq", "command", "timeout", "retries", "sent")

    def __init__(
        self,
        shard: "ProcessShard",
        op: str,
        seq: int,
        command: tuple,
        timeout: Optional[float],
        retries: int,
    ) -> None:
        self.shard = shard
        #: the shard method this call stands for (selects the decoding)
        self.op = op
        self.seq = seq
        #: the wire message, ``("call", seq, inner)``; a retry re-sends it
        self.command = command
        #: seconds allowed from each send to its reply (``None``: forever)
        self.timeout = timeout
        #: re-sends allowed after a timeout
        self.retries = retries
        #: ``time.monotonic()`` of the latest send
        self.sent = 0.0


class ProcessShard(ShardHandle):
    """Shard whose service runs in a dedicated worker process.

    With ``rpc`` left at ``None`` (the default) synchronous calls wait
    until the worker replies, with no deadline.  A supervised cluster
    attaches an :class:`~repro.resilience.rpc.RpcPolicy`, which bounds
    every call with a deadline and retries timed-out calls; sequence
    tags plus the worker's reply cache keep retried calls at-most-once.
    """

    def __init__(self, index: int, config: ShardConfig) -> None:
        super().__init__(index, config)
        self._process = None
        self._conn = None
        self._buffer: list[tuple] = []
        #: deadline/retry policy; ``None`` = legacy blocking RPC
        self.rpc = None
        self._seq = 0

    # -- plumbing -------------------------------------------------------
    def _spawn(self, first_command: tuple) -> None:
        ctx = _mp_context()
        parent, child = ctx.Pipe()
        process = ctx.Process(
            target=_shard_worker,
            args=(child, self.config),
            daemon=True,
            name=f"repro-shard-{self.index}",
        )
        process.start()
        child.close()
        self._process = process
        self._conn = parent
        self.alive = True
        self._conn.send(first_command)

    def _flush(self) -> None:
        """Push buffered fire-and-forget commands in one pipe message."""
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        try:
            if len(batch) == 1:
                self._conn.send(batch[0])
            else:
                self._conn.send(("batch", batch))
        except (BrokenPipeError, OSError) as exc:
            self.alive = False
            raise ShardFailedError(
                f"shard {self.index} worker died", shard=self.index
            ) from exc

    def _enqueue(self, command: tuple) -> None:
        """Buffer an async command, flushing at :data:`BATCH_SIZE`."""
        self._require_alive()
        self._buffer.append(command)
        if len(self._buffer) >= BATCH_SIZE:
            self._flush()

    def send(self, op: str, *args: Any) -> PendingCall:
        """Send half of the synchronous method ``op``: flush the buffered
        async commands, then send the sequence-tagged call.

        The call's deadline starts at this send.  ``ping`` is a single-
        shot probe under the deadline it is given (no retries, so
        detection latency is bounded by the deadline itself); ``finish``
        waits up to the policy's ``finish_timeout``; every other call
        gets ``call_timeout`` and ``retries``.  Without a policy the
        call waits forever.  A dead worker raises
        :class:`~repro.errors.ShardFailedError` here, before anything
        is sent.
        """
        self._require_alive()
        rpc = self.rpc
        timeout = rpc.call_timeout if rpc is not None else None
        retries = rpc.retries if rpc is not None else 0
        command = (op,) + args
        if op == "ping":
            if not self._process.is_alive():
                self.alive = False
                raise ShardFailedError(
                    f"shard {self.index} worker process is dead",
                    shard=self.index,
                )
            timeout, retries, command = args[0], 0, ("ping",)
        elif op == "finish" and rpc is not None:
            timeout = rpc.finish_timeout
        self._flush()
        self._seq += 1
        call = PendingCall(
            self, op, self._seq, ("call", self._seq, command), timeout, retries
        )
        self._transmit(call)
        return call

    def _transmit(self, call: PendingCall) -> None:
        """(Re-)send ``call`` and restart its deadline."""
        try:
            self._conn.send(call.command)
        except (BrokenPipeError, OSError) as exc:
            self.alive = False
            raise ShardFailedError(
                f"shard {self.index} worker died mid-command",
                shard=self.index,
            ) from exc
        call.sent = time.monotonic()

    def receive(self, call: PendingCall) -> Any:
        """Receive half: wait for ``call``'s reply and decode it.

        A timed-out call is re-sent under the same sequence number after
        a backoff, while retries remain; a worker that already executed
        it answers from its reply cache, so the call still runs at most
        once.
        """
        attempt = 0
        while True:
            try:
                payload = self._recv_reply(call)
                break
            except ShardTimeoutError:
                if attempt >= call.retries:
                    raise
                time.sleep(self.rpc.backoff(attempt))
                attempt += 1
                self._transmit(call)
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.alive = False
                raise ShardFailedError(
                    f"shard {self.index} worker died mid-command",
                    shard=self.index,
                    waited=time.monotonic() - call.sent,
                ) from exc
        op = call.op
        if op == "stats":
            return ShardStats(
                index=self.index,
                m=self.config.m,
                now=int(payload["now"]),
                queue_depth=int(payload["queue_depth"]),
                in_flight=int(payload["in_flight"]),
                completed=int(payload["completed"]),
                alive=True,
            )
        if op == "ping":
            return time.monotonic() - call.sent
        if op == "finish":
            self._reap()
            return _result_from_payload(payload)
        return payload

    def _recv_reply(self, call: PendingCall) -> Any:
        """Wait for the reply tagged ``call.seq``, skipping stale replies.

        A reply with a lower sequence number is a late answer to a call
        that already timed out (and whose retry was answered from the
        worker's cache) -- discarding it keeps the pipe synchronized.
        A reply already waiting in the pipe is read even after the
        deadline: a fan-out may reach this shard only after waiting on
        another one.
        """
        while True:
            if call.timeout is not None:
                waited = time.monotonic() - call.sent
                if not self._conn.poll(max(0.0, call.timeout - waited)):
                    raise ShardTimeoutError(
                        f"shard {self.index} did not reply within "
                        f"{call.timeout}s",
                        shard=self.index,
                        waited=time.monotonic() - call.sent,
                    )
            status, rseq, payload = self._conn.recv()
            if rseq is not None and rseq < call.seq:
                continue  # stale reply from a timed-out attempt
            if status != "ok":
                self.alive = False
                raise ShardFailedError(
                    f"shard {self.index} failed: {payload}",
                    shard=self.index,
                    waited=time.monotonic() - call.sent,
                )
            return payload

    def _call(self, op: str, *args: Any) -> Any:
        """Blocking synchronous call: send, then receive."""
        return self.receive(self.send(op, *args))

    def _reap(self) -> None:
        """Close the pipe and join the worker after its ``finish`` reply.

        A worker still running after the join timeout is terminated and
        reported as :class:`~repro.errors.ShardFailedError`, never left
        behind.
        """
        process = self._process
        process.join(timeout=10)
        self._conn.close()
        self._process = None
        self._conn = None
        self.alive = False
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
            raise ShardFailedError(
                f"shard {self.index} worker did not exit after finish",
                shard=self.index,
            )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker and start its service."""
        self._spawn(("start",))

    def kill(self) -> None:
        """Terminate the worker without draining (simulated crash).

        Buffered commands are dropped with it -- exactly what a crash
        does to in-flight traffic; the cluster's submission log is the
        durable copy that recovery replays.
        """
        self._buffer.clear()
        if self._process is not None:
            self._process.terminate()
            self._process.join(timeout=5)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already severed
                pass
        self._process = None
        self._conn = None
        self.alive = False

    def restore(self, checkpoint: Optional[ShardCheckpoint]) -> None:
        """Spawn a fresh worker from a checkpoint (or empty); the blob
        crosses the pipe as is and the worker decodes it."""
        if checkpoint is None:
            self.start()
        else:
            self._spawn(("restore", checkpoint))

    # -- streaming (fire and forget, batched) ----------------------------
    def submit(self, spec: JobSpec, t: int, key: Optional[str] = None) -> None:
        """Buffer one submission for the worker; no reply awaited."""
        self._enqueue(("submit", spec, t, key))

    def advance_to(self, t: int) -> None:
        """Buffer a clock advance for the worker; no reply awaited."""
        self._enqueue(("advance", t))

    # -- liveness / chaos -----------------------------------------------
    def ping(self, timeout: float) -> float:
        """Round-trip a heartbeat under ``timeout``; returns latency.

        A dead worker process raises
        :class:`~repro.errors.ShardFailedError` immediately; a live one
        that fails to reply in time (hung, or drowning in backlog)
        raises :class:`~repro.errors.ShardTimeoutError`.  The probe is
        single-shot -- no retries -- so detection latency is bounded by
        the deadline itself.
        """
        return self._call("ping", timeout)

    def hang(self, seconds: float) -> None:
        """Chaos: make the worker sleep, stalling its command stream."""
        self._enqueue(("sleep", seconds))
        self._flush()

    def drop_pipe(self) -> None:
        """Chaos: close the parent end of the command pipe.

        The worker exits on EOF; the parent only notices at its next
        send or heartbeat, which models an abrupt network partition.
        """
        self._buffer.clear()
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already severed
                pass

    # -- synchronous fences ---------------------------------------------
    def stats(self) -> ShardStats:
        """Round-trip stats; deterministic (worker drains its queue first)."""
        return self._call("stats")

    def take_queued(self, n: int) -> list[JobSpec]:
        """Round-trip migration pop."""
        return list(self._call("take_queued", n))

    def coordination_view(
        self, limit: Optional[int] = None
    ) -> Optional[dict[str, Any]]:
        """Round-trip band/queue state (a deterministic sync fence)."""
        return self._call("coordination_view", limit)

    def extract_running(self, job_id: int) -> Optional[dict[str, Any]]:
        """Round-trip steal extraction."""
        return self._call("extract_running", job_id)

    def forget_pending(self, job_id: int) -> Optional[JobSpec]:
        """Round-trip pending-job withdrawal."""
        return self._call("forget_pending", job_id)

    def inject_running(self, payload: dict[str, Any], t: int) -> None:
        """Round-trip steal injection."""
        self._call("inject_running", payload, t)

    def extract_many(
        self, job_ids: Sequence[int]
    ) -> list[Optional[dict[str, Any]]]:
        """Batch steal extraction: one round trip for all ids."""
        return self._call("extract_many", list(job_ids))

    def inject_many(
        self, payloads: Sequence[dict[str, Any]], t: int
    ) -> None:
        """Batch steal injection: one round trip for all payloads."""
        self._call("inject_many", list(payloads), t)

    def snapshot(self) -> ShardCheckpoint:
        """Round-trip service checkpoint, encoded in the worker."""
        return self._call("snapshot")

    def finish(self) -> ServiceResult:
        """Drain the worker's service and reap the process."""
        return self._call("finish")


def fan_out(shards: Sequence[ShardHandle], op: str, *args: Any) -> list:
    """Scatter-gather the synchronous method ``op`` over ``shards``.

    Sends the call to every shard first, then reads the replies in
    order: worker shards drain their backlogs at the same time and the
    caller waits for the slowest one, not the sum.  Returns one entry
    per shard, aligned with ``shards``: the reply, or the
    :class:`~repro.errors.ShardFailedError` (or
    :class:`~repro.errors.ShardTimeoutError`) its call raised at send
    or receive.  A failing shard neither blocks nor aborts the others;
    callers handle the failures after the gather, in shard order.
    """
    replies: list = []
    pending = False
    for shard in shards:
        try:
            if isinstance(shard, ProcessShard):
                replies.append(shard.send(op, *args))
                pending = True
            else:  # an in-process call completes as it is made
                replies.append(getattr(shard, op)(*args))
        except ShardFailedError as exc:
            replies.append(exc)
    if pending:
        for i, reply in enumerate(replies):
            if type(reply) is PendingCall:
                try:
                    replies[i] = reply.shard.receive(reply)
                except ShardFailedError as exc:
                    replies[i] = exc
    return replies


def gather_stats(shards: Sequence[ShardHandle]) -> list[ShardStats]:
    """Stats for ``shards`` in one :func:`fan_out` over the live ones.

    A dead shard reports as a dead placeholder without being called; a
    shard that fails the fence reports as dead too.
    """
    live = [s for s in shards if s.alive]
    stats = fan_out(live, "stats")
    if len(live) < len(shards):
        by_index = dict(zip([s.index for s in live], stats))
        stats = [by_index.get(s.index) for s in shards]
    for i, reply in enumerate(stats):
        if not isinstance(reply, ShardStats):
            shard = shards[i]
            stats[i] = ShardStats(index=shard.index, m=shard.config.m, alive=False)
    return stats


def make_shard(index: int, config: ShardConfig, mode: str) -> ShardHandle:
    """Build a shard handle for ``mode`` (``"inprocess"``/``"process"``)."""
    if mode == "inprocess":
        return InProcessShard(index, config)
    if mode == "process":
        return ProcessShard(index, config)
    raise ClusterError(
        f"unknown cluster mode {mode!r}; known: ['inprocess', 'process']"
    )
