"""Shard supervision: heartbeat liveness, bounded auto-restart.

PR 3's fault harness recovers a shard only when the *injector itself*
killed it -- an organic crash (worker segfault, OOM kill) or a hang
(deadlocked worker, runaway job) goes unnoticed until the next
synchronous fence blocks on it.  :class:`ShardSupervisor` closes that
gap:

* **heartbeats** -- every ``heartbeat_every`` decision points the
  supervisor pings every shard in one fan-out round
  (:func:`~repro.cluster.shard.fan_out`), each probe under a
  ``heartbeat_timeout`` deadline from its own send.
  :class:`~repro.errors.ShardFailedError` means *crash* (process dead,
  pipe broken); :class:`~repro.errors.ShardTimeoutError` means *hang*
  (alive but unresponsive) -- the deadline bounds detection latency for
  failures a crash check alone would never see;
* **supervised restart** -- a detected failure triggers the PR 3
  recovery path (checkpoint restore + keyed log-tail replay) after an
  exponential backoff with deterministic jitter, so a flapping shard
  does not spin the cluster;
* **restart budget** -- each shard gets ``max_restarts`` recoveries.
  Exhausting the budget either raises
  :class:`~repro.errors.RestartBudgetExhausted` (``on_exhausted=
  "raise"``, the CLI's structured-exit path) or *degrades*: the shard
  is marked permanently dead, routing skips it, and the cluster serves
  on with the shards it still has (``on_exhausted="degrade"``).

Jitter is drawn from a seeded :class:`random.Random`, so supervised
runs stay reproducible -- the same fault schedule yields the same
backoff sequence.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.cluster.shard import fan_out
from repro.errors import ClusterError, RestartBudgetExhausted, ShardFailedError

#: Restart backoff jitter: each backoff is scaled by ``1 + U(0, JITTER)``.
JITTER = 0.25


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for one :class:`ShardSupervisor`."""

    #: seconds a shard may take to answer a heartbeat before it is
    #: declared hung (bounds hang-detection latency)
    heartbeat_timeout: float = 0.5
    #: decision points between heartbeat rounds (1 = probe every tick)
    heartbeat_every: int = 16
    #: restarts allowed per shard before the budget is exhausted
    max_restarts: int = 5
    #: seconds slept before the first restart
    backoff_base: float = 0.01
    #: cap on the per-restart backoff (before :data:`JITTER`)
    backoff_max: float = 0.5
    #: seed for the jitter stream (determinism)
    seed: int = 0
    #: ``"raise"`` (propagate RestartBudgetExhausted) or ``"degrade"``
    #: (mark the shard dead and serve on without it)
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if self.heartbeat_every < 1:
            raise ClusterError("heartbeat_every must be >= 1")
        if self.max_restarts < 0:
            raise ClusterError("max_restarts must be >= 0")
        if self.on_exhausted not in ("raise", "degrade"):
            raise ClusterError(
                f"on_exhausted must be 'raise' or 'degrade', "
                f"got {self.on_exhausted!r}"
            )


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervised failure-handling action, for reports and tests."""

    shard: int
    #: simulated cluster time the failure was handled at
    time: int
    #: failure class: ``"crash"`` or ``"hang"``
    reason: str
    #: ``"restart"`` or ``"degrade"``
    action: str
    #: restarts this shard has consumed *including* this one
    restarts: int
    #: wall seconds from the probe's own send to failure classification
    detection_seconds: float
    #: wall seconds the recovery (restore + replay) took
    restart_seconds: float
    #: wall seconds slept before restarting (backoff + jitter)
    backoff_seconds: float


class ShardSupervisor:
    """Watches a cluster's shards and restarts the ones that fail.

    The supervisor is driven from the cluster's decision-point hooks
    (:meth:`tick`) and from delivery failures the supervised cluster
    catches in-line (:meth:`handle_failure`); it owns the restart
    budget and the backoff/jitter policy, while the *mechanics* of
    recovery stay in :meth:`ClusterService.recover_shard`.
    """

    def __init__(self, config: Optional[SupervisorConfig] = None) -> None:
        self.config = config if config is not None else SupervisorConfig()
        #: restarts consumed per shard index
        self.restarts: dict[int, int] = {}
        #: shards degraded out of service (budget exhausted)
        self.degraded: set[int] = set()
        #: every handled failure, in order
        self.events: list[SupervisionEvent] = []
        self._rng = random.Random(self.config.seed)
        self._ticks = 0

    # ------------------------------------------------------------------
    def tick(self, cluster, t: int) -> list[SupervisionEvent]:
        """One decision-point tick: heartbeat shards on cadence.

        Returns the supervision events this tick produced (empty off
        cadence or when everything is healthy).
        """
        self._ticks += 1
        if self._ticks % self.config.heartbeat_every != 0:
            return []
        # watch the activated units (lame ducks included); a dormant
        # never-started elastic unit would fail every ping by design
        # and must not be "restarted"
        watched = cluster.supervised_shard_ids()
        probed = [
            shard
            for shard in cluster.shards
            if shard.index not in self.degraded and shard.index in watched
        ]
        # one fan-out round: every probe is in flight before any reply
        # is read, each under its own deadline from its own send
        replies = fan_out(probed, "ping", self.config.heartbeat_timeout)
        return [
            self.handle_failure(
                cluster,
                shard.index,
                t,
                reason=reply.reason,
                detection=reply.waited,
            )
            for shard, reply in zip(probed, replies)
            if isinstance(reply, ShardFailedError)
        ]

    def handle_failure(
        self,
        cluster,
        index: int,
        t: int,
        *,
        reason: str,
        detection: float = 0.0,
    ) -> SupervisionEvent:
        """Recover one failed shard (or degrade it, budget permitting).

        Raises :class:`~repro.errors.RestartBudgetExhausted` when the
        budget is spent and the policy is ``"raise"``.
        """
        spent = self.restarts.get(index, 0)
        if spent >= self.config.max_restarts:
            return self._exhaust(cluster, index, t, reason, detection)
        self.restarts[index] = spent + 1
        backoff = min(
            self.config.backoff_max, self.config.backoff_base * (2**spent)
        )
        backoff *= 1.0 + self._rng.random() * JITTER
        time.sleep(backoff)
        restart_started = time.perf_counter()
        # a hung/half-dead worker must be torn down before restore;
        # kill() is idempotent on an already-dead shard
        cluster.shards[index].kill()
        cluster.recover_shard(index, t)
        event = SupervisionEvent(
            shard=index,
            time=t,
            reason=reason,
            action="restart",
            restarts=spent + 1,
            detection_seconds=detection,
            restart_seconds=time.perf_counter() - restart_started,
            backoff_seconds=backoff,
        )
        self.events.append(event)
        cluster.note_supervision(event)
        return event

    def _exhaust(
        self, cluster, index: int, t: int, reason: str, detection: float
    ) -> SupervisionEvent:
        spent = self.restarts.get(index, 0)
        if self.config.on_exhausted == "raise":
            log_index, checkpoint = cluster._load_checkpoint(index)
            checkpoint_time = 0 if checkpoint is None else checkpoint.t
            raise RestartBudgetExhausted(
                f"shard {index} failed ({reason}) after {spent} restarts; "
                f"budget {self.config.max_restarts} exhausted",
                shard=index,
                fault=reason,
                restarts=spent,
                last_checkpoint_time=checkpoint_time,
                last_checkpoint_log_index=log_index,
            )
        self.degraded.add(index)
        cluster.shards[index].kill()
        cluster.mark_degraded(index)
        event = SupervisionEvent(
            shard=index,
            time=t,
            reason=reason,
            action="degrade",
            restarts=spent,
            detection_seconds=detection,
            restart_seconds=0.0,
            backoff_seconds=0.0,
        )
        self.events.append(event)
        cluster.note_supervision(event)
        return event

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSupervisor(restarts={dict(self.restarts)}, "
            f"degraded={sorted(self.degraded)})"
        )
