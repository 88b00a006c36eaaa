"""RPC discipline for shard command pipes: deadlines, retries, keys.

PR 3's :class:`~repro.cluster.shard.ProcessShard` blocks forever on a
synchronous reply -- a hung worker hangs the whole cluster.  The
resilient stack bounds every wait:

* **per-call deadlines** -- each synchronous command must be answered
  within ``call_timeout`` seconds of its own send (``finish_timeout``
  for the drain, which legitimately takes long), or it raises
  :class:`~repro.errors.ShardTimeoutError`.  A cluster-wide fence
  (:func:`~repro.cluster.shard.fan_out`) sends to every shard before
  it reads any reply, so each shard's deadline runs while the caller
  is still waiting on the shards before it; a reply that arrived
  meanwhile is read even if its deadline has since passed;
* **bounded retries with backoff** -- a timed-out call is re-sent up to
  ``retries`` times.  Sync commands are sequence-tagged and the worker
  caches its last reply, so a retry of a call the worker *did* execute
  returns the cached reply instead of executing twice (at-most-once
  semantics);
* **idempotency keys on submit** -- every logged submission carries a
  key derived from its log position; the worker skips keys it has
  already applied, so a replayed or re-sent batch never double-admits.

:class:`RpcPolicy` is the knob bundle; ``None`` on a shard handle
means the pre-resilience blocking behaviour (no deadline, no retry),
which the deterministic cluster pins rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RpcPolicy:
    """Deadline/retry discipline for one shard's synchronous RPCs."""

    #: seconds to wait for a sync reply (``None`` blocks forever)
    call_timeout: Optional[float] = 5.0
    #: seconds to wait for the ``finish`` drain specifically
    finish_timeout: Optional[float] = 120.0
    #: re-sends after the first timeout (0 = fail on first expiry)
    retries: int = 1
    #: seconds slept before the first retry
    backoff_base: float = 0.01
    #: cap on the per-retry backoff
    backoff_max: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.call_timeout is not None and self.call_timeout <= 0:
            raise ValueError("call_timeout must be positive or None")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), exponential."""
        return min(self.backoff_max, self.backoff_base * (2**attempt))


#: Policy a supervised cluster applies to worker shards by default.
DEFAULT_RPC_POLICY = RpcPolicy()
