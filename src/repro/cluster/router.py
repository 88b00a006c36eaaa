"""Routing policies: which shard admits a submitted job.

Scheduler S makes sharding natural: a job's allotment ``n_i`` and
density ``v_i`` are computed at arrival from ``(W_i, L_i, D_i, p_i)``
alone, so placement needs no cross-shard scheduler state -- a router
only looks at the job and (optionally) cheap per-shard load stats.

Five deterministic policies ship:

* :class:`RoundRobinRouter` -- cycle through shards in submission order;
* :class:`LeastLoadedRouter` -- fewest jobs pending (queued + in
  flight), ties to the lowest shard index;
* :class:`DensityAwareRouter` -- balance the *value mass* (sum of S's
  densities ``v_i``) routed to each shard, so every shard competes for
  a similar amount of profit instead of a similar job count;
* :class:`ConsistentHashRouter` -- hash ring over job ids (stable md5,
  never Python's randomized ``hash``), so a job's placement depends on
  its id alone: adding shards moves only ``~1/k`` of the id space, and
  the induced partition of a trace is reproducible across processes --
  the property the cluster determinism tests pin down;
* :class:`BandAwareRouter` -- a consistent-hash anchor that a job
  leaves only when the cluster coordinator's merged band ledger says
  the anchor would strand it and another shard would start it.

A router chooses among the :class:`ShardStats` it is handed and returns
the chosen entry's :attr:`ShardStats.index`.  A supervised cluster hands
it only the shards its supervisor has not degraded, so the list may have
gaps (see :meth:`~repro.cluster.service.ClusterService._route_healthy`);
positional routers pick a position in the list and return the index
stored there.  In both shard modes the load fields come from one view
refreshed at deterministic submission indices, so every router decides
the same whichever mode the shards run in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ClusterError
from repro.sim.jobs import JobSpec


@dataclass
class ShardStats:
    """Cheap per-shard load summary a router may consult."""

    index: int
    #: machines in the shard
    m: int
    #: shard's simulated clock
    now: int = 0
    #: jobs buffered in the ingest queue
    queue_depth: int = 0
    #: jobs inside the engine (released, unfinished)
    in_flight: int = 0
    #: jobs the shard has completed
    completed: int = 0
    #: whether the shard currently accepts submissions
    alive: bool = True

    @property
    def load(self) -> int:
        """Jobs pending on the shard (queued + in flight)."""
        return self.queue_depth + self.in_flight


class Router:
    """Chooses the shard index for each submitted job."""

    #: registry name (see :data:`ROUTERS`)
    name = "abstract"
    #: whether the router reads load fields (queue depth, in flight);
    #: stats-free routers skip stats refreshes in both shard modes
    needs_stats = True

    def route(self, spec: JobSpec, stats: Sequence[ShardStats]) -> int:
        """Return the :attr:`ShardStats.index` of the entry of ``stats``
        that should admit ``spec``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run routing state (new stream)."""


class RoundRobinRouter(Router):
    """Cycle through shards in submission order."""

    name = "round-robin"
    needs_stats = False

    def __init__(self) -> None:
        self._next = 0

    def route(self, spec: JobSpec, stats: Sequence[ShardStats]) -> int:
        """Next shard in the cycle."""
        pos = self._next % len(stats)
        self._next = pos + 1
        return stats[pos].index

    def reset(self) -> None:
        """Restart the cycle at shard 0."""
        self._next = 0


class LeastLoadedRouter(Router):
    """Fewest pending jobs (queued + in flight); ties to lowest index."""

    name = "least-loaded"

    def route(self, spec: JobSpec, stats: Sequence[ShardStats]) -> int:
        """Shard with the minimum :attr:`ShardStats.load`."""
        return min(stats, key=lambda s: (s.load, s.index)).index


class DensityAwareRouter(Router):
    """Balance S's value mass: route to the shard with the least
    accumulated density ``sum(v_i)`` of jobs sent there so far.

    Density is the exact quantity scheduler S orders its admission on
    (:func:`repro.service.queue.sns_density`), so this router equalizes
    the *profit at stake* per shard rather than the job count --
    under skewed profit distributions a count-balancing router can pile
    most of the value onto one shard and shed it there.
    """

    name = "density-aware"
    needs_stats = False

    def __init__(self) -> None:
        self._mass: list[float] = []

    def route(self, spec: JobSpec, stats: Sequence[ShardStats]) -> int:
        """Shard with the least routed density mass; ties to lowest index."""
        from repro.core.theory import Constants
        from repro.service.queue import sns_density

        if len(self._mass) != len(stats):
            self._mass = [0.0] * len(stats)
        pos = min(range(len(stats)), key=lambda i: (self._mass[i], i))
        self._mass[pos] += sns_density(
            spec, stats[pos].m, Constants.from_epsilon(1.0)
        )
        return stats[pos].index

    def reset(self) -> None:
        """Forget accumulated density mass."""
        self._mass = []


class ConsistentHashRouter(Router):
    """Hash ring over job ids with virtual nodes (stable md5 hashing).

    Placement is a pure function of the job id and the set of shard
    indices it is handed: the same job lands on the same shard in every
    process and every run, and the router needs no load stats at all.
    The ring points hash the shards' true indices, so routing around a
    degraded shard moves only that shard's jobs.  This is the router the
    determinism pin uses -- a k-shard cluster run equals k independent
    service runs over the partition this router induces.
    """

    name = "consistent-hash"
    needs_stats = False

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ClusterError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._ring: list[tuple[int, int]] = []
        self._ring_indices: tuple[int, ...] = ()

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big"
        )

    def _build_ring(self, indices: tuple[int, ...]) -> None:
        points = [
            (self._hash(f"shard-{index}#{replica}"), index)
            for index in indices
            for replica in range(self.replicas)
        ]
        points.sort()
        self._ring = points
        self._ring_indices = indices

    def route(self, spec: JobSpec, stats: Sequence[ShardStats]) -> int:
        """First ring point clockwise from the hash of the job id."""
        indices = tuple(s.index for s in stats)
        if indices != self._ring_indices:
            self._build_ring(indices)
        key = self._hash(f"job-{spec.job_id}")
        ring = self._ring
        lo, hi = 0, len(ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if ring[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return ring[lo % len(ring)][1]


class BandAwareRouter(Router):
    """Anchored band-condition routing (coordinator-fed).

    The cluster coordinator binds a
    :class:`~repro.cluster.coordinator.BandLedger` to this router.
    Every job gets a stable *anchor* shard from an internal
    :class:`ConsistentHashRouter`; the anchor wins unless the ledger
    says the anchor would **not** start the job (not delta-good there,
    or its band is full per the merged cluster-wide view) *and* some
    other shard would -- only then does the job divert, to the ledger's
    best admitting shard.  No ledger bound, or no shard admitting,
    falls back to the anchor.

    Anchoring matters: always chasing the globally-best band (or worse,
    the least-loaded shard) funnels similar-density jobs onto whichever
    shard currently looks best, collapsing the per-shard density
    diversity that hash partitioning preserves -- measured on the
    cluster bench it *loses* profit versus plain consistent hashing.
    Diverting only jobs their anchor would strand keeps the hash
    partition's diversity and spends the merged band view exactly where
    it helps.
    """

    name = "band-aware"
    needs_stats = True

    def __init__(self) -> None:
        self._anchor = ConsistentHashRouter()
        self._ledger = None

    def bind(self, ledger) -> None:
        """Attach the coordinator's band ledger (``None`` detaches)."""
        self._ledger = ledger

    def route(self, spec: JobSpec, stats: Sequence[ShardStats]) -> int:
        """The anchor shard, unless it strands the job and another
        shard admits it.

        A *stale* ledger (shard died or restarted since the last merged
        refresh, or the coordinator is partitioned from shard state) is
        worse than no ledger: its mirrors describe a topology that no
        longer exists, so diverts chase phantom band room.  Degraded
        routing mode anchors every job until the ledger is rebuilt.
        """
        anchor = self._anchor.route(spec, stats)
        ledger = self._ledger
        if (
            ledger is None
            or getattr(ledger, "stale", False)
            or ledger.admits(spec, anchor)
        ):
            return anchor
        choice = ledger.place(spec, stats)
        return anchor if choice is None else choice

    def reset(self) -> None:
        """Reset the anchor ring (new stream)."""
        self._anchor = ConsistentHashRouter()


#: Router registry by name, for CLI flags and benchmarks.
ROUTERS: dict[str, type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    DensityAwareRouter.name: DensityAwareRouter,
    ConsistentHashRouter.name: ConsistentHashRouter,
    BandAwareRouter.name: BandAwareRouter,
}


def make_router(name: str) -> Router:
    """Instantiate a router by registry name."""
    try:
        return ROUTERS[name]()
    except KeyError:
        raise ClusterError(
            f"unknown router {name!r}; known: {sorted(ROUTERS)}"
        ) from None
