"""Cluster-wide band-aware scheduling: close the sharding profit gap.

Partitioning ``m`` machines into ``k`` shards buys near-linear
throughput but fragments the paper's band condition (2): each shard
admits, parks and sheds against its own ``b * m/k`` band capacity,
blind to slack elsewhere.  BENCH_cluster.json quantifies the cost --
k=4 forfeits ~18% of the k=1 profit, k=8 ~32%.  This module is the
cluster-level scheduling layer that recovers most of it, in two
cooperating parts:

* **Shard-spanning admission** -- a :class:`BandLedger` mirrors every
  shard's started-job band loads (:class:`~repro.core.bands.
  DensityBands` per shard, refreshed at deterministic submission
  indices) so the band condition is evaluated against cluster-wide
  state *before* a shard-local admit/park/shed decision is finalized:
  the :class:`~repro.cluster.router.BandAwareRouter` asks the ledger
  which shards would actually *start* the job (delta-good for that
  pool and condition (2) satisfied there) and routes to the best of
  those, instead of discovering after the fact that the chosen shard
  parks it while another shard's band had room.

* **Density-aware work-stealing of running jobs** -- a
  :class:`StealPlanner` pairs overloaded donors with roomy receivers
  and moves jobs *inside* a donor shard's engine through the
  checkpoint-grade extract/inject path
  (:meth:`~repro.sim.engine.Simulator.extract_active` /
  :meth:`~repro.sim.engine.Simulator.inject_active`).  Victims are the
  jobs earning at zero rate where they are: *parked* jobs (band-blocked
  out of Q) and *starved* jobs (in Q, but beyond what ``m`` processors
  cover -- condition (2) caps each band at ``b*m`` yet Q's total
  allotment across bands can exceed ``m``).  A steal happens exactly
  when the donor's marginal band pressure exceeds a receiver's: the
  victim is worthless on the donor, and the receiver has both band
  room (condition (2) admits it) and processor room (its allotment
  starts executing immediately).

Every decision is a pure function of simulated state at deterministic
submission indices (ledger refreshes and steal ticks count
submissions, never wall time; process-mode reads are synchronous
fences on FIFO command pipes), so seeded coordinated runs are
bit-identical across repeats and across cluster modes -- the property
the coordinator test suite pins, including runs with running-job
steals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.cluster.router import BandAwareRouter, ShardStats
from repro.cluster.service import ClusterService
from repro.cluster.shard import fan_out
from repro.core.bands import DensityBands
from repro.core.theory import Constants
from repro.errors import ClusterError, ShardFailedError
from repro.sim.jobs import JobSpec


@dataclass(frozen=True)
class StealMove:
    """One planned migration of a job out of a donor shard's engine."""

    #: donor shard index
    src: int
    #: receiver shard index
    dst: int
    job_id: int
    #: ``"parked"`` (in P, band-blocked) or ``"starved"`` (in Q, zero
    #: processors under the allotment scan)
    kind: str
    #: the victim's density on the donor at planning time
    density: float
    #: receiver jobs displaced to make room (lowest density first);
    #: empty for a plain steal into existing band slack
    displaced: tuple[int, ...] = ()


class BandLedger:
    """Merged per-shard band state for shard-spanning admission.

    The ledger keeps one :class:`~repro.core.bands.DensityBands` mirror
    per shard -- rebuilt from shard
    :meth:`~repro.service.service.SchedulingService.coordination_view`
    dicts at deterministic submission indices -- plus each shard's total
    started allotment (its processor commitment).  Between refreshes,
    :meth:`note_admit` keeps the mirrors approximately current by
    optimistically inserting each routed job, so a burst within one
    refresh window does not pile onto a frozen minimum.
    """

    def __init__(self, constants: Constants, speed: float = 1.0) -> None:
        self.constants = constants
        self.speed = float(speed)
        self._bands: dict[int, DensityBands] = {}
        self._m: dict[int, int] = {}
        self._committed: dict[int, int] = {}
        #: True while the mirrors may disagree with live shard state
        #: (shard died or restarted since the last full refresh).  The
        #: :class:`~repro.cluster.router.BandAwareRouter` falls back to
        #: its consistent-hash anchor -- no diverts -- while stale, and
        #: the coordinator skips steal ticks (degraded routing mode).
        self.stale = False

    def refresh(self, views: dict[int, Optional[dict]]) -> None:
        """Rebuild the mirrors from fresh shard coordination views."""
        self._bands = {}
        self._m = {}
        self._committed = {}
        self.stale = False
        for index, view in sorted(views.items()):
            if view is None:
                continue
            bands = DensityBands()
            total = 0
            for job_id, density, allotment in view["started"]:
                if density > 0:
                    bands.insert(int(job_id), float(density), int(allotment))
                total += int(allotment)
            self._bands[index] = bands
            self._m[index] = int(view["m"])
            self._committed[index] = total

    def shard_state(self, spec: JobSpec, index: int) -> Optional[tuple]:
        """``(n, x, v, delta_good)`` for ``spec`` on shard ``index``.

        Mirrors :meth:`repro.core.sns.SNSScheduler.compute_state` (same
        speed scaling), or ``None`` for profit-function jobs / unknown
        shards.
        """
        rel = spec.relative_deadline
        if rel is None or index not in self._m:
            return None
        consts = self.constants
        work = spec.work / self.speed
        span = spec.span / self.speed
        m = self._m[index]
        n = consts.allotment(work, span, rel, m)
        x = consts.execution_bound(work, span, n)
        v = consts.density(spec.profit, x, n)
        return (n, x, v, consts.is_delta_good(rel, x))

    def admits(self, spec: JobSpec, index: int) -> bool:
        """Whether shard ``index`` would *start* the job right now:
        delta-good for its pool and condition (2) satisfied against the
        mirrored band loads."""
        state = self.shard_state(spec, index)
        if state is None:
            return False
        n, _x, v, good = state
        if not good or v <= 0:
            return False
        consts = self.constants
        return self._bands[index].can_insert(
            v, n, consts.c, consts.band_capacity(self._m[index])
        )

    def place(self, spec: JobSpec, stats: Sequence[ShardStats]) -> Optional[int]:
        """Best admitting shard for ``spec``, or ``None``.

        Among shards whose band condition admits the job cluster-wide,
        prefer those with free processor room (the job's allotment
        starts executing immediately instead of joining the starved
        tail), then lowest load, then lowest index.  ``None`` means no
        shard admits (or the ledger is empty) -- the router falls back.
        """
        best: Optional[tuple] = None
        for s in stats:
            if not s.alive or not self.admits(spec, s.index):
                continue
            n = self.shard_state(spec, s.index)[0]
            room = self._m[s.index] - self._committed[s.index]
            key = (0 if n <= room else 1, s.load, s.index)
            if best is None or key < best[0]:
                best = (key, s.index)
        return None if best is None else best[1]

    def note_admit(self, spec: JobSpec, index: int) -> None:
        """Optimistically mirror one routed job until the next refresh."""
        state = self.shard_state(spec, index)
        if state is None:
            return
        n, _x, v, good = state
        if not good or v <= 0:
            return
        bands = self._bands.get(index)
        if bands is not None:
            bands.insert(spec.job_id, v, n)
            self._committed[index] += n

    def merged_band_load(self, density: float) -> float:
        """Cluster-wide started allotment in the band ``[v, c*v)`` --
        the quantity sharding fragments (diagnostics / docs)."""
        c = self.constants.c
        return sum(
            bands.band_load(density, c * density)
            for bands in self._bands.values()
        )


class StealPlanner:
    """Density-aware planning of running-job steals across shards.

    Pairs overloaded donors with roomy receivers, greedily and
    deterministically, over jobs *inside* donor engines.  Victims
    (parked or starved jobs, highest density first) move when a
    receiver admits them, in one of two ways:

    * **plain steal** -- the receiver has processor room and band
      condition (2) admits the victim into its existing slack; the
      stolen job starts executing immediately;
    * **displacement steal** -- no shard has open slack (the saturated
      steady state: every shard's bands fill with its locally-best
      jobs), but the victim's density exceeds the density of the
      receiver's *weakest started jobs* by at least ``margin``.  Up to
      ``max_displaced`` of those jobs are evicted back through the
      admission path (they re-park with their DAG progress intact and
      stay stealable), the victim takes the freed band room, and the
      cluster as a whole now runs the globally denser set.

    Both cases are the same decision: move exactly when the donor's
    marginal band pressure exceeds the receiver's -- the victim earns
    zero where it is, and whatever it displaces is worth ``margin``
    times less than what it adds.  Without displacement the planner
    plateaus far below the k=1 profit, because in overload every shard
    saturates and no "room" ever opens (measured in
    ``BENCH_cluster.json``: plain steals recover a few points of the
    ~18% k=4 gap; displacement closes it).

    Parameters
    ----------
    constants:
        The scheduler's :class:`~repro.core.theory.Constants`.
    speed:
        Machine speed (work/span are divided by it, as in
        :meth:`~repro.core.sns.SNSScheduler.compute_state`).
    batch:
        Cap on planned moves per steal tick.
    margin:
        Density advantage a victim needs over each job it displaces
        (``> 1``); higher steals less and keeps more local decisions.
    max_displaced:
        Cap on receiver jobs displaced per steal.
    """

    def __init__(
        self,
        constants: Constants,
        speed: float = 1.0,
        batch: int = 8,
        margin: float = 1.5,
        max_displaced: int = 2,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if margin <= 1.0:
            raise ValueError("margin must be > 1")
        if max_displaced < 0:
            raise ValueError("max_displaced must be >= 0")
        self.constants = constants
        self.speed = float(speed)
        self.batch = int(batch)
        self.margin = float(margin)
        self.max_displaced = int(max_displaced)

    def plan(
        self,
        views: dict[int, Optional[dict]],
        t: int,
        move_counts: Optional[dict[int, int]] = None,
        max_moves_per_job: Optional[int] = None,
    ) -> list[StealMove]:
        """Plan up to ``batch`` steals from the given shard views.

        ``move_counts`` / ``max_moves_per_job`` bound how often any one
        job may migrate over its lifetime (the coordinator passes its
        executed-move tally), so a job on the density margin cannot
        ping-pong between shards forever.
        """
        consts = self.constants
        bands: dict[int, DensityBands] = {}
        m: dict[int, int] = {}
        room: dict[int, int] = {}
        #: per shard, started entries ``(density, job_id, allotment)``
        #: ascending by density -- the displacement candidate order
        started: dict[int, list[tuple[float, int, int]]] = {}
        for index, view in sorted(views.items()):
            if view is None:
                continue
            mirror = DensityBands()
            total = 0
            entries: list[tuple[float, int, int]] = []
            for job_id, density, allotment in view["started"]:
                job_id, density, allotment = (
                    int(job_id), float(density), int(allotment)
                )
                if density > 0:
                    mirror.insert(job_id, density, allotment)
                    entries.append((density, job_id, allotment))
                total += allotment
            entries.sort()
            bands[index] = mirror
            m[index] = int(view["m"])
            room[index] = m[index] - total
            started[index] = entries

        victims: list[tuple[float, int, int, str, dict]] = []
        for index, view in sorted(views.items()):
            if view is None:
                continue
            for kind in ("parked", "starved"):
                for entry in view[kind]:
                    if entry["deadline"] is None or entry["density"] <= 0:
                        continue
                    if (
                        move_counts is not None
                        and max_moves_per_job is not None
                        and move_counts.get(entry["job_id"], 0)
                        >= max_moves_per_job
                    ):
                        continue
                    victims.append(
                        (entry["density"], index, entry["job_id"], kind, entry)
                    )
        # highest stranded value first; ties deterministic
        victims.sort(key=lambda v: (-v[0], v[1], v[2]))

        moves: list[StealMove] = []
        touched: set[int] = set()  # victims + displaced, this tick
        receivers = sorted(bands)
        # per-receiver admission state is a function of the pool size
        # alone, so with equal-size shards (the normal partition) each
        # victim's (n, x, v) is computed once, not once per receiver
        state_cache: dict[tuple, Optional[tuple]] = {}
        for density, src, job_id, kind, entry in victims:
            if len(moves) >= self.batch:
                break
            if job_id in touched:
                continue
            d_rem = entry["deadline"] - t
            if d_rem <= 0:
                continue
            work = entry["work"] / self.speed
            span = entry["span"] / self.speed
            placed: Optional[tuple] = None
            for r in receivers:
                if r == src:
                    continue
                key = (m[r], d_rem, work, span, entry["profit"])
                cached = state_cache.get(key)
                if cached is None and key not in state_cache:
                    n = consts.allotment(work, span, d_rem, m[r])
                    x = consts.execution_bound(work, span, n)
                    if not consts.is_delta_good(d_rem, x):
                        cached = None
                    else:
                        v = consts.density(entry["profit"], x, n)
                        cached = (n, v) if v > 0 else None
                    state_cache[key] = cached
                if cached is None:
                    continue
                n, v = cached
                capacity = consts.band_capacity(m[r])
                if n <= room[r] and bands[r].can_insert(
                    v, n, consts.c, capacity
                ):
                    placed = (r, v, n, ())
                    break
                if self.max_displaced == 0:
                    continue
                # displacement: evict the receiver's weakest started
                # jobs while the victim dominates them by ``margin``
                weakest: list[tuple[float, int, int]] = []
                for dv, did, da in started[r]:
                    if dv * self.margin >= v:
                        break  # ascending: no weaker candidates left
                    if did in touched:
                        continue
                    weakest.append((dv, did, da))
                    if len(weakest) >= self.max_displaced:
                        break
                evicted: list[tuple[int, float, int]] = []
                for dv, did, da in weakest:
                    bands[r].remove(did)
                    room[r] += da
                    evicted.append((did, dv, da))
                    if n <= room[r] and bands[r].can_insert(
                        v, n, consts.c, capacity
                    ):
                        break
                if evicted and n <= room[r] and bands[r].can_insert(
                    v, n, consts.c, capacity
                ):
                    placed = (r, v, n, tuple(did for did, _, _ in evicted))
                    break
                for did, dv, da in evicted:  # undo the trial eviction
                    bands[r].insert(did, dv, da)
                    room[r] -= da
            if placed is None:
                continue
            dst, v, n, displaced = placed
            moves.append(
                StealMove(
                    src=src,
                    dst=dst,
                    job_id=job_id,
                    kind=kind,
                    density=density,
                    displaced=displaced,
                )
            )
            bands[dst].insert(job_id, v, n)
            room[dst] -= n
            touched.add(job_id)
            touched.update(displaced)
            if kind == "starved" and job_id in bands[src]:
                # the donor's band entry frees with the extraction
                bands[src].remove(job_id)
                room[src] += int(entry["allotment"])
        return moves


class Coordinator:
    """Attach cluster-wide band-aware scheduling to a cluster.

    Constructing a coordinator hooks it into the cluster's submit path
    (:attr:`ClusterService.coordinator`): before each routing decision
    it refreshes the :class:`BandLedger` and runs a
    :class:`StealPlanner` tick at deterministic submission indices, and
    after each delivery it optimistically mirrors the routed job.  When
    the cluster's router is a
    :class:`~repro.cluster.router.BandAwareRouter`, the ledger is bound
    to it so routing itself becomes shard-spanning admission.

    Works with every :class:`~repro.cluster.service.ClusterService`
    configuration: on an elastic cluster only the active prefix is
    read, routed to, or stolen between (resizes invalidate the ledger);
    on a supervised one steals are journaled and a shard failure
    mid-tick is supervised.  A recovered shard is reconciled against
    the steal journal, so log replay never resurrects a stolen-away job.

    Parameters
    ----------
    cluster:
        The cluster to coordinate (any mode).
    refresh_every:
        Submissions between ledger refreshes.  In process mode each
        refresh is one synchronous fence per shard -- lower is fresher
        and slower.
    steal_every:
        Submissions between steal ticks (default: ``refresh_every``).
        A steal tick always re-reads fresh views first.
    steal_batch:
        Cap on steals per tick.
    steal_margin:
        Density advantage a victim needs over each receiver job it
        displaces (see :class:`StealPlanner`).
    max_displaced:
        Receiver jobs displaced per steal (0 disables displacement).
    max_moves_per_job:
        Lifetime cap on migrations of any one job (anti-ping-pong).
    constants:
        Override the :class:`~repro.core.theory.Constants` (default:
        derived from the shard template's scheduler).
    """

    def __init__(
        self,
        cluster: ClusterService,
        *,
        refresh_every: int = 64,
        steal_every: Optional[int] = None,
        steal_batch: int = 64,
        steal_margin: float = 3.0,
        max_displaced: int = 3,
        max_moves_per_job: int = 2,
        constants: Optional[Constants] = None,
    ) -> None:
        if refresh_every < 1:
            raise ClusterError("refresh_every must be >= 1")
        if max_moves_per_job < 1:
            raise ClusterError("max_moves_per_job must be >= 1")
        self.cluster = cluster
        if constants is None:
            constants = cluster.constants
        self.constants = constants
        self.speed = float(cluster.shards[0].config.speed)
        self.ledger = BandLedger(constants, self.speed)
        self.planner = StealPlanner(
            constants,
            self.speed,
            batch=steal_batch,
            margin=steal_margin,
            max_displaced=max_displaced,
        )
        self.refresh_every = int(refresh_every)
        self.steal_every = (
            self.refresh_every if steal_every is None else int(steal_every)
        )
        if self.steal_every < 1:
            raise ClusterError("steal_every must be >= 1")
        self.max_moves_per_job = int(max_moves_per_job)
        #: executed steals, in order
        self.steals: list[StealMove] = []
        self._move_counts: dict[int, int] = {}
        self._views: dict[int, Optional[dict]] = {}
        self._since_refresh: Optional[int] = None  # None = refresh now
        self._since_steal = 0
        #: submissions left in a forced degraded-routing window (ledger
        #: partition fault): refreshes and steals are suppressed, the
        #: band-aware router anchors, until the window drains
        self._partitioned = 0
        cluster.coordinator = self
        if isinstance(cluster.router, BandAwareRouter):
            cluster.router.bind(self.ledger)

    # -- cluster hook points --------------------------------------------
    def before_route(self, t: int) -> None:
        """Run coordination work due at this submission index."""
        if self._partitioned > 0:
            # partitioned from shard state: no refresh, no steals; the
            # stale ledger keeps the router on its anchor until healed
            self._partitioned -= 1
            self._since_refresh = None
            return
        refreshed = False
        if (
            self._since_refresh is None
            or self._since_refresh >= self.refresh_every
        ):
            self._refresh(t)
            refreshed = True
        else:
            self._since_refresh += 1
        self._since_steal += 1
        if self._since_steal >= self.steal_every:
            if not refreshed:
                self._refresh(t)
            self._steal_tick(t)
            self._since_steal = 0

    def note_route(self, index: int, spec: JobSpec, t: int) -> None:
        """Mirror a delivered submission into the ledger."""
        self.ledger.note_admit(spec, index)

    def invalidate(self) -> None:
        """Force a ledger refresh at the next submission (topology
        changed: scale event, shard death or recovery).  Routing runs
        degraded -- anchor only, no diverts -- until the rebuild."""
        self._since_refresh = None
        self.ledger.stale = True

    def partition(self, submissions: int) -> None:
        """Cut the coordinator off from shard state for a window.

        Models a control-plane partition (the ``ledger-partition``
        chaos fault): for the next ``submissions`` routing decisions the
        ledger is stale, the band-aware router falls back to its
        consistent-hash anchor, and steal ticks are suppressed.  Data
        paths (submissions, advances) are unaffected -- degrade, don't
        die."""
        if submissions < 1:
            raise ClusterError("partition window must be >= 1 submissions")
        self._partitioned = int(submissions)
        self.ledger.stale = True

    # -- internals ------------------------------------------------------
    def _active_shards(self) -> list:
        cluster = self.cluster
        return [s for s in cluster.shards[: cluster.k_active] if s.alive]

    def _refresh(self, t: int = 0) -> None:
        # victim lists are capped at the steal batch: the planner never
        # uses more, and encoding the whole parked set every refresh is
        # what made coordination cost scale with overload depth
        limit = self.planner.batch
        shards = self._active_shards()
        views: dict[int, Optional[dict]] = {}
        failed = False
        for shard, view in zip(
            shards, fan_out(shards, "coordination_view", limit)
        ):
            if isinstance(view, ShardFailedError):
                # shard died mid-refresh: supervise it if the cluster
                # can, drop its view, and keep the ledger degraded --
                # a partial rebuild must not be mistaken for a fresh one
                failed = True
                self.cluster.supervise_failure(shard.index, t, view)
            else:
                views[shard.index] = view
        self._views = views
        self.ledger.refresh(self._views)
        self._since_refresh = 0
        if failed:
            self.ledger.stale = True
            self._since_refresh = None

    def _steal_tick(self, t: int) -> None:
        moves = self.planner.plan(
            self._views, t, self._move_counts, self.max_moves_per_job
        )
        if not moves:
            return
        cluster = self.cluster
        journal = cluster.steal_journal
        if journal is None:
            self._execute_steals(t, moves)
            return
        # Transactional path: journal intents before touching any
        # shard, hold resolution until the tick ends (a mid-tick
        # recovery must not settle transactions the tick is still
        # executing), then resolve whatever failures left pending.
        journal.in_tick = True
        try:
            self._execute_steals(t, moves)
        finally:
            journal.in_tick = False
            cluster.resolve_steal_txns(t)
            journal.sync()

    def _execute_steals(self, t: int, moves: list[StealMove]) -> None:
        cluster = self.cluster
        shards = cluster.shards
        journal = cluster.steal_journal
        tracer = cluster.tracer
        emit = tracer is not None and tracer.enabled
        live = [
            move
            for move in moves
            if shards[move.src].alive and shards[move.dst].alive
        ]
        txn_ids: dict[int, int] = {}
        if journal is not None:
            for move in live:
                txn_ids[move.job_id] = journal.begin(
                    t=t, job_id=move.job_id, src=move.src, dst=move.dst,
                    kind=move.kind,
                )
                for did in move.displaced:
                    # displaced jobs are evicted from and readmitted to
                    # the same receiver: src == dst
                    txn_ids[did] = journal.begin(
                        t=t, job_id=did, src=move.dst, dst=move.dst,
                        kind="displace",
                    )
        # Phase 1 -- batched extraction, one exchange per shard: victims
        # come out of their donors, displaced jobs out of their
        # receivers.  Views were fenced at this same submission index
        # with no advance in between, so extraction only misses when a
        # shard died mid-tick.
        extract_ids: dict[int, list[int]] = {}
        for move in live:
            extract_ids.setdefault(move.src, []).append(move.job_id)
            for did in move.displaced:
                extract_ids.setdefault(move.dst, []).append(did)
        payloads: dict[int, Optional[dict]] = {}
        for index in sorted(extract_ids):
            ids = extract_ids[index]
            try:
                results = shards[index].extract_many(ids)
            except ShardFailedError as exc:
                results = [None] * len(ids)
                self.cluster.supervise_failure(index, t, exc)
            for job_id, payload in zip(ids, results):
                payloads[job_id] = payload
                if journal is not None and payload is not None:
                    txn_id = txn_ids[job_id]
                    if journal.txns[txn_id].pending:
                        journal.transfer(txn_id, payload)
        # chaos hook: a steal-interrupt fault fires in the window
        # between extraction and injection -- the exact crash site the
        # transaction journal exists to survive
        target = cluster.consume_steal_interrupt()
        if target is not None and shards[target].alive:
            cluster.kill_shard(target)
        # Phase 2 -- batched injection, one exchange per receiver.  Per
        # move: the victim lands first (its arrival admission sees the
        # band room its displaced jobs just freed), then the displaced
        # jobs re-enter the same admission path (they re-park, keeping
        # DAG progress, and stay stealable).
        inject_lists: dict[int, list[tuple[int, dict]]] = {}
        executed = {"parked": 0, "starved": 0}
        displaced_total = 0
        for move in live:
            victim = payloads.get(move.job_id)
            evicted = [
                (did, payloads[did])
                for did in move.displaced
                if payloads.get(did) is not None
            ]
            queue = inject_lists.setdefault(move.dst, [])
            if victim is None:
                # victim vanished (donor died): undo the eviction
                queue.extend(evicted)
                if journal is not None:
                    txn_id = txn_ids[move.job_id]
                    if journal.txns[txn_id].pending:
                        journal.abort(txn_id, "victim-vanished")
                continue
            queue.append((move.job_id, victim))
            queue.extend(evicted)
            for did, _dp in evicted:
                self._move_counts[did] = self._move_counts.get(did, 0) + 1
            executed[move.kind] += 1
            displaced_total += len(evicted)
            self._move_counts[move.job_id] = (
                self._move_counts.get(move.job_id, 0) + 1
            )
            self.steals.append(move)
            if emit:
                tracer.event(
                    t,
                    "steal",
                    move.job_id,
                    {
                        "src": move.src,
                        "dst": move.dst,
                        "kind": move.kind,
                        "density": move.density,
                        "displaced": [did for did, _ in evicted],
                    },
                )
        for index in sorted(inject_lists):
            entries = inject_lists[index]
            if journal is not None:
                # a mid-tick recovery may already have settled some
                # transactions (reconciliation); injecting those
                # payloads again would duplicate the job
                entries = [
                    (jid, payload)
                    for jid, payload in entries
                    if journal.txns[txn_ids[jid]].pending
                ]
            if not entries:
                continue
            try:
                shards[index].inject_many([p for _jid, p in entries], t)
            except ShardFailedError as exc:
                # receiver died before injection: the journaled
                # transfer payloads keep the jobs durable; end-of-tick
                # resolution re-places them exactly once
                if emit:
                    tracer.event(
                        t, "steal-failed", None,
                        {"dst": index, "jobs": [jid for jid, _p in entries]},
                    )
                self.cluster.supervise_failure(index, t, exc)
                continue
            if journal is not None:
                for jid, _payload in entries:
                    journal.commit(txn_ids[jid])
        total = executed["parked"] + executed["starved"]
        if total:
            metrics = cluster.cluster_metrics
            metrics.counter("steals_total").inc(total)
            for kind, count in executed.items():
                if count:
                    metrics.counter(f"steals_{kind}_total").inc(count)
            if displaced_total:
                metrics.counter("steals_displaced_total").inc(displaced_total)
            # shard state changed under the ledger's feet
            self.invalidate()


def coordinate(cluster: ClusterService, **settings: Any) -> Coordinator:
    """Attach a :class:`Coordinator` to ``cluster`` and return it.

    ``settings`` are the coordinator's keyword arguments; its own
    defaults fill in any left out."""
    return Coordinator(cluster, **settings)
