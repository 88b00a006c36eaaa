"""Trace recorders: structured event capture for engine/service/cluster.

A *trace* is an append-only sequence of lightweight event tuples

    ``(seq, shard, t, kind, job_id, data)``

where ``seq`` is a recorder-global sequence number, ``shard`` tags the
cluster shard that produced the event (``None`` for single-service and
cluster-level events), ``t`` is *simulated* time, ``kind`` is one of
the :data:`EVENT_KINDS` strings, ``job_id`` names the job the event is
about (``None`` for engine-wide events like decisions), and ``data`` is
a small JSON-compatible dict of kind-specific payload (or ``None``, or
a lazily-rendered :class:`SliceData` -- read payloads through
:func:`event_data`, not ``event[5]``).

Two recorder implementations share the same duck-typed interface:

* :class:`TraceRecorder` -- records everything into an in-memory list;
* :class:`NullRecorder` -- a no-op whose ``enabled`` flag is ``False``.

The hot paths (the engine's event loop, the service submit path) hoist
``recorder.event`` into a local **only when** ``recorder is not None
and recorder.enabled``; with no recorder, or with the shared
:data:`NULL_RECORDER` attached, the per-event cost is a single local
``None`` check -- the "near-zero cost when disabled" contract the
``BENCH_observability.json`` gate pins at under 2%.

Recorders never mutate scheduler or engine state; they only read it.
That is what makes tracing-on runs bit-identical to tracing-off runs
(``tests/test_observability_equivalence.py``).

Exactly-once spans under recovery
---------------------------------
Cluster checkpoints note, per shard, how many shard-tagged events the
trace held at checkpoint time (:meth:`TraceRecorder.shard_event_count`).
When a crashed shard is restored from that checkpoint,
:meth:`TraceRecorder.truncate_shard` drops the shard's events recorded
*after* the checkpoint; the deterministic log-tail replay then
regenerates exactly those events once, so a recovered trace has no
duplicate and no orphaned spans (``tests/test_resilience_chaos.py``).
"""

from __future__ import annotations

from typing import Any, Optional

#: Every event kind a recorder may emit.  Terminal kinds (the ones that
#: close a job's lifecycle span) are listed in
#: :data:`repro.observability.spans.TERMINAL_KINDS`.
EVENT_KINDS: tuple[str, ...] = (
    "arrival",          # job released into the engine
    "admission",        # scheduler's computed n_i / x_i / v_i verdict
    "expiry",           # effective deadline passed unfinished
    "decision",         # one engine allocation decision point
    "slice",            # frozen allocation executed over [t, t1)
    "completion",       # job finished (data carries earned profit)
    "abandon",          # horizon reached with the job unfinished
    "submit",           # service-level submission outcome
    "release",          # queued job released into the engine
    "shed",             # service dropped the job before release
    "route",            # cluster routed the job to a shard
    "checkpoint",       # one shard checkpoint was persisted
    "recovery",         # a crashed shard was restored + replayed
    "supervision",      # the supervisor handled a shard failure
    "migrate",          # scale step moved queued jobs
    "cluster-shed",     # no healthy shard could admit the job
    "steal",            # running job stolen between shards (coordinator)
    "steal-resolve",    # pending steal transaction settled after a crash
    "steal-reconcile",  # restored shard reconciled against the journal
)


class NullRecorder:
    """Recorder that drops everything (the disabled mode).

    ``enabled`` is ``False``, so instrumented hot paths skip their
    emit branch entirely; calling :meth:`event` anyway is a no-op.
    Use the module-level :data:`NULL_RECORDER` singleton.
    """

    __slots__ = ()

    #: hot paths read this once per session and skip all emits when False
    enabled = False

    def event(
        self,
        t: int,
        kind: str,
        job_id: Optional[int] = None,
        data: Optional[dict] = None,
    ) -> None:
        """Discard the event."""

    def for_shard(self, index: int) -> "NullRecorder":
        """A shard view of a null recorder is the null recorder."""
        return self

    def shard_event_count(self, index: int) -> int:
        """A null recorder holds no events."""
        return 0

    def truncate_shard(self, index: int, keep: int) -> int:
        """Nothing to truncate; returns 0."""
        return 0


#: Shared no-op recorder: attach it to measure the disabled-mode cost.
NULL_RECORDER = NullRecorder()


class SliceData:
    """Payload of an engine ``"slice"`` event, rendered when read.

    A slice happens at every decision point and names every executing
    job.  The engine hands over the decision's assignment list; the
    constructor copies out just ``(job_id, k, n_nodes)`` per entry,
    flattened into one tuple of ints, so the payload references no
    engine object (no job, DAG or node list is kept alive by a trace)
    and, holding only ints, is dropped from the cycle collector's
    tracking at its first collection.  Building the JSON-compatible
    dict -- one tuple per entry -- waits for :meth:`render`, the first
    time anything reads the trace (span analysis, export).  Consumers
    must go through :func:`event_data` rather than reading
    ``event[5]`` raw.
    """

    __slots__ = ("t1", "_flat", "_rendered")

    def __init__(self, t1: int, assignment: list) -> None:
        self.t1 = t1
        flat = [0] * (3 * len(assignment))
        i = 0
        for job, nodes, k, _dag in assignment:
            flat[i] = job.spec.job_id
            flat[i + 1] = k
            flat[i + 2] = len(nodes)
            i += 3
        self._flat = tuple(flat)
        self._rendered: Optional[dict] = None

    def render(self) -> dict:
        """Materialize (once) as ``{"t1": ..., "entries": [...]}``.

        Each entry is ``(job_id, k, n_nodes)``: the job, its allotted
        processors, and how many DAG nodes actually executed.
        """
        rendered = self._rendered
        if rendered is None:
            it = iter(self._flat)
            rendered = {"t1": self.t1, "entries": list(zip(it, it, it))}
            self._rendered = rendered
            self._flat = ()
        return rendered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SliceData(t1={self.t1})"


def event_data(event: tuple) -> Optional[dict]:
    """The ``data`` payload of one event tuple, rendered if deferred."""
    data = event[5]
    if type(data) is SliceData:
        return data.render()
    return data


class TraceRecorder:
    """In-memory structured trace of one run (engine, service or cluster).

    Events are appended as plain tuples (see the module docstring for
    the layout) -- the cheapest thing Python can append -- and exported
    or analyzed after the run through :mod:`repro.observability.export`
    and :mod:`repro.observability.spans`.

    The recorder is single-threaded by design (the whole simulation
    stack is); "lock-free" here means literally no locks, not atomics.
    """

    __slots__ = ("events", "_seq", "enabled")

    def __init__(self) -> None:
        #: recorded events, in append order
        self.events: list[tuple] = []
        self._seq = 0
        #: hot paths read this before each emit
        self.enabled = True

    def __len__(self) -> int:
        """Number of recorded events."""
        return len(self.events)

    def event(
        self,
        t: int,
        kind: str,
        job_id: Optional[int] = None,
        data: Optional[dict] = None,
    ) -> None:
        """Append one event at simulated time ``t`` (shard ``None``)."""
        seq = self._seq
        self._seq = seq + 1
        self.events.append((seq, None, t, kind, job_id, data))

    def for_shard(self, index: int) -> "ShardRecorder":
        """A view that records into this trace tagged with shard ``index``.

        Shard views share the parent's event list and sequence counter,
        so a cluster trace stays globally ordered while every shard's
        events remain separable (for truncation and per-shard views).
        """
        return ShardRecorder(self, index)

    # -- recovery support ----------------------------------------------
    def shard_event_count(self, index: int) -> int:
        """How many events are tagged with shard ``index`` right now.

        Cluster checkpoints store this as the shard's *trace mark*.
        """
        return sum(1 for ev in self.events if ev[1] == index)

    def truncate_shard(self, index: int, keep: int) -> int:
        """Drop shard ``index``'s events beyond its first ``keep``.

        Called by shard recovery before the log-tail replay: the replay
        deterministically regenerates the dropped events exactly once.
        Events of other shards (and cluster-level events) are untouched.
        Returns the number of events removed.
        """
        kept: list[tuple] = []
        seen = 0
        removed = 0
        for ev in self.events:
            if ev[1] == index:
                seen += 1
                if seen > keep:
                    removed += 1
                    continue
            kept.append(ev)
        if removed:
            self.events[:] = kept
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder(events={len(self.events)})"


class ShardRecorder:
    """Shard-tagged view over a parent :class:`TraceRecorder`.

    Appends into the parent's event list using the parent's sequence
    counter, stamping every event with this view's shard index.
    """

    __slots__ = ("parent", "shard")

    def __init__(self, parent: TraceRecorder, shard: int) -> None:
        self.parent = parent
        self.shard = int(shard)

    @property
    def enabled(self) -> bool:
        """Views follow the parent, so a live pause silences shards too."""
        return self.parent.enabled

    def event(
        self,
        t: int,
        kind: str,
        job_id: Optional[int] = None,
        data: Optional[dict] = None,
    ) -> None:
        """Append one event tagged with this view's shard index."""
        parent = self.parent
        seq = parent._seq
        parent._seq = seq + 1
        parent.events.append((seq, self.shard, t, kind, job_id, data))

    def for_shard(self, index: int) -> "ShardRecorder":
        """Re-view the parent trace under a different shard tag."""
        return self.parent.for_shard(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRecorder(shard={self.shard}, parent={self.parent!r})"


#: Per state-class cache of which admission fields exist, so the
#: per-arrival hot path never pays ``getattr`` miss (exception) cost:
#: ``{state_class: ((attr, key), ...) , has_rejected, has_delta_good}``.
_ADMISSION_FIELDS: dict[type, tuple] = {}


def _admission_fields(state: Any) -> tuple:
    cls = state.__class__
    cached = _ADMISSION_FIELDS.get(cls)
    if cached is None:
        numeric = tuple(
            (field, key)
            for field, key in (
                ("allotment", "n"), ("x", "x"), ("density", "v")
            )
            if hasattr(state, field)
        )
        cached = _ADMISSION_FIELDS[cls] = (
            numeric,
            hasattr(state, "rejected"),
            hasattr(state, "delta_good"),
        )
    return cached


def scheduler_admission(scheduler: Any, job_id: int) -> Optional[dict]:
    """Duck-typed admission info for one job, read off the scheduler.

    The paper's scheduler S computes, at arrival, the allotment ``n_i``,
    the virtual execution time ``x_i`` and the density ``v_i``; this
    helper extracts them (plus the admit/park/reject verdict) from any
    scheduler that exposes a per-job state dict:

    * :class:`~repro.core.sns.SNSScheduler` -- ``all_states`` with
      ``allotment`` / ``x`` / ``density`` / ``delta_good``; a job is
      *admitted* when it entered the started queue Q (``started_ids``);
    * :class:`~repro.core.profit_scheduler.GeneralProfitScheduler` --
      ``states`` with the same numeric fields plus a ``rejected`` flag
      and the ``assigned_relative_deadline``.

    Returns ``None`` for schedulers without per-job state (baselines),
    so their traces simply carry no admission payload.  Pure read-only:
    never mutates scheduler state.
    """
    for attr in ("all_states", "states"):
        states = getattr(scheduler, attr, None)
        if not isinstance(states, dict):
            continue
        state = states.get(job_id)
        if state is None:
            continue
        numeric, has_rejected, has_delta_good = _admission_fields(state)
        info: dict[str, Any] = {}
        for field, key in numeric:
            value = getattr(state, field)
            if value is not None:
                info[key] = value
        if has_rejected:
            rejected = state.rejected
            if rejected is not None:
                info["admitted"] = not rejected
        if has_delta_good:
            delta_good = state.delta_good
            if delta_good is not None:
                info["delta_good"] = bool(delta_good)
                started = getattr(scheduler, "started_ids", None)
                if started is not None:
                    info["admitted"] = job_id in started
        return info or None
    return None
