"""Span reconstruction and trace-completeness invariants.

A recorded trace (see :mod:`repro.observability.recorder`) is a flat
event sequence; this module folds it back into *spans* -- one lifecycle
span per job, plus per-machine execution intervals and the merged
allocation slices that Gantt charts and slice checks read -- and checks
the invariants the property tests pin down:

* every job that appears in a trace has **exactly one terminal event**
  (completed, deadline-missed, shed, abandoned, or cluster-shed);
* execution slices fall inside the owning job's lifecycle span, and the
  per-machine intervals derived from them never overlap (a machine
  runs one node at a time);
* the profit recomputed from completion events is bit-equal to the
  engine-reported profit (same float addition order per shard).

All helpers accept events either as the recorder's native tuples or as
the dicts :func:`repro.observability.export.read_jsonl` yields after a
round-trip through JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.observability.recorder import event_data

#: Event kinds that close a job's lifecycle span, mapped to the
#: terminal state name the span reports.
TERMINAL_KINDS: dict[str, str] = {
    "completion": "completed",
    "expiry": "missed",
    "abandon": "abandoned",
    "shed": "shed",
    "cluster-shed": "shed",
}

#: Event kinds that mark a job as *submitted* (the span-completeness
#: universe: every one of these jobs must reach exactly one terminal).
SUBMIT_KINDS: tuple[str, ...] = ("submit", "arrival", "route")


def _as_tuple(event: Any) -> tuple:
    """Normalize one event (tuple or exported dict) to the tuple form.

    Deferred slice payloads (``SliceData``) are rendered here, so every
    downstream helper sees plain JSON-compatible dicts.
    """
    if isinstance(event, dict):
        return (
            event.get("seq", 0),
            event.get("shard"),
            event["t"],
            event["kind"],
            event.get("job"),
            event.get("data"),
        )
    data = event_data(event)
    if data is not event[5]:
        return event[:5] + (data,)
    return event


@dataclass
class JobSpan:
    """One job's reconstructed lifecycle span."""

    job_id: int
    #: first time the job appears in the trace
    start: Optional[int] = None
    #: time of the terminal event (None = span still open)
    end: Optional[int] = None
    #: terminal state ("completed" / "missed" / "shed" / "abandoned")
    terminal: Optional[str] = None
    #: profit carried by the completion event (0.0 otherwise)
    profit: float = 0.0
    #: admission payload (n / x / v / admitted), when recorded
    admission: Optional[dict] = None
    #: shard that produced the terminal event
    shard: Optional[int] = None
    #: every terminal event seen (len != 1 is an invariant violation)
    terminal_events: list[tuple] = field(default_factory=list)


def build_spans(events: Iterable[Any]) -> dict[int, JobSpan]:
    """Fold a trace into one :class:`JobSpan` per job id.

    Never raises on malformed traces -- duplicate terminals are
    collected into :attr:`JobSpan.terminal_events` so
    :func:`validate_trace` can report them.
    """
    spans: dict[int, JobSpan] = {}
    for event in events:
        _seq, shard, t, kind, job_id, data = _as_tuple(event)
        if job_id is None:
            continue
        span = spans.get(job_id)
        if span is None:
            span = spans[job_id] = JobSpan(job_id=job_id, start=t)
        if span.start is None or t < span.start:
            span.start = t
        if kind == "admission" and data:
            span.admission = dict(data)
        terminal = TERMINAL_KINDS.get(kind)
        if terminal is not None:
            span.terminal_events.append((t, kind, shard))
            span.terminal = terminal
            span.end = t
            span.shard = shard
            if kind == "completion" and data:
                span.profit = float(data.get("profit", 0.0))
    return spans


def submitted_ids(events: Iterable[Any]) -> set[int]:
    """Every job id the trace saw submitted (see :data:`SUBMIT_KINDS`)."""
    ids: set[int] = set()
    for event in events:
        _seq, _shard, _t, kind, job_id, _data = _as_tuple(event)
        if job_id is not None and kind in SUBMIT_KINDS:
            ids.add(job_id)
    return ids


def machine_intervals(
    events: Iterable[Any],
) -> dict[tuple[Optional[int], int], list[tuple[int, int, int]]]:
    """Expand execution slices into per-machine busy intervals.

    Each ``slice`` event carries ``(job_id, procs, nodes)`` entries for
    one frozen allocation over ``[t, t1)``; machines (lanes) are
    assigned cumulatively in entry order, which is deterministic because
    the engine emits entries in assignment order.  Returns
    ``{(shard, machine): [(t0, t1, job_id), ...]}`` with each machine's
    intervals in trace order.
    """
    lanes: dict[tuple[Optional[int], int], list[tuple[int, int, int]]] = {}
    for event in events:
        _seq, shard, t0, kind, _job, data = _as_tuple(event)
        if kind != "slice" or not data:
            continue
        t1 = data["t1"]
        offset = 0
        for entry in data.get("entries", ()):
            job_id, procs = int(entry[0]), int(entry[1])
            for lane in range(offset, offset + procs):
                lanes.setdefault((shard, lane), []).append(
                    (t0, t1, job_id)
                )
            offset += procs
    return lanes


def allocation_slices(
    events: Iterable[Any], shard: Optional[int] = None
) -> list[tuple[int, int, tuple[tuple[int, int, int], ...]]]:
    """Project one shard's ``slice`` events onto maximal allocation slices.

    Returns ``[(t0, t1, entries), ...]`` in trace order, where
    ``entries`` holds ``(job_id, allocated, executing)`` triples:
    ``allocated`` processors were dedicated to the job over
    ``[t0, t1)`` (the paper's processor-step accounting), of which
    ``executing`` ran ready nodes.  Empty intervals are dropped and
    contiguous slices with identical entries merge, so decision rounds
    that changed nothing leave one slice.  ``shard`` selects the
    events' shard tag (``None``: a single engine or service).
    """
    slices: list[tuple[int, int, tuple[tuple[int, int, int], ...]]] = []
    for event in events:
        _seq, ev_shard, t0, kind, _job, data = _as_tuple(event)
        if kind != "slice" or ev_shard != shard or not data:
            continue
        t1 = data["t1"]
        if t1 <= t0:
            continue
        entries = tuple(tuple(entry) for entry in data.get("entries", ()))
        if slices:
            last_t0, last_t1, last_entries = slices[-1]
            if last_t1 == t0 and last_entries == entries:
                slices[-1] = (last_t0, t1, entries)
                continue
        slices.append((t0, t1, entries))
    return slices


def recompute_profit(events: Iterable[Any]) -> float:
    """Sum of profit over completion events, in trace order.

    Per shard this is the same float addition order the engine's record
    table uses (expired/abandoned records contribute exactly ``0.0``),
    so the result is bit-equal to the engine-reported total profit.
    """
    total = 0.0
    for event in events:
        _seq, _shard, _t, kind, _job, data = _as_tuple(event)
        if kind == "completion" and data:
            total += float(data.get("profit", 0.0))
    return total


def recompute_profit_by_shard(
    events: Iterable[Any],
) -> dict[Optional[int], float]:
    """Per-shard completion-profit sums, each in trace order.

    Summing the returned values in shard-index order reproduces a
    cluster result's ``total_profit`` bit-for-bit (it sums per-shard
    profits in the same order).
    """
    totals: dict[Optional[int], float] = {}
    for event in events:
        _seq, shard, _t, kind, _job, data = _as_tuple(event)
        if kind == "completion" and data:
            totals[shard] = totals.get(shard, 0.0) + float(
                data.get("profit", 0.0)
            )
    return totals


def validate_trace(events: Sequence[Any]) -> list[str]:
    """Check every trace-completeness invariant; returns the violations.

    An empty list means the trace is well-formed:

    * every submitted job has exactly one terminal event;
    * no job has events outside its ``[start, end]`` lifecycle window;
    * per-machine execution intervals never overlap;
    * slice intervals are well-ordered (``t0 < t1``).
    """
    problems: list[str] = []
    normalized = [_as_tuple(ev) for ev in events]
    spans = build_spans(normalized)
    submitted = submitted_ids(normalized)

    for job_id in sorted(submitted):
        span = spans.get(job_id)
        n_term = len(span.terminal_events) if span is not None else 0
        if n_term == 0:
            problems.append(f"job {job_id}: submitted but no terminal event")
        elif n_term > 1:
            problems.append(
                f"job {job_id}: {n_term} terminal events "
                f"{span.terminal_events} (expected exactly 1)"
            )
    for job_id, span in sorted(spans.items()):
        if job_id not in submitted and span.terminal_events:
            problems.append(
                f"job {job_id}: orphaned terminal event "
                f"(no submit/arrival/route recorded)"
            )

    for ev in normalized:
        _seq, _shard, t0, kind, job_id, data = ev
        if kind == "slice" and data:
            t1 = data["t1"]
            if not t0 < t1:
                problems.append(f"slice at t={t0}: empty interval t1={t1}")
            for entry in data.get("entries", ()):
                span = spans.get(int(entry[0]))
                if span is None:
                    problems.append(
                        f"slice at t={t0}: unknown job {entry[0]}"
                    )
                elif span.end is not None and t0 >= span.end:
                    problems.append(
                        f"slice at t={t0}: job {entry[0]} already "
                        f"terminal at t={span.end}"
                    )

    for (shard, lane), intervals in sorted(
        machine_intervals(normalized).items(),
        key=lambda item: (item[0][0] is not None, item[0]),
    ):
        prev_end: Optional[int] = None
        for t0, t1, job_id in intervals:
            if prev_end is not None and t0 < prev_end:
                problems.append(
                    f"machine (shard={shard}, lane={lane}): job {job_id} "
                    f"slice [{t0}, {t1}) overlaps previous end {prev_end}"
                )
            prev_end = t1
    return problems
