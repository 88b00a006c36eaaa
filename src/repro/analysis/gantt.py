"""ASCII Gantt rendering of execution traces.

Dependency-free visualization for examples, debugging and docs: one row
per job, one column per time bin; cell glyphs encode how many
processors the job held during the bin.  Both renderers read the run's
recorder trace through
:func:`~repro.observability.spans.allocation_slices`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.observability.spans import allocation_slices
from repro.sim.engine import SimulationResult

#: glyph ramp for processors-held intensity
_RAMP = " .:-=+*#%@"


def _run_slices(
    result: SimulationResult, events: Sequence[Any], caller: str
) -> list[tuple[int, int, tuple[tuple[int, int, int], ...]]]:
    """The run's allocation slices; a run with jobs but no events has no
    trace to read, which is a caller error."""
    if not events and result.records:
        raise ValueError(
            f"{caller} needs the run's recorder events "
            "(run with recorder=TraceRecorder())"
        )
    return allocation_slices(events)


def _bins(start: float, end: float, bins: int, bin_width: float):
    """``(bin, overlap)`` for every bin the interval ``[start, end)`` covers."""
    b_lo = int(start / bin_width)
    b_hi = min(bins - 1, int((end - 1e-9) / bin_width))
    for b in range(b_lo, b_hi + 1):
        lo = max(start, b * bin_width)
        hi = min(end, (b + 1) * bin_width)
        if hi > lo:
            yield b, hi - lo


def render_gantt(
    result: SimulationResult,
    events: Sequence[Any],
    width: int = 72,
    max_jobs: Optional[int] = 24,
    show_deadlines: bool = True,
) -> str:
    """Render the run's trace as an ASCII Gantt chart.

    ``events`` is the run's trace: the ``events`` of the
    :class:`~repro.observability.recorder.TraceRecorder` it ran with,
    or a trace file loaded back.  Each row is a job; glyph intensity is
    the fraction of the machine the job held during that time bin,
    ``|`` marks the deadline bin and ``x`` an expiry.
    """
    slices = _run_slices(result, events, "render_gantt")
    if not slices:
        return "(empty trace)"
    t0 = slices[0][0]
    t1 = slices[-1][1]
    horizon = max(1, t1 - t0)
    bins = min(width, horizon)
    bin_width = horizon / bins

    # accumulate processor-time per (job, bin)
    job_ids = sorted(result.records)
    if max_jobs is not None and len(job_ids) > max_jobs:
        job_ids = job_ids[:max_jobs]
    usage = {jid: [0.0] * bins for jid in job_ids}
    for s0, s1, entries in slices:
        # distribute the slice's allocation over the bins it spans
        spread = list(_bins(s0 - t0, s1 - t0, bins, bin_width))
        for jid, alloc, _ in entries:
            if jid in usage:
                row = usage[jid]
                for b, overlap in spread:
                    row[b] += alloc * overlap

    lines = [
        f"t = [{t0}, {t1})  ({bins} bins of {bin_width:.3g} steps, "
        f"m = {result.m})"
    ]
    label_width = max((len(f"J{jid}") for jid in job_ids), default=0)
    for jid in job_ids:
        record = result.records[jid]
        row = []
        for b, amount in enumerate(usage[jid]):
            density = amount / (bin_width * result.m)
            glyph = _RAMP[min(len(_RAMP) - 1, int(density * (len(_RAMP) - 1) + 0.999))] \
                if density > 0 else " "
            row.append(glyph)
        line = "".join(row)
        if show_deadlines:
            deadline = record.deadline or record.assigned_deadline
            if deadline is not None and t0 <= deadline <= t1:
                pos = min(bins - 1, int((deadline - t0) / bin_width))
                marker = "x" if record.expired else "|"
                line = line[:pos] + marker + line[pos + 1:]
        status = (
            "done" if record.completed else
            "EXPIRED" if record.expired else
            "abandoned" if record.abandoned else "?"
        )
        lines.append(f"J{jid:<{label_width - 1}} [{line}] {status}")
    return "\n".join(lines)


def render_utilization(
    result: SimulationResult, events: Sequence[Any], width: int = 72
) -> str:
    """One-line machine-utilization sparkline over the run's trace."""
    slices = _run_slices(result, events, "render_utilization")
    if not slices:
        return "(empty trace)"
    t0, t1 = slices[0][0], slices[-1][1]
    horizon = max(1, t1 - t0)
    bins = min(width, horizon)
    bin_width = horizon / bins
    busy = [0.0] * bins
    for s0, s1, entries in slices:
        executing = sum(e for _, _, e in entries)
        for b, overlap in _bins(s0 - t0, s1 - t0, bins, bin_width):
            busy[b] += executing * overlap
    glyphs = []
    for amount in busy:
        frac = amount / (bin_width * result.m)
        glyphs.append(_RAMP[min(len(_RAMP) - 1, int(frac * (len(_RAMP) - 1) + 0.5))])
    return "util [" + "".join(glyphs) + "]"
