"""Observability: structured tracing, hot-path metrics, and profiling.

The package instruments the event-driven engine, the scheduling
service, the sharded cluster and the resilience supervisor with:

* **tracing** (:mod:`~repro.observability.recorder`) -- structured
  events for every job lifecycle transition and engine decision point,
  behind a near-zero-cost no-op recorder when disabled;
* **span analysis** (:mod:`~repro.observability.spans`) -- lifecycle
  span reconstruction, the allocation-slice projection behind Gantt
  charts and slice checks, and trace-completeness invariants;
* **metrics** (:mod:`~repro.observability.metrics`) -- ring-buffered
  histograms extending the telemetry registry;
* **profiling** (:mod:`~repro.observability.profiler`) -- wall-clock
  timing of named engine hot-path sections;
* **exporters** (:mod:`~repro.observability.export`) -- JSONL and
  Chrome trace-event formats with lossless round-trips;
* **``repro-trace``** (:mod:`~repro.observability.cli`) -- a CLI to
  summarize, filter, convert and validate trace files.

See ``docs/OBSERVABILITY.md`` for the guarantees (bit-identity with
tracing on/off, exactly-once spans under shard recovery, overhead
gates) and usage examples.
"""

from repro.observability.export import (
    from_chrome,
    read_chrome,
    read_jsonl,
    to_chrome,
    to_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.observability.metrics import RingHistogram
from repro.observability.profiler import Profiler
from repro.observability.recorder import (
    EVENT_KINDS,
    NULL_RECORDER,
    NullRecorder,
    ShardRecorder,
    SliceData,
    TraceRecorder,
    event_data,
    scheduler_admission,
)
from repro.observability.spans import (
    SUBMIT_KINDS,
    TERMINAL_KINDS,
    JobSpan,
    allocation_slices,
    build_spans,
    machine_intervals,
    recompute_profit,
    recompute_profit_by_shard,
    submitted_ids,
    validate_trace,
)

__all__ = [
    "EVENT_KINDS",
    "NULL_RECORDER",
    "NullRecorder",
    "ShardRecorder",
    "SliceData",
    "TraceRecorder",
    "event_data",
    "scheduler_admission",
    "RingHistogram",
    "Profiler",
    "SUBMIT_KINDS",
    "TERMINAL_KINDS",
    "JobSpan",
    "allocation_slices",
    "build_spans",
    "machine_intervals",
    "recompute_profit",
    "recompute_profit_by_shard",
    "submitted_ids",
    "validate_trace",
    "from_chrome",
    "read_chrome",
    "read_jsonl",
    "to_chrome",
    "to_jsonl",
    "write_chrome",
    "write_jsonl",
]
