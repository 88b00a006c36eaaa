"""Lightweight metrics for the scheduling service.

A :class:`MetricsRegistry` holds named counters (monotone totals:
admissions, sheds, completions) and gauges (instantaneous values: queue
depth, jobs in flight, utilization).  The service samples the registry
at decision points; each sample is a flat dict stamped with simulated
time, retained in memory and/or streamed to a JSONL sink, so a metrics
log can be tailed live or post-processed with any JSON tooling.

No external dependencies, no threads, no wall-clock: simulated time is
the only clock, which keeps telemetry deterministic and replayable.
"""

from __future__ import annotations

import json
import os
from typing import Any, IO, Iterable, Optional

#: Gauges that are averaged (not summed) by :func:`merge_registries` --
#: ratios and rates, where summing across shards is meaningless.
MEAN_GAUGES: tuple[str, ...] = ("utilization", "profit_rate")


class Counter:
    """Monotone accumulator (floats allowed -- profit is a counter too)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """Instantaneous value, overwritten at every observation."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class MetricsRegistry:
    """Named counters and gauges with time-stamped sampling.

    Parameters
    ----------
    sink:
        Optional text file-like object; every sample is written to it as
        one JSON line immediately (streaming export).
    keep_samples:
        Retain samples in :attr:`samples` (default).  Disable for long
        runs that only stream to a sink.
    """

    def __init__(
        self, sink: Optional[IO[str]] = None, keep_samples: bool = True
    ) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Any] = {}
        self._mean_counts: dict[str, int] = {}
        self.sink = sink
        self.keep_samples = bool(keep_samples)
        #: retained samples, one flat dict per call to :meth:`sample`
        self.samples: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the counter called ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get (or lazily create) the gauge called ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, capacity: int = 1024) -> Any:
        """Get (or lazily create) the ring histogram called ``name``.

        Histograms (see
        :class:`~repro.observability.metrics.RingHistogram`) record
        distributions -- decision latency, queue depth, restart
        duration -- that counters and gauges flatten away.  They stay
        out of :meth:`values`, :meth:`sample` and :meth:`state_to_dict`
        deliberately: samples and checkpoints remain bit-identical
        whether or not anything observes a histogram.
        """
        metric = self._histograms.get(name)
        if metric is None:
            from repro.observability.metrics import RingHistogram

            metric = self._histograms[name] = RingHistogram(
                name, capacity=capacity
            )
        return metric

    def histograms(self) -> dict[str, dict[str, Any]]:
        """Summaries of every histogram (see ``RingHistogram.summary``)."""
        return {
            name: self._histograms[name].summary()
            for name in sorted(self._histograms)
        }

    def histogram_summary(self, name: str) -> dict[str, Any]:
        """Summary of one histogram, ``{}`` when it does not exist (it
        is not created)."""
        hist = self._histograms.get(name)
        return hist.summary() if hist is not None else {}

    def values(self) -> dict[str, float]:
        """Current value of every metric, counters before gauges."""
        out: dict[str, float] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].value
        return out

    # ------------------------------------------------------------------
    def sample(self, t: int) -> dict[str, Any]:
        """Snapshot every metric at simulated time ``t``.

        The sample is appended to :attr:`samples` (when retained) and
        written to the sink (when set); it is also returned.
        """
        record: dict[str, Any] = {"t": int(t)}
        record.update(self.values())
        if self.keep_samples:
            self.samples.append(record)
        if self.sink is not None:
            self.sink.write(json.dumps(record) + "\n")
        return record

    def to_jsonl(self) -> str:
        """Render all retained samples as a JSONL string."""
        return "".join(json.dumps(s) + "\n" for s in self.samples)

    def write_jsonl(self, path: str) -> None:
        """Write all retained samples to a JSONL file, crash-safely.

        The samples are rendered into a sibling temp file which is
        fsynced, then atomically renamed over ``path`` (``os.replace``)
        and the containing directory fsynced, so a process killed
        mid-export -- a faulted cluster shard, a SIGKILLed service, a
        power cut -- never leaves a truncated or corrupt file behind:
        readers see either the previous complete file or the new one,
        and the rename itself is durable.
        """
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.to_jsonl())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # make the rename durable: fsync the directory entry too
        parent = os.path.dirname(os.path.abspath(path))
        try:
            fd = os.open(parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync on dirs unsupported
            pass
        finally:
            os.close(fd)

    def merge_from(
        self,
        other: "MetricsRegistry",
        *,
        mean_gauges: Iterable[str] = MEAN_GAUGES,
    ) -> None:
        """Fold ``other``'s metric values into this registry.

        Counters add.  Gauges add too -- queue depths, in-flight counts
        and completion totals across shards are naturally additive --
        except the names in ``mean_gauges`` (ratios/rates), which are
        accumulated so that :func:`merge_registries` can average them.
        Histograms merge exactly in their lifetime aggregates and keep
        the newest ``capacity`` windowed observations (see
        :meth:`~repro.observability.metrics.RingHistogram.merge_from`),
        so a cluster roll-up can report p50/p99 admission latency and
        queue depth without a parallel metrics path.  Samples are log
        output, not state, and are not merged.
        """
        self._merge_all((other,), frozenset(mean_gauges))

    def _merge_all(
        self, others: Iterable["MetricsRegistry"], mean: frozenset[str]
    ) -> None:
        """Fold ``others`` in order: counters and gauges one registry at
        a time, each histogram in one n-ary pass over all its inputs
        (:meth:`~repro.observability.metrics.RingHistogram.merge_many`),
        which equals folding the registries in one by one."""
        groups: dict[str, list[Any]] = {}
        for other in others:
            for name, counter in other._counters.items():
                self.counter(name).inc(counter.value)
            for name, gauge in other._gauges.items():
                mine = self.gauge(name)
                mine.set(mine.value + gauge.value)
            for name, hist in other._histograms.items():
                group = groups.get(name)
                if group is None:
                    groups[name] = [hist]
                else:
                    group.append(hist)
            # remember how many registries fed each mean gauge so the
            # final averaging in merge_registries can divide correctly
            for name in mean:
                if name in other._gauges:
                    self._mean_counts[name] = self._mean_counts.get(name, 0) + 1
        for name, group in groups.items():
            # a histogram missing here takes its first input's capacity
            self.histogram(name, capacity=group[0].capacity).merge_many(group)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_to_dict(self) -> dict[str, Any]:
        """Serialize metric values (samples are log output, not state)."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
        }

    def restore_from_dict(self, data: dict[str, Any]) -> None:
        """Restore metric values from :meth:`state_to_dict` output."""
        for name, value in data["counters"].items():
            self.counter(name).value = float(value)
        for name, value in data["gauges"].items():
            self.gauge(name).set(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, samples={len(self.samples)})"
        )


def merge_registries(
    registries: Iterable["MetricsRegistry"],
    *,
    mean_gauges: Iterable[str] = MEAN_GAUGES,
) -> MetricsRegistry:
    """Roll per-shard registries up into one cluster-level view.

    Returns a fresh registry where every counter is the sum over the
    inputs, every gauge is the sum, and the gauges named in
    ``mean_gauges`` (default :data:`MEAN_GAUGES` -- ratios and rates)
    are the mean over the registries that define them.  The inputs are
    not modified.

    >>> a, b = MetricsRegistry(), MetricsRegistry()
    >>> a.counter("completed_total").inc(3); a.gauge("utilization").set(0.5)
    >>> b.counter("completed_total").inc(4); b.gauge("utilization").set(1.0)
    >>> merged = merge_registries([a, b])
    >>> merged.values()
    {'completed_total': 7.0, 'utilization': 0.75}
    """
    # Materialize once: a single-use iterator passed as ``mean_gauges``
    # would otherwise be exhausted by the first registry's mean-gauge
    # bookkeeping, silently dropping the mean roll-up for the others.
    merged = MetricsRegistry()
    merged._merge_all(registries, frozenset(mean_gauges))
    for name, count in merged._mean_counts.items():
        if count > 1:
            gauge = merged.gauge(name)
            gauge.set(gauge.value / count)
    merged._mean_counts = {}
    return merged
