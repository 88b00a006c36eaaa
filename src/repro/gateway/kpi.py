"""Live KPI aggregation and the feed the gateway publishes it on.

:class:`KpiAggregator` turns one tick's cluster state -- the live
registries :meth:`~repro.cluster.service.ClusterService.live_metrics`
rolls up, read in place, plus gateway-side counters -- into a flat
JSON-serializable snapshot: rolling profit rate, shed fraction (gateway
drops *and* scheduler sheds), queue depth, and p50/p99 admission
latency straight from the services' own ``admission_latency``
histograms.  No parallel metrics path: every field equals what the
merged :class:`~repro.service.telemetry.MetricsRegistry` roll-up would
report, and what the feed reports is what the final result reports.

:class:`KpiFeed` is the fan-out half: a bounded history of snapshots
with a condition variable so any number of consumers (the SSE server,
a progress printer, a test) can block for "everything after sequence
N" without polling, and a ``close()`` that wakes them all for shutdown.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Iterable, Optional, Sequence

from repro.observability.metrics import MergedWindow
from repro.service.service import KPI_HISTOGRAM, KPI_TOTALS
from repro.service.telemetry import MetricsRegistry, write_text_atomic

#: Snapshots a rolling rate spans (``profit_rate``, ``arrival_rate``).
RATE_WINDOW = 20


def _total(registries: Sequence[MetricsRegistry], name: str) -> float:
    """``merge_registries(registries).values().get(name, 0.0)`` for a
    summed metric: the same fold, in registry order from 0.0."""
    total = 0.0
    for registry in registries:
        total += registry.value(name)
    return total


class KpiAggregator:
    """Windowed KPI computation over cumulative cluster metrics.

    Rates (``profit_rate``, ``arrival_rate``) are computed over a
    rolling window of the last :data:`RATE_WINDOW` snapshots by
    differencing the cumulative totals, so the feed shows "profit per
    simulated step *lately*", not a lifetime average that flattens
    every transient the gateway exists to surface.

    The admission-latency quantiles come from a
    :class:`~repro.observability.metrics.MergedWindow` the aggregator
    keeps across ticks, so a tick costs the observations that arrived
    since the last one, not a copy and a sort of the merged window.
    """

    def __init__(self) -> None:
        # (sim_t, profit_total, offered_total) marks, oldest first
        self._marks: deque[tuple[int, float, float]] = deque(
            maxlen=RATE_WINDOW
        )
        # the merged admission-latency window, updated in place each tick
        self._latency = MergedWindow()

    def snapshot(
        self,
        *,
        tick: int,
        sim_t: int,
        wall_s: float,
        registries: Sequence[MetricsRegistry],
        active_shards: int,
        queue_depth: int,
        in_flight: int,
        generated: int,
        gateway_shed: int,
        buffer_depth: int,
        degraded_shards: int = 0,
    ) -> dict[str, Any]:
        """Build one KPI snapshot dict from this tick's state.

        ``registries`` are the live registries the cluster roll-up
        merges (:meth:`~repro.cluster.service.ClusterService.
        live_registries`), read in place.
        """
        profit, submitted, shed, completed = (
            _total(registries, name) for name in KPI_TOTALS
        )
        offered = submitted + gateway_shed
        shed_fraction = (shed + gateway_shed) / offered if offered else 0.0

        self._marks.append((sim_t, profit, offered))
        t0, profit0, offered0 = self._marks[0]
        span = max(1, sim_t - t0)
        rated = len(self._marks) > 1
        profit_rate = (profit - profit0) / span if rated else 0.0
        arrival_rate = (offered - offered0) / span if rated else 0.0
        found = [
            h
            for h in (r.find_histogram(KPI_HISTOGRAM) for r in registries)
            if h is not None
        ]
        latency = self._latency.summary(found) if found else {}
        return {
            "tick": int(tick),
            "sim_t": int(sim_t),
            "wall_s": round(float(wall_s), 6),
            "active_shards": int(active_shards),
            "queue_depth": int(queue_depth),
            "in_flight": int(in_flight),
            "buffer_depth": int(buffer_depth),
            "generated_total": int(generated),
            "submitted_total": submitted,
            "completed_total": completed,
            "shed_total": shed,
            "gateway_shed_total": int(gateway_shed),
            "shed_fraction": shed_fraction,
            "profit_total": profit,
            "profit_rate": profit_rate,
            "arrival_rate": arrival_rate,
            "admission_latency_p50": latency.get("p50"),
            "admission_latency_p99": latency.get("p99"),
            "admission_latency_mean": latency.get("mean"),
            "degraded_shards": int(degraded_shards),
        }


def snapshots_to_jsonl(snapshots: Iterable[dict[str, Any]]) -> str:
    """Render KPI snapshots as JSON lines."""
    return "".join(json.dumps(s) + "\n" for s in snapshots)


class KpiFeed:
    """Thread-safe sequenced snapshot feed with blocking consumption.

    The gateway loop is the only producer; consumers call
    :meth:`wait_for` with the last sequence number they saw and block
    until newer snapshots arrive or the feed closes.
    """

    def __init__(self, history: int = 1024) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self._cond = threading.Condition()
        self._snapshots: deque[tuple[int, dict[str, Any]]] = deque(
            maxlen=history
        )
        self._seq = 0
        self.closed = False

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest published snapshot (0 = none)."""
        with self._cond:
            return self._seq

    def publish(self, snapshot: dict[str, Any]) -> int:
        """Append a snapshot, assign it a sequence number, wake waiters."""
        with self._cond:
            if self.closed:
                raise RuntimeError("feed is closed")
            self._seq += 1
            self._snapshots.append((self._seq, snapshot))
            self._cond.notify_all()
            return self._seq

    def close(self) -> None:
        """Mark the feed finished and wake every blocked consumer."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def wait_for(
        self, after_seq: int, timeout: Optional[float] = 1.0
    ) -> list[tuple[int, dict[str, Any]]]:
        """Snapshots newer than ``after_seq``, blocking while none exist.

        Returns immediately-available newer snapshots (within retained
        history), else blocks up to ``timeout`` seconds for the next
        publish.  An empty list means timeout or a closed, drained feed.
        """
        with self._cond:
            if self._seq <= after_seq and not self.closed:
                self._cond.wait_for(
                    lambda: self._seq > after_seq or self.closed,
                    timeout=timeout,
                )
            return [(s, snap) for s, snap in self._snapshots if s > after_seq]

    def history(self) -> list[dict[str, Any]]:
        """All retained snapshots, oldest first."""
        with self._cond:
            return [snap for _, snap in self._snapshots]

    def to_jsonl(self) -> str:
        """Render the retained history as JSON lines."""
        return snapshots_to_jsonl(self.history())

    def write_jsonl(self, path: str) -> None:
        """Write the retained history to ``path`` as JSONL, crash-safely
        (:func:`~repro.service.telemetry.write_text_atomic`)."""
        write_text_atomic(path, self.to_jsonl())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KpiFeed(seq={self.last_seq}, closed={self.closed})"
