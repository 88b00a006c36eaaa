"""Live KPI aggregation and the feed the gateway publishes it on.

:class:`KpiAggregator` turns one tick's cluster state -- the merged
:meth:`~repro.cluster.service.ClusterService.live_metrics` roll-up plus
gateway-side counters -- into a flat JSON-serializable snapshot:
rolling profit rate, shed fraction (gateway drops *and* scheduler
sheds), queue depth, and p50/p99 admission latency straight from the
service's own ``admission_latency`` histogram.  No parallel metrics
path: what the feed reports is what the final result reports.

:class:`KpiFeed` is the fan-out half: a bounded history of snapshots
with a condition variable so any number of consumers (the SSE server,
a JSONL writer, a test) can block for "everything after sequence N"
without polling, and a ``close()`` that wakes them all for shutdown.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Optional

from repro.service.telemetry import MetricsRegistry


class KpiAggregator:
    """Windowed KPI computation over cumulative cluster metrics.

    Rates (``profit_rate``, ``arrival_rate``) are computed over a
    rolling window of the last ``window`` snapshots by differencing the
    cumulative totals, so the feed shows "profit per simulated step
    *lately*", not a lifetime average that flattens every transient the
    gateway exists to surface.
    """

    def __init__(self, window: int = 20) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        # (sim_t, profit_total, offered_total) marks, oldest first
        self._marks: deque[tuple[int, float, float]] = deque(maxlen=window)

    def snapshot(
        self,
        *,
        tick: int,
        sim_t: int,
        wall_s: float,
        metrics: MetricsRegistry,
        active_shards: int,
        queue_depth: int,
        in_flight: int,
        generated: int,
        gateway_shed: int,
        buffer_depth: int,
        degraded_shards: int = 0,
        degradation: str = "normal",
    ) -> dict[str, Any]:
        """Build one KPI snapshot dict from this tick's state."""
        values = metrics.values()
        profit = float(values.get("profit_total", 0.0))
        submitted = float(values.get("submitted_total", 0.0))
        shed = float(values.get("shed_total", 0.0))
        completed = float(values.get("completed_total", 0.0))
        offered = submitted + gateway_shed
        shed_fraction = (shed + gateway_shed) / offered if offered else 0.0

        self._marks.append((sim_t, profit, offered))
        t0, profit0, offered0 = self._marks[0]
        span = max(1, sim_t - t0)
        profit_rate = (profit - profit0) / span if len(self._marks) > 1 else 0.0
        arrival_rate = (
            (offered - offered0) / span if len(self._marks) > 1 else 0.0
        )

        latency = metrics.histogram_summary("admission_latency")
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
            "degradation": str(degradation),
        }


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
        return "".join(json.dumps(s) + "\n" for s in self.history())

    def write_jsonl(self, path: str) -> None:
        """Write the retained history to ``path`` as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KpiFeed(seq={self.last_seq}, closed={self.closed})"
