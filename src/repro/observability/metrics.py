"""Ring-buffered histograms for hot-path metrics.

:class:`RingHistogram` keeps a bounded window of the most recent
observations (decision latencies, queue depths, restart durations)
plus running aggregates over *all* observations -- count, total, min,
max -- so long runs get quantiles over a recent window and exact
lifetime totals without unbounded memory.

The whole simulation stack is single-threaded; "lock-free" here means
literally lock-free -- plain list writes, no synchronization, no
atomics -- so an ``observe`` costs one index, one store, and four
scalar updates.  Histograms extend the existing telemetry registry
(:meth:`repro.service.telemetry.MetricsRegistry.histogram`) but stay
out of its samples and checkpoints, keeping telemetry output and
snapshot formats bit-identical with or without observability.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


def _pick(ordered: list[float], q: float) -> Optional[float]:
    """Quantile ``q`` of an ascending list (None when empty)."""
    if not ordered:
        return None
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class RingHistogram:
    """Fixed-capacity ring of observations with running aggregates."""

    __slots__ = (
        "name", "capacity", "count", "total", "min", "max", "_ring", "_pos"
    )

    def __init__(self, name: str, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("histogram capacity must be >= 1")
        self.name = name
        self.capacity = int(capacity)
        #: lifetime number of observations (>= len(window))
        self.count = 0
        #: lifetime sum of observations
        self.total = 0.0
        #: lifetime minimum (None until the first observation)
        self.min: Optional[float] = None
        #: lifetime maximum (None until the first observation)
        self.max: Optional[float] = None
        self._ring: list[float] = []
        # next overwrite slot once full == index of the oldest retained
        # observation (an explicit cursor, not count % capacity, so a
        # merge can normalize the ring without faking a lifetime count)
        self._pos = 0

    def observe(self, value: float) -> None:
        """Record one observation (overwrites the oldest when full)."""
        value = float(value)
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(value)
        else:
            ring[self._pos] = value
            self._pos += 1
            if self._pos == self.capacity:
                self._pos = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_from(self, other: "RingHistogram") -> None:
        """Fold another histogram into this one (``other`` unchanged).

        The one-input case of :meth:`merge_many`.
        """
        self.merge_many((other,))

    def merge_many(self, others: Iterable["RingHistogram"]) -> None:
        """Fold histograms into this one in order, in one pass.

        Lifetime aggregates (count, total, min, max) combine exactly,
        folded in input order.  The window keeps the newest ``capacity``
        observations of this window followed by each input's window in
        turn -- later inputs count as more recent, the convention
        :func:`repro.service.telemetry.merge_registries` relies on when
        rolling per-shard histograms into a cluster view, where
        cross-shard observation order is not defined anyway; windowed
        quantiles over the merged window are the cluster-level
        approximation.  The result equals merging the inputs one by
        one, but each window is copied once instead of once per input.
        Inputs are unchanged; empty ones are skipped.
        """
        merged: Optional[list[float]] = None
        count, total, lo, hi = self.count, self.total, self.min, self.max
        for other in others:
            if other.count == 0:
                continue
            if merged is None:
                merged = self.window()
            ring, pos = other._ring, other._pos
            merged += ring[pos:]
            merged += ring[:pos]
            count += other.count
            total += other.total
            if lo is None or (other.min is not None and other.min < lo):
                lo = other.min
            if hi is None or (other.max is not None and other.max > hi):
                hi = other.max
        if merged is None:
            return
        self._ring = merged[-self.capacity:]
        self._pos = 0
        self.count, self.total, self.min, self.max = count, total, lo, hi

    def window(self) -> list[float]:
        """Retained observations, oldest first."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._pos:] + self._ring[: self._pos]

    def quantile(self, q: float) -> Optional[float]:
        """Windowed quantile ``q`` in [0, 1] (None when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._ring:
            return None
        return _pick(sorted(self._ring), q)

    @property
    def mean(self) -> float:
        """Lifetime mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, Any]:
        """Flat JSON-compatible summary: lifetime aggregates plus
        windowed p50/p90/p99 (one sort of the window for all three)."""
        ordered = sorted(self._ring)
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": _pick(ordered, 0.50),
            "p90": _pick(ordered, 0.90),
            "p99": _pick(ordered, 0.99),
        }

    def __len__(self) -> int:
        """Number of retained (windowed) observations."""
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingHistogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.6g})"
        )
