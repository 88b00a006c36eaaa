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

from bisect import bisect_left, insort
from collections import deque
from itertools import chain
from typing import Any, Iterable, Optional, Sequence


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
        one; only the retained tail is copied (:func:`tail_window`).
        Inputs are unchanged; empty ones are skipped.
        """
        inputs = [other for other in others if other.count]
        if not inputs:
            return
        self.count, self.total, self.min, self.max = _fold(
            inputs, self.count, self.total, self.min, self.max
        )
        self._ring = tail_window([self] + inputs, self.capacity)
        self._pos = 0

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
        return _summary(
            self.count, self.total, self.min, self.max, sorted(self._ring)
        )

    def __len__(self) -> int:
        """Number of retained (windowed) observations."""
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingHistogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.6g})"
        )


def _summary(
    count: int,
    total: float,
    lo: Optional[float],
    hi: Optional[float],
    ordered: list[float],
) -> dict[str, Any]:
    """The summary dict of lifetime aggregates and an ascending window."""
    return {
        "count": count,
        "total": total,
        "mean": total / count if count else 0.0,
        "min": lo,
        "max": hi,
        "p50": _pick(ordered, 0.50),
        "p90": _pick(ordered, 0.90),
        "p99": _pick(ordered, 0.99),
    }


def _fold(
    histograms: Iterable[RingHistogram],
    count: int,
    total: float,
    lo: Optional[float],
    hi: Optional[float],
) -> tuple[int, float, Optional[float], Optional[float]]:
    """Lifetime aggregates folded over ``histograms`` in order."""
    for h in histograms:
        count += h.count
        total += h.total
        if lo is None or (h.min is not None and h.min < lo):
            lo = h.min
        if hi is None or (h.max is not None and h.max > hi):
            hi = h.max
    return count, total, lo, hi


def _shares(lengths: Sequence[int], capacity: int) -> list[int]:
    """How many of each window's newest observations the newest
    ``capacity`` of the concatenated windows keep, given the window
    lengths in input order (later windows count as more recent)."""
    shares = [0] * len(lengths)
    need = capacity
    for i in range(len(lengths) - 1, -1, -1):
        if need <= 0:
            break
        take = shares[i] = min(lengths[i], need)
        need -= take
    return shares


def _newest(h: RingHistogram, k: int) -> list[float]:
    """The newest ``k`` (``1 <= k <= len(h)``) observations of ``h``'s
    window, oldest first."""
    ring, pos = h._ring, h._pos
    # window = ring[pos:] (older) + ring[:pos] (newer)
    if k <= pos:
        return ring[pos - k:pos]
    return ring[len(ring) - (k - pos):] + ring[:pos]


def tail_window(
    histograms: Sequence[RingHistogram], capacity: int
) -> list[float]:
    """Newest ``capacity`` observations of the concatenated windows.

    The windows join in input order (later histograms count as more
    recent) and the result is oldest first: for ``capacity >= 1`` it
    equals ``sum((h.window() for h in histograms), [])[-capacity:]``.
    It copies at most ``capacity`` observations, so a roll-up of k full
    windows costs one window, not k.  The one merge rule behind
    :meth:`RingHistogram.merge_many`, :func:`merged_summary` and
    :class:`MergedWindow`.
    """
    shares = _shares([len(h._ring) for h in histograms], capacity)
    out: list[float] = []
    for h, share in zip(histograms, shares):
        if share:
            out += _newest(h, share)
    return out


def merged_summary(histograms: Sequence[RingHistogram]) -> dict[str, Any]:
    """Summary of a merge of ``histograms``, without building it.

    Equals :meth:`RingHistogram.summary` of a fresh histogram with the
    first input's capacity after :meth:`~RingHistogram.merge_many` over
    ``histograms``, computed from the inputs in place.  ``histograms``
    must be non-empty.
    """
    inputs = [h for h in histograms if h.count]
    count, total, lo, hi = _fold(inputs, 0, 0.0, None, None)
    return _summary(
        count,
        total,
        lo,
        hi,
        sorted(tail_window(inputs, histograms[0].capacity)),
    )


class MergedWindow:
    """:func:`merged_summary` kept current one observation at a time.

    :meth:`summary` equals ``merged_summary(histograms)`` on every call.
    Between calls it keeps, for each input, the observations it holds in
    the merged window (its newest, oldest first), and one ascending list
    of the whole merged window.  A call then deletes the observations
    that fell out and inserts the new ones by bisection, so it costs
    O(inputs + new observations), not a copy and a sort of the window.

    The update assumes each input changed since the last call the way
    :meth:`RingHistogram.observe` changes it: its window is the previous
    window followed by ``d`` new observations, ``d`` the growth of its
    count.  Each call checks what that implies -- the same histogram
    objects, ``0 <= d <= capacity``, the ring length and cursor ``d``
    appends leave, and the previous newest observation ``d`` places
    back -- and rebuilds from the inputs when any of it fails: a scale
    or a respawned mirror changes the inputs, a telemetry fold
    overwrites a count, a merge renormalizes a ring.

    Observations that compare equal are interchangeable in the sorted
    list, so ``0.0``/``-0.0`` mixes and NaNs (which admission latencies
    never are) are out of scope.
    """

    __slots__ = ("_held", "_capacity", "_ordered")

    def __init__(self) -> None:
        # per input: [histogram, count, window length (0 while the count
        # is), cursor, newest observation, deque of its held observations]
        self._held: list[list[Any]] = []
        self._capacity = 0
        self._ordered: list[float] = []

    def summary(self, histograms: Sequence[RingHistogram]) -> dict[str, Any]:
        """``merged_summary(histograms)``; ``histograms`` must be
        non-empty."""
        if not self._advance(histograms):
            self._rebuild(histograms)
        inputs = [h for h in histograms if h.count]
        count, total, lo, hi = _fold(inputs, 0, 0.0, None, None)
        return _summary(count, total, lo, hi, self._ordered)

    def _rebuild(self, histograms: Sequence[RingHistogram]) -> None:
        capacity = histograms[0].capacity
        lengths = [len(h._ring) if h.count else 0 for h in histograms]
        held = []
        for h, length, share in zip(
            histograms, lengths, _shares(lengths, capacity)
        ):
            newest = h._ring[h._pos - 1] if length else None
            kept = deque(_newest(h, share) if share else ())
            held.append([h, h.count, length, h._pos, newest, kept])
        self._held = held
        self._capacity = capacity
        self._ordered = sorted(chain.from_iterable(s[5] for s in held))

    def _advance(self, histograms: Sequence[RingHistogram]) -> bool:
        """Fold the inputs' new observations in; False when the inputs
        did not change as :meth:`RingHistogram.observe` changes them."""
        held = self._held
        if (
            len(held) != len(histograms)
            or histograms[0].capacity != self._capacity
        ):
            return False
        deltas = [0] * len(held)
        for i, (h, state) in enumerate(zip(histograms, held)):
            hist, count, length, pos, newest, _ = state
            if h is not hist:
                return False
            d = h.count - count
            ring = h._ring
            if not d:
                if len(ring) != length or h._pos != pos or (
                    length and ring[pos - 1] is not newest
                ):
                    return False
                continue
            capacity = h.capacity
            if not 0 < d <= capacity:
                return False
            appended = min(d, capacity - length)
            after = length + appended
            cursor = (pos + d - appended) % capacity
            if len(ring) != after or h._pos != cursor:
                return False
            # the previous newest observation sits d places back
            if d < after and ring[cursor - 1 - d] is not newest:
                return False
            # updated before every input is checked: a later failure
            # rebuilds all of it
            state[1:5] = h.count, after, cursor, ring[cursor - 1]
            deltas[i] = d
        if not any(deltas):
            return True
        shares = _shares([state[2] for state in held], self._capacity)
        ordered = self._ordered
        for state, share, d in zip(held, shares, deltas):
            kept = state[5]
            new = min(d, share)
            # the oldest held observations fall out first
            for _ in range(len(kept) - (share - new)):
                del ordered[bisect_left(ordered, kept.popleft())]
            if new:
                for value in _newest(state[0], new):
                    kept.append(value)
                    insort(ordered, value)
        return True
