"""Density-band occupancy structure for the admission condition.

Condition (2) of the paper's scheduler admits a job :math:`J_i` only if,
for every job :math:`J_j` in the started set (including :math:`J_i`),
the total allotment of jobs with density in :math:`[v_j, c\\,v_j)` stays
at most :math:`b\\,m`.  :class:`DensityBands` maintains the multiset of
``(density, allotment)`` pairs and answers

* :meth:`band_load` -- the paper's :math:`N(T, v_1, v_2)`;
* :meth:`can_insert` -- the full condition (2) check, using the
  observation (also used in the paper's Lemma 18) that inserting a job
  of density :math:`v` only perturbs bands anchored at densities
  :math:`v_j \\in (v/c, v]`.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
from typing import Iterator


class DensityBands:
    """Multiset of (density, allotment) pairs with band-load queries.

    Densities are kept in a sorted list; loads are computed over slices.
    Sizes in this problem are modest (the started set never exceeds a
    few hundred jobs), so O(band width) per query is the right
    simplicity/performance trade-off -- profile before replacing with a
    Fenwick tree.
    """

    def __init__(self) -> None:
        self._densities: list[float] = []  # sorted ascending
        self._allotments: list[int] = []  # parallel to _densities
        self._keys: list[tuple[float, int]] = []  # (density, job_id), sorted
        self._jobs: dict[int, tuple[float, int]] = {}  # job_id -> (v, n)
        # Lazily rebuilt prefix sums over _allotments: band queries are
        # far more frequent than inserts/removes (every admission check
        # scans a band range), and allotments are ints, so prefix
        # differences are exact -- no float-order concerns.
        self._prefix: list[int] | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    def density_of(self, job_id: int) -> float:
        """Density of a tracked job."""
        return self._jobs[job_id][0]

    def allotment_of(self, job_id: int) -> int:
        """Allotment of a tracked job."""
        return self._jobs[job_id][1]

    def items(self) -> Iterator[tuple[int, float, int]]:
        """Iterate ``(job_id, density, allotment)`` in density order."""
        for v, job_id in self._keys:
            yield job_id, v, self._jobs[job_id][1]

    # ------------------------------------------------------------------
    def insert(self, job_id: int, density: float, allotment: int) -> None:
        """Track a job (no admission check -- see :meth:`can_insert`)."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already tracked")
        if density <= 0 or not math.isfinite(density):
            raise ValueError("density must be positive and finite")
        if allotment < 1:
            raise ValueError("allotment must be >= 1")
        key = (density, job_id)
        pos = bisect.bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._densities.insert(pos, density)
        self._allotments.insert(pos, allotment)
        self._jobs[job_id] = (density, allotment)
        self._prefix = None

    def remove(self, job_id: int) -> None:
        """Stop tracking a job."""
        density, _ = self._jobs.pop(job_id)
        pos = bisect.bisect_left(self._keys, (density, job_id))
        assert self._keys[pos] == (density, job_id)
        del self._keys[pos]
        del self._densities[pos]
        del self._allotments[pos]
        self._prefix = None

    # ------------------------------------------------------------------
    def _prefix_sums(self) -> list[int]:
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix = list(accumulate(self._allotments, initial=0))
        return prefix

    def band_load(self, v_lo: float, v_hi: float) -> int:
        """Total allotment of jobs with density in ``[v_lo, v_hi)`` --
        the paper's :math:`N(T, v_1, v_2)`."""
        lo = bisect.bisect_left(self._densities, v_lo)
        hi = bisect.bisect_left(self._densities, v_hi)
        prefix = self._prefix_sums()
        return prefix[hi] - prefix[lo]

    def load_at_least(self, v: float) -> int:
        """Total allotment of ``v``-dense jobs (density >= v)."""
        lo = bisect.bisect_left(self._densities, v)
        prefix = self._prefix_sums()
        return prefix[-1] - prefix[lo]

    def can_insert(
        self, density: float, allotment: int, c: float, capacity: float
    ) -> bool:
        """Condition (2): would inserting ``(density, allotment)`` keep
        every band load at most ``capacity``?

        Only bands anchored at jobs with density in ``(density/c,
        density]`` (including the new job's own band) can gain load, so
        only those are checked.  Precondition: the tracked set already
        satisfies the invariant (``max_band_load(c) <= capacity``) --
        which the scheduler maintains by only inserting after this
        check succeeds.
        """
        densities = self._densities
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix_sums()
        bl = bisect.bisect_left
        limit = capacity + 1e-9
        # The new job's own band [v, c v).
        lo = bl(densities, density)
        hi = bl(densities, c * density)
        if prefix[hi] - prefix[lo] + allotment > limit:
            return False
        # Existing anchors whose band [v_j, c v_j) contains the new density.
        lo = bisect.bisect_right(densities, density / c)
        hi = bisect.bisect_right(densities, density)
        prev_v = None
        for pos in range(lo, hi):
            v_j = densities[pos]
            if v_j == prev_v:
                continue  # duplicate anchor: identical band, already checked
            prev_v = v_j
            # every anchor in this range exceeds density/c >= densities[lo-1],
            # so the first occurrence of v_j in the sorted list is `pos`
            # itself -- no bisect needed for the band's lower edge
            b_hi = bl(densities, c * v_j)
            if prefix[b_hi] - prefix[pos] + allotment > limit:
                return False
        return True

    def blocking_band(
        self, density: float, allotment: int, c: float, capacity: float
    ) -> tuple[float, float, int] | None:
        """Condition (2) check that reports the violated band.

        Returns ``None`` exactly when :meth:`can_insert` would return
        ``True``; otherwise ``(v, c*v, load)`` for the first over-full
        band found (anchored at ``v``).  The promote scan uses the
        reported band to reject later candidates without re-scanning:
        band loads only grow during one promote pass, so any candidate
        whose density lies in ``[v, c*v)`` -- which makes the band one
        of the bands :meth:`can_insert` would check for it -- and whose
        allotment still overfills the *cached* load is provably
        rejected.
        """
        densities = self._densities
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix_sums()
        bl = bisect.bisect_left
        limit = capacity + 1e-9
        # The new job's own band [v, c v).
        lo = bl(densities, density)
        hi = bl(densities, c * density)
        load = prefix[hi] - prefix[lo]
        if load + allotment > limit:
            return (density, c * density, load)
        # Existing anchors whose band [v_j, c v_j) contains the new density.
        lo = bisect.bisect_right(densities, density / c)
        hi = bisect.bisect_right(densities, density)
        prev_v = None
        for pos in range(lo, hi):
            v_j = densities[pos]
            if v_j == prev_v:
                continue  # duplicate anchor: identical band, already checked
            prev_v = v_j
            # first occurrence of v_j is `pos` itself (see can_insert)
            b_hi = bl(densities, c * v_j)
            load = prefix[b_hi] - prefix[pos]
            if load + allotment > limit:
                return (v_j, c * v_j, load)
        return None

    def max_band_load(self, c: float) -> int:
        """Maximum load of any band ``[v_j, c v_j)`` anchored at a
        tracked job -- Observation 3 asserts this stays <= b*m."""
        best = 0
        for v in self._densities:
            load = self.band_load(v, c * v)
            if load > best:
                best = load
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DensityBands(jobs={len(self._jobs)})"
