"""Unit tests for the allocation-slice projection of a simulation trace."""

from repro.observability import allocation_slices, build_spans, submitted_ids


def _slice(seq, t0, t1, entries, shard=None):
    return (seq, shard, t0, "slice", None, {"t1": t1, "entries": list(entries)})


class TestSliceRecording:
    def test_contiguous_identical_slices_merge(self):
        entries = ((0, 2, 2),)
        slices = allocation_slices([_slice(0, 0, 5, entries), _slice(1, 5, 9, entries)])
        assert slices == [(0, 9, entries)]

    def test_different_entries_do_not_merge(self):
        slices = allocation_slices(
            [_slice(0, 0, 5, ((0, 2, 2),)), _slice(1, 5, 9, ((0, 2, 1),))]
        )
        assert len(slices) == 2

    def test_gap_prevents_merge(self):
        entries = ((0, 2, 2),)
        slices = allocation_slices([_slice(0, 0, 5, entries), _slice(1, 7, 9, entries)])
        assert len(slices) == 2

    def test_empty_slice_dropped(self):
        assert allocation_slices([_slice(0, 5, 5, ((0, 1, 1),))]) == []

    def test_shard_selects_events(self):
        events = [
            _slice(0, 0, 4, ((0, 1, 1),), shard=0),
            _slice(1, 0, 3, ((1, 2, 2),), shard=1),
        ]
        assert allocation_slices(events, shard=1) == [(0, 3, ((1, 2, 2),))]
        assert allocation_slices(events) == []


class TestQueries:
    M = 4

    def _events(self) -> list[tuple]:
        return [
            (0, None, 0, "arrival", 0, None),
            (1, None, 0, "arrival", 1, None),
            _slice(2, 0, 4, ((0, 2, 2), (1, 1, 1))),
            _slice(3, 4, 6, ((1, 3, 2),)),
            (4, None, 6, "completion", 1, {"profit": 1.0}),
            (5, None, 9, "expiry", 0, None),
        ]

    @staticmethod
    def _steps(slices, job_id, column):
        return sum(
            entry[column] * (t1 - t0)
            for t0, t1, entries in slices
            for entry in entries
            if entry[0] == job_id
        )

    def test_processor_steps_of(self):
        slices = allocation_slices(self._events())
        assert self._steps(slices, 0, 1) == 8  # 2 procs * 4 steps
        assert self._steps(slices, 1, 1) == 4 + 6

    def test_busy_steps_of(self):
        slices = allocation_slices(self._events())
        assert self._steps(slices, 1, 2) == 4 + 4

    def test_utilization(self):
        slices = allocation_slices(self._events())
        busy = sum(
            e * (t1 - t0) for t0, t1, entries in slices for _, _, e in entries
        )
        horizon = slices[-1][1] - slices[0][0]
        assert busy / (self.M * horizon) == ((2 + 1) * 4 + 2 * 2) / (4 * 6)

    def test_utilization_empty(self):
        assert allocation_slices([]) == []
        assert allocation_slices(self._events()[:2]) == []

    def test_events_of_kind(self):
        assert sorted(submitted_ids(self._events())) == [0, 1]

    def test_job_events(self):
        span = build_spans(self._events())[0]
        assert (span.start, span.end, span.terminal) == (0, 9, "missed")

    def test_max_concurrent_allocation(self):
        slices = allocation_slices(self._events())
        assert max(sum(a for _, a, _ in entries) for _, _, entries in slices) == 3


class TestProjectedSlice:
    def test_aggregates(self):
        # the JSONL form: a dict per event, entries as lists
        event = {
            "seq": 0, "shard": None, "t": 2, "kind": "slice", "job": None,
            "data": {"t1": 6, "entries": [[0, 3, 2], [1, 1, 1]]},
        }
        [(t0, t1, entries)] = allocation_slices([event])
        assert entries == ((0, 3, 2), (1, 1, 1))
        assert t1 - t0 == 4
        assert sum(a for _, a, _ in entries) == 4
        assert sum(e for _, _, e in entries) == 3
