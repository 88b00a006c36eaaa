"""Tests for the metrics registry, JSONL export, and the repro-serve CLI."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SNSScheduler
from repro.service import MetricsRegistry, SchedulingService, make_shed_policy
from repro.service.telemetry import MEAN_GAUGES, merge_registries
from repro.service.cli import main as serve_main
from repro.workloads import WorkloadConfig, generate_workload


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert reg.values()["x"] == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(1)
        assert reg.values()["depth"] == 1.0

    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")

    def test_sample_and_jsonl(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.sample(10)
        reg.counter("n").inc()
        reg.sample(20)
        lines = reg.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"t": 10, "n": 2.0}
        assert json.loads(lines[1]) == {"t": 20, "n": 3.0}

    def test_streaming_sink(self):
        sink = io.StringIO()
        reg = MetricsRegistry(sink=sink, keep_samples=False)
        reg.gauge("g").set(7)
        reg.sample(1)
        assert reg.samples == []
        assert json.loads(sink.getvalue()) == {"t": 1, "g": 7.0}

    def test_write_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.sample(5)
        path = tmp_path / "m.jsonl"
        reg.write_jsonl(str(path))
        assert json.loads(path.read_text().strip()) == {"t": 5, "n": 1.0}

    def test_state_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(4)
        reg.gauge("g").set(2)
        fresh = MetricsRegistry()
        fresh.restore_from_dict(reg.state_to_dict())
        assert fresh.values() == reg.values()


class TestCrashSafeExport:
    def test_export_is_atomic_on_failure(self, tmp_path, monkeypatch):
        """An export interrupted mid-write leaves the previous complete
        file intact and no temp file behind."""
        import os

        from repro.service import telemetry

        path = tmp_path / "m.jsonl"
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.sample(1)
        reg.write_jsonl(str(path))
        good = path.read_text()

        reg.sample(2)
        # make to_jsonl blow up after write_jsonl opened the temp file
        monkeypatch.setattr(
            MetricsRegistry,
            "to_jsonl",
            lambda self: (_ for _ in ()).throw(OSError("disk gone")),
        )
        with pytest.raises(OSError):
            reg.write_jsonl(str(path))
        assert path.read_text() == good  # old export untouched
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []

    def test_export_replaces_whole_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"stale": true}\n' * 100)
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.sample(7)
        reg.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"t": 7, "n": 2.0}


class TestMergeRegistries:
    def _shardlike(self, completed, utilization):
        reg = MetricsRegistry()
        reg.counter("completed_total").inc(completed)
        reg.gauge("utilization").set(utilization)
        return reg

    def test_counters_sum_and_mean_gauges_average(self):
        from repro.service.telemetry import merge_registries

        merged = merge_registries(
            [self._shardlike(3, 0.5), self._shardlike(4, 1.0)]
        )
        values = merged.values()
        assert values["completed_total"] == 7.0
        assert values["utilization"] == pytest.approx(0.75)

    def test_plain_gauges_sum(self):
        from repro.service.telemetry import merge_registries

        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("queue_depth").set(3)
        b.gauge("queue_depth").set(5)
        assert merge_registries([a, b]).values()["queue_depth"] == 8.0

    def test_inputs_not_modified(self):
        from repro.service.telemetry import merge_registries

        a = self._shardlike(3, 0.5)
        before = a.values()
        merge_registries([a, self._shardlike(4, 1.0)])
        assert a.values() == before

    def test_single_registry_passthrough(self):
        from repro.service.telemetry import merge_registries

        merged = merge_registries([self._shardlike(3, 0.5)])
        assert merged.values() == {
            "completed_total": 3.0,
            "utilization": 0.5,
        }

    def test_mean_gauges_iterator_not_exhausted(self):
        """Regression: a single-use iterator as ``mean_gauges``.

        ``merge_from`` materializes ``mean_gauges`` per call, so before
        the fix an iterator was drained by the first registry's merge
        and every later registry's ratio gauge was *summed* instead of
        averaged (0.5 + 1.0 + 0.9 instead of their mean).
        """
        from repro.service.telemetry import merge_registries

        shards = [
            self._shardlike(3, 0.5),
            self._shardlike(4, 1.0),
            self._shardlike(5, 0.9),
        ]
        merged = merge_registries(shards, mean_gauges=iter(["utilization"]))
        values = merged.values()
        assert values["completed_total"] == 12.0
        assert values["utilization"] == pytest.approx((0.5 + 1.0 + 0.9) / 3)

    def test_mean_gauge_defined_on_single_shard_survives(self):
        """A ratio gauge only one registry defines is not averaged away
        (count 1 means no division)."""
        from repro.service.telemetry import merge_registries

        plain = MetricsRegistry()
        plain.counter("completed_total").inc(2)
        merged = merge_registries([plain, self._shardlike(3, 0.8)])
        assert merged.values()["utilization"] == pytest.approx(0.8)

    def test_merge_from_accumulates(self):
        target = MetricsRegistry()
        target.merge_from(self._shardlike(1, 0.2))
        target.merge_from(self._shardlike(2, 0.4))
        assert target.values()["completed_total"] == 3.0


class TestRegistryHistograms:
    def test_histogram_lazily_created_and_shared(self):
        reg = MetricsRegistry()
        hist = reg.histogram("decision_seconds")
        assert reg.histogram("decision_seconds") is hist
        hist.observe(0.25)
        hist.observe(0.75)
        summary = reg.histograms()["decision_seconds"]
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(0.5)

    def test_histograms_stay_out_of_values_and_samples(self):
        """Observing a histogram must not perturb samples, values or
        checkpoints -- they stay bit-identical with observability on."""
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        before_values = reg.values()
        before_state = reg.state_to_dict()
        reg.histogram("queue_depth").observe(7.0)
        assert reg.values() == before_values
        assert reg.state_to_dict() == before_state
        assert reg.sample(5) == {"t": 5, "n": 3.0}

    def test_merge_from_combines_histograms(self):
        from repro.service.telemetry import merge_registries

        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.histogram("admission_latency").observe(v)
        for v in (10.0, 20.0):
            b.histogram("admission_latency").observe(v)
        merged = merge_registries([a, b])
        summary = merged.histograms()["admission_latency"]
        assert summary["count"] == 5
        assert summary["min"] == 1.0
        assert summary["max"] == 20.0
        assert summary["mean"] == pytest.approx(36.0 / 5)

    def test_merge_histograms_inputs_untouched(self):
        from repro.service.telemetry import merge_registries

        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        merge_registries([a, b])
        assert a.histograms()["h"]["count"] == 1
        assert b.histograms()["h"]["count"] == 1

    def test_merge_histogram_window_keeps_newest(self):
        """The merged window holds the newest ``capacity`` observations
        (lifetime aggregates stay exact beyond it)."""
        from repro.service.telemetry import merge_registries

        a, b = MetricsRegistry(), MetricsRegistry()
        for v in range(6):
            a.histogram("h", capacity=4).observe(float(v))
        b.histogram("h", capacity=4).observe(100.0)
        merged = merge_registries([a, b])
        hist = merged.histogram("h", capacity=4)
        assert hist.count == 7
        assert hist.total == pytest.approx(sum(range(6)) + 100.0)
        # a's own window holds its newest 4 (2..5); merging b's 100 on
        # top keeps the newest 4 of the concatenation
        assert hist.window() == [3.0, 4.0, 5.0, 100.0]
        assert hist.summary()["max"] == 100.0

    def test_histogram_only_registry_merges(self):
        """A registry with histograms but no counters/gauges still
        contributes (regression guard for the merge loop ordering)."""
        from repro.service.telemetry import merge_registries

        a = MetricsRegistry()
        a.histogram("h").observe(2.0)
        merged = merge_registries([a, MetricsRegistry()])
        assert merged.histograms()["h"]["count"] == 1

    def test_service_populates_queue_depth_histogram(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=60, m=4, load=3.0, seed=2)
        )
        service = SchedulingService(
            4,
            SNSScheduler(epsilon=1.0),
            capacity=8,
            shed_policy=make_shed_policy("reject-lowest-density"),
            max_in_flight=4,
        )
        service.run_stream(specs)
        summary = service.metrics.histograms()["queue_depth"]
        assert summary["count"] > 0
        assert summary["max"] >= summary["min"] >= 0.0

    def test_service_records_admission_latency(self):
        """Backpressured releases record queue-wait in the
        ``admission_latency`` histogram; pass-through admits are 0."""
        specs = generate_workload(
            WorkloadConfig(n_jobs=80, m=4, load=3.0, seed=3)
        )
        service = SchedulingService(
            4,
            SNSScheduler(epsilon=1.0),
            capacity=16,
            shed_policy=make_shed_policy("reject-lowest-density"),
            max_in_flight=2,
        )
        service.run_stream(specs)
        summary = service.metrics.histograms()["admission_latency"]
        assert summary["count"] > 0
        assert summary["min"] >= 0.0
        # with in-flight capped at 2 under 3x load, some job waited
        assert summary["max"] > 0.0


def _window_merge(acc, other):
    """Reference pairwise histogram merge on plain state tuples:
    ``(capacity, window, count, total, min, max)``, the window of
    ``other`` counting as newer."""
    cap, window, count, total, lo, hi = acc
    _, o_window, o_count, o_total, o_lo, o_hi = other
    if o_count == 0:
        return acc
    if lo is None or (o_lo is not None and o_lo < lo):
        lo = o_lo
    if hi is None or (o_hi is not None and o_hi > hi):
        hi = o_hi
    return (
        cap, (window + o_window)[-cap:], count + o_count, total + o_total,
        lo, hi,
    )


def _hist_state(hist):
    return (
        hist.capacity, hist.window(), hist.count, repr(hist.total),
        hist.min, hist.max,
    )


_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_registry_spec = st.fixed_dictionaries(
    {
        "counters": st.dictionaries(
            st.sampled_from(["completed_total", "shed_total"]),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
        "gauges": st.dictionaries(
            st.sampled_from(["queue_depth", *MEAN_GAUGES]), _values
        ),
        # name -> (capacity, observations); an empty list leaves an
        # empty histogram, a missing name leaves no histogram at all
        "hists": st.dictionaries(
            st.sampled_from(["admission_latency", "queue_depth", "h"]),
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.lists(_values, max_size=14),
            ),
        ),
    }
)


def _build_registry(spec):
    reg = MetricsRegistry()
    for name, value in spec["counters"].items():
        reg.counter(name).inc(value)
    for name, value in spec["gauges"].items():
        reg.gauge(name).set(value)
    for name, (capacity, observations) in spec["hists"].items():
        hist = reg.histogram(name, capacity=capacity)
        for value in observations:
            hist.observe(value)
    return reg


class TestMergeRegistriesOnePass:
    """``merge_registries`` merges each histogram over all inputs in one
    pass; it must equal the left fold of pairwise ``merge_from``."""

    @settings(max_examples=150, deadline=None)
    @given(specs=st.lists(_registry_spec, max_size=6))
    def test_equals_left_fold_of_pairwise_merges(self, specs):
        registries = [_build_registry(spec) for spec in specs]
        merged = merge_registries(registries)

        folded = MetricsRegistry()
        for registry in registries:
            folded.merge_from(registry)
        for name, count in folded._mean_counts.items():
            if count > 1:
                folded.gauge(name).set(folded.gauge(name).value / count)

        assert [(k, repr(v)) for k, v in merged.values().items()] == [
            (k, repr(v)) for k, v in folded.values().items()
        ]
        assert list(merged._histograms) == list(folded._histograms)
        for name, hist in merged._histograms.items():
            assert _hist_state(hist) == _hist_state(folded._histograms[name])
        assert merged.histograms() == folded.histograms()

        # and both equal the plain-tuple reference fold, which takes
        # the capacity of the first input that has the histogram
        for name, hist in merged._histograms.items():
            states = [
                _hist_state(r._histograms[name])
                for r in registries
                if name in r._histograms
            ]
            ref = (states[0][0], [], 0, 0.0, None, None)
            for cap, window, count, total, lo, hi in states:
                ref = _window_merge(
                    ref, (cap, window, count, float(total), lo, hi)
                )
            cap, window, count, total, lo, hi = ref
            assert _hist_state(hist) == (cap, window, count, repr(total), lo, hi)

    def test_inputs_with_different_capacities(self):
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for v in range(5):
            a.histogram("h", capacity=3).observe(float(v))
        b.histogram("h", capacity=8)  # empty: skipped
        for v in (10.0, 11.0):
            c.histogram("h", capacity=1).observe(v)
        merged = merge_registries([a, b, c]).histogram("h")
        # the first input sets the capacity; c's own window kept only
        # its newest observation
        assert merged.capacity == 3
        assert merged.window() == [3.0, 4.0, 11.0]
        assert (merged.count, merged.min, merged.max) == (7, 0.0, 11.0)

    def test_summary_sorts_once_and_matches_quantile(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", capacity=5)
        for v in (5.0, 1.0, 4.0, 2.0, 3.0, 9.0):
            hist.observe(v)
        summary = hist.summary()
        for key, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            assert summary[key] == hist.quantile(q)
        assert reg.histogram_summary("h") == summary
        assert reg.histogram_summary("missing") == {}
        assert "missing" not in reg.histograms()


class TestServiceTelemetry:
    def test_overload_run_populates_metrics(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=100, m=4, load=4.0, seed=8)
        )
        service = SchedulingService(
            4,
            SNSScheduler(epsilon=1.0),
            capacity=6,
            shed_policy=make_shed_policy("reject-lowest-density"),
            max_in_flight=5,
            sample_every=25,
        )
        result = service.run_stream(specs)
        assert len(result.metrics.samples) >= 2
        final = result.metrics.samples[-1]
        assert final["submitted_total"] == len(specs)
        assert final["released_total"] + final["shed_total"] == len(specs)
        assert final["shed_total"] == result.num_shed
        assert final["profit_total"] == pytest.approx(result.total_profit)
        assert final["queue_depth"] == 0.0
        assert final["in_flight"] == 0.0
        assert 0.0 <= final["utilization"] <= 1.0
        # monotone time stamps
        stamps = [s["t"] for s in result.metrics.samples]
        assert stamps == sorted(stamps)


class TestCLI:
    def test_smoke_with_metrics_and_checkpoint(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        rc = serve_main(
            [
                "--n-jobs", "120",
                "--m", "4",
                "--load", "3.0",
                "--seed", "1",
                "--capacity", "8",
                "--max-in-flight", "6",
                "--policy", "reject-lowest-density",
                "--metrics", str(metrics_path),
                "--report-every", "50",
                "--checkpoint-at", "50",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro-serve:" in out
        assert "checkpoint:" in out
        assert "total_profit:" in out
        lines = metrics_path.read_text().strip().splitlines()
        assert lines
        record = json.loads(lines[-1])
        assert record["submitted_total"] == 120

    def test_cli_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            serve_main(["--policy", "bogus"])
