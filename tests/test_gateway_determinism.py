"""Bit-identity of seeded virtual-clock gateway runs.

A real-time system normally forfeits exact regression testing; the
gateway buys it back by funnelling all nondeterminism through the seed
and the clock.  These tests pin the contract: two runs from the same
seed under a :class:`VirtualClock` agree *bit for bit* -- submissions,
placements, front-door drops, scheduler sheds, per-job profits, KPI
snapshots, and the autoscaler's entire up/down trajectory.

Two runs of the same code agreeing cannot catch a rewrite that drifts
the feed, so :class:`TestKpiFeedPinned` also pins the SHA-256 of
seeded KPI lists against digests recorded before the telemetry path
was made O(1) per tick.
"""

import hashlib
import json
import sys

import pytest

from repro.cluster import ElasticCluster, ShardConfig
from repro.gateway import (
    Autoscaler,
    Gateway,
    KpiFeed,
    LoadConfig,
    LoadGenerator,
    VirtualClock,
)


def _run(seed=11, *, autoscale=True, process="sessions", n_jobs=350,
         buffer_capacity=64, with_feed=False, profit="uniform"):
    load = LoadGenerator(
        LoadConfig(
            n_jobs=n_jobs, m=8, load=1.3, seed=seed, process=process,
            profit=profit,
        )
    )
    cluster = ElasticCluster(
        m=8,
        k_max=4,
        k_initial=1,
        config=ShardConfig(
            m=1, scheduler="sns", capacity=48, max_in_flight=8
        ),
        router="least-loaded",
    )
    autoscaler = None
    if autoscale:
        autoscaler = Autoscaler(
            k_min=1, k_max=4, high_water=2.0, up_patience=1,
            down_patience=12, cooldown=6,
        )
    feed = KpiFeed() if with_feed else None
    gateway = Gateway(
        cluster,
        load,
        clock=VirtualClock(),
        tick_seconds=0.01,
        steps_per_tick=10,
        buffer_capacity=buffer_capacity,
        autoscaler=autoscaler,
        feed=feed,
    )
    result = gateway.run()
    return result, feed


class TestGatewayDeterminism:
    def test_identical_seeds_identical_fingerprints(self):
        a, _ = _run()
        b, _ = _run()
        assert a.fingerprint() == b.fingerprint()

    def test_every_observable_identical(self):
        a, _ = _run()
        b, _ = _run()
        assert a.submissions == b.submissions
        assert a.dropped == b.dropped
        assert a.generated == b.generated
        assert a.delivered == b.delivered
        assert a.ticks == b.ticks
        assert a.total_profit == b.total_profit  # bit-equal floats
        assert a.kpis == b.kpis
        recs_a = {
            j: (r.completion_time, r.profit)
            for j, r in a.cluster.records.items()
        }
        recs_b = {
            j: (r.completion_time, r.profit)
            for j, r in b.cluster.records.items()
        }
        assert recs_a == recs_b

    def test_autoscale_trajectory_reproduced(self):
        """The up/down cycle itself is part of the fingerprint: same
        seed, same resize steps at the same simulated times."""
        a, _ = _run()
        b, _ = _run()
        assert a.scale_events == b.scale_events
        assert any(e.direction == "up" for e in a.scale_events)

    def test_different_seeds_differ(self):
        a, _ = _run(seed=11)
        b, _ = _run(seed=12)
        assert a.fingerprint() != b.fingerprint()

    def test_feed_attachment_does_not_perturb(self):
        """Publishing KPIs to a feed (the SSE server's input) must not
        change the run."""
        a, _ = _run(with_feed=False)
        b, feed = _run(with_feed=True)
        assert a.fingerprint() == b.fingerprint()
        assert feed is not None and feed.closed

    def test_overflow_drops_deterministic(self):
        """Front-door sheds under a tight buffer are part of the
        reproducible surface, not a race artifact."""
        a, _ = _run(process="flash-crowd", buffer_capacity=8, n_jobs=400)
        b, _ = _run(process="flash-crowd", buffer_capacity=8, n_jobs=400)
        assert len(a.dropped) > 0
        assert a.dropped == b.dropped
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("process", ["poisson", "diurnal"])
    def test_processes_deterministic(self, process):
        a, _ = _run(process=process, n_jobs=200)
        b, _ = _run(process=process, n_jobs=200)
        assert a.fingerprint() == b.fingerprint()


def _kpi_digest(result):
    """SHA-256 of the KPI list, minus the wall-clock field."""
    kpis = [
        {k: v for k, v in snap.items() if k != "wall_s"}
        for snap in result.kpis
    ]
    blob = json.dumps(kpis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestKpiFeedPinned:
    """The KPI feed of a flash-crowd run, pinned by digest: profit
    totals, rates, shed fraction and the merged admission-latency
    p50/p99/mean all feed it."""

    def test_unit_profit_feed_pinned(self):
        # unit profits sum exactly, so this digest holds on every
        # Python version
        result, _ = _run(process="flash-crowd", n_jobs=400, profit="unit")
        assert len(result.kpis) == 129
        assert _kpi_digest(result) == (
            "fcba19fef021db507b7ead633bb6ae6f3b97027e39c8e3ea7778b396fbc65495"
        )

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="sum() of floats is compensated from 3.12 on, so profit "
        "totals of fractional profits differ in the last bits there",
    )
    def test_uniform_profit_feed_pinned(self):
        result, _ = _run(process="flash-crowd", n_jobs=400)
        assert _kpi_digest(result) == (
            "114303d0dd73c471c25af599d31be87752939e54e9a84f0a49f3ee3f00529513"
        )
