"""End-to-end gateway chaos: faults, audits, and degraded telemetry.

The cluster-level chaos harness pins bit-identity; a gateway run with
elastic scaling and live faults is allowed to differ from its clean
twin, so the claim here is the *audit*: every seeded schedule must
conserve jobs, complete each at most once, and keep steal transactions
settled -- plus the run itself must be bit-identical when repeated.
"""

import http.client
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.cluster import ShardConfig
from repro.cluster.service import ClusterService
from repro.gateway.autoscale import Autoscaler
from repro.gateway.clock import VirtualClock
from repro.gateway.gateway import Gateway
from repro.gateway.kpi import KpiFeed
from repro.gateway.load import LoadConfig, LoadGenerator
from repro.gateway.server import KpiServer
from repro.resilience.audit import AuditReport, audit_run
from repro.resilience.chaos import (
    COORDINATION_FAULT_KINDS,
    CORE_FAULT_KINDS,
    FAULT_KINDS,
    run_chaos,
)
from repro.resilience.rpc import DEFAULT_RPC_POLICY
from repro.resilience.supervisor import SupervisorConfig
from repro.scenarios import load_spec

GATEWAY_SPEC = (
    pathlib.Path(__file__).resolve().parents[1]
    / "examples/scenarios/chaos_gateway.toml"
)


def gateway_chaos(seed, schedule=None, tmp_path=None, n_jobs=96):
    """The shipped gateway chaos spec at ``seed`` (schedule ``seed:N``
    unless given), judged against its fault-free twin."""
    spec = load_spec(GATEWAY_SPEC).with_overrides({
        "seed": seed,
        "workload.n_jobs": n_jobs,
        "faults.chaos": schedule or f"seed:{seed}",
    })
    return run_chaos(
        spec, workdir=None if tmp_path is None else str(tmp_path)
    )


class TestKindSplit:
    def test_kind_families_are_disjoint_and_complete(self):
        assert set(CORE_FAULT_KINDS) | set(COORDINATION_FAULT_KINDS) == set(
            FAULT_KINDS
        )
        assert not set(CORE_FAULT_KINDS) & set(COORDINATION_FAULT_KINDS)
        for kind in (
            "steal-interrupt",
            "scale-during-crash",
            "ledger-partition",
            "tick-stall",
        ):
            assert kind in COORDINATION_FAULT_KINDS


class TestRunGatewayChaos:
    def test_seeded_run_audits_clean_and_repeats_bit_identical(
        self, tmp_path
    ):
        a = gateway_chaos(3, tmp_path=tmp_path / "a")
        b = gateway_chaos(3, tmp_path=tmp_path / "b")
        assert a.ok and a.audit.ok
        assert a.faults_fired >= 1
        assert a.schedule == b.schedule
        assert a.chaos_fingerprint == b.chaos_fingerprint
        assert a.clean_fingerprint == b.clean_fingerprint
        assert a.chaos_profit == b.chaos_profit

    def test_steal_interrupt_schedule_settles_exactly_once(self, tmp_path):
        report = gateway_chaos(
            5,
            schedule="ledger-partition:2:120,steal-interrupt:0:340,crash:1:420",
            tmp_path=tmp_path,
            n_jobs=120,
        )
        assert report.ok, [str(v) for v in report.audit.violations]
        assert report.faults_fired == 3
        txns = report.audit.to_dict()
        assert txns["ok"] is True

    def test_report_to_dict_carries_nested_audit(self, tmp_path):
        report = gateway_chaos(4, tmp_path=tmp_path)
        data = report.to_dict()
        assert data["ok"] == report.ok
        assert data["schedule"] == report.schedule
        assert data["audit"]["submitted"] == report.audit.submitted
        assert "profit_ratio" in data
        json.dumps(data)  # the CI artifact must be JSON-clean


class TestSupervisorAutoscaleRace:
    """A shard restart racing an elastic resize, in both orders.

    Either interleaving -- crash before the resize tick, or a fused
    scale-during-crash event followed by a plain crash -- must leave
    the books balanced and repeat bit-identically under the same seed.
    """

    @pytest.mark.parametrize(
        "schedule",
        [
            "crash:1:180,scale-during-crash:0:320",
            "scale-during-crash:0:180,crash:1:320",
        ],
    )
    def test_both_orderings_audit_clean_and_repeat(self, schedule, tmp_path):
        a = gateway_chaos(13, schedule=schedule, tmp_path=tmp_path / "a")
        b = gateway_chaos(13, schedule=schedule, tmp_path=tmp_path / "b")
        assert a.ok, [str(v) for v in a.audit.violations]
        assert a.faults_fired == 2
        assert a.chaos_fingerprint == b.chaos_fingerprint
        assert a.recoveries == b.recoveries
        assert a.supervision_events == b.supervision_events


class TestFaultFreeIdentity:
    def test_supervision_does_not_change_clean_runs(self):
        """The whole resilience stack -- supervisor, WAL-logged steals
        -- must be invisible on a fault-free gateway run: same
        fingerprint as the plain elastic cluster."""

        def run(make_cluster):
            cluster = make_cluster(
                ShardConfig(
                    m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0}
                )
            )
            gw = Gateway(
                cluster,
                LoadGenerator(LoadConfig(n_jobs=96, m=8, seed=42, load=1.5)),
                clock=VirtualClock(),
                steps_per_tick=20,
                buffer_capacity=512,
                autoscaler=Autoscaler(k_min=1, k_max=4),
            )
            return gw.run().fingerprint()

        plain = run(
            lambda cfg: ClusterService(
                8, 4, k_initial=4, config=cfg, router="least-loaded"
            )
        )
        supervised = run(
            lambda cfg: ClusterService(
                8, 4, k_initial=4, config=cfg, router="least-loaded",
                supervisor=SupervisorConfig(), rpc=DEFAULT_RPC_POLICY,
            )
        )
        assert plain == supervised


class TestHealthzDegraded:
    def test_healthz_reports_degraded_shards(self):
        feed = KpiFeed()
        feed.publish({"tick": 1, "degraded_shards": 0})
        feed.publish({"tick": 2, "degraded_shards": 2})
        with KpiServer(feed) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=5
            )
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
        assert health["ok"] is True
        assert health["degraded_shards"] == 2

    def test_healthz_defaults_before_first_snapshot(self):
        with KpiServer(KpiFeed()) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=5
            )
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
        assert health["degraded_shards"] == 0


def fake_cluster_result(records_by_shard, shed_by_shard=None, extra=None):
    shed_by_shard = shed_by_shard or [[] for _ in records_by_shard]
    return SimpleNamespace(
        shard_results=[
            SimpleNamespace(
                result=SimpleNamespace(records=records), shed=shed
            )
            for records, shed in zip(records_by_shard, shed_by_shard)
        ],
        extra=extra or {},
        total_profit=sum(
            getattr(rec, "profit", 1.0)
            for records in records_by_shard
            for rec in records.values()
            if rec.completed
        ),
    )


def rec(completed=True, profit=1.0):
    return SimpleNamespace(
        completed=completed, expired=not completed, profit=profit
    )


class TestAuditUnit:
    def test_clean_books_pass(self):
        result = fake_cluster_result([{1: rec(), 2: rec(False)}, {3: rec()}])
        report = audit_run(result, [1, 2, 3])
        assert report.ok
        assert report.completed == 2 and report.expired == 1

    def test_lost_job_is_a_conservation_violation(self):
        report = audit_run(fake_cluster_result([{1: rec()}]), [1, 2])
        assert [v.invariant for v in report.violations] == ["conservation"]
        assert report.violations[0].job_id == 2

    def test_duplicate_is_conservation_and_exactly_once(self):
        result = fake_cluster_result([{1: rec()}, {1: rec()}])
        report = audit_run(result, [1])
        kinds = sorted(v.invariant for v in report.violations)
        assert kinds == ["conservation", "exactly-once"]

    def test_unsettled_txn_flagged(self):
        result = fake_cluster_result(
            [{1: rec()}], extra={"steal_txns": {"transfer": 1}}
        )
        report = audit_run(result, [1])
        assert [v.invariant for v in report.violations] == ["txn-settled"]

    def test_profit_floor_gates_against_baseline(self):
        result = fake_cluster_result([{1: rec(profit=1.0)}])
        bad = audit_run(result, [1], baseline_profit=2.0, profit_floor=0.7)
        assert [v.invariant for v in bad.violations] == ["profit-floor"]
        good = audit_run(result, [1], baseline_profit=2.0, profit_floor=0.5)
        assert good.ok
        assert good.profit_ratio == pytest.approx(0.5)

    def test_report_write_roundtrip(self, tmp_path):
        report = audit_run(fake_cluster_result([{1: rec()}]), [1])
        path = tmp_path / "audit.json"
        report.write(str(path))
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert data["invariants"][0] == "conservation"
        assert isinstance(report, AuditReport)
