"""One fault path: the chaos schedule, checked where the spec is read.

The kill-and-recover injector is gone; a supervised chaos ``crash``
covers it.  These tests pin the removed surface so it cannot creep
back half-way, and pin the checks the chaos path gained:

* a spec naming ``faults.kind = "kill"`` fails at ``faults.kind`` with
  ``crash`` as the suggestion;
* ``--fault-at`` and ``--fault-shard`` are argparse errors on
  ``repro-scenario run``;
* ``repro.cluster`` exports no ``FaultInjector`` or ``FaultPlan``;
* ``faults.chaos`` is parsed by ``ScenarioSpec.validate``: an unknown
  kind, a malformed event, a bad seed, or a shard the run does not have
  is a :class:`~repro.errors.ScenarioError` located at ``faults.chaos``;
* a gateway's ``seed:N`` schedule spreads over ``gateway.shards_max``.
"""

from __future__ import annotations


import pytest

from repro.errors import ScenarioError
from repro.resilience.chaos import ChaosSchedule
from repro.scenarios import ScenarioSpec, loads_spec
from repro.scenarios.builder import ScenarioBuilder


def _cluster_spec(**overrides):
    return ScenarioSpec().with_overrides(
        {"mode": "cluster", "cluster.shards": 2, **overrides}
    )


class TestKillKind:
    def test_kill_is_a_located_error_suggesting_crash(self):
        with pytest.raises(ScenarioError) as info:
            loads_spec(
                '[scenario]\nmode = "cluster"\n'
                "[cluster]\nshards = 2\n"
                '[faults]\nkind = "kill"\nshard = 1\nat = 100\n',
                "toml",
            )
        assert info.value.location == "faults.kind"
        assert info.value.suggestions == ["crash"]


class TestCliFlags:
    @pytest.mark.parametrize("flag", ["--fault-at", "--fault-shard"])
    def test_fault_flags_are_a_parse_error(self, flag, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit) as info:
            scenario_main(
                ["run", "examples/scenarios/service.toml", flag, "1"]
            )
        assert info.value.code == 2
        assert flag in capsys.readouterr().err


class TestClusterExports:
    @pytest.mark.parametrize("name", ["FaultInjector", "FaultPlan"])
    def test_injector_is_gone(self, name):
        import repro.cluster

        assert not hasattr(repro.cluster, name)


class TestChaosSpecChecks:
    @pytest.mark.parametrize(
        "chaos", ["meteor:0:10", "crash:x:10", "crash:-1:10", "crash:0"]
    )
    def test_bad_schedule_is_located(self, chaos):
        with pytest.raises(ScenarioError) as info:
            _cluster_spec(**{"faults.kind": "chaos", "faults.chaos": chaos})
        assert info.value.location == "faults.chaos"

    def test_unknown_kind_suggests_a_known_one(self):
        with pytest.raises(ScenarioError) as info:
            _cluster_spec(
                **{"faults.kind": "chaos", "faults.chaos": "hang:0:5,crahs:0:10"}
            )
        assert "crash" in info.value.suggestions

    @pytest.mark.parametrize("chaos", ["crash:7:10", "hang:0:5,crash:2:10"])
    def test_shard_out_of_range_is_rejected(self, chaos):
        with pytest.raises(ScenarioError) as info:
            _cluster_spec(**{"faults.kind": "chaos", "faults.chaos": chaos})
        assert info.value.location == "faults.chaos"
        assert "2 shard" in str(info.value)

    def test_bad_seed_is_rejected(self):
        with pytest.raises(ScenarioError) as info:
            _cluster_spec(**{"faults.kind": "chaos", "faults.chaos": "seed:x"})
        assert info.value.location == "faults.chaos"

    def test_gateway_range_is_shards_max(self):
        spec = ScenarioSpec().with_overrides(
            {
                "mode": "gateway",
                "gateway.shards_max": 4,
                "faults.kind": "chaos",
                "faults.chaos": "crash:3:10",
            }
        )
        assert spec.shard_count() == 4
        with pytest.raises(ScenarioError):
            spec.with_overrides({"faults.chaos": "crash:4:10"})


class TestGatewaySeededSchedule:
    def test_seeded_schedule_spreads_over_shards_max(self):
        spec = ScenarioSpec().with_overrides(
            {
                "mode": "gateway",
                "workload.n_jobs": 60,
                "workload.m": 8,
                "gateway.shards_max": 4,
                "faults.kind": "chaos",
                "faults.chaos": "seed:3",
            }
        )
        assert spec.cluster.shards == 1  # the default the bug read
        builder = ScenarioBuilder(spec).setup()
        horizon = max(sp.arrival for sp in builder.specs) or 1
        injector = builder.runnable.cluster.fault_injector
        expected = ChaosSchedule.generate(3, k=4, horizon=horizon)
        assert injector.schedule.events == expected.events
        assert {event.shard for event in expected.events} != {0}
