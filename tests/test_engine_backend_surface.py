"""The engine is not selectable: one event engine behind every surface.

The service, cluster, gateway and batch layers all build the event
:class:`~repro.sim.engine.Simulator`; no spec field, CLI flag or
constructor kwarg chooses another core.  These tests pin the removed
selection surface so it cannot creep back half-way:

* a spec document naming ``[engine] backend`` fails with the located
  unknown-key :class:`~repro.errors.ScenarioError`;
* ``--engine`` is an argparse error on ``repro-scenario run``, for a
  service spec and a gateway spec alike;
* :class:`SchedulingService` takes no ``engine=`` kwarg;
* snapshots written while the service still recorded its engine name
  restore onto the event engine and continue bit-identically.
"""

from __future__ import annotations

import pytest

from repro.core import SNSScheduler
from repro.errors import ScenarioError
from repro.service.service import SchedulingService
from repro.service.snapshot import service_from_dict, service_to_dict
from repro.workloads import WorkloadConfig, generate_workload


def _workload(seed=4, n_jobs=50, m=8):
    return generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=m, load=2.5, epsilon=1.0, seed=seed)
    )


def _service_fingerprint(result):
    return (
        sorted(
            (jid, rec.completion_time, rec.profit)
            for jid, rec in result.result.records.items()
        ),
        result.total_profit,
        result.num_shed,
    )


class TestScenarioSpecField:
    @pytest.mark.parametrize("backend", ["event", "array", "legacy"])
    def test_backend_key_is_a_located_unknown_key(self, backend):
        from repro.scenarios import loads_spec

        with pytest.raises(ScenarioError) as info:
            loads_spec(f'[engine]\nbackend = "{backend}"\n', "toml")
        assert info.value.location.split(".") == ["engine", "backend"]
        assert "unknown key 'backend'" in str(info.value)
        assert info.value.suggestions


class TestCliFlags:
    @pytest.mark.parametrize("mode", ["service", "gateway"])
    def test_engine_flag_is_a_parse_error(self, mode, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit) as info:
            scenario_main(
                ["run", f"examples/scenarios/{mode}.toml", "--engine", "event"]
            )
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestServiceKwarg:
    def test_engine_kwarg_is_gone(self):
        with pytest.raises(TypeError, match="engine"):
            SchedulingService(4, SNSScheduler(epsilon=1.0), engine="event")


class TestSnapshotCarriesBackend:
    """Snapshots once recorded the service's engine name; they no
    longer do, and both older shapes restore onto the event engine."""

    def _split(self):
        specs = sorted(
            _workload(seed=6, m=4), key=lambda sp: (sp.arrival, sp.job_id)
        )
        return specs[: len(specs) // 2], specs[len(specs) // 2 :]

    def test_snapshots_no_longer_name_the_engine(self):
        svc = SchedulingService(2, SNSScheduler(epsilon=1.0))
        svc.start()
        assert "engine" not in service_to_dict(svc)["service"]

    def test_pre_field_snapshots_restore_onto_event(self):
        early, late = self._split()
        svc = SchedulingService(4, SNSScheduler(epsilon=1.0))
        svc.start()
        for sp in early:
            svc.submit(sp, t=sp.arrival)
        data = service_to_dict(svc)
        assert "engine" not in data["service"]  # as before the field
        restored = service_from_dict(data, SNSScheduler(epsilon=1.0))
        for sp in late:
            svc.submit(sp, t=sp.arrival)
            restored.submit(sp, t=sp.arrival)
        assert _service_fingerprint(restored.finish()) == _service_fingerprint(
            svc.finish()
        )

    def test_array_era_snapshots_restore_bit_identically(self):
        early, late = self._split()
        uninterrupted = SchedulingService(4, SNSScheduler(epsilon=1.0))
        uninterrupted.start()
        for sp in early + late:
            uninterrupted.submit(sp, t=sp.arrival)
        expected = _service_fingerprint(uninterrupted.finish())

        svc = SchedulingService(4, SNSScheduler(epsilon=1.0))
        svc.start()
        for sp in early:
            svc.submit(sp, t=sp.arrival)
        data = service_to_dict(svc)
        # how a snapshot taken on the former array engine looks
        data["service"]["engine"] = "array"
        restored = service_from_dict(data, SNSScheduler(epsilon=1.0))
        for sp in late:
            restored.submit(sp, t=sp.arrival)
        assert _service_fingerprint(restored.finish()) == expected
