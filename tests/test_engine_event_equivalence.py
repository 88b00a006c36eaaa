"""The event engine vs the frozen legacy stepper.

The event engine (:mod:`repro.sim.engine`, the one every layer builds)
and the legacy stepper (:mod:`repro.sim._legacy_engine`, the
pre-rewrite oracle) must be *bit-identical* -- every record field,
every counter, the end time and the float profit sum -- across DAG
families, seeds, schedulers, speeds, preemption overheads, and both
the batch and streaming drivers.  The ``engine_backend`` conftest
fixture runs every test here once per engine (the ``event`` leg
doubles as a determinism check of the reference itself).

Also here: the parallel-sweep regression tests -- a 2-worker
process-pool sweep must equal the serial sweep cell for cell, and the
adaptive worker probe must never fan out on hardware that cannot
profit from it.

The deeper hypothesis matrix (lockstep divergence location, snapshot
round-trips) lives in ``tests/test_engine_differential.py``.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import run_sweep, sweep_values
from repro.baselines import FIFOScheduler, GlobalEDF, GreedyDensity
from repro.core import SNSScheduler
from repro.experiments.e03_thm2 import _thm2_value
from repro.workloads import WorkloadConfig, generate_workload
from tests.conftest import ENGINES

FACTORIES = {
    "edf": GlobalEDF,
    "fifo": FIFOScheduler,
    "greedy": GreedyDensity,
    "sns": lambda: SNSScheduler(epsilon=1.0),
}


def _observables(result):
    """Everything a caller can see, as one comparable structure."""
    return (
        {
            jid: (
                rec.arrival,
                rec.deadline,
                rec.completion_time,
                rec.profit,
                rec.processor_steps,
                rec.expired,
                rec.abandoned,
                rec.assigned_deadline,
            )
            for jid, rec in result.records.items()
        },
        asdict(result.counters),
        result.end_time,
        result.total_profit,
    )


def _run_batch(backend, specs, m, scheduler=None, **kw):
    scheduler = scheduler if scheduler is not None else SNSScheduler(epsilon=1.0)
    return ENGINES[backend](m=m, scheduler=scheduler, **kw).run(specs)


def _run_stream(backend, specs, m, scheduler=None, **kw):
    """Drive the streaming API: submit in arrival order, advance between."""
    scheduler = scheduler if scheduler is not None else SNSScheduler(epsilon=1.0)
    sim = ENGINES[backend](m=m, scheduler=scheduler, **kw)
    sim.start()
    for spec in sorted(specs, key=lambda sp: sp.arrival):
        sim.submit(spec, t=spec.arrival)
    return sim.finish()


class TestBitIdenticalAcrossBackends:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_schedulers_batch(self, engine_backend, name):
        specs = generate_workload(
            WorkloadConfig(n_jobs=40, m=8, load=2.0, epsilon=1.0, seed=7)
        )
        reference = _run_batch("event", specs, 8, FACTORIES[name]())
        subject = _run_batch(engine_backend, specs, 8, FACTORIES[name]())
        assert _observables(subject) == _observables(reference)

    @pytest.mark.parametrize(
        "family",
        ["chain", "fork_join", "layered", "gnp", "wavefront", "mixed"],
    )
    def test_dag_families_batch(self, engine_backend, family):
        specs = generate_workload(
            WorkloadConfig(
                n_jobs=25, m=8, load=2.0, family=family, epsilon=1.0, seed=3
            )
        )
        reference = _run_batch("event", specs, 8)
        subject = _run_batch(engine_backend, specs, 8)
        assert _observables(subject) == _observables(reference)

    # the fixture is an immutable backend-name string, so sharing it
    # across generated examples is sound
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        family=st.sampled_from(
            ["chain", "block", "fork_join", "layered", "gnp", "mixed"]
        ),
        load=st.sampled_from([0.5, 2.0, 6.0]),
        speed=st.sampled_from([1.0, 1.5, 2.0]),
        overhead=st.sampled_from([0.0, 1.0]),
        stream=st.booleans(),
    )
    def test_property(
        self, engine_backend, seed, family, load, speed, overhead, stream
    ):
        specs = generate_workload(
            WorkloadConfig(
                n_jobs=15, m=4, load=load, family=family, epsilon=1.0, seed=seed
            )
        )
        drive = _run_stream if stream else _run_batch
        reference = drive(
            "event", specs, 4, speed=speed, preemption_overhead=overhead
        )
        subject = drive(
            engine_backend, specs, 4, speed=speed, preemption_overhead=overhead
        )
        assert _observables(subject) == _observables(reference)

    def test_stream_equals_batch(self, engine_backend):
        specs = generate_workload(
            WorkloadConfig(n_jobs=30, m=8, load=2.5, epsilon=1.0, seed=11)
        )
        batch = _run_batch(engine_backend, specs, 8)
        stream = _run_stream(engine_backend, specs, 8)
        reference = _run_batch("event", specs, 8)
        assert _observables(batch) == _observables(reference)
        # the streaming driver takes one extra decision round per submit,
        # so counters differ; records and profit must not
        assert _observables(stream)[0] == _observables(batch)[0]
        assert stream.total_profit == batch.total_profit


class TestParallelSweepRegression:
    GRID = {
        "epsilon": [0.5, 1.0],
        "n_jobs": [15],
        "m": [4],
        "load": [2.0],
    }
    SEEDS = [0, 1, 2]

    def test_two_workers_equal_serial_cell_for_cell(self):
        serial = run_sweep(_thm2_value, self.GRID, self.SEEDS, workers=1)
        parallel = run_sweep(_thm2_value, self.GRID, self.SEEDS, workers=2)
        assert len(serial) == len(parallel)
        for cell_s, cell_p in zip(serial, parallel):
            assert cell_s.point == cell_p.point
            assert cell_s.aggregate == cell_p.aggregate

    def test_sweep_values_two_workers_equal_serial(self):
        serial = sweep_values(_thm2_value, self.GRID, self.SEEDS, workers=1)
        parallel = sweep_values(_thm2_value, self.GRID, self.SEEDS, workers=2)
        assert serial == parallel

    def test_env_var_resolution(self, monkeypatch):
        from repro.analysis.sweep import resolve_workers
        from repro.errors import SweepError

        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert resolve_workers() == 2
        assert resolve_workers(4) == 4  # explicit argument wins
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "auto")
        assert resolve_workers() >= 1
        assert resolve_workers(0) >= 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "banana")
        with pytest.raises(SweepError):
            resolve_workers()
        with pytest.raises(SweepError):
            resolve_workers(-1)
