"""Checkpoint/restore: a killed-and-restored engine or service must
finish with *bit-identical* results to the uninterrupted run.

All snapshots are pushed through ``json.dumps``/``json.loads`` so the
tests exercise the real serialization boundary, not object sharing.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AdmissionEDF,
    FIFOScheduler,
    GlobalEDF,
    GreedyDensity,
    RandomScheduler,
)
from repro.core import SNSScheduler
from repro.errors import SchedulingError, SimulationError
from repro.service import (
    SchedulingService,
    SubmissionLog,
    checkpoint_roundtrip,
    load_snapshot,
    make_shed_policy,
    save_snapshot,
    service_from_dict,
    service_to_dict,
)
from repro.sim import Simulator
from repro.workloads import WorkloadConfig, generate_workload

FACTORIES = {
    "admission-edf": AdmissionEDF,
    "edf": GlobalEDF,
    "fifo": FIFOScheduler,
    "greedy": GreedyDensity,
    "random": lambda: RandomScheduler(rng=42),
    "sns": lambda: SNSScheduler(epsilon=1.0),
}


def run_engine_with_checkpoint(name, specs, checkpoint_t, m=4):
    """Stream specs; at checkpoint_t serialize engine+scheduler through
    JSON, rebuild both from scratch, and continue."""
    ordered = sorted(specs, key=lambda s: (s.arrival, s.job_id))
    sim = Simulator(m=m, scheduler=FACTORIES[name]())
    sim.start()
    i = 0
    while i < len(ordered) and ordered[i].arrival < checkpoint_t:
        sim.submit(ordered[i], t=ordered[i].arrival)
        i += 1
    sim.advance_to(checkpoint_t)
    blob = json.dumps(
        {"engine": sim.snapshot_state(), "sched": sim.scheduler.snapshot_state()}
    )
    del sim

    data = json.loads(blob)
    restored = Simulator(m=m, scheduler=FACTORIES[name]())
    views = restored.restore_state(data["engine"])
    restored.scheduler.restore_state(data["sched"], views)
    for spec in ordered[i:]:
        restored.submit(spec, t=spec.arrival)
    return restored.finish()


class TestEngineSnapshot:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_kill_and_restore_is_bit_identical(self, name):
        specs = generate_workload(
            WorkloadConfig(n_jobs=40, m=4, load=2.5, seed=9)
        )
        baseline = Simulator(m=4, scheduler=FACTORIES[name]()).run(specs)
        mid = sorted(s.arrival for s in specs)[len(specs) // 2]
        restored = run_engine_with_checkpoint(name, specs, mid)
        assert restored.records == baseline.records
        assert restored.total_profit == baseline.total_profit
        assert restored.end_time == baseline.end_time

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from(["sns", "edf", "random"]),
        st.integers(min_value=1, max_value=300),
    )
    def test_kill_and_restore_property(self, seed, name, checkpoint_t):
        specs = generate_workload(
            WorkloadConfig(n_jobs=15, m=4, load=2.0, seed=seed)
        )
        baseline = Simulator(m=4, scheduler=FACTORIES[name]()).run(specs)
        restored = run_engine_with_checkpoint(name, specs, checkpoint_t)
        assert restored.records == baseline.records
        assert restored.total_profit == baseline.total_profit

    @pytest.mark.parametrize("name", ["sns", "edf", "fifo"])
    def test_mid_gap_checkpoint_is_bit_identical(self, name):
        """Snapshot at a time that is *not* an event time (the event-
        driven engine skips over it), restore through JSON, and finish
        bit-identically -- counters included -- against a baseline that
        advances at exactly the same times."""
        specs = sorted(
            generate_workload(WorkloadConfig(n_jobs=40, m=4, load=2.5, seed=9)),
            key=lambda s: (s.arrival, s.job_id),
        )
        # pick a checkpoint time between events: not an arrival, not a
        # deadline, inside the stream
        events = {s.arrival for s in specs} | {
            s.deadline for s in specs if s.deadline is not None
        }
        mid = sorted(s.arrival for s in specs)[len(specs) // 2]
        checkpoint_t = mid + 1
        while checkpoint_t in events:
            checkpoint_t += 1

        def stream(with_checkpoint):
            sim = Simulator(m=4, scheduler=FACTORIES[name]())
            sim.start()
            i = 0
            while i < len(specs) and specs[i].arrival < checkpoint_t:
                sim.submit(specs[i], t=specs[i].arrival)
                i += 1
            sim.advance_to(checkpoint_t)
            if with_checkpoint:
                blob = json.dumps(
                    {
                        "engine": sim.snapshot_state(),
                        "sched": sim.scheduler.snapshot_state(),
                    }
                )
                sim = Simulator(m=4, scheduler=FACTORIES[name]())
                data = json.loads(blob)
                views = sim.restore_state(data["engine"])
                sim.scheduler.restore_state(data["sched"], views)
            for spec in specs[i:]:
                sim.submit(spec, t=spec.arrival)
            return sim.finish()

        baseline = stream(with_checkpoint=False)
        restored = stream(with_checkpoint=True)
        assert restored.records == baseline.records
        assert restored.total_profit == baseline.total_profit
        assert restored.end_time == baseline.end_time
        assert restored.counters == baseline.counters

    def test_restore_rejects_config_mismatch(self):
        sim = Simulator(m=4, scheduler=FIFOScheduler())
        sim.start()
        snap = sim.snapshot_state()
        sim.finish()
        other = Simulator(m=8, scheduler=FIFOScheduler())
        with pytest.raises(SimulationError):
            other.restore_state(snap)

    def test_snapshotless_scheduler_raises(self):
        from repro.sim.scheduler import SchedulerBase

        class Bare(SchedulerBase):
            """Minimal scheduler without snapshot support."""

            def allocate(self, t):
                """Allocate nothing."""
                return {}

        with pytest.raises(SchedulingError):
            Bare().snapshot_state()
        with pytest.raises(SchedulingError):
            Bare().restore_state({}, {})


class TestServiceSnapshot:
    def make_service(self, recorder=None):
        return SchedulingService(
            4,
            SNSScheduler(epsilon=1.0),
            capacity=8,
            shed_policy=make_shed_policy("reject-lowest-density"),
            max_in_flight=6,
            recorder=recorder,
        )

    def test_checkpoint_roundtrip_exact_profit(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=80, m=4, load=3.5, seed=21)
        )
        log = SubmissionLog()
        baseline = self.make_service(log).run_stream(specs)
        assert baseline.num_shed > 0  # the interesting regime
        mid = sorted(s.arrival for s in specs)[len(specs) // 2]
        restored = checkpoint_roundtrip(
            log,
            self.make_service,
            lambda: SNSScheduler(epsilon=1.0),
            checkpoint_time=mid,
        )
        assert restored.total_profit == baseline.total_profit
        assert restored.result.records == baseline.result.records
        assert [(r.job_id, r.reason) for r in restored.shed] == [
            (r.job_id, r.reason) for r in baseline.shed
        ]

    def test_snapshot_file_roundtrip(self, tmp_path):
        specs = sorted(
            generate_workload(WorkloadConfig(n_jobs=40, m=4, load=3.0, seed=2)),
            key=lambda s: (s.arrival, s.job_id),
        )
        baseline_service = self.make_service()
        baseline = baseline_service.run_stream(specs)

        service = self.make_service()
        service.start()
        half = len(specs) // 2
        for spec in specs[:half]:
            service.submit(spec, t=spec.arrival)
        path = tmp_path / "service.json"
        save_snapshot(service, str(path))
        del service

        restored = load_snapshot(str(path), SNSScheduler(epsilon=1.0))
        for spec in specs[half:]:
            restored.submit(spec, t=spec.arrival)
        result = restored.finish()
        assert result.total_profit == baseline.total_profit
        assert result.result.records == baseline.result.records

    def test_restore_rejects_wrong_scheduler_type(self):
        service = self.make_service()
        service.start()
        data = service_to_dict(service)
        with pytest.raises(SimulationError):
            service_from_dict(data, GlobalEDF())

    def test_restore_rejects_a_scheduler_section_that_does_not_fit(self):
        """A damaged snapshot whose scheduler state names a job the
        engine section lacks, or other constants, is a SimulationError
        like every other damaged snapshot."""
        service = self.make_service()
        service.start()
        for spec in generate_workload(WorkloadConfig(n_jobs=12, m=4, seed=3)):
            service.submit(spec, t=spec.arrival)
        data = json.loads(json.dumps(service_to_dict(service)))
        state = data["scheduler"]["state"]
        assert state["started"]
        state["started"][0]["job_id"] = 10_000
        with pytest.raises(SimulationError, match="no restored view"):
            service_from_dict(data, SNSScheduler(epsilon=1.0))
        with pytest.raises(SimulationError, match="constants"):
            service_from_dict(
                json.loads(json.dumps(service_to_dict(service))),
                SNSScheduler(epsilon=0.5),
            )

    def test_snapshot_requires_open_session(self):
        with pytest.raises(SimulationError):
            service_to_dict(self.make_service())

    def test_submission_log_roundtrip(self, tmp_path):
        specs = generate_workload(WorkloadConfig(n_jobs=10, m=4, seed=0))
        log = SubmissionLog()
        for spec in specs:
            log.record(spec.arrival, spec)
        path = tmp_path / "log.json"
        log.save(str(path))
        loaded = SubmissionLog.load(str(path))
        assert len(loaded) == len(log)
        for (ta, sa), (tb, sb) in zip(log, loaded):
            assert ta == tb
            assert sa.job_id == sb.job_id
            assert sa.work == sb.work
