"""Three-backend differential harness: the array engine's pin.

:class:`~repro.sim.array_engine.ArraySimulator` (struct-of-arrays hot
path) claims *bit-identity* with the event engine and the frozen legacy
stepper -- every completion-record field, every counter, the end time
and the float profit sum.  This suite is the enforcement: hypothesis
drives workload family x seed x machine shape x speed x preemption
overhead x batch/stream through all three backends and compares the
full observable surface.

On a mismatch the plain ``assert a == b`` failure is useless for
debugging (two walls of records), so the harness re-runs the diverging
pair in *lockstep streaming*: one submission at a time, comparing live
counters/finished/profit after each, and fails with the first
diverging submission index and both probe tuples.  Combined with
hypothesis shrinking (which minimizes the workload parameters first)
that names the earliest observable decision divergence of a minimal
failing instance.

A separate arm pins mid-run ``snapshot_state``/``restore_state``
round-trips: a snapshot taken from one backend must restore into any
*service* backend (event or array -- the legacy oracle predates the
snapshot API) and finish bit-identically.

A third arm pins the service backends' running profit total:
``profit_so_far()`` must equal ``sum()`` over the finished records, by
``repr``, after every advance, across restores, in-transit expiries
and ``finish()``'s abandon records.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FIFOScheduler, GlobalEDF, GreedyDensity
from repro.core import SNSScheduler
from repro.dag import chain
from repro.sim import ENGINE_BACKENDS, SERVICE_BACKENDS, make_engine
from repro.sim.engine import _RunState
from repro.sim.jobs import CompletionRecord, JobSpec
from repro.workloads import WorkloadConfig, generate_workload

BACKENDS = tuple(sorted(ENGINE_BACKENDS))  # ("array", "event", "legacy")

FACTORIES = {
    "sns": lambda: SNSScheduler(epsilon=1.0),
    "edf": GlobalEDF,
    "fifo": FIFOScheduler,
    "greedy": GreedyDensity,
}

FAMILIES = ["chain", "block", "fork_join", "layered", "gnp", "wavefront", "mixed"]


def observables(result):
    """The full observable surface of a run, as one comparable value."""
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


def _probe(sim):
    """Live mid-stream fingerprint (cheap, available on all backends)."""
    state = sim._require_session()
    return (
        state.t,
        sorted(state.finished),
        asdict(state.counters),
        sum(rec.profit for rec in state.finished.values()),
    )


def _workload(family, seed, n_jobs=15, m=4, load=2.0):
    return generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=load, family=family, epsilon=1.0, seed=seed
        )
    )


def _build(backend, m, scheduler_name, **kw):
    return make_engine(backend, m=m, scheduler=FACTORIES[scheduler_name](), **kw)


def _run(backend, specs, m, scheduler_name, stream, **kw):
    sim = _build(backend, m, scheduler_name, **kw)
    if not stream:
        return sim.run(specs)
    sim.start()
    for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
        sim.submit(spec, t=spec.arrival)
    return sim.finish()


def _first_divergence(backend_a, backend_b, specs, m, scheduler_name, **kw):
    """Lockstep streaming: the first submission after which the two
    backends' live states differ, or None.  This is the shrink-friendly
    locator behind the assertion messages."""
    sim_a = _build(backend_a, m, scheduler_name, **kw)
    sim_b = _build(backend_b, m, scheduler_name, **kw)
    sim_a.start()
    sim_b.start()
    ordered = sorted(specs, key=lambda sp: (sp.arrival, sp.job_id))
    for i, spec in enumerate(ordered):
        sim_a.submit(spec, t=spec.arrival)
        sim_b.submit(spec, t=spec.arrival)
        pa, pb = _probe(sim_a), _probe(sim_b)
        if pa != pb:
            return (
                f"first divergence after submission #{i} "
                f"(job {spec.job_id}, arrival {spec.arrival}):\n"
                f"  {backend_a}: {pa}\n  {backend_b}: {pb}"
            )
    ra, rb = sim_a.finish(), sim_b.finish()
    if observables(ra) != observables(rb):
        return (
            f"divergence only at finish(): "
            f"{backend_a}={observables(ra)!r} {backend_b}={observables(rb)!r}"
        )
    return None


def _assert_identical(backend_a, backend_b, specs, m, scheduler_name, stream, **kw):
    res_a = _run(backend_a, specs, m, scheduler_name, stream, **kw)
    res_b = _run(backend_b, specs, m, scheduler_name, stream, **kw)
    if observables(res_a) == observables(res_b):
        return
    where = _first_divergence(
        backend_a, backend_b, specs, m, scheduler_name, **kw
    )
    pytest.fail(
        f"{backend_a} vs {backend_b} diverged "
        f"(scheduler={scheduler_name}, stream={stream}): {where}"
    )


class TestThreeBackendMatrix:
    """The headline matrix: every backend pair, every scheduler family."""

    @pytest.mark.parametrize("scheduler_name", sorted(FACTORIES))
    @pytest.mark.parametrize("backend", ["array", "legacy"])
    def test_backend_vs_event_batch(self, backend, scheduler_name):
        specs = _workload("mixed", seed=7, n_jobs=40, m=8)
        _assert_identical("event", backend, specs, 8, scheduler_name, False)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_array_vs_event_families(self, family):
        specs = _workload(family, seed=3, n_jobs=25, m=8)
        _assert_identical("event", "array", specs, 8, "sns", False)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(FAMILIES),
        scheduler_name=st.sampled_from(sorted(FACTORIES)),
        load=st.sampled_from([0.5, 2.0, 6.0]),
        speed=st.sampled_from([1.0, 1.5, 2.0]),
        overhead=st.sampled_from([0.0, 1.0]),
        stream=st.booleans(),
    )
    def test_property_all_backends(
        self, seed, family, scheduler_name, load, speed, overhead, stream
    ):
        specs = _workload(family, seed, load=load)
        results = {
            backend: observables(
                _run(
                    backend,
                    specs,
                    4,
                    scheduler_name,
                    stream,
                    speed=speed,
                    preemption_overhead=overhead,
                )
            )
            for backend in BACKENDS
        }
        for backend in ("array", "legacy"):
            if results[backend] != results["event"]:
                where = _first_divergence(
                    "event",
                    backend,
                    specs,
                    4,
                    scheduler_name,
                    speed=speed,
                    preemption_overhead=overhead,
                )
                pytest.fail(
                    f"event vs {backend} diverged (family={family}, "
                    f"seed={seed}, scheduler={scheduler_name}, "
                    f"load={load}, speed={speed}, overhead={overhead}, "
                    f"stream={stream}): {where}"
                )

    def test_batch_equals_stream_per_backend(self):
        specs = _workload("mixed", seed=11, n_jobs=30, m=8, load=2.5)
        for backend in BACKENDS:
            batch = _run(backend, specs, 8, "sns", False)
            stream = _run(backend, specs, 8, "sns", True)
            # the streaming driver takes one extra decision round per
            # submission, so counters legitimately differ; records and
            # profit must not
            assert observables(batch)[0] == observables(stream)[0], backend
            assert batch.total_profit == stream.total_profit, backend


class TestSnapshotRestoreArm:
    """Mid-run snapshot/restore across the service backends."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(["mixed", "fork_join", "layered"]),
        source=st.sampled_from(SERVICE_BACKENDS),
        target=st.sampled_from(SERVICE_BACKENDS),
        scheduler_name=st.sampled_from(["sns", "edf"]),
    )
    def test_snapshot_roundtrip_property(
        self, seed, family, source, target, scheduler_name
    ):
        """Running to a midpoint, snapshotting from ``source`` and
        restoring into ``target`` must finish exactly like the same
        split protocol run event-to-event.

        (The reference is the *split* event run, not an uninterrupted
        one: stopping an advance at the midpoint legitimately splits
        one execution chunk into two, which changes decision counts --
        the pin is that backends agree, not that splitting is free.)
        """
        specs = _workload(family, seed, n_jobs=20, m=4)
        ordered = sorted(specs, key=lambda sp: (sp.arrival, sp.job_id))
        mid = ordered[len(ordered) // 2].arrival + 1

        def split_run(src, dst):
            first = _build(src, 4, scheduler_name)
            first.start()
            late = []
            for spec in ordered:
                if spec.arrival <= mid:
                    first.submit(spec, t=spec.arrival)
                else:
                    late.append(spec)
            first.advance_to(mid)
            snap = first.snapshot_state()
            second = _build(dst, 4, scheduler_name)
            second.restore_state(snap)
            for spec in late:
                second.submit(spec, t=spec.arrival)
            return second.finish()

        reference = split_run("event", "event")
        resumed = split_run(source, target)
        assert observables(resumed) == observables(reference), (
            f"{source}->{target} snapshot at t={mid} diverged from the "
            f"event->event split run (family={family}, seed={seed}, "
            f"scheduler={scheduler_name})"
        )

    def test_legacy_has_no_snapshot_surface(self):
        """The legacy oracle predates the snapshot API -- selecting it
        for service work must fail loudly, not silently degrade."""
        sim = make_engine("legacy", m=4, scheduler=SNSScheduler(epsilon=1.0))
        assert not hasattr(sim, "snapshot_state")


def _sum_repr(sim):
    """``repr`` of the reference profit: ``sum()`` over the records."""
    state = sim._require_session()
    return repr(sum(rec.profit for rec in state.finished.values()))


def _drive_checked(sim, specs, step):
    """Stream ``specs`` into ``sim`` with extra ``step``-sized advances
    between arrivals, checking the running total after every advance
    and every submission."""
    for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
        while sim.now + step < spec.arrival:
            before = sim.now
            if sim.advance_to(before + step) == before:
                break  # clamped at the horizon
            assert repr(sim.profit_so_far()) == _sum_repr(sim)
        sim.submit(spec, t=max(spec.arrival, sim.now))
        assert repr(sim.profit_so_far()) == _sum_repr(sim)


class TestRunningProfitTotal:
    """``profit_so_far()`` is O(1): the session keeps a running total
    that must stay bit-equal to ``sum(r.profit for r in records)``."""

    @pytest.mark.parametrize("backend", SERVICE_BACKENDS)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(["mixed", "fork_join", "chain"]),
        scheduler_name=st.sampled_from(["sns", "edf", "greedy"]),
        horizon=st.one_of(st.none(), st.integers(min_value=5, max_value=80)),
        step=st.integers(min_value=1, max_value=9),
    )
    def test_total_equals_sum_after_every_advance(
        self, backend, seed, family, scheduler_name, horizon, step
    ):
        specs = _workload(family, seed, n_jobs=25, m=4, load=3.0)
        sim = _build(backend, 4, scheduler_name, horizon=horizon)
        sim.start()
        state = sim._require_session()
        _drive_checked(sim, specs, step)
        result = sim.finish()
        # finish() appends abandon records (horizon runs) last
        assert len(result.records) == len(specs)
        assert repr(state.profit_total()) == repr(result.total_profit)

    @pytest.mark.parametrize("backend", SERVICE_BACKENDS)
    @pytest.mark.parametrize("target", SERVICE_BACKENDS)
    def test_total_rebuilt_on_restore(self, backend, target):
        specs = _workload("mixed", 5, n_jobs=40, m=4, load=3.0)
        ordered = sorted(specs, key=lambda sp: (sp.arrival, sp.job_id))
        mid = ordered[len(ordered) // 2].arrival + 1
        first = _build(backend, 4, "sns")
        first.start()
        _drive_checked(first, [sp for sp in ordered if sp.arrival <= mid], 3)
        first.advance_to(mid)
        assert first.finished_count > 0
        before = repr(first.profit_so_far())
        second = _build(target, 4, "sns")
        second.restore_state(first.snapshot_state())
        assert repr(second.profit_so_far()) == before == _sum_repr(second)
        state = second._require_session()
        _drive_checked(second, [sp for sp in ordered if sp.arrival > mid], 3)
        result = second.finish()
        assert repr(state.profit_total()) == repr(result.total_profit)

    @pytest.mark.parametrize("backend", SERVICE_BACKENDS)
    def test_total_after_in_transit_expiry(self, backend):
        specs = _workload("chain", 9, n_jobs=12, m=4, load=3.0)
        source = _build(backend, 4, "sns")
        dest = _build(backend, 4, "sns")
        source.start()
        dest.start()
        ordered = sorted(specs, key=lambda sp: (sp.arrival, sp.job_id))
        for spec in ordered:
            source.submit(spec, t=spec.arrival)
        source.advance_to(ordered[-1].arrival + 1)
        live = source._require_session().active
        job_id = min(live, key=lambda j: live[j].effective_deadline())
        payload = source.extract_active(job_id)
        assert payload is not None
        # the in-transit expiry is dest's first record: its 0.0 profit
        # turns the int 0 of an empty sum into float 0.0
        deadline = payload["spec"]["deadline"]
        dest.advance_to(deadline + 1)
        dest.inject_active(payload)
        assert dest._require_session().finished[job_id].expired
        assert repr(dest.profit_so_far()) == _sum_repr(dest) == "0.0"
        shift = deadline + 1
        later = [
            replace(
                sp, job_id=sp.job_id + 1000, arrival=sp.arrival + shift,
                deadline=sp.deadline + shift,
            )
            for sp in _workload("chain", 10, n_jobs=8, m=4, load=1.0)
        ]
        state = dest._require_session()
        _drive_checked(dest, later, 2)
        result = dest.finish()
        assert result.total_profit > 0
        assert repr(state.profit_total()) == repr(result.total_profit)

    @pytest.mark.parametrize("backend", SERVICE_BACKENDS)
    @pytest.mark.parametrize("first_arrival", [0, 5])
    def test_abandon_only_session_total(self, backend, first_arrival):
        """A horizon before any completion leaves only abandon records:
        for jobs still active at the horizon (arrivals 0..) or never
        released (arrivals 5..).  Their 0.0 profits still turn
        ``sum()``'s int 0 into float 0.0."""
        specs = [
            JobSpec(i, chain(6), arrival=first_arrival + i,
                    deadline=first_arrival + 40, profit=1.5)
            for i in range(3)
        ]
        sim = _build(backend, 4, "sns", horizon=2)
        sim.start()
        state = sim._require_session()
        for spec in specs:
            sim.submit(spec)
        result = sim.finish()
        assert all(rec.abandoned for rec in result.records.values())
        assert len(result.records) == 3
        assert repr(result.total_profit) == "0.0"
        assert repr(state.profit_total()) == "0.0"

    @settings(max_examples=200, deadline=None)
    @given(
        profits=st.lists(
            st.one_of(
                st.floats(
                    min_value=0.0, max_value=1e300,
                    allow_nan=False, allow_infinity=False,
                ),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=40,
        )
    )
    def test_fold_matches_builtin_sum(self, profits):
        """The running fold reproduces ``sum()`` bit for bit -- plain
        addition before Python 3.12, compensated from 3.12 on -- for
        float and int profits, including the int ``0`` of an empty
        session."""
        state = _RunState(None)
        for i, profit in enumerate(profits):
            state.add_finished(
                CompletionRecord(
                    job_id=i, arrival=0, deadline=1, completion_time=1,
                    profit=profit,
                )
            )
            expected = sum(r.profit for r in state.finished.values())
            assert repr(state.profit_total()) == repr(expected)
            assert type(state.profit_total()) is type(expected)
        if not profits:
            assert state.profit_total() == 0 and type(state.profit_total()) is int
