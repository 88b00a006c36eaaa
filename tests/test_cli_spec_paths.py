"""One serving CLI: ``repro-scenario run SPEC --set section.key=value``.

Every value that can change a result is spec content, set in a spec
file or by ``--set``; ``run``'s other options only attach outputs to
the built run, and each serves the modes :data:`RUN_OPTIONS` names.
The tests pin that split, the reference runs the CI smoke jobs read
(fingerprints, trace and metrics files, summary lines), the
structured exit of a run that loses a shard, and the edges where
specs once disagreed with flags: durable directories, ``0 =
unbounded`` defaults, the trace file, and range errors.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re

import pytest

from repro.errors import ScenarioError, ShardFailedError
from repro.scenarios import (
    REGISTRY,
    ScenarioSpec,
    install_default_components,
    load_spec,
    loads_spec,
    run_scenario,
)
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.cli import RUN_OPTIONS, build_parser
from repro.scenarios.cli import main as scenario_main

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "examples/scenarios"
SERVICE = str(SCENARIOS / "service.toml")
GATEWAY = str(SCENARIOS / "gateway.toml")


def _sets(**values) -> list[str]:
    """``--set`` arguments; ``__`` in a keyword stands for the dot."""
    argv = []
    for key, value in values.items():
        if isinstance(value, bool):
            value = str(value).lower()
        argv += ["--set", f"{key.replace('__', '.')}={value}"]
    return argv


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = scenario_main(["run", *argv])
    return rc, buf.getvalue()


def _ok(argv) -> str:
    rc, out = _run(argv)
    assert rc == 0, out
    return out


def _fingerprint(out: str) -> str:
    return re.search(r"^result fingerprint:\s+(\w+)", out, re.M).group(1)


def _lines(out: str, label: str) -> list[str]:
    return re.findall(rf"^{label}:\s+(.*)$", out, re.M)


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


class TestRunOptions:
    def test_every_option_is_spec_input_or_a_run_time_output(self):
        run = build_parser()._subparsers._group_actions[0].choices["run"]
        spec_input = {"--help", "--set", "--dump-scenario", "--output"}
        flags = {
            max(action.option_strings, key=len)
            for action in run._actions
            if action.option_strings
        }
        assert flags == spec_input | set(RUN_OPTIONS)

    @pytest.mark.parametrize(
        "spec, option, value, mode",
        [
            (SERVICE, "--kpi", "k.jsonl", "service"),
            (SERVICE, "--serve", "0", "service"),
            (GATEWAY, "--metrics", "m.jsonl", "gateway"),
            (GATEWAY, "--checkpoint-at", "10", "gateway"),
            ("cluster", "--checkpoint-at", "10", "cluster"),
            ("batch", "--report-every", "5", "batch"),
        ],
    )
    def test_option_outside_its_modes_exits_2_naming_both(
        self, tmp_path, capsys, spec, option, value, mode
    ):
        sets = []
        if spec in ("cluster", "batch"):
            sets = _sets(scenario__mode=spec)
            if spec == "cluster":
                sets += _sets(cluster__shards=2)
            spec = SERVICE
        if value.endswith(".jsonl"):
            value = str(tmp_path / value)
        argv = [spec, *sets, "--set", "workload.n_jobs=10", option, value]
        rc, out = _run(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert option in err and f"{mode} mode" in err
        assert "result fingerprint" not in out
        assert not list(tmp_path.iterdir())

    def test_checkpoint_path_needs_checkpoint_at(self, capsys):
        rc, _ = _run([SERVICE, "--checkpoint-path", "c.json"])
        assert rc == 2
        assert "--checkpoint-at" in capsys.readouterr().err


class TestShardsNeedClusterMode:
    @pytest.mark.parametrize("mode", ["service", "batch"])
    def test_shards_outside_cluster_mode_is_a_located_error(self, mode):
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec().with_overrides(
                {"mode": mode, "cluster.shards": 4}
            )
        assert info.value.location == "cluster.shards"
        assert "scenario.mode = 'cluster'" in str(info.value)

    def test_run_exits_2_instead_of_serving_one_pool(self, capsys):
        rc, out = _run([SERVICE, *_sets(cluster__shards=4)])
        assert rc == 2
        assert "cluster.shards" in capsys.readouterr().err
        assert "result fingerprint" not in out


class TestStructuredExit:
    EXHAUSTED = _sets(
        scenario__mode="cluster",
        workload__n_jobs=300,
        cluster__shards=2,
        cluster__mode="inprocess",
        faults__kind="chaos",
        faults__chaos="crash:1:40",
        cluster__max_restarts=0,
    )

    def test_exhausted_restart_budget_exits_2_with_a_json_summary(
        self, capsys
    ):
        rc, out = _run([SERVICE, *self.EXHAUSTED])
        assert rc == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "recovery-exhausted"
        assert (summary["shard"], summary["restarts"]) == (1, 0)
        assert "error: shard 1 recovery exhausted" in out
        assert "result fingerprint" not in out

    def test_failed_shard_exits_2_with_a_json_summary(
        self, monkeypatch, capsys
    ):
        def fail(self):
            raise ShardFailedError("gone", shard=1, reason="crash")

        monkeypatch.setattr(ScenarioBuilder, "run", fail)
        rc, out = _run([SERVICE, "--set", "workload.n_jobs=10"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "shard-failed",
            "shard": 1,
            "fault": "crash",
        }
        assert "error: shard 1 failed (crash)" in out


#: the reference runs' result fingerprints (and the traced run's
#: trace-file digest), as the service and gateway printed them when
#: each had a CLI of its own
CLUSTER_LEG = (
    "f4863ed0990e1684d667dd7b8b559b87"
    "72e41e4288e6b8bd017e497f4dbb0be9"
)
DEGRADED_LEG = (
    "a41db2486d379a14717543a3ef9d5826"
    "a258b545ab263e43115bed8f68323e8e"
)
GATEWAY_LEG = (
    "cbd6f18c7ba3b474ceac3ccefff86458"
    "830e73c06cc9f8fd8f14c4be90535c74"
)
TRACED_LEG = (
    "228bd35ecc34660ea81ef666620d03ce"
    "ade6c8e5fcb5bcdeef23c266679e73bc"
)
TRACED_LEG_TRACE = (
    "cc7f01d223ca1d83cf4db036293915fb"
    "966125b3b7bcbc6cc9c5dbdc15c821e8"
)
CLUSTER_SMOKE_LEAST_LOADED = (
    "bd57968125f2cfa9178b5bf259a4d40e"
    "e390c39f34ab017ef044e00aaffaabba"
)
CLUSTER_SMOKE_CONSISTENT_HASH = (
    "f1770b24e3bba22c8a31e882eb4431ff"
    "c14e3eca84c523868da0daad62b2b3b6"
)
COORDINATOR_SMOKE = (
    "3b294d2183b082ffba456c30af617dec"
    "6ec00b93e6c0a378d54c8b68f36386fd"
)
SEEDED_CHAOS = (
    "944a46ece81b14f0793d72bd2822dc09"
    "1e7c1ac891d1bdfc60f7bc2904809620"
)
DURABLE_CHAOS = (
    "6672a6f7540624546193ecf977299e14"
    "2da53025897066ef2e82455e072ffb3d"
)
GATEWAY_SMOKE = (
    "d222664d9a19d7927d42ff56b5aee4a2"
    "06a669cc9036891a0262e62313a76f3d"
)
CHECKPOINTED_SERVICE = (
    "de55dd0e145cb4f3c5444e35789fbbe1"
    "7e2fc0253bcdd64ea7a6fa07be3cf26d"
)
#: SHA-256 of the cluster-smoke ``--metrics`` file (the shards' samples,
#: merged), per router; the same in both shard modes
CLUSTER_SMOKE_METRICS = {
    "least-loaded": (
        "71edf1d30fd019a685ea8d071431b569"
        "c5f831c99d4da7084cc5ecd4fd1f4024"
    ),
    "consistent-hash": (
        "b93ee5b3bbc2568add9e42240fd20800"
        "e4f6d6f417d0691200df05b47ffd78d4"
    ),
}
#: the gateway spec's default run (4 shards) on 400 jobs
GATEWAY_DEFAULT_400 = (
    "d4daf6bf0e39aeba20a2f69139ba34ec"
    "45e767c579af4d852d2de7fc50af54ab"
)
#: the checkpointed service run's ``--report-every 25`` progress lines,
#: gauges read at every sample (the default) and every 7 steps
SERVICE_PROGRESS = [
    "t=      49  submitted=25/200  depth=7  in_flight=8  completed=4  "
    "expired=5  shed=1  profit=4.20",
    "t=      98  submitted=50/200  depth=4  in_flight=8  completed=8  "
    "expired=18  shed=12  profit=8.33",
    "t=     142  submitted=75/200  depth=10  in_flight=8  completed=9  "
    "expired=23  shed=25  profit=9.34",
    "t=     194  submitted=100/200  depth=7  in_flight=8  completed=13  "
    "expired=33  shed=39  profit=13.41",
    "t=     244  submitted=125/200  depth=6  in_flight=8  completed=16  "
    "expired=36  shed=59  profit=16.64",
    "t=     299  submitted=150/200  depth=7  in_flight=8  completed=18  "
    "expired=45  shed=72  profit=19.48",
    "t=     340  submitted=175/200  depth=12  in_flight=8  completed=19  "
    "expired=49  shed=87  profit=20.66",
    "t=     377  submitted=200/200  depth=12  in_flight=8  completed=20  "
    "expired=54  shed=106  profit=21.83",
]
SERVICE_PROGRESS_EVERY_7 = [
    "t=      49  submitted=25/200  depth=7  in_flight=8  completed=4  "
    "expired=5  shed=1  profit=4.20",
    "t=      98  submitted=50/200  depth=4  in_flight=8  completed=7  "
    "expired=16  shed=12  profit=7.77",
    "t=     142  submitted=75/200  depth=10  in_flight=8  completed=9  "
    "expired=22  shed=25  profit=9.34",
    "t=     194  submitted=100/200  depth=7  in_flight=8  completed=13  "
    "expired=31  shed=39  profit=13.41",
    "t=     244  submitted=125/200  depth=6  in_flight=8  completed=16  "
    "expired=36  shed=59  profit=16.64",
    "t=     299  submitted=150/200  depth=7  in_flight=8  completed=17  "
    "expired=45  shed=72  profit=18.51",
    "t=     340  submitted=175/200  depth=12  in_flight=8  completed=19  "
    "expired=48  shed=87  profit=20.66",
    "t=     377  submitted=200/200  depth=12  in_flight=8  completed=20  "
    "expired=53  shed=106  profit=21.83",
]


#: ``--set`` lines of the runs the CI smoke jobs make
CLUSTER_SMOKE = _sets(
    scenario__mode="cluster",
    workload__n_jobs=1000,
    workload__m=16,
    workload__load=3.0,
    seed=3,
    cluster__shards=2,
    cluster__mode="process",
    cluster__router="least-loaded",
    service__capacity=8,
    service__max_in_flight=8,
)
DURABLE = _sets(
    scenario__mode="cluster",
    workload__n_jobs=400,
    workload__m=8,
    workload__load=2.5,
    seed=5,
    cluster__shards=2,
    cluster__mode="process",
    cluster__supervise=True,
    faults__kind="chaos",
    faults__chaos="crash:0:150",
)
CHECKPOINTED = _sets(
    workload__n_jobs=200,
    workload__load=3.0,
    service__capacity=12,
    service__max_in_flight=8,
)


class TestReferenceRuns:
    """Fingerprints, files and summary lines of the runs the CI smoke
    jobs make."""

    def test_identity_legs(self):
        out = _ok(
            [SERVICE]
            + _sets(
                scenario__mode="cluster",
                workload__n_jobs=300,
                workload__m=8,
                workload__load=2.5,
                seed=11,
                cluster__shards=2,
                cluster__mode="process",
                service__capacity=8,
            )
        )
        assert _fingerprint(out) == CLUSTER_LEG
        out = _ok(
            [SERVICE]
            + _sets(
                scenario__mode="cluster",
                workload__n_jobs=300,
                workload__m=8,
                cluster__shards=2,
                cluster__mode="inprocess",
                faults__kind="chaos",
                faults__chaos="crash:1:40",
                cluster__max_restarts=0,
                cluster__on_exhausted="degrade",
            )
        )
        assert _fingerprint(out) == DEGRADED_LEG
        assert _lines(out, "degraded") == ["shards [1]"]
        assert _lines(out, "supervision")[0].startswith(
            "shard 1 crash at t=43 -> degrade"
        )
        assert _lines(out, "cluster_shed") == ["6"]
        # every job is recorded or shed, cluster-level sheds included
        jobs, shed = (int(_lines(out, key)[0]) for key in ("jobs", "shed"))
        assert jobs + shed == 300
        assert shed == 6
        out = _ok(
            [GATEWAY]
            + _sets(
                workload__n_jobs=400,
                workload__m=16,
                workload__process="flash-crowd",
                gateway__shards_initial=2,
                gateway__shards_max=4,
                autoscale__enabled=True,
                service__max_in_flight=8,
            )
        )
        assert _fingerprint(out) == GATEWAY_LEG

    def test_traced_leg_writes_the_pinned_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        out = _ok(
            [SERVICE]
            + _sets(
                workload__n_jobs=800,
                workload__m=8,
                workload__load=3.0,
                seed=7,
                service__capacity=16,
                service__max_in_flight=8,
                tracing__enabled=True,
                tracing__path=str(trace),
            )
        )
        assert _fingerprint(out) == TRACED_LEG
        assert _lines(out, "trace written")[0].startswith(str(trace))
        assert _sha256(trace) == TRACED_LEG_TRACE

    def test_cluster_smoke_recovers_and_matches_across_modes(self, tmp_path):
        crash = _ok(
            [SERVICE, *CLUSTER_SMOKE]
            + _sets(faults__kind="chaos", faults__chaos="crash:1:100")
            + ["--report-every", "250"]
        )
        assert _lines(crash, "recovery")[0].startswith("shard 1 at t=102")
        assert len(re.findall(r"^t=\s*\d+\s+submitted=", crash, re.M)) == 4
        expected = {
            "least-loaded": CLUSTER_SMOKE_LEAST_LOADED,
            "consistent-hash": CLUSTER_SMOKE_CONSISTENT_HASH,
        }
        assert _fingerprint(crash) == expected["least-loaded"]
        for router, pin in expected.items():
            metrics = {}
            for mode in ("inprocess", "process"):
                path = tmp_path / f"{router}-{mode}.jsonl"
                out = _ok(
                    [SERVICE, *CLUSTER_SMOKE]
                    + _sets(cluster__router=router, cluster__mode=mode)
                    + ["--metrics", str(path)]
                )
                assert _fingerprint(out) == pin, (router, mode)
                metrics[mode] = path.read_bytes()
            assert metrics["inprocess"] == metrics["process"]
            assert metrics["process"].count(b"\n") > 0
            assert _sha256(path) == CLUSTER_SMOKE_METRICS[router]

    def test_coordinator_smoke_steals(self):
        out = _ok(
            [SERVICE]
            + _sets(
                scenario__mode="cluster",
                workload__n_jobs=1500,
                workload__m=16,
                workload__load=3.0,
                seed=7,
                cluster__shards=4,
                cluster__mode="process",
                cluster__coordinate=True,
                service__capacity=8,
                service__max_in_flight=8,
            )
        )
        assert _fingerprint(out) == COORDINATOR_SMOKE
        assert _lines(out, "steals") == ["27"]

    def test_supervised_seeded_chaos(self):
        out = _ok(
            [SERVICE]
            + _sets(
                scenario__mode="cluster",
                workload__n_jobs=600,
                workload__m=8,
                workload__load=2.5,
                seed=5,
                cluster__shards=2,
                cluster__mode="process",
                cluster__supervise=True,
                cluster__heartbeat_every=8,
                faults__kind="chaos",
                faults__chaos="seed:5",
            )
        )
        assert _fingerprint(out) == SEEDED_CHAOS
        assert len(_lines(out, "recovery")) == 2

    def test_memory_and_disk_checkpoints_agree(self, tmp_path):
        for durable in (
            [],
            _sets(
                cluster__wal_dir=str(tmp_path / "wal"),
                cluster__checkpoint_dir=str(tmp_path / "ckpt"),
            ),
        ):
            out = _ok([SERVICE, *DURABLE, *durable])
            assert _fingerprint(out) == DURABLE_CHAOS
            assert re.search(
                r"^recovery:\s+shard 0 .*checkpoint t=[1-9]", out, re.M
            )
        assert list((tmp_path / "wal").glob("*.wal"))

    def test_gateway_smoke_kpi_file(self, tmp_path):
        kpi = tmp_path / "kpi.jsonl"
        out = _ok(
            [GATEWAY]
            + _sets(
                workload__n_jobs=400,
                workload__m=8,
                workload__load=1.2,
                seed=7,
                workload__process="flash-crowd",
                gateway__shards_max=2,
                gateway__shards_initial=1,
                autoscale__enabled=True,
                service__max_in_flight=8,
            )
            + ["--kpi", str(kpi)]
        )
        assert _fingerprint(out) == GATEWAY_SMOKE
        assert _lines(out, "kpi written") == [f"{kpi} (90 snapshots)"]
        lines = kpi.read_text().splitlines()
        assert len(lines) == 90
        final = json.loads(lines[-1])
        assert final["final"] is True
        profit = float(_lines(out, "total_profit")[0])
        assert profit == final["total_profit"]
        assert f"{profit:.4f}" == "181.5936"

    def test_service_checkpoint_changes_nothing(self, tmp_path):
        runs = {}
        for probe in ([], ["--checkpoint-at", "100"]):
            path = tmp_path / f"m{len(probe)}.jsonl"
            out = _ok(
                [SERVICE, *CHECKPOINTED, "--metrics", str(path), *probe]
            )
            assert _fingerprint(out) == CHECKPOINTED_SERVICE
            runs[bool(probe)] = (out, path.read_bytes())
        assert _lines(runs[True][0], "checkpoint") == [
            "t=98 restored from <memory> (8 in flight, depth=4)"
        ]
        assert not _lines(runs[False][0], "checkpoint")
        assert runs[True][1] == runs[False][1]

    def test_service_progress_lines(self):
        """The progress line reads the service's gauges, synced on read
        when nothing keeps samples, through a snapshot-and-restore too;
        with ``sample_every`` they lag to the last sample."""
        for probe in ([], ["--checkpoint-at", "100"]):
            out = _ok([SERVICE, *CHECKPOINTED, "--report-every", "25", *probe])
            assert re.findall(r"^t=.*$", out, re.M) == SERVICE_PROGRESS
        out = _ok(
            [SERVICE, *CHECKPOINTED, *_sets(service__sample_every=7)]
            + ["--report-every", "25"]
        )
        assert re.findall(r"^t=.*$", out, re.M) == SERVICE_PROGRESS_EVERY_7

    def test_gateway_shards_keep_no_samples(self):
        """Nothing reads a gateway shard's samples, so none are kept."""
        spec = load_spec(GATEWAY).with_overrides(
            {"workload.n_jobs": 400}
        )
        result = run_scenario(spec)
        assert result.fingerprint() == GATEWAY_DEFAULT_400
        shards = result.raw.cluster.shard_results
        assert [len(s.metrics.samples) for s in shards] == [0, 0, 0, 0]

    def test_checkpoint_to_a_file(self, tmp_path):
        path = tmp_path / "snap.json"
        out = _ok(
            [SERVICE, *CHECKPOINTED, "--checkpoint-at", "100"]
            + ["--checkpoint-path", str(path)]
        )
        assert _fingerprint(out) == CHECKPOINTED_SERVICE
        assert _lines(out, "checkpoint")[0].endswith(
            f"restored from {path} (8 in flight, depth=4)"
        )
        assert json.loads(path.read_text())["version"]
        assert pathlib.Path(f"{path}.sha256").exists()


class TestDurableDirectories:
    SETS = _sets(
        scenario__mode="cluster",
        workload__n_jobs=200,
        workload__m=4,
        cluster__shards=2,
        cluster__mode="inprocess",
        cluster__supervise=True,
    )

    def test_dumped_spec_writes_wal_and_checkpoints(self, tmp_path):
        wal, ckpt = tmp_path / "W", tmp_path / "C"
        dump = _ok(
            [SERVICE, *self.SETS]
            + _sets(cluster__wal_dir=str(wal), cluster__checkpoint_dir=str(ckpt))
            + ["--dump-scenario"]
        )
        spec = loads_spec(dump, "toml")
        assert (spec.cluster.wal_dir, spec.cluster.checkpoint_dir) == (
            str(wal),
            str(ckpt),
        )
        path = tmp_path / "durable.toml"
        path.write_text(dump)
        _ok([str(path)])
        assert sorted(p.name for p in wal.glob("*.wal")) == [
            "shard-000.wal",
            "shard-001.wal",
        ]
        assert {p.name.split(".")[0] for p in ckpt.glob("*.ckpt")} == {
            "shard-000",
            "shard-001",
        }

    @pytest.mark.parametrize("key", ["wal_dir", "checkpoint_dir"])
    def test_unsupervised_directory_exits_2(self, tmp_path, capsys, key):
        argv = [SERVICE, "--set", "workload.n_jobs=20"]
        argv += _sets(scenario__mode="cluster", cluster__shards=2)
        argv += ["--set", f"cluster.{key}={tmp_path / 'D'}"]
        assert _run(argv)[0] == 2
        err = capsys.readouterr().err
        assert f"cluster.{key}" in err and "supervised" in err
        assert not (tmp_path / "D").exists()


class TestZeroMeansUnbounded:
    SETS = _sets(workload__n_jobs=80, workload__m=4, workload__load=3.0, seed=2)

    def test_serve_max_in_flight_zero_runs_unbounded(self):
        zero = _ok([SERVICE, *self.SETS, "--set", "service.max_in_flight=0"])
        default = _ok([SERVICE, *self.SETS])
        assert _fingerprint(zero) == _fingerprint(default)
        spec = ScenarioSpec().with_overrides(
            {
                "workload.n_jobs": 80,
                "workload.m": 4,
                "workload.load": 3.0,
                "seed": 2,
                "service.max_in_flight": 0,
            }
        )
        assert run_scenario(spec).fingerprint() == _fingerprint(zero)

    def test_gateway_zero_defaults_match_the_spec(self):
        sets = _sets(
            workload__n_jobs=60,
            workload__m=4,
            gateway__shards_max=2,
            service__max_in_flight=0,
            gateway__max_dispatch=0,
            gateway__max_ticks=0,
            gateway__shards_initial=0,
        )
        out = _ok([GATEWAY, *sets])
        spec = ScenarioSpec().with_overrides(
            {
                "mode": "gateway",
                "workload.kind": "open-loop",
                "workload.n_jobs": 60,
                "workload.m": 4,
                "workload.load": 1.0,
                "cluster.mode": "inprocess",
                "gateway.shards_max": 2,
            }
        )
        assert run_scenario(spec).fingerprint() == _fingerprint(out)


class TestTracePath:
    SETS = _sets(
        workload__n_jobs=80,
        workload__m=4,
        workload__load=3.0,
        seed=7,
        service__capacity=8,
        service__max_in_flight=4,
        tracing__enabled=True,
    )

    def test_spec_trace_is_byte_identical_to_flags_trace(self, tmp_path):
        flags_trace = tmp_path / "flags.jsonl"
        out = _ok([SERVICE, *self.SETS, "--set", f"tracing.path={flags_trace}"])
        assert _lines(out, "trace written")
        again = tmp_path / "again.jsonl"
        _ok([SERVICE, *self.SETS, "--set", f"tracing.path={again}"])
        assert again.read_bytes() == flags_trace.read_bytes()

        spec_trace = tmp_path / "spec.jsonl"
        dump = _ok(
            [SERVICE, *self.SETS, "--set", f"tracing.path={spec_trace}"]
            + ["--dump-scenario"]
        )
        path = tmp_path / "traced.toml"
        path.write_text(dump)
        _ok([str(path)])
        assert spec_trace.read_bytes() == flags_trace.read_bytes()


class TestRangeErrors:
    @pytest.mark.parametrize(
        "override",
        [
            "service.max_in_flight=-3",
            "service.capacity=0",
            "gateway.shards_initial=9",
            "service.sample_every=-1",
            "cluster.coordinate_every=0",
            "cluster.steal_batch=0",
            "cluster.max_moves_per_job=0",
            "cluster.checkpoint_every=-5",
            "cluster.max_displaced=-1",
            "cluster.steal_margin=1.0",
        ],
    )
    def test_scenario_run_set_exits_2_naming_the_key(
        self, tmp_path, capsys, override
    ):
        path = tmp_path / "spec.toml"
        path.write_text(ScenarioSpec.from_dict({}).to_toml())
        assert scenario_main(["run", str(path), "--set", override]) == 2
        key = override.split("=")[0]
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cluster.wal_dir": "W"},
            {"mode": "cluster", "cluster.shards": 2, "cluster.wal_dir": "W"},
            {
                "mode": "cluster",
                "cluster.shards": 2,
                "cluster.checkpoint_dir": "C",
            },
        ],
    )
    def test_directories_need_a_supervised_cluster(self, overrides):
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec().with_overrides(overrides)
        assert info.value.location in (
            "cluster.wal_dir",
            "cluster.checkpoint_dir",
        )

    def test_chaos_supervises_so_directories_are_allowed(self):
        spec = ScenarioSpec().with_overrides(
            {
                "mode": "cluster",
                "cluster.shards": 2,
                "faults.kind": "chaos",
                "faults.chaos": "crash:0:10",
                "cluster.wal_dir": "W",
            }
        )
        assert spec.supervised()

    def test_serve_negative_max_in_flight_exits_2(self, capsys):
        assert _run([SERVICE, "--set", "service.max_in_flight=-3"])[0] == 2
        assert "service.max_in_flight" in capsys.readouterr().err


class TestDeadSurface:
    def test_no_sink_component_kind(self):
        install_default_components()
        assert "sink" not in REGISTRY.kinds()
