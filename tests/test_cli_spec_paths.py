"""The serving CLIs are flags -> ScenarioSpec -> ScenarioBuilder.

Every ``repro-serve`` / ``repro-gateway`` flag either sets one dotted
spec path, is one of the few flags the CLI derives spec values from,
or only attaches an output to the built run.  A new flag has to pick
one of the three sides here.  The remaining tests pin the edges where
the flag path and the spec path once disagreed: durable directories,
``0 = unbounded`` defaults, the trace file, and range errors.
"""

import contextlib
import io
import re

import pytest

from repro.errors import ScenarioError
from repro.gateway import cli as gateway_cli
from repro.scenarios import (
    REGISTRY,
    ScenarioSpec,
    install_default_components,
    loads_spec,
    run_scenario,
)
from repro.scenarios.cli import main as scenario_main
from repro.service import cli as serve_cli

#: flags whose spec values the CLI derives by hand
DERIVED = {
    "repro-serve": {"--chaos", "--trace"},
    "repro-gateway": set(),
}

#: flags that attach outputs to the built run and never change a result
OUTPUT_ONLY = {
    "repro-serve": {
        "--help",
        "--metrics",
        "--report-every",
        "--checkpoint-at",
        "--checkpoint-path",
        "--scenario",
        "--dump-scenario",
    },
    "repro-gateway": {
        "--help",
        "--serve",
        "--kpi",
        "--report-every",
        "--scenario",
        "--dump-scenario",
    },
}

CLIS = {"repro-serve": serve_cli, "repro-gateway": gateway_cli}


def _spec_paths() -> set[str]:
    return {
        f"{section}.{key}"
        for section, table in ScenarioSpec().to_dict().items()
        for key in table
    }


def _run(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _fingerprint(out: str) -> str:
    return re.search(r"^fingerprint:\s+(\w+)", out, re.M).group(1)


class TestEveryFlagPicksASide:
    @pytest.mark.parametrize("prog", sorted(CLIS))
    def test_flag_is_spec_path_derived_or_output(self, prog):
        paths = _spec_paths()
        named = DERIVED[prog] | OUTPUT_ONLY[prog]
        seen = set()
        for action in CLIS[prog].build_parser()._actions:
            flag = max(action.option_strings, key=len)
            seen.add(flag)
            if "." in action.dest:
                assert action.dest in paths, (flag, action.dest)
                assert flag not in named, flag
            else:
                assert flag in named, (
                    f"{prog} {flag}: name its spec path (dest="
                    "'section.key') or list it as derived/output-only"
                )
        assert named <= seen, named - seen

    @pytest.mark.parametrize("prog", sorted(CLIS))
    def test_each_spec_path_flag_lands_at_its_path(self, prog):
        module = CLIS[prog]
        args = module.build_parser().parse_args([])
        doc = module._spec_from_args(args).to_dict()
        for path, value in vars(args).items():
            if "." in path:
                section, key = path.split(".")
                assert doc[section][key] == value, path


class TestDurableDirectories:
    FLAGS = [
        "--n-jobs", "200", "--m", "4", "--shards", "2",
        "--cluster-mode", "inprocess", "--supervise",
    ]

    def test_dumped_spec_writes_wal_and_checkpoints(self, tmp_path):
        wal, ckpt = tmp_path / "W", tmp_path / "C"
        rc, dump = _run(
            serve_cli.main,
            self.FLAGS
            + ["--wal-dir", str(wal), "--checkpoint-dir", str(ckpt)]
            + ["--dump-scenario"],
        )
        assert rc == 0
        spec = loads_spec(dump, "toml")
        assert (spec.cluster.wal_dir, spec.cluster.checkpoint_dir) == (
            str(wal),
            str(ckpt),
        )
        path = tmp_path / "durable.toml"
        path.write_text(dump)
        rc, _ = _run(scenario_main, ["run", str(path)])
        assert rc == 0
        assert sorted(p.name for p in wal.glob("*.wal")) == [
            "shard-000.wal",
            "shard-001.wal",
        ]
        assert {p.name.split(".")[0] for p in ckpt.glob("*.ckpt")} == {
            "shard-000",
            "shard-001",
        }

    @pytest.mark.parametrize("flag", ["--wal-dir", "--checkpoint-dir"])
    def test_unsupervised_directory_exits_2(self, tmp_path, capsys, flag):
        argv = ["--n-jobs", "20", "--shards", "2", flag, str(tmp_path / "D")]
        assert serve_cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "cluster." in err and "supervised" in err
        assert not (tmp_path / "D").exists()


class TestZeroMeansUnbounded:
    FLAGS = ["--n-jobs", "80", "--m", "4", "--load", "3.0", "--seed", "2"]

    def test_serve_max_in_flight_zero_runs_unbounded(self):
        rc, zero = _run(
            serve_cli.main,
            self.FLAGS + ["--max-in-flight", "0", "--report-every", "0"],
        )
        assert rc == 0
        rc, default = _run(
            serve_cli.main, self.FLAGS + ["--report-every", "0"]
        )
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
        flags = [
            "--n-jobs", "60", "--m", "4", "--shards-max", "2",
            "--clock", "virtual", "--max-in-flight", "0",
            "--max-dispatch", "0", "--max-ticks", "0",
            "--shards-initial", "0",
        ]
        rc, out = _run(gateway_cli.main, flags)
        assert rc == 0
        spec = gateway_cli._spec_from_args(
            gateway_cli.build_parser().parse_args(flags)
        )
        assert run_scenario(spec).fingerprint() == _fingerprint(out)


class TestTracePath:
    FLAGS = [
        "--n-jobs", "80", "--m", "4", "--load", "3.0", "--seed", "7",
        "--capacity", "8", "--max-in-flight", "4", "--report-every", "0",
    ]

    def test_spec_trace_is_byte_identical_to_flags_trace(self, tmp_path):
        flags_trace = tmp_path / "flags.jsonl"
        rc, out = _run(
            serve_cli.main, self.FLAGS + ["--trace", str(flags_trace)]
        )
        assert rc == 0 and "trace written:" in out
        again = tmp_path / "again.jsonl"
        _run(serve_cli.main, self.FLAGS + ["--trace", str(again)])
        assert again.read_bytes() == flags_trace.read_bytes()

        spec_trace = tmp_path / "spec.jsonl"
        rc, dump = _run(
            serve_cli.main,
            self.FLAGS + ["--trace", str(spec_trace), "--dump-scenario"],
        )
        path = tmp_path / "traced.toml"
        path.write_text(dump)
        rc, _ = _run(scenario_main, ["run", str(path)])
        assert rc == 0
        assert spec_trace.read_bytes() == flags_trace.read_bytes()

        spec_trace.unlink()
        rc, out = _run(serve_cli.main, ["--scenario", str(path)])
        assert rc == 0
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
                "cluster.migrate_every": 5,
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
        assert serve_cli.main(["--max-in-flight", "-3"]) == 2
        assert "service.max_in_flight" in capsys.readouterr().err


class TestDeadSurface:
    def test_no_sink_component_kind(self):
        install_default_components()
        assert "sink" not in REGISTRY.kinds()
