"""Scenario subsystem: registry, spec round-trips, builder identity, matrix.

The pinned properties:

- ``ScenarioSpec -> TOML/JSON -> ScenarioSpec`` is the identity (and
  fingerprints agree), property-tested over randomized specs.
- A seeded spec-driven run is bit-identical across repeats AND equal
  to the ``repro-scenario run SPEC --set ...`` run of the same spec,
  for the single service, the 4-shard process cluster, and the
  VirtualClock gateway.
- ``repro-scenario run --dump-scenario`` output re-runs to the same
  result fingerprint as the ``--set`` flags that produced it.
- A matrix run is cell-for-cell identical serially and in parallel.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioError
from repro.scenarios import (
    REGISTRY,
    ComponentRegistry,
    ScenarioBuilder,
    ScenarioSpec,
    install_default_components,
    load_spec,
    loads_spec,
    run_matrix,
    run_scenario,
)

install_default_components()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestComponentRegistry:
    def test_register_and_get(self):
        reg = ComponentRegistry()
        reg.register("widget", "alpha", lambda: "a", summary="first")
        component = reg.get("widget", "alpha")
        assert component.create() == "a"
        assert component.summary == "first"

    def test_decorator_form(self):
        reg = ComponentRegistry()

        @reg.register("widget", "beta")
        def make_beta():
            """Beta widget."""
            return "b"

        assert reg.get("widget", "beta").create() == "b"
        assert reg.get("widget", "beta").summary == "Beta widget."

    def test_duplicate_registration_raises(self):
        reg = ComponentRegistry()
        reg.register("widget", "alpha", lambda: "a")
        with pytest.raises(ScenarioError, match="duplicate registration"):
            reg.register("widget", "alpha", lambda: "b")
        # replace=True is the deliberate override
        reg.register("widget", "alpha", lambda: "c", replace=True)
        assert reg.get("widget", "alpha").create() == "c"

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(ScenarioError) as excinfo:
            REGISTRY.get("scheduler", "snss")
        assert "did you mean 'sns'" in str(excinfo.value)
        assert "sns" in excinfo.value.suggestions

    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ScenarioError, match="unknown component kind"):
            REGISTRY.get("schedulr", "sns")

    def test_catalog_is_sorted_and_complete(self):
        catalog = REGISTRY.catalog()
        keys = [(c.kind, c.name) for c in catalog]
        assert keys == sorted(keys)
        assert ("scheduler", "sns") in keys
        assert ("router", "band-aware") in keys
        assert ("picker", "lifo") in keys
        assert "engine" not in {kind for kind, _ in keys}


# ----------------------------------------------------------------------
# Spec round-trip (property-tested)
# ----------------------------------------------------------------------
spec_docs = st.fixed_dictionaries(
    {},
    optional={
        "scenario": st.fixed_dictionaries(
            {},
            optional={
                "name": st.text(
                    st.characters(
                        codec="ascii", categories=("L", "N"),
                    ),
                    min_size=1,
                    max_size=12,
                ),
                "mode": st.sampled_from(
                    ["batch", "service", "cluster", "gateway"]
                ),
                "seed": st.integers(0, 2**31 - 1),
            },
        ),
        "workload": st.fixed_dictionaries(
            {},
            optional={
                "n_jobs": st.integers(1, 5000),
                "m": st.integers(1, 64),
                "load": st.floats(0.1, 8.0, allow_nan=False),
                "family": st.sampled_from(
                    ["chain", "fork_join", "mixed"]
                ),
                "epsilon": st.floats(0.1, 2.0, allow_nan=False),
                "seed": st.integers(-1, 100),
                "process": st.sampled_from(
                    ["poisson", "diurnal", "flash-crowd", "sessions"]
                ),
                "kind": st.sampled_from(["", "generated", "open-loop"]),
            },
        ),
        "scheduler": st.fixed_dictionaries(
            {},
            optional={
                "name": st.sampled_from(
                    ["sns", "edf", "fifo", "greedy", "nonclairvoyant"]
                ),
            },
        ),
        "cluster": st.fixed_dictionaries(
            {},
            optional={
                "shards": st.integers(1, 8),
                "router": st.sampled_from(
                    ["", "least-loaded", "consistent-hash", "band-aware"]
                ),
                "mode": st.sampled_from(["inprocess", "process"]),
                "coordinate": st.booleans(),
            },
        ),
        "service": st.fixed_dictionaries(
            {},
            optional={
                "capacity": st.integers(1, 4096),
                "max_in_flight": st.integers(0, 256),
            },
        ),
        "gateway": st.fixed_dictionaries(
            {},
            optional={
                "clock": st.sampled_from(["wall", "virtual"]),
                "tick": st.floats(0.001, 1.0, allow_nan=False),
                "max_ticks": st.integers(0, 10_000),
            },
        ),
    },
)


def _force_valid(doc: dict) -> dict:
    """Patch up cross-field constraints the strategies don't know about."""
    doc = json.loads(json.dumps(doc))
    mode = doc.get("scenario", {}).get("mode", "service")
    if mode == "gateway":
        doc.setdefault("workload", {})["kind"] = "open-loop"
        # elastic shards are fixed-size: m must divide shards_max (4)
        doc.setdefault("workload", {})["m"] = 8
        # the elastic cluster is sized by gateway.shards_max
        doc.get("cluster", {}).pop("shards", None)
    else:
        wl = doc.setdefault("workload", {})
        if wl.get("kind") == "open-loop":
            wl["kind"] = "generated"
        if mode != "cluster":
            # one machine pool: only cluster mode shards the run
            doc.get("cluster", {}).pop("shards", None)
        shards = doc.get("cluster", {}).get("shards", 1)
        wl["m"] = max(wl.get("m", 8), shards)
    cluster = doc.get("cluster", {})
    if mode in ("cluster", "gateway") and cluster.get("router") == "band-aware":
        # band-aware routing needs the coordinator's band ledger
        cluster["coordinate"] = True
    return doc


class TestSpecRoundTrip:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec_docs)
    def test_toml_and_json_round_trip_identity(self, doc):
        spec = ScenarioSpec.from_dict(_force_valid(doc))
        via_toml = loads_spec(spec.to_toml(), "toml")
        via_json = loads_spec(spec.to_json(), "json")
        assert via_toml == spec
        assert via_json == spec
        assert via_toml.fingerprint() == spec.fingerprint()
        assert via_json.fingerprint() == spec.fingerprint()

    def test_unknown_section_raises_with_suggestion(self):
        with pytest.raises(ScenarioError, match="worklod"):
            ScenarioSpec.from_dict({"worklod": {"n_jobs": 10}})

    def test_unknown_key_raises_with_suggestion(self):
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict({"workload": {"n_job": 10}})
        assert "n_jobs" in str(excinfo.value)

    def test_unknown_component_name_raises(self):
        with pytest.raises(ScenarioError, match="did you mean 'sns'"):
            ScenarioSpec.from_dict({"scheduler": {"name": "snss"}})

    def test_bool_rejected_for_int_field(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict({"cluster": {"shards": True}})

    def test_preset_fills_unset_keys_only(self):
        spec = ScenarioSpec.from_dict(
            {"workload": {"preset": "overload", "load": 1.5}}
        )
        assert spec.workload.load == 1.5  # explicit key wins
        assert spec.workload.process == "poisson"
        bare = ScenarioSpec.from_dict({"workload": {"preset": "overload"}})
        assert bare.workload.load == 3.0

    def test_preset_override_reapplies_values(self):
        base = ScenarioSpec.from_dict({"workload": {"load": 1.5}})
        overridden = base.with_overrides({"workload.preset": "overload"})
        assert overridden.workload.load == 3.0

    def test_seed_threading(self):
        spec = ScenarioSpec.from_dict({"scenario": {"seed": 42}})
        assert spec.workload_seed() == 42
        pinned = ScenarioSpec.from_dict(
            {"scenario": {"seed": 42}, "workload": {"seed": 7}}
        )
        assert pinned.workload_seed() == 7

    def test_gateway_requires_open_loop(self):
        with pytest.raises(ScenarioError, match="open-loop"):
            ScenarioSpec.from_dict(
                {
                    "scenario": {"mode": "gateway"},
                    "workload": {"kind": "generated", "m": 8},
                }
            )

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        spec = ScenarioSpec.from_dict({"scenario": {"seed": 3}})
        path.write_text(spec.to_toml())
        assert load_spec(path) == spec


# ----------------------------------------------------------------------
# Spec-driven vs ``--set``-driven bit-identity
# ----------------------------------------------------------------------
SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "examples/scenarios"


def _run_cli(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, buf.getvalue()
    return buf.getvalue()


def _flag_fingerprint(out: str) -> str:
    return re.search(r"^result fingerprint:\s+(\w+)", out, re.M).group(1)


def _set_run(base: str, overrides: dict) -> tuple[str, str]:
    """Run ``examples/scenarios/<base>`` with ``--set`` overrides through
    ``repro-scenario run``; returns (fingerprint, dumped spec TOML)."""
    from repro.scenarios.cli import main as scenario_main

    argv = ["run", str(SCENARIOS / base)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    out = _run_cli(scenario_main, argv)
    return _flag_fingerprint(out), _run_cli(
        scenario_main, argv + ["--dump-scenario"]
    )


class TestSpecVsFlagsIdentity:
    def test_service_spec_matches_flags_and_repeats(self, tmp_path):
        from repro.scenarios.cli import main as scenario_main

        overrides = {
            "workload.n_jobs": 60, "workload.m": 4, "workload.load": 2.5,
            "seed": 13,
        }
        fp_flags, dump = _set_run("service.toml", overrides)
        spec = load_spec(SCENARIOS / "service.toml").with_overrides(overrides)
        assert loads_spec(dump, "toml") == spec
        r1, r2 = run_scenario(spec), run_scenario(spec)
        assert r1.fingerprint() == r2.fingerprint()
        assert r1.fingerprint() == fp_flags

        # the dumped spec runs back to the same result
        path = tmp_path / "svc.toml"
        path.write_text(dump)
        out = _run_cli(scenario_main, ["run", str(path)])
        assert _flag_fingerprint(out) == fp_flags

    def test_process_cluster_spec_matches_flags(self, tmp_path):
        fp_flags, dump = _set_run(
            "service.toml",
            {
                "workload.n_jobs": 60, "workload.m": 8,
                "scenario.mode": "cluster", "cluster.shards": 4,
                "cluster.mode": "process", "seed": 13,
            },
        )
        spec = loads_spec(dump, "toml")
        assert spec.mode == "cluster" and spec.cluster.shards == 4
        r1, r2 = run_scenario(spec), run_scenario(spec)
        assert r1.fingerprint() == r2.fingerprint()
        assert r1.fingerprint() == fp_flags

    def test_supervisor_flags_survive_the_dump(self):
        """The restart budget and exhaustion policy reach the spec: an
        exhausted shard degrades in the spec run exactly as in the
        ``--set`` run, instead of restarting under the default budget."""
        from repro.scenarios.cli import main as scenario_main

        argv = ["run", str(SCENARIOS / "service.toml")]
        for pair in [
            "workload.n_jobs=300", "workload.m=8", "scenario.mode=cluster",
            "cluster.shards=2", "cluster.mode=inprocess",
            "faults.kind=chaos", "faults.chaos=crash:1:40",
            "cluster.max_restarts=0", "cluster.on_exhausted=degrade",
            "cluster.heartbeat_timeout=0.75", "cluster.heartbeat_every=8",
        ]:
            argv += ["--set", pair]
        out = _run_cli(scenario_main, argv)
        assert re.search(r"^degraded:\s+shards \[1\]", out, re.M)
        dump = _run_cli(scenario_main, argv + ["--dump-scenario"])
        spec = loads_spec(dump, "toml")
        assert (
            spec.cluster.max_restarts,
            spec.cluster.on_exhausted,
            spec.cluster.heartbeat_timeout,
            spec.cluster.heartbeat_every,
        ) == (0, "degrade", 0.75, 8)
        assert run_scenario(spec).fingerprint() == _flag_fingerprint(out)

    def test_gateway_virtual_clock_spec_matches_flags(self, tmp_path):
        fp_flags, dump = _set_run(
            "gateway.toml",
            {
                "workload.n_jobs": 120, "workload.m": 8, "seed": 5,
                "workload.process": "flash-crowd",
                "autoscale.enabled": "true", "gateway.shards_initial": 2,
            },
        )
        spec = loads_spec(dump, "toml")
        assert spec.mode == "gateway" and spec.gateway.clock == "virtual"
        r1, r2 = run_scenario(spec), run_scenario(spec)
        assert r1.fingerprint() == r2.fingerprint()
        assert r1.fingerprint() == fp_flags

    def test_scenario_cli_dump_rerun_identity(self, tmp_path):
        from repro.scenarios.cli import main as scenario_main

        spec = ScenarioSpec.from_dict(
            {
                "scenario": {"mode": "service", "seed": 21},
                "workload": {"n_jobs": 40, "m": 4},
            }
        )
        path = tmp_path / "spec.toml"
        path.write_text(spec.to_toml())
        dumped = _run_cli(scenario_main, ["run", str(path), "--dump-scenario"])
        redump = tmp_path / "redump.toml"
        redump.write_text(dumped)
        out1 = _run_cli(scenario_main, ["run", str(path)])
        out2 = _run_cli(scenario_main, ["run", str(redump)])
        fp = re.compile(r"result fingerprint:\s+(\w+)")
        assert fp.search(out1).group(1) == fp.search(out2).group(1)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
class TestScenarioBuilder:
    def test_batch_equals_direct_simulator(self):
        from repro.scenarios.builder import build_workload
        from repro.sim.engine import Simulator

        spec = ScenarioSpec.from_dict(
            {
                "scenario": {"mode": "batch", "seed": 8},
                "workload": {"n_jobs": 50, "m": 4},
            }
        )
        result = run_scenario(spec)
        direct = Simulator(
            m=4, scheduler=ScenarioBuilder(spec).make_scheduler()
        ).run(build_workload(spec))
        assert result.total_profit == direct.total_profit
        assert result.records == direct.records

    def test_epsilon_threads_into_scheduler(self):
        spec = ScenarioSpec.from_dict({"workload": {"epsilon": 0.25}})
        scheduler = ScenarioBuilder(spec).make_scheduler()
        assert scheduler.constants.epsilon == 0.25

    def test_explicit_kwargs_beat_threaded_epsilon(self):
        spec = ScenarioSpec.from_dict(
            {
                "workload": {"epsilon": 0.25},
                "scheduler": {"name": "sns", "kwargs": {"epsilon": 0.75}},
            }
        )
        scheduler = ScenarioBuilder(spec).make_scheduler()
        assert scheduler.constants.epsilon == 0.75

    def test_coordinated_cluster_runs(self):
        spec = ScenarioSpec.from_dict(
            {
                "scenario": {"mode": "cluster", "seed": 3},
                "workload": {"n_jobs": 40, "m": 4},
                "cluster": {
                    "shards": 2, "mode": "inprocess", "coordinate": True,
                },
            }
        )
        r1, r2 = run_scenario(spec), run_scenario(spec)
        assert r1.fingerprint() == r2.fingerprint()

    @pytest.mark.parametrize(
        "engine", [{"horizon": 40}, {"preemption_overhead": 2.0}]
    )
    def test_cluster_spec_threads_engine_settings(self, engine):
        from repro.cluster import ClusterService, ShardConfig
        from repro.scenarios.builder import build_workload, result_fingerprint

        doc = {
            "scenario": {"mode": "cluster", "seed": 3},
            "workload": {"n_jobs": 80, "m": 8, "load": 3.0},
            "scheduler": {"name": "edf"},
            "cluster": {"shards": 2, "mode": "inprocess"},
        }
        spec = ScenarioSpec.from_dict({**doc, "engine": engine})
        hand_wired = ClusterService(
            8,
            2,
            config=ShardConfig(
                m=1,
                scheduler="edf",
                capacity=spec.service.capacity,
                shed_policy=spec.service.shed_policy,
                horizon=engine.get("horizon"),
                preemption_overhead=engine.get("preemption_overhead", 0.0),
            ),
            router=spec.router_name(),
            mode="inprocess",
        ).run_stream(build_workload(spec))
        fingerprint = run_scenario(spec).fingerprint()
        assert fingerprint == result_fingerprint("cluster", hand_wired)
        # the setting is live: it moves the run off the default one
        assert fingerprint != run_scenario(ScenarioSpec.from_dict(doc)).fingerprint()

    @pytest.mark.parametrize("mode", ["cluster", "gateway"])
    def test_sharded_modes_reject_non_fifo_picker(self, mode):
        doc = {
            "scenario": {"mode": mode},
            "workload": {"kind": "open-loop" if mode == "gateway" else ""},
            "engine": {"picker": "lifo"},
        }
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec.from_dict(doc)
        assert info.value.location == "engine.picker"
        doc["engine"]["picker"] = "fifo"
        ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("mode", ["cluster", "gateway"])
    def test_band_aware_router_needs_coordinator(self, mode):
        doc = {
            "scenario": {"mode": mode},
            "workload": {"kind": "open-loop" if mode == "gateway" else ""},
            "cluster": {"router": "band-aware"},
        }
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec.from_dict(doc)
        assert info.value.location == "cluster.router"
        doc["cluster"]["coordinate"] = True
        ScenarioSpec.from_dict(doc)

    def test_tracing_collects_events(self):
        spec = ScenarioSpec.from_dict(
            {
                "scenario": {"mode": "service", "seed": 1},
                "workload": {"n_jobs": 20, "m": 4},
                "tracing": {"enabled": True},
            }
        )
        result = run_scenario(spec)
        assert result.trace_events


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------
class TestMatrix:
    @pytest.fixture(scope="class")
    def base(self):
        return ScenarioSpec.from_dict(
            {
                "scenario": {"mode": "batch", "seed": 0},
                "workload": {"n_jobs": 30, "m": 4},
            }
        )

    def test_serial_equals_parallel(self, base):
        axes = {"scheduler": ["sns", "edf"], "workload": ["steady", "overload"]}
        serial = run_matrix(base, axes, seeds=[0, 1], workers=1)
        parallel = run_matrix(base, axes, seeds=[0, 1], workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_table_has_axes_and_bound_fraction(self, base):
        result = run_matrix(
            base, {"scheduler": ["sns", "edf"]}, seeds=[0], workers=1
        )
        assert result.headers()[:1] == ["scheduler"]
        assert "frac_of_bound" in result.headers()
        assert len(result.rows()) == 2
        for cell in result.cells:
            for value in cell.values:
                assert 0.0 <= value["fraction"] <= 1.0 + 1e-9

    def test_unknown_axis_suggests(self, base):
        with pytest.raises(ScenarioError, match="schedler"):
            run_matrix(base, {"schedler": ["sns"]}, seeds=[0], workers=1)


# ----------------------------------------------------------------------
# Unified registries (satellites)
# ----------------------------------------------------------------------
class TestUnifiedRegistries:
    def test_experiments_view(self):
        from repro.experiments.registry import EXPERIMENTS

        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}
        assert callable(EXPERIMENTS["E7"])
        with pytest.raises(KeyError):
            EXPERIMENTS["E99"]

    def test_cluster_make_scheduler_resolves_all_baselines(self):
        from repro.cluster.config import SCHEDULER_REGISTRY, make_scheduler

        assert "nonclairvoyant" in SCHEDULER_REGISTRY
        assert len(SCHEDULER_REGISTRY) == len(REGISTRY.names("scheduler"))
        scheduler = make_scheduler("llf")
        assert type(scheduler).__name__ == "LeastLaxityFirst"

    def test_cluster_make_scheduler_unknown_name(self):
        from repro.cluster.config import make_scheduler
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="did you mean"):
            make_scheduler("snss")


# ----------------------------------------------------------------------
# CLI error surfaces
# ----------------------------------------------------------------------
class TestCliErrors:
    def test_serve_unknown_scheduler_exits_2_with_suggestion(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        argv = ["run", str(SCENARIOS / "service.toml")]
        argv += ["--set", "scheduler.name=snss", "--set", "workload.n_jobs=5"]
        assert scenario_main(argv) == 2
        err = capsys.readouterr().err
        assert "did you mean 'sns'" in err

    def test_gateway_unknown_router_exits_2_with_suggestion(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        argv = ["run", str(SCENARIOS / "gateway.toml")]
        argv += ["--set", "cluster.router=least-loded"]
        assert scenario_main(argv) == 2
        err = capsys.readouterr().err
        assert "did you mean 'least-loaded'" in err

    def test_scenario_cli_validate(self, tmp_path, capsys):
        from repro.scenarios.cli import main as scenario_main

        good = tmp_path / "good.toml"
        good.write_text(ScenarioSpec.from_dict({}).to_toml())
        bad = tmp_path / "bad.toml"
        bad.write_text('[scheduler]\nname = "snss"\n')
        assert scenario_main(["validate", str(good)]) == 0
        assert scenario_main(["validate", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'sns'" in err

    def test_scenario_cli_list_kind(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        assert scenario_main(["list", "--kind", "router"]) == 0
        out = capsys.readouterr().out
        assert "band-aware" in out and "least-loaded" in out
