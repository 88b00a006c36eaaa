"""Smoke tests: every example script runs to completion and produces
its expected report sections."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "OPT upper bound" in out
        assert "S(eps=1.0)" in out
        assert "Global EDF" in out

    def test_cluster_batch(self):
        out = run_example("cluster_batch_scheduling.py")
        assert "Demand sweep" in out
        assert "Trap regime" in out
        assert "fraction of feasible" in out

    def test_video_rendering(self):
        out = run_example("video_rendering_profit.py")
        assert "Render farm" in out
        for decay in ("linear", "exponential", "staircase"):
            assert decay in out

    def test_adversarial_lower_bound(self):
        out = run_example("adversarial_lower_bound.py")
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "2 - 1/m" in out or "2-1/m" in out

    def test_realtime_periodic(self):
        out = run_example("realtime_periodic_tasks.py")
        assert "Utilization sweep" in out
        assert "util [" in out
        assert "done" in out

    def test_streaming_service(self):
        out = run_example("streaming_service.py")
        assert "Serving a full diurnal cycle" in out
        assert "bit-identical after restore: True" in out
        assert "final telemetry sample" in out
        assert "done" in out

    def test_diurnal_report(self):
        out = run_example("diurnal_cluster_report.py")
        assert "Workload" in out
        assert "Comparison" in out
        assert "Speed needed" in out

    def test_realtime_gateway(self):
        out = run_example("realtime_gateway.py")
        assert "Flash crowd" in out
        assert "Autoscaler timeline" in out
        assert "scale path: 1 ->" in out
        assert "fingerprint match: True" in out
        assert "done" in out

    def test_sharded_cluster(self):
        out = run_example("sharded_cluster.py")
        assert "Routers vs single service" in out
        assert "bit-identical to fault-free run: True" in out

    def test_coordinated_cluster(self):
        out = run_example("coordinated_cluster.py")
        assert "Coordinated cluster vs the sharding profit gap" in out
        assert "% of k=1" in out
        assert "done" in out


def run_scenario_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.scenarios.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestScenarioExamples:
    """The shipped scenario specs validate and run end to end."""

    SPEC_NAMES = [
        "overload_vs_rivals.toml",
        "coordinated_flash_crowd.toml",
        "chaos_under_tracing.toml",
        "chaos_cluster.toml",
        "chaos_gateway.toml",
        "service.toml",
        "gateway.toml",
    ]

    def test_all_specs_validate(self):
        specs = sorted((EXAMPLES / "scenarios").glob("*.toml"))
        assert [p.name for p in specs] == sorted(self.SPEC_NAMES)
        out = run_scenario_cli("validate", *(str(p) for p in specs))
        assert out.count(": ok") == len(specs)

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_spec_runs(self, name):
        out = run_scenario_cli("run", str(EXAMPLES / "scenarios" / name))
        assert "result fingerprint" in out
        assert "total_profit" in out
