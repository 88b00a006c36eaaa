"""Unit tests for ASCII Gantt rendering."""

import pytest

from repro.analysis import render_gantt, render_utilization
from repro.baselines import GlobalEDF
from repro.dag import block, chain
from repro.observability import TraceRecorder
from repro.sim import JobSpec, Simulator


@pytest.fixture
def traced():
    specs = [
        JobSpec(0, block(8), arrival=0, deadline=30, profit=1.0),
        JobSpec(1, chain(6), arrival=2, deadline=40, profit=1.0),
        JobSpec(2, chain(50), arrival=0, deadline=10, profit=1.0),  # expires
    ]
    recorder = TraceRecorder()
    result = Simulator(m=4, scheduler=GlobalEDF(), recorder=recorder).run(specs)
    return result, recorder.events


class TestGantt:
    def test_renders_one_row_per_job(self, traced):
        text = render_gantt(*traced)
        lines = text.splitlines()
        assert len(lines) == 4  # header + 3 jobs
        assert lines[0].startswith("t = [")
        assert any("done" in line for line in lines)
        assert any("EXPIRED" in line for line in lines)

    def test_expiry_marker(self, traced):
        text = render_gantt(*traced)
        expired_line = next(l for l in text.splitlines() if "EXPIRED" in l)
        assert "x" in expired_line

    def test_requires_trace(self):
        specs = [JobSpec(0, chain(2), arrival=0, deadline=10)]
        result = Simulator(m=1, scheduler=GlobalEDF()).run(specs)
        with pytest.raises(ValueError, match="recorder"):
            render_gantt(result, [])

    def test_max_jobs_truncation(self, traced):
        for max_jobs in (1, 0):
            lines = render_gantt(*traced, max_jobs=max_jobs).splitlines()
            assert len(lines) == 1 + max_jobs
            assert lines[0].startswith("t = [")

    def test_busy_bins_nonempty(self, traced):
        text = render_gantt(*traced, width=16)
        body_lines = text.splitlines()[1:]
        assert any(
            any(ch not in " []" for ch in line.split("[", 1)[1].split("]")[0])
            for line in body_lines
        )


class TestUtilization:
    def test_sparkline(self, traced):
        text = render_utilization(*traced, width=20)
        assert text.startswith("util [")
        assert text.endswith("]")
        inner = text[len("util ["):-1]
        assert len(inner) <= 20
        assert any(ch != " " for ch in inner)

    def test_requires_trace(self):
        specs = [JobSpec(0, chain(2), arrival=0, deadline=10)]
        result = Simulator(m=1, scheduler=GlobalEDF()).run(specs)
        with pytest.raises(ValueError):
            render_utilization(result, [])
