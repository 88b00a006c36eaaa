"""End-to-end tests of the KPI feed, the SSE/JSONL server, and the CLI.

The SSE test is the acceptance path: a gateway run publishes to a
:class:`KpiFeed`, a :class:`KpiServer` serves it over HTTP, and a
plain-socket client consumes the ``text/event-stream`` frames while the
run is live -- no test doubles between the loop and the wire.
"""

import http.client
import json
import pathlib
import threading

import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.gateway import (
    Gateway,
    KpiFeed,
    KpiServer,
    LoadConfig,
    LoadGenerator,
    VirtualClock,
)
from repro.scenarios.cli import main as scenario_main


def _parse_sse(body):
    """Parse SSE frames into (id, event, data-dict) tuples."""
    frames = []
    for chunk in body.strip().split("\n\n"):
        fields = {}
        for line in chunk.splitlines():
            key, _, value = line.partition(": ")
            fields[key] = value
        if "data" in fields:
            frames.append(
                (int(fields["id"]), fields["event"], json.loads(fields["data"]))
            )
    return frames


class TestKpiFeed:
    def test_publish_sequences_and_history(self):
        feed = KpiFeed()
        assert feed.publish({"tick": 1}) == 1
        assert feed.publish({"tick": 2}) == 2
        assert feed.last_seq == 2
        assert [s["tick"] for s in feed.history()] == [1, 2]

    def test_wait_for_returns_only_newer(self):
        feed = KpiFeed()
        feed.publish({"tick": 1})
        feed.publish({"tick": 2})
        got = feed.wait_for(1, timeout=0.1)
        assert [seq for seq, _ in got] == [2]

    def test_wait_for_blocks_until_publish(self):
        feed = KpiFeed()
        results = []

        def consumer():
            results.extend(feed.wait_for(0, timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        feed.publish({"tick": 1})
        thread.join(timeout=5.0)
        assert [seq for seq, _ in results] == [1]

    def test_close_wakes_and_rejects_publish(self):
        feed = KpiFeed()
        feed.close()
        assert feed.wait_for(0, timeout=0.05) == []
        with pytest.raises(RuntimeError):
            feed.publish({})

    def test_history_bounded(self):
        feed = KpiFeed(history=3)
        for i in range(6):
            feed.publish({"tick": i})
        assert [s["tick"] for s in feed.history()] == [3, 4, 5]
        assert feed.last_seq == 6

    def test_jsonl_roundtrip(self, tmp_path):
        feed = KpiFeed()
        feed.publish({"tick": 1, "profit_total": 2.5})
        path = tmp_path / "kpi.jsonl"
        feed.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[0]) == {"tick": 1, "profit_total": 2.5}


class TestKpiServer:
    def test_healthz_and_jsonl(self):
        feed = KpiFeed()
        feed.publish({"tick": 1})
        with KpiServer(feed) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=5
            )
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
            assert health["ok"] is True and health["seq"] == 1
            conn.request("GET", "/kpi.jsonl")
            body = conn.getresponse().read().decode()
            assert json.loads(body.strip()) == {"tick": 1}
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404

    def test_sse_stream_consumed_end_to_end(self):
        """A live gateway run, served over HTTP, consumed concurrently:
        the client sees every snapshot the loop published, in order,
        and the stream terminates when the feed closes."""
        load = LoadGenerator(LoadConfig(n_jobs=120, m=8, load=1.0, seed=6))
        cluster = ClusterService(
            8, 2, k_initial=2,
            config=ShardConfig(m=1, scheduler="sns", capacity=64,
                               max_in_flight=8),
            router="least-loaded",
        )
        feed = KpiFeed()
        gateway = Gateway(
            cluster, load, clock=VirtualClock(), tick_seconds=0.01,
            steps_per_tick=20, feed=feed,
        )
        frames = []
        with KpiServer(feed, poll_seconds=0.05) as server:
            def consume():
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=10
                )
                conn.request("GET", "/kpi")
                resp = conn.getresponse()
                assert resp.headers["Content-Type"] == "text/event-stream"
                frames.extend(_parse_sse(resp.read().decode()))

            consumer = threading.Thread(target=consume)
            consumer.start()
            result = gateway.run()
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()

        assert frames, "consumer saw no SSE frames"
        seqs = [seq for seq, _, _ in frames]
        assert seqs == sorted(seqs)
        assert all(event == "kpi" for _, event, _ in frames)
        # the final frame carries the run's total profit
        final = frames[-1][2]
        assert final.get("final") is True
        assert final["total_profit"] == result.total_profit
        # live snapshots match what the run recorded
        ticks_seen = [d["tick"] for _, _, d in frames if not d.get("final")]
        assert ticks_seen == [k["tick"] for k in result.kpis]

    def test_sse_resume_from_last_event_id(self):
        feed = KpiFeed()
        for i in range(4):
            feed.publish({"tick": i})
        feed.close()
        with KpiServer(feed, poll_seconds=0.05) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=5
            )
            conn.request("GET", "/kpi", headers={"Last-Event-ID": "2"})
            frames = _parse_sse(conn.getresponse().read().decode())
        assert [seq for seq, _, _ in frames] == [3, 4]


GATEWAY_SPEC = (
    pathlib.Path(__file__).resolve().parents[1]
    / "examples/scenarios/gateway.toml"
)


def _gateway_run(*pairs: str) -> list[str]:
    """``repro-scenario run`` arguments for the gateway spec with
    ``--set`` overrides."""
    argv = ["run", str(GATEWAY_SPEC)]
    for pair in pairs:
        argv += ["--set", pair]
    return argv


class TestGatewayCLI:
    def test_smoke_virtual_clock_autoscale(self, tmp_path, capsys):
        kpi_path = tmp_path / "kpi.jsonl"
        rc = scenario_main(
            _gateway_run(
                "workload.n_jobs=200",
                "workload.m=8",
                "workload.process=flash-crowd",
                "gateway.shards_max=4",
                "gateway.shards_initial=2",
                "autoscale.enabled=true",
                "service.max_in_flight=8",
                "seed=3",
            )
            + ["--kpi", str(kpi_path), "--report-every", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario:" in out and "[gateway]" in out
        assert "total_profit:" in out
        assert "result fingerprint:" in out
        lines = kpi_path.read_text().strip().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"tick", "active_shards", "shed_fraction"} <= set(first)

    def test_smoke_with_server(self, capsys):
        rc = scenario_main(
            _gateway_run(
                "workload.n_jobs=60", "workload.m=8", "gateway.shards_max=2"
            )
            + ["--serve", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kpi feed:" in out

    def test_rejects_unknown_process(self, capsys):
        assert scenario_main(_gateway_run("workload.process=bogus")) == 2
        assert "workload.process" in capsys.readouterr().err
