"""Stdlib HTTP server exposing the KPI feed as SSE and JSONL.

No web framework: a :class:`http.server.ThreadingHTTPServer` with three
routes is all a live dashboard, a ``curl`` tail, or a test needs.

* ``GET /kpi`` -- a ``text/event-stream`` (Server-Sent Events) stream.
  Each published snapshot becomes one ``event: kpi`` frame whose
  ``data:`` line is the snapshot JSON and whose ``id:`` is the feed
  sequence number, so SSE's built-in ``Last-Event-ID`` reconnect
  semantics work for free.  The stream ends when the feed closes.
* ``GET /kpi.jsonl`` -- the retained history as JSON lines (poll-style
  consumption, and trivially ``pandas.read_json(..., lines=True)``-able).
* ``GET /healthz`` -- liveness plus the current sequence number and
  the latest snapshot's degraded-shard count.

The server thread only ever *reads* the feed; the gateway loop stays
the sole producer, so serving never perturbs the run -- a virtual-clock
benchmark with the server attached is bit-identical to one without.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.gateway.kpi import KpiFeed


class KpiServer:
    """Serve a :class:`KpiFeed` over HTTP on a background thread.

    Parameters
    ----------
    feed:
        The feed the gateway publishes to.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` -- the tests do).
    poll_seconds:
        How long an SSE handler blocks per wait before re-checking for
        shutdown.
    """

    def __init__(
        self,
        feed: KpiFeed,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        poll_seconds: float = 0.25,
    ) -> None:
        self.feed = feed
        self.poll_seconds = poll_seconds
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
                pass  # quiet: the gateway CLI owns stdout

            def do_GET(self):  # noqa: N802 - stdlib name
                if self.path == "/healthz":
                    history = server.feed.history()
                    latest = history[-1] if history else {}
                    self._send_json(
                        {
                            "ok": True,
                            "seq": server.feed.last_seq,
                            "closed": server.feed.closed,
                            "degraded_shards": latest.get(
                                "degraded_shards", 0
                            ),
                        }
                    )
                elif self.path == "/kpi.jsonl":
                    body = server.feed.to_jsonl().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/x-ndjson")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path == "/kpi":
                    self._stream_sse()
                else:
                    self._send_json({"error": "not found"}, status=404)

            def _send_json(self, obj, status: int = 200):
                body = (json.dumps(obj) + "\n").encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _stream_sse(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-cache")
                # SSE is an unbounded stream: no Content-Length, close
                # delimits the body
                self.send_header("Connection", "close")
                self.end_headers()
                last = 0
                header = self.headers.get("Last-Event-ID")
                if header is not None:
                    try:
                        last = int(header)
                    except ValueError:
                        last = 0
                try:
                    while not server._stopping.is_set():
                        events = server.feed.wait_for(
                            last, timeout=server.poll_seconds
                        )
                        for seq, snap in events:
                            frame = (
                                f"id: {seq}\n"
                                "event: kpi\n"
                                f"data: {json.dumps(snap)}\n\n"
                            )
                            self.wfile.write(frame.encode("utf-8"))
                            last = seq
                        self.wfile.flush()
                        if server.feed.closed and not events:
                            break
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client went away; nothing to clean up

        class QuietServer(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                # clients hanging up mid-SSE-stream are business as
                # usual, not stack-trace material
                import sys

                exc = sys.exc_info()[1]
                if isinstance(
                    exc, (BrokenPipeError, ConnectionResetError)
                ):
                    return
                super().handle_error(request, client_address)

        self._httpd = QuietServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "KpiServer":
        """Start serving on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-gateway-kpi",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "KpiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KpiServer(url={self.url!r})"
