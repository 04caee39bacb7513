"""Stdlib HTTP front-end for the job manager.

A deliberately dependency-free JSON API over
:class:`~repro.service.jobs.JobManager`, built on
``http.server.ThreadingHTTPServer`` (one thread per connection, which
the long-polling event stream needs):

===========  ==============================  ==================================
Method       Path                            Meaning
===========  ==============================  ==================================
``POST``     ``/jobs``                       Submit a payload (202; 400 with a
                                             structured, path-addressed error
                                             for invalid documents)
``GET``      ``/jobs``                       List known jobs
``GET``      ``/jobs/{id}``                  One job's status
``GET``      ``/jobs/{id}/result``           The stored result document
                                             (409 until the job is done)
``GET``      ``/jobs/{id}/events``           Chunked JSON-lines progress
                                             stream (``?after=N`` resumes)
``GET``      ``/jobs/{id}/trace``            The job's spans as a Chrome
                                             trace-event JSON document
``GET``      ``/jobs/{id}/metrics``          The job's metric samples (JSON;
                                             ``?format=prometheus`` for text
                                             exposition)
``POST``     ``/jobs/{id}/cancel``           Cancel a queued/running job
``GET``      ``/metrics``                    Prometheus text exposition
``GET``      ``/healthz``                    Liveness probe
===========  ==============================  ==================================

Every response carries an explicit ``Content-Length`` except the event
stream, which uses HTTP/1.1 chunked transfer and terminates once the
job reaches a terminal state.  Connections are persistent (HTTP/1.1
keep-alive): each response leaves in one send with Nagle's algorithm
off, and a connection idle for :data:`KEEPALIVE_IDLE_SECONDS` is
closed by the server.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ValidationError
from repro.jsonio import loads_strict
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.jobs import JobManager, JobState
from repro.service.schema import SimulationPayload

_log = logging.getLogger("repro.service")

#: Upper bound on accepted payload documents (1 MiB is generous for
#: configuration-sized JSON and keeps slow-loris bodies cheap).
MAX_BODY_BYTES = 1 << 20

#: Long-poll interval of the event stream; bounds how long a client
#: waits between keep-alive flushes when a job is idle.
EVENT_POLL_SECONDS = 1.0

#: How long a persistent connection may sit idle between requests
#: before the server closes it (clients reconnect transparently).
KEEPALIVE_IDLE_SECONDS = 15.0


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceServer
    # Headers and body leave in one buffered send with TCP_NODELAY; a
    # separate unbuffered send per part waits on the peer's delayed ACK
    # (~40 ms) on every reused connection.
    disable_nagle_algorithm = True
    wbufsize = -1

    # -- plumbing ------------------------------------------------------
    def setup(self) -> None:
        self.timeout = KEEPALIVE_IDLE_SECONDS
        super().setup()

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def log_message(self, fmt: str, *args: Any) -> None:
        _log.debug("%s %s", self.address_string(), fmt % args)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        # One send, and a vanished client surfaces here, inside the
        # routes' disconnect handling.
        self.wfile.flush()

    def _send_json(self, status: int, doc: Dict[str, Any]) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_error_json(self, status: int, message: str,
                         **extra: Any) -> None:
        doc: Dict[str, Any] = {"error": {"message": message}}
        doc["error"].update(extra)
        self._send_json(status, doc)
        obs_metrics.counter(
            "repro_service_http_errors_total",
            "Service HTTP error responses by status",
        ).inc(status=status)

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            self._send_error_json(413, "request body missing or too large")
            return None
        return self.rfile.read(length)

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_bytes(200, b"ok\n", "text/plain")
            elif parts == ["metrics"]:
                text = obs_metrics.REGISTRY.to_prometheus()
                self._send_bytes(
                    200, text.encode("utf-8"),
                    "text/plain; version=0.0.4",
                )
            elif parts == ["jobs"]:
                self._send_json(200, {"jobs": self.manager.snapshot()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                self._get_result(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "events":
                self._stream_events(parts[1], url.query)
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "trace":
                self._get_trace(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "metrics":
                self._get_job_metrics(parts[1], url.query)
            else:
                self._send_error_json(404, f"no such route: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response (common for event streams).
            obs_metrics.counter(
                "repro_service_disconnects_total",
                "Client disconnects during response writes",
            ).inc()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            # Read every body, so a persistent connection's next request
            # starts where this one ends.
            body = self._read_body()
            if body is None:
                return
            if parts == ["jobs"]:
                self._submit_job(body)
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "cancel":
                self._cancel_job(parts[1])
            else:
                self._send_error_json(404, f"no such route: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            obs_metrics.counter(
                "repro_service_disconnects_total",
                "Client disconnects during response writes",
            ).inc()

    # -- handlers ------------------------------------------------------
    def _submit_job(self, body: bytes) -> None:
        try:
            # Strict parse: a duplicate key is a path-addressed
            # ValidationError (the structured 400 below), never a
            # silently-shadowed binding (see repro.jsonio).
            data = loads_strict(body.decode("utf-8"))
            payload = SimulationPayload.from_dict(data)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"request body is not JSON: {exc}")
            return
        except ValidationError as exc:
            # The structured rejection contract: the offending field's
            # path, value, and allowed vocabulary — never a traceback,
            # and the engine was never reached.
            self._send_json(400, {"error": exc.to_dict()})
            obs_metrics.counter(
                "repro_service_http_errors_total",
                "Service HTTP error responses by status",
            ).inc(status=400)
            return
        record, created = self.manager.submit(payload)
        self._send_json(202 if created else 200, {
            "job_id": record.job_id,
            "state": record.state,
            "deduplicated": not created,
        })

    def _get_job(self, job_id: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, record.status_dict())

    def _get_result(self, job_id: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        if record.state != JobState.DONE or record.result_text is None:
            self._send_error_json(
                409, f"job is {record.state}, result not available",
                state=record.state,
            )
            return
        # The stored text verbatim — this is the byte-identity surface.
        self._send_bytes(
            200, record.result_text.encode("utf-8"), "application/json"
        )

    def _get_trace(self, job_id: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        # Finished jobs serve their frozen span snapshot; running jobs
        # serve whatever has completed so far from the live buffer.
        spans = record.trace_spans
        if spans is None:
            spans = obs_trace.spans_for_job(record.job_id)
        self._send_json(200, {
            "displayTimeUnit": "ms",
            "traceEvents": obs_trace.to_chrome_events(spans),
        })

    def _get_job_metrics(self, job_id: str, query: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        params = parse_qs(query)
        fmt = params.get("format", ["json"])[0]
        if fmt not in ("json", "prometheus"):
            self._send_error_json(
                400, f"unknown format {fmt!r} (expected json or prometheus)"
            )
            return
        # Finished jobs render their frozen snapshot; running jobs a
        # fresh one of the samples recorded so far.
        registry = record.metrics_snapshot
        if registry is None:
            registry = obs_metrics.REGISTRY.filter_job(record.job_id)
        if fmt == "prometheus":
            self._send_bytes(
                200, registry.to_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
            return
        self._send_json(200, {
            "job_id": record.job_id,
            "state": record.state,
            "families": registry.to_dict(),
            "resources": dict(record.resources or {}),
            "run": record.run_summary,
        })

    def _stream_events(self, job_id: str, query: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        params = parse_qs(query)
        try:
            after = int(params.get("after", ["0"])[0])
        except ValueError:
            self._send_error_json(400, "after must be an integer")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        # Headers go out now, not after the first long-poll.
        self.wfile.flush()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

        while True:
            events = self.manager.events_since(
                job_id, after=after, timeout=EVENT_POLL_SECONDS
            )
            for event in events:
                after = max(after, event.seq)
                line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
                write_chunk(line.encode("utf-8"))
            current = self.manager.get(job_id)
            if current is None or (
                current.state in JobState.TERMINAL
                and not self.manager.events_since(job_id, after=after,
                                                  timeout=0)
            ):
                break
            self.wfile.flush()
        write_chunk(b"")  # terminating zero-length chunk
        self.wfile.flush()

    def _cancel_job(self, job_id: str) -> None:
        state = self.manager.cancel(job_id)
        if state is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, {"job_id": job_id, "state": state})


def serve(host: str, port: int,
          manager: JobManager) -> ServiceServer:
    """Bind a :class:`ServiceServer` (port 0 picks an ephemeral port)."""
    server = ServiceServer((host, port), manager)
    _log.info(
        "service listening on http://%s:%d/", *server.server_address[:2]
    )
    return server
