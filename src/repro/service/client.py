"""Python client for the service API (stdlib ``http.client`` only).

:class:`ServiceClient` mirrors the HTTP surface one-to-one and is what
the test suite and the CI smoke job drive; it reconstructs the server's
structured 400 rejections back into
:class:`~repro.errors.ValidationError` so callers handle local and
remote validation failures identically.

Each thread keeps one persistent HTTP/1.1 connection to the server, so
a job's submit, event stream and result fetch share one TCP connection.
When the server has closed an idle connection the client reconnects
and sends the request again, once.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlsplit

from repro.errors import MnsimError, ValidationError

#: Default per-request timeout (seconds); generous because the event
#: stream long-polls.
DEFAULT_TIMEOUT = 30.0

#: Job states after which the event stream ends.
_TERMINAL = ("done", "failed", "cancelled")


class ServiceError(MnsimError, RuntimeError):
    """A non-validation error response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def _rebuild_validation_error(doc: Dict[str, Any]) -> ValidationError:
    err = doc.get("error", {})
    kwargs: Dict[str, Any] = {"path": err.get("path", "")}
    if "value" in err:
        kwargs["value"] = err["value"]
    if "allowed" in err:
        kwargs["allowed"] = err["allowed"]
    message = err.get("message", "invalid payload")
    # Strip the decorations ValidationError appends, so rebuilding does
    # not double them up.
    for marker in (" (got ", " (allowed: "):
        if marker in message:
            message = message.split(marker)[0]
    if kwargs["path"] and message.startswith(kwargs["path"] + ": "):
        message = message[len(kwargs["path"]) + 2:]
    return ValidationError(message, **kwargs)


class ServiceClient:
    """Minimal synchronous client for one service endpoint."""

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        self._host = url.hostname
        self._port = url.port
        self._prefix = url.path
        self._local = threading.local()

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (reopened on demand)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> http.client.HTTPResponse:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        reused = conn.sock is not None
        try:
            response = self._exchange(conn, method, path, data, headers)
        except ConnectionError:
            # The server closes connections idle past its keep-alive
            # timeout.  Resending is safe: submissions are deduplicated
            # by content and every other request is idempotent.
            if not reused:
                raise
            response = self._exchange(conn, method, path, data, headers)
        if response.status < 400:
            return response
        raw = response.read()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = {}
        err = doc.get("error", {})
        if response.status == 400 and "path" in err:
            raise _rebuild_validation_error(doc)
        raise ServiceError(
            response.status,
            err.get("message", raw.decode("utf-8", "replace")),
        )

    def _exchange(self, conn: http.client.HTTPConnection, method: str,
                  path: str, data: Optional[bytes],
                  headers: Dict[str, str]) -> http.client.HTTPResponse:
        try:
            conn.request(method, self._prefix + path, data, headers)
            return conn.getresponse()
        except BaseException:
            # A half-finished exchange leaves the connection unusable;
            # the next request reconnects.
            conn.close()
            raise

    def _read(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> bytes:
        return self._request(method, path, body).read()

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return json.loads(self._read(method, path, body).decode("utf-8"))

    # -- API -----------------------------------------------------------
    def healthz(self) -> bool:
        return self._read("GET", "/healthz").strip() == b"ok"

    def metrics_text(self) -> str:
        return self._read("GET", "/metrics").decode("utf-8")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST a payload document; returns the submission receipt.

        Raises :class:`ValidationError` (rebuilt from the structured
        400 body) when the server rejects the document.
        """
        return self._json("POST", "/jobs", payload)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's result document, byte-exact."""
        return self._read("GET", f"/jobs/{job_id}/result")

    def result(self, job_id: str) -> Dict[str, Any]:
        return json.loads(self.result_bytes(job_id).decode("utf-8"))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """The job's spans as a Chrome trace-event document."""
        return self._json("GET", f"/jobs/{job_id}/trace")

    def job_metrics(self, job_id: str) -> Dict[str, Any]:
        """The job's metric families, resources, and run summary."""
        return self._json("GET", f"/jobs/{job_id}/metrics")

    def job_metrics_text(self, job_id: str) -> str:
        """The job's metrics in Prometheus text exposition format."""
        path = f"/jobs/{job_id}/metrics?format=prometheus"
        return self._read("GET", path).decode("utf-8")

    def iter_events(self, job_id: str,
                    after: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield progress events until the job reaches a terminal state.

        ``http.client`` de-chunks the stream transparently, so this is
        a plain line reader.  The stream is read to its closing chunk
        before the terminal event is yielded, so the connection is
        ready for the next request even if the caller stops there.
        """
        path = f"/jobs/{job_id}/events"
        if after:
            path += f"?after={after}"
        conn = self._connection()
        response = self._request("GET", path)
        try:
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                if event.get("event") == "state" \
                        and event.get("state") in _TERMINAL:
                    response.read()
                yield event
        finally:
            if not response.isclosed():
                # Abandoned mid-stream: the rest of the stream would
                # arrive ahead of the next response.
                conn.close()

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in _TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    408, f"job {job_id} still {status['state']} after "
                    f"{timeout:g}s"
                )
            time.sleep(poll)
