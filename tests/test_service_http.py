"""End-to-end HTTP API: submit, stream, fetch, byte-identity with CLI."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.obs.metrics import parse_prometheus
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobManager
from repro.service.server import serve

MC_PAYLOAD = {
    "kind": "montecarlo",
    "montecarlo": {"trials": 3, "seed": 1, "size": 8},
}


@pytest.fixture
def service():
    manager = JobManager()
    server = serve("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        "http://127.0.0.1:%d" % server.server_address[1]
    )
    yield client, manager
    server.shutdown()
    server.server_close()
    manager.shutdown()
    thread.join(timeout=5)


def test_healthz(service):
    client, _ = service
    assert client.healthz()


def test_submit_poll_result_and_dedupe(service, tmp_path):
    client, _ = service
    receipt = client.submit(MC_PAYLOAD)
    assert receipt["state"] in ("queued", "running", "done")
    assert receipt["deduplicated"] is False
    job_id = receipt["job_id"]

    status = client.wait(job_id, timeout=60)
    assert status["state"] == "done"
    assert status["done"] == status["total"] == 3

    body = client.result_bytes(job_id)
    doc = json.loads(body.decode("utf-8"))
    assert doc["schema"] == "service-result-v1"
    assert doc["kind"] == "montecarlo"
    assert len(doc["samples"]) == doc["summary"]["samples"]

    # Byte-identity with the CLI: the same parameters through
    # `repro montecarlo --output` must produce the same file.
    out = tmp_path / "cli.json"
    code = main([
        "-q", "montecarlo", "--trials", "3", "--seed", "1",
        "--size", "8", "--no-cache", "-o", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == body

    # Second identical submission: deduplicated, served from the
    # stored record without another engine run.
    again = client.submit(MC_PAYLOAD)
    assert again["deduplicated"] is True
    assert again["job_id"] == job_id
    assert client.result_bytes(job_id) == body


def test_event_stream_reaches_terminal_state(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    events = list(client.iter_events(job_id))
    assert events, "stream must deliver at least the state events"
    assert events[-1]["state"] == "done"
    progress = [e for e in events if e["event"] == "progress"]
    assert progress and progress[-1]["done"] == progress[-1]["total"] == 3
    # Resume after a checkpoint: only newer events come back.
    last_seq = events[-1]["seq"]
    tail = list(client.iter_events(job_id, after=last_seq - 1))
    assert [e["seq"] for e in tail] == [last_seq]


def test_malformed_payload_rejected_with_path(service):
    client, manager = service
    with pytest.raises(ValidationError) as excinfo:
        client.submit({"kind": "montecarlo",
                       "montecarlo": {"trials": "many"}})
    err = excinfo.value
    assert err.path == "montecarlo.trials"
    assert err.value == "many"
    assert manager.snapshot() == [], "rejected payloads must not enqueue"

    with pytest.raises(ValidationError) as excinfo:
        client.submit({"kind": "warp-drive"})
    assert excinfo.value.path == "kind"
    assert "montecarlo" in excinfo.value.allowed


def test_non_power_of_two_sweep_size_is_a_400_with_path(service):
    import urllib.error
    import urllib.request

    client, manager = service
    body = json.dumps({
        "kind": "explore",
        "network": {"topology": "mlp", "sizes": [32, 16]},
        "sweep": {"crossbar_sizes": [16, 12]},
    }).encode("utf-8")
    request = urllib.request.Request(
        client.base_url + "/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    response = excinfo.value
    assert response.code == 400
    error = json.loads(response.read().decode("utf-8"))["error"]
    assert error["path"] == "sweep.crossbar_sizes[1]"
    assert "power of two" in error["message"]
    assert manager.snapshot() == [], "rejected payloads must not enqueue"


def test_mistyped_config_value_is_a_400_with_path(service):
    import urllib.error
    import urllib.request

    client, manager = service
    body = json.dumps({
        "kind": "simulate",
        "config": {"crossbar_size": "64"},
        "network": {"topology": "mlp", "sizes": [32, 16]},
    }).encode("utf-8")
    request = urllib.request.Request(
        client.base_url + "/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    response = excinfo.value
    assert response.code == 400
    error = json.loads(response.read().decode("utf-8"))["error"]
    assert error["path"] == "config.crossbar_size"
    assert error["value"] == "64"
    assert manager.snapshot() == [], "rejected payloads must not enqueue"


@pytest.mark.parametrize("argv, section, path", [
    pytest.param(["--modes", "gamma_ray"], {"modes": ["gamma_ray"]},
                 "faults.modes[0]", id="unknown-mode"),
    pytest.param(["--rates", "0", "-0.1"], {"rates": [0, -0.1]},
                 "faults.rates[1]", id="negative-rate"),
    pytest.param(["--networks", "mlp:4,4", "--modes", "line_open"],
                 {"networks": ["mlp:4,4"], "modes": ["line_open"]},
                 "faults.modes[0]", id="line-mode-on-mlp"),
    pytest.param(["--device", "FLASH"], {"device": "FLASH"},
                 "faults.device", id="unknown-device"),
    pytest.param(["--rates", "0.5", "1.5"], {"rates": [0.5, 1.5]},
                 "faults.rates[1]", id="probability-above-one"),
    pytest.param(["--modes", "drift", "stuck_low", "--rates", "2"],
                 {"modes": ["drift", "stuck_low"], "rates": [2]},
                 "faults.rates[0]", id="sigma-above-one-beside-stuck"),
    pytest.param(["--trials", "0"], {"trials": 0}, "faults.trials",
                 id="zero-trials"),
])
def test_bad_faults_input_is_rejected_alike_by_cli_and_service(
    service, capsys, argv, section, path
):
    """One declaration, two entrances: `repro faults` exits 2 with the
    very error the service answers 400 with."""
    import urllib.error
    import urllib.request

    client, manager = service
    request = urllib.request.Request(
        client.base_url + "/jobs", method="POST",
        data=json.dumps({"kind": "faults", "faults": section}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
    assert error["path"] == path
    assert manager.snapshot() == [], "rejected payloads must not enqueue"

    assert main(["-q", "faults", *argv, "--no-cache"]) == 2
    assert f"error: {error['message']}" in capsys.readouterr().err.splitlines()


def test_unknown_routes_and_jobs(service):
    client, _ = service
    with pytest.raises(ServiceError) as excinfo:
        client.status("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.result_bytes("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/nope")
    assert excinfo.value.status == 404


def test_result_conflict_until_done(service, monkeypatch):
    client, manager = service
    # Park the executor so the job stays queued.
    import repro.service.jobs as jobs_mod
    gate = threading.Event()
    original = jobs_mod.run_payload

    def slow(payload, **kwargs):
        gate.wait(timeout=10)
        return original(payload, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_payload", slow)
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    with pytest.raises(ServiceError) as excinfo:
        client.result_bytes(job_id)
    assert excinfo.value.status == 409
    gate.set()
    assert client.wait(job_id, timeout=60)["state"] == "done"


def test_cancel_endpoint(service, monkeypatch):
    client, _ = service
    import repro.service.jobs as jobs_mod
    gate = threading.Event()
    original = jobs_mod.run_payload

    def slow(payload, **kwargs):
        gate.wait(timeout=10)
        return original(payload, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_payload", slow)
    blocker = client.submit(MC_PAYLOAD)["job_id"]
    queued = client.submit({
        "kind": "montecarlo",
        "montecarlo": {"trials": 3, "seed": 99, "size": 8},
    })["job_id"]
    reply = client.cancel(queued)
    assert reply["state"] == "cancelled"
    gate.set()
    assert client.wait(blocker, timeout=60)["state"] == "done"
    assert client.wait(queued, timeout=5)["state"] == "cancelled"


def test_event_stream_carries_eta_and_resources(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    events = list(client.iter_events(job_id))
    progress = [e for e in events if e["event"] == "progress"]
    dones = [e["done"] for e in progress]
    assert dones == sorted(dones), "done must be monotone"
    for event in progress:
        assert "eta_seconds" in event and "throughput" in event
    # Once work has completed, the estimate is a finite number.
    completed = [e for e in progress if e["done"] > 0]
    assert completed
    for event in completed:
        assert event["eta_seconds"] is not None
        assert event["eta_seconds"] < float("inf")
    final = progress[-1]
    assert final["done"] == final["total"] == 3
    assert final["eta_seconds"] == 0.0
    resources = final["resources"]
    assert resources["wall_seconds"] > 0
    assert resources["jobs_executed"] >= 1
    # The final done==total progress precedes the terminal state.
    assert events.index(final) < events.index(events[-1])
    assert events[-1]["event"] == "state"
    assert events[-1]["state"] == "done"


def test_per_job_metrics_endpoint(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    client.wait(job_id, timeout=60)
    doc = client.job_metrics(job_id)
    assert doc["job_id"] == job_id
    assert doc["state"] == "done"
    assert doc["families"], "a finished job has metric samples"
    assert doc["resources"]["jobs_executed"] == 3
    assert doc["run"]["counters"]["jobs_executed"] == 3
    text = client.job_metrics_text(job_id)
    families = parse_prometheus(text)
    assert families
    for family in families.values():
        for (_, labels) in family["samples"]:
            assert ("job", job_id) in labels, (
                "every per-job sample must carry the job label"
            )


def _event_samples(text):
    """``{event: value}`` of a job's ``repro_runtime_events_total``."""
    family = parse_prometheus(text)["repro_runtime_events_total"]
    return {
        dict(labels)["event"]: value
        for (_, labels), value in family["samples"].items()
    }


def test_job_run_counts_are_its_registry_samples():
    """With tracing off, the ``run`` counters of ``/jobs/{id}/metrics``
    are the job's ``repro_runtime_events_total`` samples in
    ``families``: one record of the engine's counts, read twice."""
    manager = JobManager(observe=False)
    server = serve("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        "http://127.0.0.1:%d" % server.server_address[1]
    )
    try:
        job_id = client.submit(MC_PAYLOAD)["job_id"]
        client.wait(job_id, timeout=60)
        doc = client.job_metrics(job_id)
        text = client.job_metrics_text(job_id)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=5)
    run = doc["run"]
    assert set(run) == {
        "counters", "jobs_per_second", "mode", "resources", "stages",
        "total_seconds", "workers",
    }
    assert run["counters"]["jobs_total"] == 3
    assert run["counters"] == _event_samples(text)
    assert set(doc["resources"]) == set(run["resources"]) | {
        "jobs_executed",
    }


def test_traced_job_run_stages_are_the_engine_stages(service):
    """The progress tracker's ``progress-chunk`` samples share the
    stage histogram but stay out of the job's ``run`` stages."""
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    client.wait(job_id, timeout=60)
    doc = client.job_metrics(job_id)
    stages = doc["families"]["repro_runtime_stage_seconds"]["values"]
    assert any('stage="progress-chunk"' in key for key in stages)
    assert "progress-chunk" not in doc["run"]["stages"]
    assert set(doc["run"]["stages"]) == {"execute"}


def test_per_job_trace_endpoint_and_isolation():
    """Two jobs running concurrently must yield disjoint per-job
    traces with zero span leakage between them."""
    manager = JobManager(workers=2)
    server = serve("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        "http://127.0.0.1:%d" % server.server_address[1]
    )
    try:
        first = client.submit(MC_PAYLOAD)["job_id"]
        second = client.submit({
            "kind": "montecarlo",
            "montecarlo": {"trials": 4, "seed": 2, "size": 8},
        })["job_id"]
        client.wait(first, timeout=60)
        client.wait(second, timeout=60)
        traces = {}
        for job_id in (first, second):
            doc = client.job_trace(job_id)
            spans = [
                e for e in doc["traceEvents"] if e.get("ph") == "X"
            ]
            assert spans, "a finished job has a trace"
            names = {e["name"] for e in spans}
            assert "service.job" in names
            for event in spans:
                assert event["args"]["job"] == job_id, (
                    "span leaked across jobs"
                )
            traces[job_id] = {e["args"]["span_id"] for e in spans}
        assert not (traces[first] & traces[second])
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=5)


def test_global_cardinality_stable_across_jobs(service):
    """Completed jobs roll their label sets back into the base series,
    so the global scrape does not grow with job count."""
    client, _ = service

    def sample_count():
        families = parse_prometheus(client.metrics_text())
        return sum(len(f["samples"]) for f in families.values())

    counts = []
    for seed in (11, 12, 13):
        job_id = client.submit({
            "kind": "montecarlo",
            "montecarlo": {"trials": 3, "seed": seed, "size": 8},
        })["job_id"]
        client.wait(job_id, timeout=60)
        counts.append(sample_count())
    assert counts[0] == counts[1] == counts[2]
    assert 'job="' not in client.metrics_text()


def test_metrics_exposition(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    client.wait(job_id, timeout=60)
    text = client.metrics_text()
    families = parse_prometheus(text)
    assert "repro_service_jobs_total" in families
    samples = families["repro_service_jobs_total"]["samples"]
    submitted = [
        value for (name, labels), value in samples.items()
        if ("event", "submitted") in labels
    ]
    assert submitted and submitted[0] >= 1


def test_duplicate_json_keys_rejected_with_path(service):
    """Strict body parsing: a duplicate key is a structured 400.

    ``json.loads`` silently keeps the *last* binding, so a client
    typo like two ``montecarlo`` sections would previously run with
    whichever half survived; the strict parser refuses upfront and
    names the offending key's path.
    """
    import urllib.error
    import urllib.request

    client, manager = service
    body = (
        '{"kind": "montecarlo",'
        ' "montecarlo": {"trials": 2, "seed": 0, "size": 8},'
        ' "montecarlo": {"trials": 9999, "seed": 1, "size": 8}}'
    ).encode("utf-8")
    request = urllib.request.Request(
        client.base_url + "/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    response = excinfo.value
    assert response.code == 400
    error = json.loads(response.read().decode("utf-8"))["error"]
    assert error["path"] == "montecarlo"
    assert "duplicate" in error["message"]
    assert manager.snapshot() == [], "rejected payloads must not enqueue"


# -- persistent connections -------------------------------------------
@pytest.fixture
def count_connects(monkeypatch):
    """Count new TCP connections opened through ``http.client``."""
    opened = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        opened.append(self)
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return opened


def _address(client):
    host, port = client.base_url.rsplit("//", 1)[1].split(":")
    return host, int(port)


def test_reused_connection_does_not_stall(service):
    """Each response leaves in one send with Nagle off; a response
    split over two sends waited ~40 ms per request for the peer's
    delayed ACK on a kept-alive connection."""
    client, _ = service
    conn = http.client.HTTPConnection(*_address(client), timeout=10)
    try:
        start = time.perf_counter()
        for _ in range(5):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.read() == b"ok\n"
            assert not response.will_close
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 0.1, f"5 kept-alive GETs took {elapsed * 1e3:.0f} ms"


def test_client_runs_jobs_over_one_connection(service, count_connects):
    client, _ = service
    for seed in (31, 32, 33):
        job_id = client.submit({
            "kind": "montecarlo",
            "montecarlo": {"trials": 2, "seed": seed, "size": 8},
        })["job_id"]
        # Stop at the terminal event, as callers do: the stream must
        # already be drained so the connection can carry the next call.
        for event in client.iter_events(job_id):
            if event["event"] == "state" and event["state"] == "done":
                break
        assert json.loads(client.result_bytes(job_id))["kind"] == \
            "montecarlo"
    assert len(count_connects) == 1


def test_client_reconnects_after_idle_close(service, count_connects,
                                            monkeypatch):
    import repro.service.server as server_mod

    monkeypatch.setattr(server_mod, "KEEPALIVE_IDLE_SECONDS", 0.1)
    client, _ = service
    assert client.healthz()
    time.sleep(0.4)  # the server closes the idle connection
    receipt = client.submit(MC_PAYLOAD)  # a POST is resent once
    assert len(count_connects) == 2
    assert receipt["deduplicated"] is False
    assert client.wait(receipt["job_id"], timeout=60)["state"] == "done"


def test_error_responses_leave_the_connection_usable(service,
                                                     count_connects):
    client, manager = service
    with pytest.raises(ValidationError):
        client.submit({"kind": "montecarlo",
                       "montecarlo": {"trials": "many"}})
    with pytest.raises(ServiceError) as excinfo:
        client.status("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json("POST", "/nope", {"ignored": True})
    assert excinfo.value.status == 404
    assert client.healthz()
    assert client.jobs() == []
    assert len(count_connects) == 1


def test_event_resume_sends_headers_before_the_long_poll(service,
                                                         monkeypatch):
    """A resume on a job with no new events must get its response
    headers at once, not after the server's first long-poll."""
    import repro.service.jobs as jobs_mod
    import repro.service.server as server_mod

    client, manager = service
    gate = threading.Event()
    original = jobs_mod.run_payload

    def parked(payload, **kwargs):
        gate.wait(timeout=10)
        return original(payload, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_payload", parked)
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    deadline = time.monotonic() + 10
    while len(manager.events_since(job_id, timeout=0)) < 3:
        assert time.monotonic() < deadline
        time.sleep(0.01)  # queued, running, first progress
    after = manager.events_since(job_id, timeout=0)[-1].seq
    conn = http.client.HTTPConnection(*_address(client), timeout=10)
    try:
        start = time.perf_counter()
        conn.request("GET", f"/jobs/{job_id}/events?after={after}")
        response = conn.getresponse()
        waited = time.perf_counter() - start
        assert response.status == 200
        assert waited < server_mod.EVENT_POLL_SECONDS / 2, waited
        gate.set()
        events = [json.loads(line) for line in response.read().splitlines()]
    finally:
        gate.set()
        conn.close()
    assert events[0]["seq"] == after + 1
    assert events[-1]["state"] == "done"


def test_abandoned_event_stream_leaves_the_client_usable(service,
                                                        monkeypatch):
    import repro.service.jobs as jobs_mod

    client, _ = service
    gate = threading.Event()
    original = jobs_mod.run_payload

    def parked(payload, **kwargs):
        gate.wait(timeout=10)
        return original(payload, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_payload", parked)
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    try:
        events = client.iter_events(job_id)
        assert next(events)["state"] == "queued"
        events.close()  # the rest of the stream is never read
        assert client.status(job_id)["job_id"] == job_id
    finally:
        gate.set()
    assert client.wait(job_id, timeout=60)["state"] == "done"


def test_job_artefacts_render_the_frozen_snapshot(service, monkeypatch):
    """On-request rendering returns the bytes an eager rendering of the
    same snapshot gave at the end of the job, however many jobs ran
    since."""
    import repro.obs.metrics as obs_metrics
    import repro.obs.trace as obs_trace

    client, manager = service
    eager = {}
    filter_job = obs_metrics.REGISTRY.filter_job
    take_job_spans = obs_trace.take_job_spans

    def eager_filter(job_id):
        snapshot = filter_job(job_id)
        eager.setdefault(job_id, {}).update(
            families=snapshot.to_dict(),
            prometheus=snapshot.to_prometheus().encode("utf-8"),
        )
        return snapshot

    def eager_spans(job_id):
        spans = take_job_spans(job_id)
        eager.setdefault(job_id, {})["trace"] = (json.dumps({
            "displayTimeUnit": "ms",
            "traceEvents": obs_trace.to_chrome_events(spans),
        }, sort_keys=True) + "\n").encode("utf-8")
        return spans

    monkeypatch.setattr(obs_metrics.REGISTRY, "filter_job", eager_filter)
    monkeypatch.setattr(obs_trace, "take_job_spans", eager_spans)

    def served(job_id):
        return {
            "json": client._read("GET", f"/jobs/{job_id}/metrics"),
            "prometheus": client._read(
                "GET", f"/jobs/{job_id}/metrics?format=prometheus"
            ),
            "trace": client._read("GET", f"/jobs/{job_id}/trace"),
        }

    def expected(job_id):
        record = manager.get(job_id)
        metrics_doc = {
            "job_id": job_id,
            "state": record.state,
            "families": eager[job_id]["families"],
            "resources": dict(record.resources),
            "run": record.run_summary,
        }
        return {
            "json": (json.dumps(metrics_doc, sort_keys=True)
                     + "\n").encode("utf-8"),
            "prometheus": eager[job_id]["prometheus"],
            "trace": eager[job_id]["trace"],
        }

    job_id = client.submit(MC_PAYLOAD)["job_id"]
    client.wait(job_id, timeout=60)
    first = served(job_id)
    assert first == expected(job_id)
    assert b'job="%s"' % job_id.encode() in first["prometheus"]

    for seed in (41, 42, 43):
        other = client.submit({
            "kind": "montecarlo",
            "montecarlo": {"trials": 3, "seed": seed, "size": 8},
        })["job_id"]
        client.wait(other, timeout=60)
    assert served(job_id) == first


def _descendants(pid):
    """Pids of every live process below ``pid``, read from /proc."""
    parents = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited meanwhile
        if fields[0] != "Z":
            parents[int(stat.parent.name)] = int(fields[1])
    found, todo = set(), [pid]
    while todo:
        parent = todo.pop()
        children = {c for c, ppid in parents.items() if ppid == parent}
        found |= children
        todo += children
    return found


def _alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("signum, parallel_job", [
    pytest.param(signal.SIGINT, False, id="SIGINT"),
    pytest.param(signal.SIGTERM, False, id="SIGTERM"),
    pytest.param(signal.SIGINT, True, id="SIGINT-after-parallel-job"),
    pytest.param(signal.SIGTERM, True, id="SIGTERM-after-parallel-job"),
])
def test_serve_exits_promptly_with_an_idle_client(
    tmp_path, signum, parallel_job
):
    """SIGINT and SIGTERM stop ``repro serve`` while a client holds an
    idle persistent connection: closing the server does not wait for
    the connection's thread, and after an ``execution.jobs: 2`` job the
    warm pool's workers and helper processes exit with the server."""
    import repro

    if parallel_job and not Path("/proc/self/stat").exists():
        pytest.skip("lists child processes through /proc")
    port_file = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(repro.__file__)),
        env.get("PYTHONPATH"),
    ]))
    # A shell without job control starts background commands with
    # SIGINT ignored, and the child would inherit that; install
    # Python's handler explicitly.
    launcher = (
        "import runpy, signal, sys; "
        "signal.signal(signal.SIGINT, signal.default_int_handler); "
        "sys.argv = ['repro'] + sys.argv[1:]; "
        "runpy.run_module('repro', run_name='__main__')"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", launcher, "serve", "--port", "0",
         "--port-file", str(port_file), "--no-cache"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    client = None
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() or \
                not port_file.read_text().endswith("\n"):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        client = ServiceClient(
            "http://127.0.0.1:%d" % int(port_file.read_text())
        )
        assert client.healthz()  # the connection stays open, idle
        children = set()
        if parallel_job:
            job_id = client.submit({
                **MC_PAYLOAD,
                "execution": {"jobs": 2, "min_sweep_for_parallel": 2},
            })["job_id"]
            assert client.wait(job_id, timeout=60)["state"] == "done"
            children = _descendants(proc.pid)
            assert children, "a parallel job leaves its warm pool"
        start = time.monotonic()
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
        assert time.monotonic() - start < 2.0
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in children):
            assert time.monotonic() < deadline, [
                pid for pid in children if _alive(pid)
            ]
            time.sleep(0.05)
    finally:
        if client is not None:
            client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
