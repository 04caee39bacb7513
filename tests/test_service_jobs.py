"""Job manager semantics: dedupe, lifecycle, cancellation."""

import threading
import time

import pytest

import repro.service.jobs as jobs_mod
from repro.errors import JobCancelled, MnsimError
from repro.service.jobs import JobManager, JobState
from repro.service.schema import SimulationPayload

MC_PAYLOAD = {
    "kind": "montecarlo",
    "montecarlo": {"trials": 2, "seed": 0, "size": 8},
}


def payload(**overrides):
    doc = dict(MC_PAYLOAD)
    if overrides:
        doc["montecarlo"] = dict(doc["montecarlo"], **overrides)
    return SimulationPayload.from_dict(doc)


@pytest.fixture
def manager():
    mgr = JobManager()
    yield mgr
    mgr.shutdown()


class _CountingRunner:
    """Replacement for ``run_payload`` that counts engine entries."""

    def __init__(self, delay=0.0, error=None, poll_cancel=False):
        self.calls = 0
        self.lock = threading.Lock()
        self.delay = delay
        self.error = error
        self.poll_cancel = poll_cancel

    def __call__(self, payload, *, cache=None, progress=None,
                 should_cancel=None):
        with self.lock:
            self.calls += 1
        deadline = time.monotonic() + self.delay
        while time.monotonic() < deadline:
            if self.poll_cancel and should_cancel and should_cancel():
                raise JobCancelled("cancelled mid-run")
            time.sleep(0.005)
        if self.error is not None:
            raise self.error
        if progress is not None:
            progress(1, 1)
        return {"schema": "test", "ok": True}


def test_concurrent_submissions_execute_once(manager, monkeypatch):
    runner = _CountingRunner(delay=0.05)
    monkeypatch.setattr("repro.service.jobs.run_payload", runner)

    results = []
    results_lock = threading.Lock()

    def submit():
        record, created = manager.submit(payload())
        manager.wait(record.job_id, timeout=30)
        with results_lock:
            results.append((record.job_id, created,
                            manager.result_text(record.job_id)))

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert runner.calls == 1, "N identical submissions must run once"
    ids = {job_id for job_id, _, _ in results}
    assert len(ids) == 1, "content-addressing must collapse the ids"
    created_flags = [created for _, created, _ in results]
    assert created_flags.count(True) == 1
    texts = {text for _, _, text in results}
    assert len(texts) == 1 and None not in texts


def test_done_job_serves_later_submissions(manager, monkeypatch):
    runner = _CountingRunner()
    monkeypatch.setattr("repro.service.jobs.run_payload", runner)
    record, created = manager.submit(payload())
    assert created
    assert manager.wait(record.job_id, timeout=30) == JobState.DONE

    again, created = manager.submit(payload())
    assert not created
    assert again is record
    assert runner.calls == 1


def test_cancel_queued_job_never_reaches_engine(manager, monkeypatch):
    runner = _CountingRunner(delay=0.3)
    monkeypatch.setattr("repro.service.jobs.run_payload", runner)

    blocker, _ = manager.submit(payload(seed=100))
    # The single worker is busy with `blocker`, so this one stays queued.
    victim, _ = manager.submit(payload(seed=101))
    assert victim.state == JobState.QUEUED

    state = manager.cancel(victim.job_id)
    assert state == JobState.CANCELLED
    assert manager.wait(victim.job_id, timeout=1) == JobState.CANCELLED
    assert manager.wait(blocker.job_id, timeout=30) == JobState.DONE
    assert runner.calls == 1, "a cancelled queued job must never run"
    states = [e.state for e in victim.events]
    assert states == [JobState.QUEUED, JobState.CANCELLED]


def test_cancel_running_job_stops_at_poll(manager, monkeypatch):
    runner = _CountingRunner(delay=10.0, poll_cancel=True)
    monkeypatch.setattr("repro.service.jobs.run_payload", runner)
    record, _ = manager.submit(payload(seed=102))
    deadline = time.monotonic() + 5
    while record.state != JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.005)
    manager.cancel(record.job_id)
    assert manager.wait(record.job_id, timeout=10) == JobState.CANCELLED
    assert manager.result_text(record.job_id) is None


def test_failed_job_reports_structured_error_and_retries(
    manager, monkeypatch
):
    runner = _CountingRunner(error=MnsimError("solver exploded"))
    monkeypatch.setattr("repro.service.jobs.run_payload", runner)
    record, _ = manager.submit(payload(seed=103))
    assert manager.wait(record.job_id, timeout=30) == JobState.FAILED
    assert record.error == {
        "type": "MnsimError", "message": "solver exploded",
    }

    # Failed jobs may be resubmitted: fresh record, same id, re-runs.
    retry, created = manager.submit(payload(seed=103))
    assert created
    assert retry.job_id == record.job_id
    manager.wait(retry.job_id, timeout=30)
    assert runner.calls == 2


def _fail_once(original):
    """``original``, except that its first call raises."""
    calls = []

    def wrapper(*args, **kwargs):
        if not calls:
            calls.append(None)
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    return wrapper


def _silent_runner(payload, *, cache=None, progress=None,
                   should_cancel=None):
    return {"schema": "test", "ok": True}


@pytest.mark.parametrize("target, name", [
    (SimulationPayload, "total_work"),
    (jobs_mod, "ProgressTracker"),
    (jobs_mod, "run_payload"),
    (jobs_mod, "render_document"),
    (JobManager, "_persist_observability"),
    (jobs_mod, "_resource_snapshot"),
])
def test_any_failing_step_ends_the_job_failed(manager, monkeypatch,
                                              target, name):
    """A failure anywhere in a job's execution ends it in a terminal
    FAILED event, and the executor goes on to run the next job."""
    monkeypatch.setattr(jobs_mod, "run_payload", _silent_runner)
    monkeypatch.setattr(target, name, _fail_once(getattr(target, name)))

    failing, _ = manager.submit(payload(seed=110))
    assert manager.wait(failing.job_id, timeout=30) == JobState.FAILED
    events = manager.events_since(failing.job_id, after=0, timeout=0)
    assert (events[-1].event, events[-1].state) == (
        "state", JobState.FAILED,
    )
    assert failing.error == {
        "type": "RuntimeError", "message": "injected failure",
    }

    following, _ = manager.submit(payload(seed=111))
    assert manager.wait(following.job_id, timeout=30) == JobState.DONE


def test_device_spelling_dedupes_onto_one_job(manager, monkeypatch):
    monkeypatch.setattr(jobs_mod, "run_payload", _silent_runner)

    def simulate(model):
        return SimulationPayload.from_dict({
            "kind": "simulate",
            "network": {"topology": "mlp", "sizes": [16, 8]},
            "config": {"memristor_model": model},
        })

    record, created = manager.submit(simulate("RRAM"))
    assert created
    assert manager.wait(record.job_id, timeout=30) == JobState.DONE
    again, created = manager.submit(simulate("rram"))
    assert not created
    assert again.job_id == record.job_id


def test_events_stream_progress_and_terminal_state(manager, monkeypatch):
    monkeypatch.setattr(
        "repro.service.jobs.run_payload", _CountingRunner()
    )
    record, _ = manager.submit(payload(seed=104))
    manager.wait(record.job_id, timeout=30)
    events = manager.events_since(record.job_id, after=0, timeout=0)
    kinds = [(e.event, e.state) for e in events]
    assert kinds[0] == ("state", JobState.QUEUED)
    assert kinds[-1] == ("state", JobState.DONE)
    assert ("progress", JobState.RUNNING) in kinds
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    # Resumption: events strictly after a checkpoint.
    tail = manager.events_since(record.job_id, after=seqs[-2], timeout=0)
    assert [e.seq for e in tail] == [seqs[-1]]


def test_total_seeded_from_payload_before_engine_runs(
    manager, monkeypatch
):
    """The payload's work estimate reaches the stream up front, even
    when the engine never reports progress itself."""
    monkeypatch.setattr(jobs_mod, "run_payload", _silent_runner)
    record, _ = manager.submit(payload(seed=105))
    manager.wait(record.job_id, timeout=30)
    events = manager.events_since(record.job_id, after=0, timeout=0)
    first_progress = next(e for e in events if e.event == "progress")
    assert first_progress.total == 2  # montecarlo trials
    assert first_progress.done == 0


def test_final_progress_event_precedes_terminal_state(
    manager, monkeypatch
):
    """Ordering contract of ``events_since``: a successful job always
    ends with ``progress(done == total)`` then the terminal state."""
    monkeypatch.setattr(jobs_mod, "run_payload", _silent_runner)
    record, _ = manager.submit(payload(seed=106))
    manager.wait(record.job_id, timeout=30)
    events = manager.events_since(record.job_id, after=0, timeout=0)
    assert events[-1].event == "state"
    assert events[-1].state == JobState.DONE
    final = events[-2]
    assert final.event == "progress"
    assert final.done == final.total == 2
    assert final.eta_seconds == 0.0


def test_campaign_progress_events_are_distinct(manager):
    """Each unit's engine repeats its boundary reports (a seeded 0 and
    a final done == total); the stream carries each (done, total)
    once, still starting at 0 and ending at the total."""
    record, _ = manager.submit(SimulationPayload.from_dict({
        "kind": "campaign",
        "campaign": {
            "version": 0,
            "name": "distinct-progress",
            "execution": {"numRuns": 2},
            "settings": {"regular": {
                "kind": "faults",
                "faults": {"rates": [0.0, 0.05], "trials": 2, "seed": 7,
                           "size": 8, "device": "IDEAL"},
            }},
        },
    }))
    assert manager.wait(record.job_id, timeout=60) == JobState.DONE
    events = manager.events_since(record.job_id, after=0, timeout=0)
    reports = [(e.done, e.total) for e in events if e.event == "progress"]
    assert len(reports) == len(set(reports))
    assert reports[0] == (0, 8)
    assert reports[-1] == (8, 8)


def test_concurrent_parallel_jobs_finish():
    """Two executor threads each fan a sweep out over worker processes
    at once: both finish, in process mode, with their serial bytes
    (a fork taken while the other thread held an import lock used to
    deadlock the child)."""
    parallel = {"jobs": 2, "min_sweep_for_parallel": 2}
    docs = [
        {"kind": "montecarlo",
         "montecarlo": {"trials": 8, "seed": 2, "size": 8}},
        {"kind": "faults",
         "faults": {"rates": [0.0, 0.05], "trials": 8, "seed": 11,
                    "size": 8}},
    ]
    serial = JobManager()
    concurrent = JobManager(workers=2)
    try:
        records = [
            concurrent.submit(SimulationPayload.from_dict(
                dict(doc, execution=parallel)
            ))[0]
            for doc in docs
        ]
        for record, doc in zip(records, docs):
            assert concurrent.wait(record.job_id, timeout=60) == (
                JobState.DONE
            )
            assert record.run_summary["mode"] == "process"
            reference, _ = serial.submit(SimulationPayload.from_dict(doc))
            assert serial.wait(reference.job_id, timeout=60) == (
                JobState.DONE
            )
            assert concurrent.result_text(record.job_id) == (
                serial.result_text(reference.job_id)
            )
    finally:
        concurrent.shutdown()
        serial.shutdown()


def test_engine_cache_dedupes_across_manager_restarts(tmp_path):
    cache_dir = str(tmp_path / "cache")

    first = JobManager(cache_dir=cache_dir)
    try:
        record, _ = first.submit(payload())
        assert first.wait(record.job_id, timeout=60) == JobState.DONE
        text = first.result_text(record.job_id)
    finally:
        first.shutdown()

    # A new manager (fresh process in real life) re-runs the payload but
    # every underlying trial is served from the sqlite cache, and the
    # result document is byte-identical.
    second = JobManager(cache_dir=cache_dir)
    try:
        record2, created = second.submit(payload())
        assert created  # no in-memory record survives the restart
        assert second.wait(record2.job_id, timeout=60) == JobState.DONE
        assert second.result_text(record2.job_id) == text
    finally:
        second.shutdown()


class TestLongPollIsolation:
    """events_since must wait out its timeout on *this* job's silence.

    The manager's condition variable is shared by every job, so the
    old single ``Condition.wait`` returned early (and empty) whenever
    any other job appended an event — a long-poll on a quiet job
    degenerated into a busy poll under concurrent load.
    """

    @staticmethod
    def _inject_running(manager, job_id, seed):
        from repro.service.jobs import JobRecord

        record = JobRecord(
            job_id=job_id, payload=payload(seed=seed),
            state=JobState.RUNNING,
        )
        with manager._wake:
            manager._jobs[job_id] = record
        return record

    def test_unrelated_jobs_events_do_not_end_the_poll(self, manager):
        noisy = self._inject_running(manager, "job-noisy", seed=1)
        self._inject_running(manager, "job-quiet", seed=2)

        stop = threading.Event()

        def chatter():
            while not stop.is_set():
                with manager._wake:
                    noisy.done += 1
                    manager._append_event(noisy, "progress")
                time.sleep(0.02)

        thread = threading.Thread(target=chatter, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            events = manager.events_since(
                "job-quiet", after=0, timeout=0.6
            )
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join(timeout=5)
        assert events == []
        # The broken wait returned at the noisy job's first notify
        # (~0.02 s); the predicate wait must hold the full timeout.
        assert elapsed >= 0.55
        assert len(manager.events_since("job-noisy", after=0)) >= 1

    def test_own_jobs_event_wakes_the_poll_promptly(self, manager):
        self._inject_running(manager, "job-noisy", seed=1)
        quiet = self._inject_running(manager, "job-quiet", seed=2)

        def append_later():
            time.sleep(0.1)
            with manager._wake:
                quiet.done = 1
                manager._append_event(quiet, "progress")

        thread = threading.Thread(target=append_later, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            events = manager.events_since(
                "job-quiet", after=0, timeout=10.0
            )
            elapsed = time.monotonic() - start
        finally:
            thread.join(timeout=5)
        assert [e.event for e in events] == ["progress"]
        assert elapsed < 5.0, "must wake on its own event, not timeout"


def test_each_executor_owns_one_cache_closed_on_shutdown(tmp_path,
                                                        monkeypatch):
    opened = []

    class RecordingCache(jobs_mod.ResultCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.thread = threading.current_thread().name
            self.closed = False
            opened.append(self)

        def close(self):
            self.closed = True
            super().close()

    monkeypatch.setattr(jobs_mod, "ResultCache", RecordingCache)
    mgr = JobManager(cache_dir=str(tmp_path / "cache"), workers=2)
    try:
        records = [mgr.submit(payload(seed=seed))[0] for seed in range(4)]
        for record in records:
            assert mgr.wait(record.job_id, timeout=60) == JobState.DONE
        # Each worker opens its cache as it starts; one worker can run
        # all four jobs before the other's open returns.
        deadline = time.monotonic() + 10
        while len(opened) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(opened) == 2
        assert not any(cache.closed for cache in opened)
    finally:
        mgr.shutdown()
    assert sorted(cache.thread for cache in opened) == [
        "repro-service-worker-0", "repro-service-worker-1",
    ]
    assert all(cache.closed for cache in opened)


def test_shared_cache_handle_keeps_per_job_resources(tmp_path):
    """Jobs that share an executor's cache handle report the same
    per-job accounting as jobs that each opened their own."""
    explore = {
        "kind": "explore",
        "network": {"topology": "mlp", "sizes": [16, 8]},
        "sweep": {"crossbar_sizes": [16, 32], "parallelism_degrees": [1],
                  "interconnect_nodes": [45]},
    }
    refilter = dict(explore, sweep=dict(explore["sweep"],
                                        max_error_rate=0.5))
    docs = [MC_PAYLOAD,
            {"kind": "montecarlo",
             "montecarlo": dict(MC_PAYLOAD["montecarlo"], trials=3)},
            explore, refilter]
    mgr = JobManager(cache_dir=str(tmp_path / "cache"))
    try:
        seen = []
        for doc in docs:
            record, _ = mgr.submit(SimulationPayload.from_dict(doc))
            assert mgr.wait(record.job_id, timeout=60) == JobState.DONE
            seen.append(tuple(record.resources.get(key, 0) for key in
                              ("jobs_executed", "cache_hits")))
    finally:
        mgr.shutdown()
    assert seen == [(2, 0), (1, 2), (2, 0), (0, 2)]
