"""Span tracing: nesting, exception safety, export, propagation."""

import json
import os
import time

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Each test starts and ends with tracing off and an empty buffer."""
    trace.disable()
    trace.clear()
    trace.activate(None)
    yield
    trace.disable()
    trace.clear()
    trace.activate(None)


class TestSpanNesting:
    def test_parent_child_linkage(self):
        trace.enable()
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = trace.spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert outer.parent_id is None

    def test_siblings_share_a_parent(self):
        trace.enable()
        with trace.span("root") as root:
            with trace.span("a") as a:
                pass
            with trace.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_attrs_recorded_and_settable(self):
        trace.enable()
        with trace.span("work", size=64) as s:
            s.set(iterations=3)
        record = trace.spans()[0]
        assert record["attrs"] == {"size": 64, "iterations": 3}

    def test_duration_is_positive(self):
        trace.enable()
        with trace.span("sleepy"):
            time.sleep(0.002)
        assert trace.spans()[0]["duration"] >= 0.002

    def test_span_ids_are_pid_prefixed_and_unique(self):
        trace.enable()
        with trace.span("a") as a:
            pass
        with trace.span("b") as b:
            pass
        assert a.span_id != b.span_id
        assert a.span_id.startswith(f"{os.getpid():x}-")


class TestExceptionSafety:
    def test_exception_finishes_span_and_records_error(self):
        trace.enable()
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("nope")
        record = trace.spans()[0]
        assert record["attrs"]["error"] == "ValueError"

    def test_context_restored_after_exception(self):
        trace.enable()
        with trace.span("outer") as outer:
            with pytest.raises(RuntimeError):
                with trace.span("failing"):
                    raise RuntimeError
            with trace.span("after") as after:
                pass
        assert after.parent_id == outer.span_id


class TestDisabledMode:
    def test_disabled_span_is_the_noop_singleton(self):
        first = trace.span("x")
        second = trace.span("y", attr=1)
        assert first is second
        assert first is trace._NOOP

    def test_noop_supports_full_protocol(self):
        with trace.span("x") as s:
            s.set(a=1).finish()
        assert trace.spans() == []

    def test_disabled_overhead_is_tiny(self):
        """Loose guard: a disabled span() call stays well under 20 us
        (measured ~90 ns; the bound only catches gross regressions)."""
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            trace.span("hot")
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6


class TestManualSpans:
    def test_begin_does_not_become_the_parent(self):
        trace.enable()
        handle = trace.begin("async-work")
        with trace.span("unrelated") as s:
            assert s.parent_id is None
        handle.finish()
        names = [r["name"] for r in trace.spans()]
        assert set(names) == {"async-work", "unrelated"}


class TestPropagation:
    def test_context_round_trip(self):
        trace.enable(debug=True)
        with trace.span("dispatch") as d:
            context = trace.current_context()
        assert context == {
            "enabled": True, "debug": True, "parent": d.span_id,
            "job": None,
        }

    def test_activate_adopts_remote_parent(self):
        trace.activate({"enabled": True, "debug": False, "parent": "me-1"})
        with trace.span("remote-child") as s:
            pass
        assert s.parent_id == "me-1"
        assert trace.enabled()

    def test_activate_none_disables(self):
        trace.enable()
        trace.activate(None)
        assert not trace.enabled()

    def test_activate_clears_fork_inherited_state(self):
        """Fork-start workers inherit the live contextvar and a copy of
        the buffer; activate() must reset both or merged traces get
        stale parents and duplicated spans."""
        trace.enable()
        with trace.span("pre-fork"):
            trace.activate(
                {"enabled": True, "debug": False, "parent": "chunk-9"}
            )
            assert trace.spans() == []
            with trace.span("in-worker") as s:
                pass
        assert s.parent_id == "chunk-9"

    def test_collect_drains_and_absorb_restores(self):
        trace.enable()
        with trace.span("one"):
            pass
        shipped = trace.collect()
        assert trace.spans() == []
        trace.absorb(shipped)
        assert [r["name"] for r in trace.spans()] == ["one"]


class TestBufferCap:
    """Spans outside any job are capped; the oldest are dropped first
    and counted, while job-owned spans wait for their job."""

    @staticmethod
    def _dropped():
        from repro.obs import metrics

        family = metrics.REGISTRY.get("repro_trace_dropped_spans_total")
        return family.total() if family is not None else 0

    def test_oldest_job_less_spans_dropped_and_counted(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_UNOWNED_SPANS", 3)
        before = self._dropped()
        trace.enable()
        for i in range(3):
            with trace.span(f"free-{i}"):
                pass
            with trace.JobContext("job-a"):
                with trace.span(f"owned-{i}"):
                    pass
        for i in range(3, 5):
            with trace.span(f"free-{i}"):
                pass
        assert [r["name"] for r in trace.spans()] == [
            "owned-0", "owned-1", "free-2", "owned-2", "free-3", "free-4",
        ]
        assert self._dropped() - before == 2
        # Shipped spans count against the same cap.
        trace.absorb([{"name": "shipped", "job": None}] * 2)
        names = [r["name"] for r in trace.spans()]
        assert names == [
            "owned-0", "owned-1", "owned-2", "free-4", "shipped", "shipped",
        ]
        assert self._dropped() - before == 4
        assert [r["name"] for r in trace.take_job_spans("job-a")] == [
            "owned-0", "owned-1", "owned-2",
        ]
        assert len(trace.spans()) == 3


class TestChromeExport:
    def test_schema(self, tmp_path):
        trace.enable()
        with trace.span("outer", size=8):
            with trace.span("inner"):
                pass
        path = trace.export_chrome(tmp_path / "t.json")
        payload = json.loads(open(path).read())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta and meta[0]["name"] == "process_name"
        assert len(complete) == 2
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(
                event
            )
            assert "span_id" in event["args"]
        inner = next(e for e in complete if e["name"] == "inner")
        outer = next(e for e in complete if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_export_accepts_explicit_spans(self, tmp_path):
        records = [{
            "name": "x", "span_id": "1-1", "parent_id": None,
            "pid": 42, "start": 1.0, "duration": 0.5, "attrs": {},
        }]
        path = trace.export_chrome(tmp_path / "x.json", records)
        payload = json.loads(open(path).read())
        lanes = {e["pid"] for e in payload["traceEvents"]}
        assert lanes == {42}
