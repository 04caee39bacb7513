"""Per-layer tracing from outside the program.

The benchmark adds no spans to ``src/``.  In a traced run the shim
wraps the public entry points of each layer (``ENTRIES``) before it
calls into ``repro``: functions are rebound in every ``repro.*`` module
that holds the original object (which covers ``from x import f``), and
methods are replaced on their class.  Each call becomes one span kept
in memory: entry, start, end, parent span and thread.  Spans go to a
Chrome trace when the process ends, and :func:`layer_metrics` turns
them into the per-layer metrics of ``BENCHMARK.json``.

A layer's self time is the time its spans cover minus the union of the
time their child spans cover.  Layer counts are taken where the layer
is entered from outside (its outermost spans), so a call that re-enters
the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Counter = Callable[[Dict[str, Any], Any], Dict[str, float]]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``count`` runs on every call and ``count_outer`` only when the call
    is the outermost span of its layer; both receive the bound
    arguments and the return value and return counter increments.
    """

    layer: str
    name: str
    target: str  # "module:attr" or "module:Class.method"
    count: Optional[Counter] = None
    count_outer: Optional[Counter] = None


def _stages(args, _result):
    return {"stages": len(args["self"].stages)}


def _jobs(args, _result):
    return {"jobs": len(args["specs"])}


def _lookups(args, result):
    keys = {k for k in args["keys"] if k is not None}
    return {"keys": len(keys), "hits": len(result)}


def _points(args, _result):
    space = args["space"]
    if space is None:
        from repro.dse.space import DesignSpace

        space = DesignSpace()
    return {"points": len(space)}


def _mc_trials(args, _result):
    return {"trials": args["trials"]}


def _fault_trials(args, _result):
    spec = args["spec"]
    return {"trials": len(spec.networks) * len(spec.fault_modes)
            * len(spec.fault_rates) * spec.trials}


def _one_vector(_args, result):
    return {"vectors": 1, "iterations": result.iterations}


def _many_vectors(_args, result):
    return {"vectors": len(result.iterations),
            "iterations": int(sum(result.iterations))}


def _members(args, _result):
    return {"members": len(args["networks"])}


ENTRIES: Tuple[Entry, ...] = (
    Entry("cli", "main", "repro.cli:main"),
    Entry("validation", "payload",
          "repro.service.schema:SimulationPayload.from_dict"),
    Entry("validation", "config", "repro.config:SimConfig.from_dict"),
    Entry("validation", "config_file", "repro.config:SimConfig.from_file"),
    Entry("validation", "campaign",
          "repro.campaign.config:CampaignConfig.from_dict"),
    Entry("validation", "campaign_file",
          "repro.campaign.config:CampaignConfig.from_file"),
    Entry("campaign", "run", "repro.campaign.dag:DagRunner.run",
          count=_stages),
    Entry("pool", "run_jobs", "repro.runtime.pool:run_jobs", count=_jobs),
    Entry("cache", "get", "repro.runtime.cache:ResultCache.get_many",
          count=_lookups),
    Entry("cache", "put", "repro.runtime.cache:ResultCache.put_many"),
    Entry("dse", "explore", "repro.dse.explorer:explore", count=_points),
    Entry("arch", "build", "repro.arch.accelerator:Accelerator.__init__"),
    Entry("arch", "summary", "repro.arch.accelerator:Accelerator.summary"),
    Entry("arch", "accuracy",
          "repro.arch.accelerator:Accelerator.accuracy"),
    Entry("mc", "run", "repro.accuracy.montecarlo:run_monte_carlo",
          count=_mc_trials),
    Entry("faults", "run", "repro.faults.campaign:run_campaign",
          count=_fault_trials),
    Entry("nn", "forward", "repro.nn.inference:MlpInference.forward"),
    Entry("spice", "build",
          "repro.spice.solver:CrossbarNetwork.__init__"),
    Entry("spice", "solve", "repro.spice.solver:CrossbarNetwork.solve",
          count_outer=_one_vector),
    Entry("spice", "solve_many",
          "repro.spice.solver:CrossbarNetwork.solve_many",
          count_outer=_many_vectors),
    Entry("spice", "solve_batch", "repro.spice.solver:solve_batch",
          count=_members, count_outer=_many_vectors),
)


# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span store fed by the entry-point wrappers.

    A span is ``(id, entry index, start, end, parent id, thread id,
    counters)``; times are ``time.perf_counter`` seconds, which on Linux
    is the system-wide monotonic clock, so spans of different processes
    share one time axis.  Spans are appended when they end.
    """

    def __init__(self, entries: Tuple[Entry, ...] = ENTRIES) -> None:
        self.entries = entries
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, index: int, fn: Callable) -> Callable:
        entry = self.entries[index]
        signature = inspect.signature(fn)
        needs_args = entry.count is not None or entry.count_outer is not None
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else 0
            outer = not any(layer == entry.layer for _i, layer in stack)
            span_id = next(self._ids)
            stack.append((span_id, entry.layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counters = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters = {}
                if entry.count is not None:
                    counters.update(entry.count(bound.arguments, result))
                if outer and entry.count_outer is not None:
                    counters.update(
                        entry.count_outer(bound.arguments, result)
                    )
            spans.append((span_id, index, start, end, parent,
                          threading.get_ident(), counters))
            return result

        return wrapper

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; :meth:`restore` undoes it exactly."""
        for index, entry in enumerate(self.entries):
            module_name, attr = entry.target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(index, raw.__func__))
                else:
                    new = self._wrap(index, raw)
                self._restore.append((cls, method, raw))
                setattr(cls, method, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original)
            for holder in _repro_modules():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def restore(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    # -- export --------------------------------------------------------
    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """The spans as Chrome trace "X" events (ids kept in ``args``)."""
        events = []
        for span_id, index, start, end, parent, tid, counters in self.spans:
            entry = self.entries[index]
            args: Dict[str, Any] = {"id": span_id, "parent": parent}
            if counters:
                args.update(counters)
            events.append({
                "name": f"{entry.layer}.{entry.name}", "cat": entry.layer,
                "ph": "X", "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid, "args": args,
            })
        return events


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro"
                                   or name.startswith("repro."))
    ]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """Self time of each span: duration minus the union of its children.

    ``spans`` are dicts with ``pid``, ``id``, ``parent``, ``start`` and
    ``end``; children are clipped to their parent's interval.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = (
        defaultdict(list)
    )
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        key = (span["pid"], span["id"])
        clipped = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(key, ())
            if e > span["start"] and s < span["end"]
        ]
        out[key] = (span["end"] - span["start"]) - union_length(clipped)
    return out


def spans_from_events(events: Iterable[Dict[str, Any]]) -> List[Dict]:
    """Rebuild span dicts from this module's Chrome "X" events."""
    spans = []
    for event in events:
        if event.get("ph") != "X" or "id" not in event.get("args", {}):
            continue
        layer, name = event["name"].split(".", 1)
        args = event["args"]
        spans.append({
            "pid": event["pid"], "id": args["id"], "parent": args["parent"],
            "layer": layer, "name": name,
            "start": event["ts"] / 1e6,
            "end": (event["ts"] + event["dur"]) / 1e6,
            "counters": {k: v for k, v in args.items()
                         if k not in ("id", "parent")},
        })
    return spans


@dataclass
class Aggregate:
    """Summable per-layer totals of one traced window."""

    calls: Dict[str, float]         # "layer.name" -> calls
    seconds: Dict[str, float]       # "layer.name" -> inclusive seconds
    layer_calls: Dict[str, float]   # layer -> outermost spans
    layer_self: Dict[str, float]    # layer -> self seconds
    layer_outer: Dict[str, float]   # layer -> outermost span seconds
    counters: Dict[str, float]      # "layer.counter" -> total
    covered: float                  # seconds under any top-level span


def aggregate(spans: List[Dict[str, Any]]) -> Aggregate:
    """Fold spans into totals; spans nested in a span of the same entry
    add calls but not inclusive seconds (no double counting)."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    selfs = self_times(spans)
    calls: Dict[str, float] = defaultdict(float)
    seconds: Dict[str, float] = defaultdict(float)
    layer_calls: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    layer_outer: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(float)
    top: List[Tuple[float, float]] = []
    for span in spans:
        qual = f"{span['layer']}.{span['name']}"
        duration = span["end"] - span["start"]
        calls[qual] += 1
        layer_self[span["layer"]] += selfs[(span["pid"], span["id"])]
        for counter, value in span["counters"].items():
            counters[f"{span['layer']}.{counter}"] += value
        same_entry = same_layer = False
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is None:
            top.append((span["start"], span["end"]))
        while parent is not None:
            same_layer = same_layer or parent["layer"] == span["layer"]
            same_entry = same_entry or (
                parent["layer"] == span["layer"]
                and parent["name"] == span["name"]
            )
            parent = by_key.get((parent["pid"], parent["parent"]))
        if not same_entry:
            seconds[qual] += duration
        if not same_layer:
            layer_calls[span["layer"]] += 1
            layer_outer[span["layer"]] += duration
    return Aggregate(dict(calls), dict(seconds), dict(layer_calls),
                     dict(layer_self), dict(layer_outer), dict(counters),
                     union_length(top))


# ----------------------------------------------------------------------
# The per-layer metric catalogue
# ----------------------------------------------------------------------
#: Names of the repro.obs spans whose totals the solver metrics read.
OBS_SPANS = ("solver.assemble", "solver.factorize", "solver.refine")

IMPORT_MODULES = {
    "numpy_s": "numpy",
    "scipy_sparse_s": "scipy.sparse",
    "scipy_optimize_s": "scipy.optimize",
}


def parse_importtime(stderr: str,
                     top: str = "repro.cli") -> Dict[str, float]:
    """Import metrics from ``python -X importtime -c 'import <top>'``.

    ``total_s`` is the cumulative time of ``top``; ``repro_s`` sums the
    self time of every ``repro`` module; the library entries are
    cumulative; ``modules`` counts the modules ``top`` imported.
    """
    # Lines read "import time: <self us> | <cumulative us> | <name>",
    # children before parents, the name indented two spaces per level.
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((int(fields[0]), int(fields[1]), level, name.strip()))
    out = {"total_s": 0.0, "repro_s": 0.0, "modules": 0.0}
    out.update({metric: 0.0 for metric in IMPORT_MODULES})
    first = 0
    for i, (_self_us, cumulative_us, level, name) in enumerate(rows):
        if level != 0:
            continue
        if name != top:
            first = i + 1
            continue
        subtree = rows[first:i + 1]
        out["total_s"] = cumulative_us / 1e6
        out["modules"] = float(len(subtree))
        for sub_self, sub_cumulative, _level, sub in subtree:
            if sub == "repro" or sub.startswith("repro."):
                out["repro_s"] += sub_self / 1e6
            for metric, module in IMPORT_MODULES.items():
                if sub == module:
                    out[metric] = sub_cumulative / 1e6
        break
    return out


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Aggregate, obs: Dict[str, List[float]], ops: int,
                  imports: Dict[str, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of a traced run.

    Counts and seconds are means per timed traced op; ``import.*`` comes
    from ``-X importtime`` probes, ``service.*`` and ``bench.*`` from
    ``extra`` (measured by the client).  Layers a workload never enters
    read 0.
    """
    c, s, cnt = agg.calls, agg.seconds, agg.counters

    def calls(qual):
        return _per_op(c.get(qual, 0.0), ops)

    def secs(qual):
        return _per_op(s.get(qual, 0.0), ops)

    def self_s(layer):
        return _per_op(agg.layer_self.get(layer, 0.0), ops)

    def entered(layer):
        return _per_op(agg.layer_calls.get(layer, 0.0), ops)

    def counter(name):
        return _per_op(cnt.get(name, 0.0), ops)

    def obs_total(name, field):
        return _per_op(obs.get(name, [0.0, 0.0])[field], ops)

    m = {f"import.{k}": v for k, v in imports.items()}
    m["cli.main_s"] = secs("cli.main")
    m["validation.calls"] = entered("validation")
    m["validation.self_s"] = self_s("validation")
    m["campaign.runs"] = calls("campaign.run")
    m["campaign.stages"] = counter("campaign.stages")
    m["campaign.self_s"] = self_s("campaign")
    m["pool.calls"] = entered("pool")
    m["pool.jobs"] = counter("pool.jobs")
    m["pool.self_s"] = self_s("pool")
    m["cache.get_calls"] = calls("cache.get")
    m["cache.get_s"] = secs("cache.get")
    m["cache.put_calls"] = calls("cache.put")
    m["cache.put_s"] = secs("cache.put")
    m["cache.hit_ratio"] = _ratio(cnt.get("cache.hits", 0.0),
                                  cnt.get("cache.keys", 0.0))
    m["dse.explore_calls"] = calls("dse.explore")
    m["dse.points"] = counter("dse.points")
    m["dse.self_s"] = self_s("dse")
    m["dse.points_per_s"] = _ratio(cnt.get("dse.points", 0.0),
                                   agg.layer_outer.get("dse", 0.0))
    m["arch.build_calls"] = calls("arch.build")
    m["arch.build_s"] = secs("arch.build")
    m["arch.summary_calls"] = calls("arch.summary")
    m["arch.summary_s"] = secs("arch.summary")
    m["arch.accuracy_calls"] = calls("arch.accuracy")
    m["arch.accuracy_s"] = secs("arch.accuracy")
    m["arch.accuracy_per_point"] = _ratio(c.get("arch.accuracy", 0.0),
                                          c.get("arch.build", 0.0))
    m["mc.calls"] = entered("mc")
    m["mc.trials"] = counter("mc.trials")
    m["mc.self_s"] = self_s("mc")
    m["faults.calls"] = entered("faults")
    m["faults.trials"] = counter("faults.trials")
    m["faults.self_s"] = self_s("faults")
    m["nn.forward_calls"] = calls("nn.forward")
    m["nn.forward_s"] = secs("nn.forward")
    m["spice.networks"] = calls("spice.build")
    m["spice.build_s"] = secs("spice.build")
    m["spice.solve_calls"] = calls("spice.solve")
    m["spice.solve_s"] = secs("spice.solve")
    m["spice.solve_many_calls"] = calls("spice.solve_many")
    m["spice.solve_many_s"] = secs("spice.solve_many")
    m["spice.solve_batch_calls"] = calls("spice.solve_batch")
    m["spice.solve_batch_s"] = secs("spice.solve_batch")
    m["spice.batch_members"] = counter("spice.members")
    m["spice.vectors"] = counter("spice.vectors")
    m["spice.vectors_per_s"] = _ratio(
        cnt.get("spice.vectors", 0.0),
        agg.layer_outer.get("spice", 0.0) - s.get("spice.build", 0.0),
    )
    m["spice.assemble_s"] = obs_total("solver.assemble", 1)
    m["spice.factorize_s"] = obs_total("solver.factorize", 1)
    m["spice.factorize_count"] = obs_total("solver.factorize", 0)
    m["spice.refine_s"] = obs_total("solver.refine", 1)
    m["spice.refine_count"] = obs_total("solver.refine", 0)
    m["spice.fixed_point_iterations"] = counter("spice.iterations")
    for name in SERVICE_METRICS:
        m[f"service.{name}"] = extra.get(f"service.{name}", 0.0)
    for name in BENCH_METRICS:
        m[f"bench.{name}"] = extra.get(f"bench.{name}", 0.0)
    return m


SERVICE_METRICS = ("submit_ms_p50", "queue_wait_ms_p50", "exec_ms_p50",
                   "http_ms_p50", "result_fetch_ms_p50", "events_per_job",
                   "dedupe_ratio", "retained_kb_per_job")

BENCH_METRICS = ("untraced_ops_per_s", "traced_ops_per_s",
                 "trace_overhead_pct", "layer_coverage")


def write_trace(path: str, tracer: Tracer, pid: int,
                obs: Dict[str, List[float]]) -> None:
    """Write this process's spans plus its repro.obs span totals."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "traceEvents": tracer.chrome_events(pid),
            "displayTimeUnit": "ms",
            "obs": obs,
        }, handle, separators=(",", ":"))
