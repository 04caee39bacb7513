"""Process-global metrics registry: counters, gauges, histograms.

The vocabulary is deliberately the Prometheus one — a *counter* only
goes up, a *gauge* is set to the latest value, a *histogram* buckets
observations and keeps a running sum/count — and the text exposition
(:meth:`MetricsRegistry.to_prometheus`) follows the Prometheus format
so the output can be scraped, diffed, or round-tripped through
:func:`parse_prometheus` in tests.  :meth:`MetricsRegistry.to_dict`
gives the same data as JSON-safe nested dicts.

Every metric supports optional labels, passed as keyword arguments to
the recording calls::

    from repro.obs import metrics
    metrics.counter("repro_solver_factorizations_total").inc()
    metrics.counter("repro_runtime_events_total").inc(3, event="cache_hits")
    metrics.histogram("repro_cache_lookup_seconds").observe(0.0021)

The module-level helpers operate on the shared :data:`REGISTRY`;
instantiate :class:`MetricsRegistry` directly for isolated registries
(tests do).  All operations are thread-safe and cheap (one lock, two
dict lookups), but hot-path callers still gate on
:func:`repro.obs.trace.enabled` so a disabled run pays nothing.

**Job scoping.**  A registry created with ``job_scoped=True`` (the
global :data:`REGISTRY` is) injects a ``job=<id>`` label into every
recorded sample while a :class:`repro.obs.trace.JobContext` is active.
That is the *only* sanctioned way to get per-job labels — callers must
never pass ``job=`` explicitly (enforced by a grep-level check in
``tests/test_analysis_rules.py``) — so attribution follows the dynamic
job scope, including into worker processes.  After a job's results are
persisted, :meth:`MetricsRegistry.rollup_job` folds its label sets back
into the base series (counters and histograms merge additively; gauges
are evicted), keeping global scrape cardinality bounded by the number
of *live* jobs, not the number ever run.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "parse_prometheus",
]

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _strip_job(key: LabelSet, job_id: str) -> LabelSet:
    """``key`` without its ``("job", job_id)`` pair."""
    return tuple(pair for pair in key if pair != ("job", job_id))


def _has_job(key: LabelSet, job_id: str) -> bool:
    return ("job", job_id) in key


def _escape_label_value(value: str) -> str:
    """Escape per the 0.0.4 exposition spec: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escapes only ``\\`` and newline (spec 0.0.4)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_labels(labelset: LabelSet) -> str:
    if not labelset:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, _escape_label_value(v)) for k, v in labelset
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Common base: a named family of labelled samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        #: Set by a ``job_scoped`` registry at registration; standalone
        #: instances (e.g. the ETA tracker's private histogram) never
        #: inject.
        self._job_scoped = False

    def _record_key(self, labels: Dict[str, Any]) -> LabelSet:
        """The label set a *recording* call lands on.

        Job-scoped metrics add ``job=<id>`` while a
        :class:`repro.obs.trace.JobContext` is active; read paths
        (``value``/``snapshot``/``quantile``) address label sets
        verbatim.
        """
        if self._job_scoped and "job" not in labels:
            from repro.obs import trace as _trace

            job = _trace.current_job()
            if job is not None:
                labels = dict(labels, job=job)
        return _labelset(labels)

    def totals(self, label: str, **where: Any) -> Dict[str, float]:
        """Sample values summed per value of ``label``.

        Only samples whose labels include ``where`` count (every sample
        by default); the sum runs across their other labels, an
        injected ``job`` included.  Histograms contribute their
        observation sums.  Samples without ``label`` are skipped.
        """
        want = _labelset(where)
        out: Dict[str, float] = {}
        for key, value in self._sample_values():
            if not all(map(key.__contains__, want)):
                continue
            for name, text in key:
                if name == label:
                    out[text] = out.get(text, 0) + value
                    break
        return out

    def _label_keys(self) -> List[LabelSet]:
        return [key for key, _ in self._sample_values()]

    # Subclasses provide: exposition() -> list of exposition lines,
    # to_dict() -> JSON-safe payload, _sample_values() -> (label set,
    # value) pairs, filter_job(), rollup_job().


class _Scalar(_Metric):
    """One number per label set: what counters and gauges share."""

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelSet, float] = {}

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_labelset(labels), 0)

    def _sample_values(self) -> List[Tuple[LabelSet, float]]:
        with self._lock:
            return list(self._values.items())

    def filter_job(self, job_id: str) -> Optional["_Scalar"]:
        with self._lock:
            values = {
                k: v for k, v in self._values.items() if _has_job(k, job_id)
            }
        if not values:
            return None
        out = type(self)(self.name, self.help)
        out._values = values
        return out

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        return {
            "type": self.kind,
            "help": self.help,
            "values": {
                _format_labels(k) or "": v for k, v in values.items()
            },
        }

    def exposition(self) -> List[str]:
        with self._lock:
            values = sorted(self._values.items())
        return [
            f"{self.name}{_format_labels(k)} {_format_value(v)}"
            for k, v in values
        ]


class Counter(_Scalar):
    """Monotonically increasing count, optionally per label set."""

    kind = "counter"

    def inc(self, amount: Union[int, float] = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        key = self._record_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def total(self, **labels: Any) -> float:
        """Sum over every sample whose labels *include* ``labels``.

        ``total()`` is the family grand total; ``total(event="x")``
        sums the ``event="x"`` series across whatever other labels
        (e.g. an injected ``job``) the samples carry.
        """
        want = set(_labelset(labels))
        with self._lock:
            return sum(
                v for k, v in self._values.items() if want <= set(k)
            )

    def rollup_job(self, job_id: str) -> int:
        """Fold ``job_id``'s series into the base series additively."""
        with self._lock:
            doomed = [k for k in self._values if _has_job(k, job_id)]
            for key in doomed:
                base = _strip_job(key, job_id)
                self._values[base] = (
                    self._values.get(base, 0) + self._values.pop(key)
                )
        return len(doomed)


class Gauge(_Scalar):
    """Last-written value, optionally per label set."""

    kind = "gauge"

    def set(self, value: Union[int, float], **labels: Any) -> None:
        with self._lock:
            self._values[self._record_key(labels)] = float(value)

    def add(self, amount: Union[int, float], **labels: Any) -> None:
        key = self._record_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_max(self, value: Union[int, float], **labels: Any) -> None:
        """Raise the sample to ``value`` when that is higher (a peak)."""
        key = self._record_key(labels)
        with self._lock:
            if value > self._values.get(key, 0.0):
                self._values[key] = float(value)

    def rollup_job(self, job_id: str) -> int:
        """Evict ``job_id``'s series (gauges are not additive)."""
        with self._lock:
            doomed = [k for k in self._values if _has_job(k, job_id)]
            for key in doomed:
                del self._values[key]
        return len(doomed)


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets  # cumulative at export
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Bucketed observations with running sum and count.

    Buckets are upper bounds (``le``); the implicit ``+Inf`` bucket is
    always present.  Bucket counts are stored per-bucket and summed
    cumulatively at export, per the Prometheus convention.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.bounds = bounds
        self._states: Dict[LabelSet, _HistogramState] = {}

    def observe(self, value: Union[int, float], **labels: Any) -> None:
        value = float(value)
        key = self._record_key(labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(
                    len(self.bounds) + 1
                )
            index = len(self.bounds)  # +Inf by default
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            state.bucket_counts[index] += 1
            state.total += value
            state.count += 1

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """``{"count", "sum", "mean"}`` for one label set (zeros if unseen)."""
        with self._lock:
            state = self._states.get(_labelset(labels))
            if state is None:
                return {"count": 0, "sum": 0.0, "mean": 0.0}
            mean = state.total / state.count if state.count else 0.0
            return {
                "count": state.count, "sum": state.total, "mean": mean,
            }

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimated ``q``-quantile for one label set, or None if empty.

        Linear interpolation inside the bucket holding the rank (the
        usual Prometheus ``histogram_quantile`` estimate); observations
        in the implicit ``+Inf`` bucket clamp to the largest finite
        bound, so callers get a finite — if pessimistically low —
        answer rather than infinity.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            state = self._states.get(_labelset(labels))
            if state is None or state.count == 0:
                return None
            rank = q * state.count
            running = 0
            for i, count in enumerate(state.bucket_counts):
                if count and running + count >= rank:
                    if i >= len(self.bounds):  # +Inf bucket: clamp
                        return self.bounds[-1]
                    hi = self.bounds[i]
                    lo = self.bounds[i - 1] if i else min(0.0, hi)
                    return lo + (hi - lo) * ((rank - running) / count)
                running += count
            return self.bounds[-1]

    def _sample_values(self) -> List[Tuple[LabelSet, float]]:
        with self._lock:
            return [(k, s.total) for k, s in self._states.items()]

    def filter_job(self, job_id: str) -> Optional["Histogram"]:
        with self._lock:
            states: Dict[LabelSet, _HistogramState] = {}
            for key, state in self._states.items():
                if not _has_job(key, job_id):
                    continue
                copy = _HistogramState(len(self.bounds) + 1)
                copy.bucket_counts = list(state.bucket_counts)
                copy.total = state.total
                copy.count = state.count
                states[key] = copy
        if not states:
            return None
        out = Histogram(self.name, self.help, buckets=self.bounds)
        out._states = states
        return out

    def rollup_job(self, job_id: str) -> int:
        """Merge ``job_id``'s series into the base series bucket-wise."""
        with self._lock:
            doomed = [k for k in self._states if _has_job(k, job_id)]
            for key in doomed:
                state = self._states.pop(key)
                base = _strip_job(key, job_id)
                target = self._states.get(base)
                if target is None:
                    target = self._states[base] = _HistogramState(
                        len(self.bounds) + 1
                    )
                for i, count in enumerate(state.bucket_counts):
                    target.bucket_counts[i] += count
                target.total += state.total
                target.count += state.count
        return len(doomed)

    def to_dict(self) -> Dict[str, Any]:
        values = {}
        with self._lock:
            for key, state in self._states.items():
                cumulative = []
                running = 0
                for count in state.bucket_counts:
                    running += count
                    cumulative.append(running)
                values[_format_labels(key) or ""] = {
                    "buckets": dict(
                        zip(
                            [str(b) for b in self.bounds] + ["+Inf"],
                            cumulative,
                        )
                    ),
                    "sum": state.total,
                    "count": state.count,
                }
        return {"type": self.kind, "help": self.help, "values": values}

    def exposition(self) -> List[str]:
        lines: List[str] = []
        with self._lock:
            for key, state in sorted(self._states.items()):
                running = 0
                for bound, count in zip(
                    list(self.bounds) + [math.inf], state.bucket_counts
                ):
                    running += count
                    le = _labelset({"le": _format_value(bound)})
                    lines.append(
                        f"{self.name}_bucket"
                        f"{_format_labels(key + le)} {running}"
                    )
                lines.append(
                    f"{self.name}_sum{_format_labels(key)} "
                    f"{_format_value(state.total)}"
                )
                lines.append(
                    f"{self.name}_count{_format_labels(key)} {state.count}"
                )
        return lines


class MetricsRegistry:
    """A named collection of metrics with JSON / Prometheus export.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the metric, later calls return the same object (a
    conflicting re-registration — different type, or a histogram with
    different bucket bounds — raises).

    ``job_scoped=True`` makes every registered metric inject a
    ``job=<id>`` label at record time while a
    :class:`repro.obs.trace.JobContext` is active (see module
    docstring); only the global :data:`REGISTRY` opts in.
    """

    def __init__(self, job_scoped: bool = False) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()
        self.job_scoped = job_scoped

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str,
                       **kwargs: Any) -> _Metric:
        """Register-or-return under the lock.

        A ``buckets=None`` kwarg means "whatever is registered": it
        skips the bounds check against an existing histogram and falls
        back to :data:`DEFAULT_BUCKETS` on first registration.  The
        peek-then-create sequence stays entirely inside the lock so
        concurrent first registrations cannot race.
        """
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None:
                    bounds = sorted(float(b) for b in buckets)
                    if bounds != existing.bounds:
                        raise ValueError(
                            f"histogram {name!r} already registered "
                            f"with buckets {existing.bounds}, not "
                            f"{bounds}"
                        )
                if help_text and not existing.help:
                    existing.help = help_text
                return existing
            if "buckets" in kwargs and kwargs["buckets"] is None:
                kwargs["buckets"] = DEFAULT_BUCKETS
            metric = cls(name, help_text, **kwargs)
            metric._job_scoped = self.job_scoped
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get-or-create; ``buckets=None`` means "whatever is
        registered" (:data:`DEFAULT_BUCKETS` on first registration),
        while explicit bounds must match an existing registration."""
        return self._get_or_create(
            Histogram, name, help_text, buckets=buckets
        )

    # -- introspection -------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every registered metric (tests and fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()

    # -- job label lifecycle -------------------------------------------
    def filter_job(self, job_id: str) -> "MetricsRegistry":
        """A detached registry holding only ``job_id``'s samples.

        Serves ``GET /jobs/{id}/metrics``: the copies keep their
        ``job=`` label and are snapshots — recording into them does not
        touch this registry.
        """
        out = MetricsRegistry()
        with self._lock:
            items = list(self._metrics.items())
        for name, metric in items:
            filtered = metric.filter_job(job_id)
            if filtered is not None:
                out._metrics[name] = filtered
        return out

    def rollup_job(self, job_id: str) -> int:
        """Fold ``job_id``'s label sets back into the base series.

        Counters and histograms merge additively (the global totals a
        scrape sees are unchanged); gauges are evicted.  Returns the
        number of label sets removed.  Called once per job after its
        observability artefacts are persisted on the job record, this
        bounds global scrape cardinality by the number of live jobs.
        """
        with self._lock:
            items = list(self._metrics.values())
        return sum(metric.rollup_job(job_id) for metric in items)

    def job_label_values(self) -> set:
        """Distinct ``job=`` label values present across all samples."""
        with self._lock:
            items = list(self._metrics.values())
        jobs = set()
        for metric in items:
            for key in metric._label_keys():
                for label, value in key:
                    if label == "job":
                        jobs.add(value)
        return jobs

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of every metric, name-sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.to_dict() for name, metric in items}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            items = sorted(self._metrics.items())
        for name, metric in items:
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.exposition())
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry every instrumented module records into.
#: Job-scoped: samples recorded inside a JobContext carry a job label.
REGISTRY = MetricsRegistry(job_scoped=True)


def counter(name: str, help_text: str = "") -> Counter:
    """Get-or-create a counter on the global :data:`REGISTRY`."""
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    """Get-or-create a gauge on the global :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help_text)


def histogram(
    name: str, help_text: str = "",
    buckets: Optional[Iterable[float]] = None,
) -> Histogram:
    """Get-or-create a histogram on the global :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help_text, buckets=buckets)


# ----------------------------------------------------------------------
# Exposition parsing (round-trip support for tests / tooling)
# ----------------------------------------------------------------------
# The labels group walks label pairs token-wise (quoted strings consume
# escape pairs) so a '}' or '"' *inside* a quoted value cannot end the
# label block early.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[^\"}]|\"(?:[^\"\\]|\\.)*\")*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"'
)


def _unescape_label_value(value: str) -> str:
    """Invert :func:`_escape_label_value` (escape-pair walker)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown pair: keep verbatim (spec is lenient here)
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _unescape_help(text: str) -> str:
    """Invert :func:`_escape_help` for parsed HELP lines."""
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt == "\\":
                out.append("\\")
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse a text exposition back into ``{family: {...}}`` dicts.

    Families map to ``{"type", "help", "samples"}`` where ``samples``
    maps ``(metric_name, labelset)`` tuples to float values.  Histogram
    ``_bucket``/``_sum``/``_count`` samples are grouped under their base
    family name, mirroring how :meth:`MetricsRegistry.to_prometheus`
    writes them — so ``parse_prometheus(reg.to_prometheus())`` is a
    faithful round trip.
    """
    families: Dict[str, Dict[str, Any]] = {}
    current: Optional[str] = None

    def family(name: str) -> Dict[str, Any]:
        return families.setdefault(
            name, {"type": "untyped", "help": "", "samples": {}}
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            family(name)["help"] = _unescape_help(help_text)
            current = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            family(name)["type"] = kind.strip()
            current = name
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        sample_name = match.group("name")
        base = current
        if base is None or not sample_name.startswith(base):
            base = sample_name
            for suffix in ("_bucket", "_sum", "_count"):
                if sample_name.endswith(suffix):
                    base = sample_name[: -len(suffix)]
                    break
        labels = _labelset({
            m.group("key"): _unescape_label_value(m.group("val"))
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        })
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        family(base)["samples"][(sample_name, labels)] = value
    return families
