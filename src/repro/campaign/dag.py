"""The stage DAG: explicit executors, per-stage sharding, resume.

A declarative campaign (:mod:`repro.campaign.config`) runs as a
directed acyclic graph of :class:`Stage`\\ s.  Each stage names an
*executor* from a registry (``"campaign.unit"``,
``"campaign.post.summary"``, ``"campaign.report"``), so the graph
itself is plain data: what runs, after what, with what weight.
Programmatic sweeps (explore, fault campaigns, Monte Carlo) do not run
here: each builds its job specs, calls
:func:`repro.runtime.pool.run_jobs` once and folds the results.

:class:`DagRunner` walks the graph in a deterministic topological
order (Kahn's algorithm, input order preserved among ready stages) and
gives every stage a :class:`StageContext` carrying

* the upstream stages' results,
* the engine knobs (cache / metrics / ``should_cancel``), which a
  unit threads through to :func:`repro.runtime.pool.run_jobs` under
  its payload's own execution policy, and
* a stage-local ``progress`` callback remapped into the campaign-wide
  ``(done, total)`` stream — one monotone progress axis no matter how
  many stages run.

Each stage attempt starts a **fresh** :class:`ProgressTracker` (via
:meth:`~repro.obs.progress.ProgressTracker.reset`): the tracker clamps
``done`` monotone by design, so a restarted or resumed stage reusing
the previous attempt's tracker would silently drop every report and
freeze the ETA — the staleness bug this module exists to not have.

Resume is layered on the same sqlite :class:`ResultCache` the engine
uses.  A stage constructed with a ``cache_key`` stores its (JSON-safe)
result under ``kind="campaign-stage"`` when it completes; re-running
an interrupted campaign against the same cache replays completed
stages wholesale (100% hit, zero engine work) and partially-complete
stages replay their finished jobs through the engine's own per-job
cache — the final report is byte-identical to an uninterrupted run
because every executor is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError, JobCancelled
from repro.obs import trace as obs_trace
from repro.obs.progress import ProgressTracker
from repro.runtime.metrics import RunMetrics

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache

__all__ = [
    "Stage",
    "StageContext",
    "DagRunner",
    "register_executor",
    "get_executor",
    "STAGE_CACHE_KIND",
]

#: ``ResultCache`` row kind for stage-level resume documents.
STAGE_CACHE_KIND = "campaign-stage"

Executor = Callable[["Stage", "StageContext"], Any]

#: Executor registry, filled by the owning modules' decorators at
#: import time.  Entries are never replaced.
_EXECUTORS: Dict[str, Executor] = {}


def register_executor(name: str) -> Callable[[Executor], Executor]:
    """Class-of-work registration: ``@register_executor("campaign.unit")``."""

    def wrap(fn: Executor) -> Executor:
        existing = _EXECUTORS.get(name)
        if existing is not None and existing is not fn:
            raise ConfigError(f"executor {name!r} is already registered")
        _EXECUTORS[name] = fn
        return fn

    return wrap


def get_executor(name: str) -> Executor:
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown stage executor {name!r}; registered: "
            f"{sorted(_EXECUTORS)}"
        ) from None


@dataclass(frozen=True)
class Stage:
    """One node of the campaign graph.

    Attributes
    ----------
    name:
        Unique stage name; upstream results are keyed by it.
    executor:
        Registry name of the function that runs this stage.
    params:
        Stage parameters handed to the executor (arbitrary Python
        objects — only declarative campaign *files* are JSON).
    depends_on:
        Names of stages whose results this stage consumes.
    weight:
        Progress units this stage contributes to the campaign total
        (its engine job count; 0 for cheap expand/aggregate stages).
    cache_key:
        Optional content key for stage-level resume.  Must derive only
        from result-determining inputs (never engine knobs) so serial
        and parallel runs share entries; ``None`` disables stage-level
        caching (the engine's per-job cache still applies inside).
    """

    name: str
    executor: str
    params: Mapping[str, Any] = field(default_factory=dict)
    depends_on: Tuple[str, ...] = ()
    weight: int = 0
    cache_key: Optional[str] = None


class StageContext:
    """What one stage attempt sees: knobs, upstream results, progress."""

    def __init__(
        self,
        runner: "DagRunner",
        stage: Stage,
        offset: int,
        upstream: Dict[str, Any],
    ) -> None:
        self._runner = runner
        self._stage = stage
        self._offset = offset
        self.upstream = upstream
        self.cache = runner.cache
        self.metrics = runner.metrics
        self.should_cancel = runner.should_cancel

    def progress(self, done: int, total: int) -> None:
        """Stage-local report, remapped onto the campaign axis.

        ``total`` refines the stage's ETA denominator but never the
        campaign total — stage weights are fixed at graph-build time so
        the overall stream stays monotone.
        """
        self._runner._stage_progress(self._stage, self._offset, done, total)


class DagRunner:
    """Execute a stage DAG with per-stage observability and resume.

    Parameters
    ----------
    stages:
        The graph.  Stage names must be unique, dependencies must name
        existing stages, and the graph must be acyclic — violations
        raise :class:`~repro.errors.ConfigError` before anything runs.
    cache / metrics / progress / should_cancel:
        The engine knobs, threaded to every stage's context.  The
        shared ``metrics`` accumulates across stages exactly as a
        monolithic run would; per-stage deltas are recorded in
        :attr:`stage_stats`.
    clock:
        Injectable monotonic clock for the per-stage tracker (tests).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        cache: Optional[ResultCache] = None,
        metrics: Optional[RunMetrics] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.stages = tuple(stages)
        self.cache = cache
        self.metrics = metrics
        self.should_cancel = should_cancel
        self._progress = progress
        self._order = _topological_order(self.stages)
        self._total = sum(stage.weight for stage in self.stages)
        # One tracker, reset() at every stage attempt: each attempt
        # starts from a clean count/EWMA/latency state (the tracker is
        # deliberately monotone within an attempt).
        self._tracker = (
            ProgressTracker(clock=clock) if clock is not None
            else ProgressTracker()
        )
        #: Per-stage outcome ledger, filled by :meth:`run`:
        #: ``{"resumed": bool, "jobs": int, "cache_hits": int,
        #:    "elapsed_seconds": float}`` per stage name.
        self.stage_stats: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def _check_cancel(self) -> None:
        if self.should_cancel is not None and self.should_cancel():
            raise JobCancelled("campaign cancelled at a stage boundary")

    def _report(self, done: int) -> None:
        if self._progress is not None:
            self._progress(done, self._total)

    def _stage_progress(
        self, stage: Stage, offset: int, done: int, total: int
    ) -> None:
        self._tracker.update(done, total)
        self._report(min(offset + done, self._total))

    def _counter_snapshot(self) -> Tuple[int, int]:
        if self.metrics is None:
            return (0, 0)
        return (
            self.metrics.counters.get("jobs_total", 0),
            self.metrics.counters.get("cache_hits", 0),
        )

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute every stage; return ``{stage name: result}``.

        Raises :class:`~repro.errors.JobCancelled` when
        ``should_cancel`` fires at a stage boundary (the engine raises
        it at chunk boundaries inside a stage); everything already
        cached stays cached, which is what makes resume work.
        """
        results: Dict[str, Any] = {}
        self.stage_stats = {}
        offset = 0
        self._report(0)
        for stage in self._order:
            self._check_cancel()
            jobs_before, hits_before = self._counter_snapshot()
            upstream = {name: results[name] for name in stage.depends_on}
            resumed = False
            cached = (
                self.cache.get(stage.cache_key)
                if self.cache is not None and stage.cache_key is not None
                else None
            )
            if cached is not None:
                result = cached
                resumed = True
                elapsed = 0.0
            else:
                # Fresh tracker state per attempt — a resumed or
                # restarted stage must never inherit the previous
                # attempt's counts (frozen-ETA staleness).
                self._tracker.reset(stage.weight)
                context = StageContext(self, stage, offset, upstream)
                with obs_trace.span(
                    "campaign.stage",
                    stage=stage.name,
                    executor=stage.executor,
                    weight=stage.weight,
                ):
                    result = get_executor(stage.executor)(stage, context)
                elapsed = self._tracker.elapsed_seconds()
                if self.cache is not None and stage.cache_key is not None:
                    self.cache.put(stage.cache_key, STAGE_CACHE_KIND, result)
            results[stage.name] = result
            offset += stage.weight
            # Stage completion pins the campaign axis even when the
            # stage reported nothing itself (weight-0 stages, resumes).
            self._report(offset)
            jobs_after, hits_after = self._counter_snapshot()
            self.stage_stats[stage.name] = {
                "resumed": resumed,
                "jobs": jobs_after - jobs_before,
                "cache_hits": hits_after - hits_before,
                "elapsed_seconds": elapsed,
            }
        return results


# ----------------------------------------------------------------------
def _topological_order(stages: Tuple[Stage, ...]) -> List[Stage]:
    """Kahn's algorithm, deterministic: input order among ready stages."""
    by_name: Dict[str, Stage] = {}
    for stage in stages:
        if stage.name in by_name:
            raise ConfigError(f"duplicate stage name {stage.name!r}")
        by_name[stage.name] = stage
    for stage in stages:
        for dep in stage.depends_on:
            if dep not in by_name:
                raise ConfigError(
                    f"stage {stage.name!r} depends on unknown stage "
                    f"{dep!r}"
                )
            if dep == stage.name:
                raise ConfigError(
                    f"stage {stage.name!r} depends on itself"
                )
    remaining: Dict[str, set] = {
        stage.name: set(stage.depends_on) for stage in stages
    }
    order: List[Stage] = []
    done: set = set()
    while remaining:
        ready = [
            stage for stage in stages
            if stage.name in remaining and remaining[stage.name] <= done
        ]
        if not ready:
            cycle = sorted(remaining)
            raise ConfigError(
                f"campaign stages form a cycle: {cycle}"
            )
        for stage in ready:
            order.append(stage)
            done.add(stage.name)
            del remaining[stage.name]
    return order
