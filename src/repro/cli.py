"""Command-line interface: ``python -m repro <command>``.

The commands cover the software flow of the paper's Fig. 3:

* ``simulate`` — build the accelerator for a configuration (file or
  flags) and a network, print the summary and optional hierarchical
  report / breakdown;
* ``explore`` — traversal design-space exploration with an error
  constraint, printing the per-target optima (the Tables IV/VI flow);
* ``suggest`` — auto-complete the design parameters left free, one
  design per optimization target (:mod:`repro.dse.autocomplete`);
* ``montecarlo`` — circuit-level Monte-Carlo accuracy sampling (drives
  the SPICE solver, so its traces show the solver's internals);
* ``faults`` — fault-injection campaign sweeping fault rate x fault
  mode x network into accuracy-vs-fault-rate curves with confidence
  intervals (see :mod:`repro.faults`);
* ``campaign`` — declarative campaign files (JSON, or TOML on Python
  3.11+): ``validate`` checks a file and summarizes its expansion,
  ``run`` executes it through the stage-DAG runner, ``resume`` re-runs
  an interrupted campaign against its cache (:mod:`repro.campaign`);
* ``netlist`` — export a SPICE netlist for a random-programmed crossbar
  of the configured size (the hand-off path to external simulators);
* ``serve`` — the simulation-as-a-service HTTP job server (see
  :mod:`repro.service`);
* ``jobs`` — ``list`` and ``watch`` jobs on a running service, with
  live ETA, throughput and resource usage;
* ``obs-report`` — render a saved trace, or a service job's, as a
  wall-time tree + top-k table (see :mod:`repro.obs`);
* ``runtime-stats`` — the job engine's last-run metrics and cache
  effectiveness (see :mod:`repro.runtime`);
* ``lint`` — the project-specific static-analysis rules (see
  :mod:`repro.analysis`): exit 0 clean modulo the checked-in baseline,
  exit 2 on new findings.

``montecarlo``, ``faults`` and ``campaign run`` write a deterministic
result JSON with ``--output``; Monte Carlo's is byte-identical to the
service's result document for the equivalent payload.  ``simulate``,
``explore``, ``montecarlo`` and ``faults`` accept the engine knobs
``--jobs N`` (parallel worker processes), ``--cache-dir PATH``
(persistent result cache; also honoured from ``$REPRO_CACHE_DIR``) and
``--no-cache``.

Global flags (before the subcommand): ``--trace FILE`` writes a Chrome
trace-event JSON of the run (``$REPRO_TRACE`` does the same), and
``--metrics FILE`` dumps the metrics registry (JSON for ``*.json``,
Prometheus text exposition otherwise).  ``-v`` / ``-q`` adjust stderr
diagnostics: result tables go to stdout, progress and diagnostic lines
go to stderr through :mod:`logging`, so piping stdout stays clean.

Network specs are compact strings: ``mlp:784,256,10``, or the built-ins
``validation-mlp`` / ``jpeg`` / ``large-bank`` / ``caffenet`` / ``vgg16``.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.errors import JobExecutionError, MnsimError, ValidationError

if TYPE_CHECKING:
    from repro.config import SimConfig
    from repro.nn.networks import Network
    from repro.runtime.cache import ResultCache
    from repro.runtime.metrics import RunMetrics
    from repro.service.client import ServiceClient

# Every handler imports its own layer, so a cold process loads only
# what its command runs (DESIGN.md S33).
_log = logging.getLogger("repro.cli")


def _setup_logging(verbosity: int) -> None:
    """Route ``repro`` diagnostics to the *current* stderr.

    Handlers are rebuilt on every :func:`main` call because test
    harnesses (pytest's capsys) swap ``sys.stderr`` per invocation; a
    cached handler would keep writing to a closed stream.
    Verbosity: ``-1`` (--quiet) warnings only, ``0`` progress lines,
    ``>=1`` (-v) debug detail with logger names.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    if verbosity >= 1:
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
    else:
        handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.propagate = False
    if verbosity < 0:
        logger.setLevel(logging.WARNING)
    elif verbosity == 0:
        logger.setLevel(logging.INFO)
    else:
        logger.setLevel(logging.DEBUG)


#: Built-in network specs -> factories in :mod:`repro.nn.networks`.
_BUILTIN_NETWORKS = {
    "validation-mlp": "validation_mlp",
    "jpeg": "jpeg_autoencoder",
    "large-bank": "large_bank_layer",
    "caffenet": "caffenet",
    "vgg16": "vgg16",
}


def parse_network(spec: str) -> Network:
    """Resolve a network spec string (built-in name or ``mlp:a,b,c``)."""
    from repro.nn import networks

    spec = spec.strip().lower()
    if spec in _BUILTIN_NETWORKS:
        return getattr(networks, _BUILTIN_NETWORKS[spec])()
    if spec.startswith("mlp:"):
        try:
            sizes = [int(part) for part in spec[4:].split(",") if part]
        except ValueError:
            raise ValidationError(
                "MLP sizes must be comma-separated integers",
                path="network", value=spec,
            ) from None
        return networks.mlp(sizes, name=spec)
    raise ValidationError(
        "unknown network",
        path="network", value=spec,
        allowed=sorted(_BUILTIN_NETWORKS) + ["mlp:a,b,c"],
    )


def _load_config(args: argparse.Namespace) -> SimConfig:
    from repro.config import SimConfig

    if args.config:
        config = SimConfig.from_file(args.config)
    else:
        config = SimConfig()
    overrides = {}
    for field_name in ("crossbar_size", "cmos_tech", "interconnect_tech",
                       "parallelism_degree", "weight_bits", "signal_bits"):
        value = getattr(args, field_name, None)
        if value is not None:
            overrides[field_name] = value
    return config.replace(**overrides) if overrides else config


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="Table-I-style configuration file")
    parser.add_argument("--crossbar-size", dest="crossbar_size", type=int)
    parser.add_argument("--cmos-tech", dest="cmos_tech", type=int)
    parser.add_argument(
        "--interconnect-tech", dest="interconnect_tech", type=int
    )
    parser.add_argument(
        "--parallelism-degree", dest="parallelism_degree", type=int
    )
    parser.add_argument("--weight-bits", dest="weight_bits", type=int)
    parser.add_argument("--signal-bits", dest="signal_bits", type=int)


def _add_runtime_flags(
    parser: argparse.ArgumentParser, jobs_default: Optional[int] = 1,
    jobs_help: str = "worker processes (1 = serial, 0 = all cores)",
) -> None:
    parser.add_argument("--jobs", type=int, default=jobs_default,
                        help=jobs_help)
    parser.add_argument(
        "--cache-dir",
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR if set, else caching is off)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if a directory is configured",
    )


def _add_lint_flags(parser: argparse.ArgumentParser) -> None:
    """The ``lint`` flags; :mod:`repro.analysis` loads only to run it."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("tree", "json"), default="tree",
        help="report style (tree for terminals, json for CI)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline file (default: ./lint-baseline.json when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, including grandfathered ones",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings "
        "(exits 0); add justifications by hand afterwards",
    )
    parser.add_argument(
        "--rules", action="store_true", dest="list_rules",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--select", metavar="IDS", default=None,
        help="comma-separated rule ids to run (e.g. R1,R4)",
    )
    parser.add_argument(
        "--graph", action=argparse.BooleanOptionalAction, default=True,
        help="run the project-analysis pass (call graph, R7-R9); "
        "--no-graph restricts to per-module rules",
    )


def _open_run(
    args: argparse.Namespace,
) -> Tuple[Optional[ResultCache], RunMetrics]:
    """The run's metrics and opt-in cache: flag > env var > disabled."""
    from repro.runtime.metrics import RunMetrics

    cache_dir = _cache_dir(args)
    if not cache_dir:
        return None, RunMetrics()
    from repro.runtime.cache import ResultCache

    return ResultCache(cache_dir), RunMetrics()


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The opt-in cache directory: flag > env var > disabled."""
    if getattr(args, "no_cache", False):
        return None
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR")


def _finish_run(cache: Optional[ResultCache], metrics: RunMetrics) -> None:
    """Persist run metrics next to the cache for ``runtime-stats``."""
    if cache is not None:
        from repro.runtime.metrics import LAST_RUN_FILENAME

        metrics.save(cache.cache_dir / LAST_RUN_FILENAME)
        cache.close()


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.arch.accelerator import Accelerator
    from repro.dse.explorer import simulate_point
    from repro.report import format_table
    from repro.units import MM2, UJ, US

    config = _load_config(args)
    network = parse_network(args.network)
    accelerator = Accelerator(config, network)
    cache, metrics = _open_run(args)
    summary = simulate_point(config, network, cache=cache, metrics=metrics)

    _log.info("network: %s (%d banks)", network.name, network.depth)
    print(format_table(
        ["metric", "value"],
        [
            ["area (mm^2)", f"{summary.area / MM2:.4f}"],
            ["energy / sample (uJ)",
             f"{summary.energy_per_sample / UJ:.4f}"],
            ["sample latency (us)", f"{summary.sample_latency / US:.4f}"],
            ["compute latency (us)", f"{summary.compute_latency / US:.4f}"],
            ["pipeline cycle (us)", f"{summary.pipeline_cycle / US:.4f}"],
            ["power (W)", f"{summary.power:.4f}"],
            ["worst error rate", f"{summary.worst_error_rate:.2%}"],
            ["relative accuracy", f"{summary.relative_accuracy:.2%}"],
            ["units", accelerator.total_units],
            ["crossbars", accelerator.total_crossbars],
        ],
    ))
    if args.report:
        print()
        print(accelerator.report().render(max_depth=args.report_depth))
    if args.breakdown:
        from repro.arch.breakdown import accelerator_breakdown

        print()
        print(accelerator_breakdown(accelerator).render())
    _finish_run(cache, metrics)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.dse.explorer import explore, optimal_table
    from repro.dse.space import DesignSpace
    from repro.report import format_table
    from repro.units import MM2, UJ, US

    config = _load_config(args)
    network = parse_network(args.network)
    space = DesignSpace(
        crossbar_sizes=tuple(args.sizes),
        parallelism_degrees=tuple(args.degrees),
        interconnect_nodes=tuple(args.wires),
    )
    cache, metrics = _open_run(args)
    points = explore(
        config, network, space, max_error_rate=args.max_error,
        jobs=args.jobs, cache=cache, metrics=metrics,
    )
    _log.info(
        "%d designs explored, %d feasible%s",
        len(space), len(points),
        f" (error <= {args.max_error:.0%})" if args.max_error else "",
    )
    if args.jobs != 1 or cache is not None:
        hits = metrics.counters.get("cache_hits", 0)
        _log.info(
            "runtime: %s x%d, %s jobs/s, %d cache hits",
            metrics.mode, metrics.workers,
            f"{metrics.jobs_per_second:,.0f}", hits,
        )
    _finish_run(cache, metrics)
    if not points:
        _log.error("no feasible design; relax --max-error")
        return 1
    rows = []
    for metric, point in optimal_table(points).items():
        s = point.summary
        rows.append([
            metric,
            f"{s.area / MM2:.3f}",
            f"{s.energy_per_sample / UJ:.3f}",
            f"{s.compute_latency / US:.4f}",
            f"{s.worst_error_rate:.2%}",
            point.crossbar_size,
            point.interconnect_tech,
            point.parallelism_degree,
        ])
    print(format_table(
        ["target", "area mm^2", "energy uJ", "latency us", "error",
         "xbar", "wire", "p"],
        rows,
    ))
    return 0


def _cmd_netlist(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
    from repro.spice.netlist import generate_netlist

    config = _load_config(args)
    device = config.device
    size = config.crossbar_size
    rng = np.random.default_rng(args.seed)
    levels = rng.integers(0, device.levels, size=(size, size))
    resistances = np.vectorize(device.resistance_of_level)(levels)
    inputs = rng.uniform(0, device.read_voltage, size=size)
    segment = config.wire.segment_resistance(
        device.cell_pitch(config.cell_type)
    )
    netlist = generate_netlist(
        resistances, inputs, segment, DEFAULT_SENSE_RESISTANCE,
        title=f"MNSIM {size}x{size} crossbar (seed {args.seed})",
    )
    if args.output:
        Path(args.output).write_text(netlist, encoding="utf-8")
        _log.info(
            "wrote %s (%d lines)", args.output, len(netlist.splitlines())
        )
    else:
        print(netlist)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.report import format_table
    from repro.runtime.pool import RunPolicy
    from repro.service.schema import MonteCarloSpec
    from repro.service.workloads import montecarlo_document, render_document

    config = _load_config(args)
    # The service's schema, bounds included (size >= 2), checks the flags.
    spec = MonteCarloSpec.from_dict({
        "trials": args.trials,
        "seed": args.seed,
        "size": args.size,
        "sigma": args.sigma,
        "input_mode": args.input_mode,
        "inputs_per_trial": args.inputs_per_trial,
    })
    size = config.crossbar_size if spec.size is None else spec.size
    cache, metrics = _open_run(args)
    _log.info(
        "monte-carlo: %dx%d crossbar, %d trials, seed %d",
        size, size, args.trials, args.seed,
    )
    # The document builder is shared with the service layer, so the
    # --output file is byte-identical to `GET /jobs/{id}/result` for
    # the equivalent payload.
    doc = montecarlo_document(
        config, spec,
        cache=cache,
        metrics=metrics,
        policy=RunPolicy(jobs=args.jobs),
    )
    summary = doc["summary"]
    print(format_table(
        ["metric", "value"],
        [
            ["samples", str(summary["samples"])],
            ["mean |error|", f"{summary['mean_abs_error']:.4%}"],
            ["p50 |error|", f"{summary['p50_abs_error']:.4%}"],
            ["p95 |error|", f"{summary['p95_abs_error']:.4%}"],
            ["p99 |error|", f"{summary['p99_abs_error']:.4%}"],
            ["max |error|", f"{summary['max_abs_error']:.4%}"],
        ],
    ))
    if args.output:
        Path(args.output).write_text(render_document(doc), encoding="utf-8")
        _log.info("monte-carlo JSON written to %s", args.output)
    _finish_run(cache, metrics)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.campaign import CampaignSpec, run_campaign
    from repro.report import format_table

    spec = CampaignSpec(
        networks=tuple(args.networks),
        fault_modes=tuple(args.modes),
        fault_rates=tuple(args.rates),
        trials=args.trials,
        seed=args.seed,
        size=args.size,
        device=args.device,
        segment_resistance=args.segment_resistance,
    )
    cache, metrics = _open_run(args)
    _log.info(
        "faults: %d networks x %d modes x %d rates, %d trials, seed %d",
        len(spec.networks), len(spec.fault_modes), len(spec.fault_rates),
        spec.trials, spec.seed,
    )
    result = run_campaign(
        spec, jobs=args.jobs, cache=cache, metrics=metrics
    )
    rows = []
    for point in result.points:
        rows.append([
            point.network,
            point.fault_mode,
            f"{point.fault_rate:g}",
            str(point.trials),
            str(point.failures),
            f"{point.mean_fault_count:.1f}",
            "-" if point.mean_error is None else f"{point.mean_error:.4%}",
            "-" if point.ci95 is None else f"{point.ci95:.4%}",
            "-" if point.relative_accuracy is None
            else f"{point.relative_accuracy:.2%}",
        ])
    print(format_table(
        ["network", "mode", "rate", "trials", "failed",
         "faults/trial", "mean error", "ci95", "rel. accuracy"],
        rows,
    ))
    if args.output:
        Path(args.output).write_text(result.to_json(), encoding="utf-8")
        _log.info("campaign JSON written to %s", args.output)
    _finish_run(cache, metrics)
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign.config import CampaignConfig
    from repro.campaign.runner import run_campaign_config
    from repro.report import format_table

    config = CampaignConfig.from_file(args.file)
    cache, metrics = _open_run(args)
    if args.resume and cache is None:
        raise MnsimError(
            "campaign resume needs a result cache; pass --cache-dir (or "
            "set $REPRO_CACHE_DIR) pointing at the interrupted run's cache"
        )
    _log.info(
        "campaign %r: %d units, %d jobs total, numCPUs=%d%s",
        config.name, len(config.units), config.total_work(),
        config.execution.jobs if args.jobs is None else args.jobs,
        " (resume)" if args.resume else "",
    )
    run = run_campaign_config(
        config, jobs=args.jobs, cache=cache, metrics=metrics,
    )
    rows = []
    for name, stats in run.stage_stats.items():
        rows.append([
            name,
            "yes" if stats["resumed"] else "-",
            str(stats["jobs"]),
            str(stats["cache_hits"]),
            f"{stats['elapsed_seconds']:.2f}",
        ])
    print(format_table(
        ["stage", "resumed", "jobs", "cache hits", "seconds"], rows,
    ))
    if args.output:
        Path(args.output).write_text(run.to_json(), encoding="utf-8")
        _log.info("campaign report written to %s", args.output)
    _finish_run(cache, metrics)
    return 0


def _cmd_campaign_validate(args: argparse.Namespace) -> int:
    from repro.campaign.config import CampaignConfig
    from repro.report import format_table

    # Validation errors propagate as MnsimError -> exit code 2.
    config = CampaignConfig.from_file(args.file)
    combo_sizes = " x ".join(
        str(len(values)) for _key, values in config.combination
    ) or "1"
    print(format_table(
        ["field", "value"],
        [
            ["name", config.name],
            ["fingerprint", config.fingerprint()],
            ["combinations", combo_sizes],
            ["runs per combination", str(config.num_runs)],
            ["units", str(len(config.units))],
            ["engine jobs", str(config.total_work())],
            ["numCPUs", str(config.execution.jobs)],
            ["post hooks", ", ".join(config.post) or "-"],
        ],
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.jobs import JobManager
    from repro.service.server import serve

    cache_dir = _cache_dir(args)
    manager = JobManager(cache_dir=cache_dir, workers=args.workers)
    server = serve(args.host, args.port, manager)
    host, port = server.server_address[:2]
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n", encoding="utf-8")
    _log.info(
        "cache: %s | workers: %d | POST a payload to "
        "http://%s:%d/jobs to submit work",
        cache_dir or "(disabled)", args.workers, host, port,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _log.info("interrupt: shutting down")
    finally:
        server.server_close()
        manager.shutdown()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import run_lint

    return run_lint(args)


@contextlib.contextmanager
def _reaching(url: str) -> Iterator[ServiceClient]:
    """A client of the service at ``url``; unreachable means exit 2."""
    from repro.service.client import ServiceClient

    try:
        yield ServiceClient(url)
    except OSError as exc:  # URLError: service not reachable
        raise MnsimError(f"cannot reach service at {url!r}: {exc}") from exc


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, spans_from_trace

    if args.job:
        with _reaching(args.url) as client:
            spans = spans_from_trace(client.job_trace(args.job))
        print(render_report(spans, k=args.top, max_depth=args.depth))
        return 0
    if not args.trace_file:
        raise MnsimError("either a trace file or --job JOB_ID is required")
    try:
        print(render_report(
            args.trace_file, k=args.top, max_depth=args.depth,
        ))
    except (OSError, ValueError) as exc:
        raise MnsimError(
            f"cannot read trace {args.trace_file!r}: {exc}"
        ) from exc
    return 0


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    from repro.report import format_table

    with _reaching(args.url) as client:
        jobs = client.jobs()
    if not jobs:
        print("no jobs known to the service")
        return 0
    rows = [
        [
            job["job_id"][:12],
            job.get("kind", "?"),
            job.get("state", "?"),
            f"{job.get('done', 0)}/{job.get('total', 0)}",
            job.get("description", ""),
        ]
        for job in jobs
    ]
    print(format_table(
        ["job", "kind", "state", "progress", "description"], rows
    ))
    return 0


def _cmd_jobs_watch(args: argparse.Namespace) -> int:
    from repro.obs.report import render_progress_line

    final_state = None
    with _reaching(args.url) as client:
        for event in client.iter_events(args.job_id):
            if event.get("event") == "progress":
                print(render_progress_line(event), flush=True)
            elif event.get("event") == "state":
                final_state = event.get("state")
                print(f"state: {final_state}", flush=True)
    return 0 if final_state == "done" else 1


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.dse.autocomplete import suggest_designs
    from repro.report import format_table
    from repro.units import MM2, UJ, US

    config = _load_config(args)
    network = parse_network(args.network)
    suggestions = suggest_designs(
        config, network, free=tuple(args.free),
        max_error_rate=args.max_error,
    )
    rows = []
    for metric, completed in suggestions.items():
        point = completed.point
        rows.append([
            metric,
            completed.config.crossbar_size,
            completed.config.interconnect_tech,
            completed.config.parallelism_degree,
            f"{point.area / MM2:.3f}",
            f"{point.energy / UJ:.3f}",
            f"{point.latency / US:.4f}",
            f"{point.error_rate:.2%}",
        ])
    print(format_table(
        ["target", "xbar", "wire nm", "p", "area mm^2", "energy uJ",
         "latency us", "error"],
        rows,
    ))
    return 0


def _database_bytes(db_path: Path) -> int:
    """Size of the cache database, its write-ahead log included.

    A running writer's newest rows sit in ``results.sqlite-wal`` until
    a checkpoint, so the main file alone undercounts them.
    """
    total = 0
    for path in (db_path, db_path.with_name(db_path.name + "-wal")):
        try:
            total += path.stat().st_size
        except FileNotFoundError:
            pass  # no log (no open handle), or one checkpointed away
    return total


def _cmd_runtime_stats(args: argparse.Namespace) -> int:
    from repro.report import format_run_metrics, format_table
    from repro.runtime.cache import ResultCache, default_cache_dir
    from repro.runtime.metrics import LAST_RUN_FILENAME, RunMetrics

    cache_dir = _cache_dir(args)
    # Resolve the directory without opening a cache: a handle left to
    # the garbage collector would keep the write-ahead log alive.
    directory = (
        Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
    )
    last_run = directory / LAST_RUN_FILENAME
    db_path = directory / "results.sqlite"
    print(f"cache directory: {directory}")
    if db_path.exists():
        with ResultCache(directory) as cache:
            stats = cache.stats()
        print(format_table(
            ["cache metric", "value"],
            [
                ["entries (current version)", str(stats.entries)],
                ["stale entries", str(stats.stale_entries)],
                ["database size (bytes)", str(_database_bytes(db_path))],
            ],
        ))
    else:
        print("no result cache recorded yet")
    print()
    if last_run.exists():
        print("last run:")
        print(format_run_metrics(RunMetrics.load(last_run)))
    else:
        print("no runtime statistics recorded yet; run simulate/explore "
              "with --cache-dir")
    return 0


def _command(
    sub: argparse._SubParsersAction, name: str, func, help_text: str,
    **defaults,
) -> argparse.ArgumentParser:
    """Add subcommand ``name``, whose parsed arguments run ``func``."""
    parser = sub.add_parser(name, help=help_text)
    parser.set_defaults(func=func, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MNSIM reproduction: behavior-level simulation of "
        "memristor-based neuromorphic accelerators",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace-event JSON of this run "
        "(also enabled by $REPRO_TRACE; view with 'repro obs-report' "
        "or Perfetto)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE",
        help="dump the metrics registry on exit (JSON for *.json, "
        "Prometheus text exposition otherwise)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more stderr diagnostics (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress lines on stderr (warnings still shown)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = _command(sub, "simulate", _cmd_simulate,
                        "simulate one design point")
    _add_config_flags(simulate)
    _add_runtime_flags(simulate)
    simulate.add_argument("network", help="network spec (e.g. mlp:784,256,10)")
    simulate.add_argument(
        "--report", action="store_true", help="print the hierarchical report"
    )
    simulate.add_argument(
        "--report-depth", type=int, default=2, help="report tree depth"
    )
    simulate.add_argument(
        "--breakdown", action="store_true",
        help="print the per-category area/energy breakdown",
    )

    explore_cmd = _command(sub, "explore", _cmd_explore,
                           "design-space exploration")
    _add_config_flags(explore_cmd)
    _add_runtime_flags(explore_cmd)
    explore_cmd.add_argument("network")
    explore_cmd.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 128, 256, 512],
    )
    explore_cmd.add_argument(
        "--degrees", type=int, nargs="+", default=[1, 16, 256],
    )
    explore_cmd.add_argument(
        "--wires", type=int, nargs="+", default=[18, 28, 45],
    )
    explore_cmd.add_argument("--max-error", type=float, default=None)

    montecarlo = _command(sub, "montecarlo", _cmd_montecarlo,
                          "circuit-level Monte-Carlo accuracy sampling")
    _add_config_flags(montecarlo)
    _add_runtime_flags(montecarlo)
    montecarlo.add_argument(
        "--trials", type=int, default=8, help="sampled weight matrices"
    )
    montecarlo.add_argument("--seed", type=int, default=0)
    montecarlo.add_argument(
        "--size", type=int, default=None,
        help="crossbar size (default: the configured crossbar_size)",
    )
    montecarlo.add_argument(
        "--sigma", type=float, default=None,
        help="device-variation magnitude (default: the device's sigma)",
    )
    montecarlo.add_argument(
        "--input-mode", choices=("random", "full"), default="random",
    )
    montecarlo.add_argument(
        "--inputs-per-trial", type=int, default=1,
        help="input vectors per sampled matrix (batched solve)",
    )
    montecarlo.add_argument(
        "--output", "-o",
        help="write the deterministic result JSON to this file "
        "(byte-identical to the service's result document)",
    )

    faults = _command(sub, "faults", _cmd_faults,
                      "fault-injection campaign: accuracy vs fault rate")
    _add_runtime_flags(faults)
    faults.add_argument(
        "--networks", nargs="+", default=["crossbar"],
        help="network specs: 'crossbar' and/or 'mlp:a,b,...'",
    )
    faults.add_argument(
        "--modes", nargs="+", default=["stuck_mixed"],
        help="fault modes (stuck_low/stuck_high/stuck_mixed/"
        "open_cell/line_open/line_short/drift)",
    )
    faults.add_argument(
        "--rates", nargs="+", type=float,
        default=[0.0, 0.01, 0.02, 0.05],
        help="fault rates (drift: lognormal sigma)",
    )
    faults.add_argument(
        "--trials", type=int, default=8, help="injections per sweep point"
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--size", type=int, default=16, help="square crossbar size"
    )
    faults.add_argument(
        "--device", default="IDEAL", help="built-in memristor model name"
    )
    faults.add_argument(
        "--segment-resistance", type=float, default=1.0,
        help="wire segment resistance (ohm)",
    )
    faults.add_argument(
        "--output", "-o",
        help="write the deterministic campaign JSON to this file",
    )

    campaign_cmd = sub.add_parser(
        "campaign",
        help="declarative campaign files: validate, run, resume",
    )
    campaign_sub = campaign_cmd.add_subparsers(
        dest="campaign_command", required=True
    )

    def _add_campaign_run_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "file", help="campaign file (.json, or .toml on Python 3.11+)"
        )
        _add_runtime_flags(
            parser, None, "override the file's execution.numCPUs "
            "(results are identical for any value)",
        )
        parser.add_argument(
            "--output", "-o",
            help="write the deterministic campaign report JSON here",
        )

    _add_campaign_run_flags(_command(
        campaign_sub, "run", _cmd_campaign_run,
        "validate and execute a campaign file", resume=False,
    ))
    _command(
        campaign_sub, "validate", _cmd_campaign_validate,
        "validate a campaign file and summarize its expansion",
    ).add_argument(
        "file", help="campaign file (.json, or .toml on Python 3.11+)"
    )
    _add_campaign_run_flags(_command(
        campaign_sub, "resume", _cmd_campaign_run,
        "re-run an interrupted campaign from its cache "
        "(completed stages replay without engine work)", resume=True,
    ))

    netlist = _command(sub, "netlist", _cmd_netlist,
                       "export a SPICE netlist of one crossbar")
    _add_config_flags(netlist)
    netlist.add_argument("--seed", type=int, default=0)
    netlist.add_argument("--output", "-o", help="output file (default stdout)")

    suggest = _command(
        sub, "suggest", _cmd_suggest,
        "auto-complete unspecified design parameters per target",
    )
    _add_config_flags(suggest)
    suggest.add_argument("network")
    suggest.add_argument(
        "--free", nargs="+",
        default=["crossbar_size", "parallelism_degree",
                 "interconnect_tech"],
        help="fields the tool may choose",
    )
    suggest.add_argument("--max-error", type=float, default=None)

    serve_cmd = _command(sub, "serve", _cmd_serve,
                         "run the simulation-as-a-service HTTP job server")
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 picks an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--port-file", metavar="FILE",
        help="write the bound port to FILE (for scripts using --port 0)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1,
        help="executor threads; each job still parallelises internally "
        "via --jobs-style process pools (default 1)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR, else uncached)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if $REPRO_CACHE_DIR is set",
    )

    _command(
        sub, "runtime-stats", _cmd_runtime_stats,
        "show job-engine metrics of the last run and cache stats",
    ).add_argument(
        "--cache-dir",
        help="cache directory to inspect (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro)",
    )

    _add_lint_flags(_command(
        sub, "lint", _cmd_lint,
        "run the project static-analysis rules (R1-R5, R7-R9)",
    ))

    obs_report = _command(
        sub, "obs-report", _cmd_obs_report,
        "render a saved --trace file (or a service job's trace) "
        "as a wall-time tree",
    )
    obs_report.add_argument(
        "trace_file", nargs="?", default=None,
        help="Chrome trace-event JSON (omit when using --job)",
    )
    obs_report.add_argument(
        "--job", default=None, metavar="JOB_ID",
        help="fetch the trace of this service job instead of a file",
    )
    obs_report.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL for --job (default %(default)s)",
    )
    obs_report.add_argument(
        "--top", type=int, default=10, help="rows in the by-name table"
    )
    obs_report.add_argument(
        "--depth", type=int, default=None, help="max tree depth"
    )

    jobs_cmd = sub.add_parser(
        "jobs",
        help="inspect and watch jobs on a running service",
    )
    jobs_sub = jobs_cmd.add_subparsers(dest="jobs_command", required=True)
    jobs_list = _command(jobs_sub, "list", _cmd_jobs_list,
                         "list jobs known to the service")
    jobs_watch = _command(
        jobs_sub, "watch", _cmd_jobs_watch,
        "stream a job's progress events with live ETA and resource usage",
    )
    jobs_watch.add_argument("job_id", help="job id (from submit or list)")
    for jobs_parser in (jobs_list, jobs_watch):
        jobs_parser.add_argument(
            "--url", default="http://127.0.0.1:8321",
            help="service base URL (default %(default)s)",
        )

    return parser


def _write_metrics(path: str) -> None:
    """Dump the registry: JSON for ``*.json``, Prometheus text else."""
    from repro.obs import REGISTRY

    json_out = path.endswith(".json")
    payload = REGISTRY.to_json() if json_out else REGISTRY.to_prometheus()
    if not payload.endswith("\n"):
        payload += "\n"
    Path(path).write_text(payload, encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: ``0`` success, ``1`` empty result (e.g. no feasible
    design), ``2`` configuration/model error, ``3`` worker failure after
    exhausted retries (summarized — child tracebacks never reach the
    terminal).
    """
    import repro.obs as obs

    args = build_parser().parse_args(argv)
    _setup_logging((args.verbose or 0) - (1 if args.quiet else 0))
    trace_path = args.trace or obs.trace_path_from_env()
    metrics_path = args.metrics
    observing = bool(trace_path or metrics_path)
    if observing:
        obs.trace.clear()
        obs.REGISTRY.reset()
        obs.enable(debug=obs.debug_from_env())
    try:
        return args.func(args)
    except JobExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MnsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if observing:
            obs.disable()
            if trace_path:
                obs.trace.export_chrome(trace_path)
                _log.info("trace written to %s", trace_path)
            if metrics_path:
                _write_metrics(metrics_path)
                _log.info("metrics written to %s", metrics_path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
