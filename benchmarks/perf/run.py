"""The repository benchmark: one workload per run, or a comparison.

Run a workload (from the root of a checkout)::

    python3 benchmarks/perf/run.py --workload dse-sweep --seed 0 \\
        --seconds 20 --trace 0 [--out result.json]

It prints every metric with its name and unit, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from a run whose first half is untraced
and whose second half is traced.  Times are scaled to the reference
machine speed sampled between ops (:mod:`speed`); ``--out`` keeps the
raw values too.  Every op's output is checked against
``expected/digests.json``; a wrong or failed op makes the run exit 1.

Compare two sets of result files written with ``--out``::

    python3 benchmarks/perf/run.py compare PARENT.json... -- CHANGE.json...

Regenerate the expected digests (only when outputs change on purpose)::

    python3 benchmarks/perf/run.py expect
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
EXPECTED = os.path.join(HERE, "expected", "digests.json")
WORK = os.path.join(ROOT, ".perfbench-work")

for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Pinned into every measured child.  One BLAS thread keeps at most two
#: processes busy (client and server); the Haswell OpenBLAS kernels give
#: the same floating-point results on every AVX2 x86-64 CPU, so the
#: committed output digests hold on other machines than the one that
#: wrote them (the default kernel differs between CPU generations).
PINNED_ENV = {
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Longest a child may take before it is killed (the whole run must end
#: within 180 s).
CHILD_TIMEOUT = 150.0

#: The service's ``peak_rss_mb`` is the server's VmHWM after this many
#: timed ops (or at the end of a shorter run), so a faster server that
#: fits more jobs into the same seconds does not read as a regression.
RSS_CHECKPOINT_OPS = 400

#: ``-X importtime`` runs of ``import repro.cli`` per traced run.
IMPORTTIME_RUNS = 3

TERMINAL = ("done", "failed", "cancelled")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env(tmp: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    env["TMPDIR"] = tmp
    return env


def shim(*args: str, python_flags: Tuple[str, ...] = ()) -> List[str]:
    return [sys.executable, *python_flags, SHIM, *args]


class Watchdog:
    """Kill a child that outlives its deadline; always reap it."""

    def __init__(self, proc: subprocess.Popen, seconds: float) -> None:
        self.proc = proc
        self.timer = threading.Timer(seconds, proc.kill)

    def __enter__(self) -> "Watchdog":
        self.timer.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def read_status(pid: int, field_name: str) -> float:
    """A ``/proc/<pid>/status`` size field in kB (0 if unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Measured:
    """What a runner hands back for metric assembly."""

    warmups: List[dict] = field(default_factory=list)
    records: List[dict] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    rounds: List[dict] = field(default_factory=list)
    #: Speed factor of each set-up (see :mod:`speed`); ops carry theirs.
    setup_speed: List[float] = field(default_factory=list)
    #: Slowness samples taken between the timed ops.
    slowness: List[float] = field(default_factory=list)
    peak_rss_kb: float = 0.0
    trace_files: List[str] = field(default_factory=list)
    #: Service runs: only server spans inside this perf_counter window
    #: belong to the traced half.
    window: Optional[Tuple[float, float]] = None
    obs: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0.0])
    )
    service: Dict[str, float] = field(default_factory=dict)


class Context:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, max_ops: Optional[int],
                 setups: Optional[int]) -> None:
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.max_ops = max_ops
        self.halves = workloads.halves(seconds, max_ops, trace)
        self.setups = setups if setups is not None else (
            1 if trace else self.workload.setups
        )
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        tmp = os.path.join(self.dir, "tmp")
        os.makedirs(tmp)
        self.env = child_env(tmp)
        self._files = 0

    def path(self, name: str) -> str:
        self._files += 1
        return os.path.join(self.dir, f"{self._files}-{name}")


def import_repro_cli(ctx: Context, count: int, importtime: bool):
    """Time ``import repro.cli`` in ``count`` fresh processes.

    Returns the times, their speed factors, and the parsed
    ``-X importtime`` reports when asked for.
    """
    times, parsed = [], []
    sampler = speed.Sampler()
    flags = ("-X", "importtime") if importtime else ()
    for _ in range(count):
        sampler.take()
        start = time.perf_counter()
        proc = subprocess.run(
            shim("import", python_flags=flags), env=ctx.env, cwd=ctx.dir,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError("import repro.cli failed:\n"
                             + proc.stderr.decode(errors="replace"))
        if importtime:
            parsed.append(layers.parse_importtime(
                proc.stderr.decode(errors="replace")
            ))
    sampler.take()
    return times, [sampler.factor(i) for i in range(count)], parsed


# -- cli-cold -----------------------------------------------------------
def run_cli_op(ctx: Context, op: workloads.Op, traced: bool) -> dict:
    def sub(text: str) -> str:
        return text.replace("{work}", ctx.dir)

    if op.input_file is not None:
        with open(sub(op.input_file[0]), "w", encoding="utf-8") as handle:
            handle.write(op.input_file[1])
    outputs = [sub(p) for p in op.digest_parts if p != "stdout"]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    trace_out = ctx.path("cli.trace.json") if traced else None
    cmd = shim("cli", *(("--trace-out", trace_out) if traced else ()),
               "--", *(sub(a) for a in op.argv))
    record = {"cls": op.cls, "key": op.key, "traced": traced,
              "digest": None, "error": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=ctx.env, cwd=ctx.dir,
                              capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        record["s"] = time.perf_counter() - start
        record["error"] = "timeout"
        return record
    record["s"] = time.perf_counter() - start
    if proc.returncode != 0:
        record["error"] = proc.stderr.decode(errors="replace")[-2000:]
        return record
    parts = []
    for part in op.digest_parts:
        if part == "stdout":
            parts.append(proc.stdout)
            continue
        try:
            with open(sub(part), "rb") as handle:
                parts.append(handle.read())
        except OSError as exc:
            record["error"] = f"output file missing: {exc}"
            return record
    record["digest"] = workloads.digest(parts)[:workloads.DIGEST_CHARS]
    if traced:
        record["trace"] = trace_out
    return record


def run_cli(m: Measured, ctx: Context) -> None:
    m.setup, m.setup_speed, _ = import_repro_cli(ctx, ctx.setups, False)
    rounds = iter(workloads.schedule(ctx.workload.name, ctx.seed).rounds)
    sampler = speed.Sampler()
    for seconds, limit, traced in ctx.halves:
        half = workloads.timed_rounds(
            rounds, seconds, limit,
            lambda op, t=traced: run_cli_op(ctx, op, t), sampler,
        )
        m.records += half["records"]
        m.rounds += half["rounds"]
    m.slowness = sampler.samples
    m.trace_files = [r["trace"] for r in m.records if r.get("trace")]
    m.peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# -- in-process workloads -------------------------------------------------
def run_inproc(m: Measured, ctx: Context) -> None:
    result = None
    sampler = speed.Sampler()
    for attempt in range(ctx.setups):
        setup_only = attempt < ctx.setups - 1
        mode = "setup" if setup_only else ("traced" if ctx.trace else "run")
        trace_out = ctx.path("inproc.trace.json")
        cmd = shim("inproc", "--workload", ctx.workload.name,
                   "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
                   "--mode", mode, "--trace-out", trace_out)
        if ctx.max_ops is not None:
            cmd += ["--max-ops", str(ctx.max_ops)]
        errors = ctx.path("inproc.stderr")
        sampler.take()
        start = time.perf_counter()
        lines = []
        with open(errors, "wb") as stderr:
            proc = subprocess.Popen(cmd, env=ctx.env, cwd=ctx.dir,
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=stderr)
            with Watchdog(proc, CHILD_TIMEOUT):
                ready = proc.stdout.readline()
                m.setup.append(time.perf_counter() - start)
                # The child asks for speed samples between its ops.
                for line in proc.stdout:
                    if line == b"SAMPLE\n":
                        proc.stdin.write(f"{speed.measure()!r}\n".encode())
                        proc.stdin.flush()
                    else:
                        lines.append(line)
                proc.stdin.close()
                proc.stdout.close()
        if ready.strip() != b"READY" or proc.returncode != 0:
            with open(errors, encoding="utf-8", errors="replace") as handle:
                raise BenchError(f"in-process child failed "
                                 f"(exit {proc.returncode}):\n"
                                 + handle.read()[-4000:])
        if not setup_only:
            result = json.loads(lines[-1])
            if ctx.trace:
                m.trace_files.append(trace_out)
    # The last set-up runs on into the timed ops, so only the sample
    # taken before it scales it.
    last = ctx.setups - 1
    m.setup_speed = [sampler.factor(i) for i in range(last)]
    m.setup_speed.append(sampler.factor(last, last))
    m.warmups = result["warmups"]
    m.records = result["records"]
    m.rounds = result["rounds"]
    m.slowness = result["speed"]
    m.peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# -- service-mix ----------------------------------------------------------
class Server:
    """``repro serve`` started through the shim, with a fresh cache."""

    def __init__(self, ctx: Context, traced: bool) -> None:
        from repro.service.client import ServiceClient

        port_file = ctx.path("port")
        self.trace_out = ctx.path("server.trace.json") if traced else None
        cmd = shim("cli",
                   *(("--trace-out", self.trace_out) if traced else ()),
                   "--", "serve", "--port", "0", "--port-file", port_file,
                   "--cache-dir", ctx.path("cache"))
        self.log = open(ctx.path("server.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=ctx.env, cwd=ctx.dir,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        try:
            port = self._wait_port(port_file)
            self.client = ServiceClient(f"http://127.0.0.1:{port}",
                                        timeout=CHILD_TIMEOUT)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup = time.perf_counter() - start

    def _alive(self) -> None:
        if self.proc.poll() is not None:
            raise BenchError(f"server exited with {self.proc.returncode}")

    def _wait_port(self, port_file: str) -> int:
        deadline = time.monotonic() + CHILD_TIMEOUT
        while time.monotonic() < deadline:
            self._alive()
            try:
                with open(port_file, encoding="ascii") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.002)
        raise BenchError("server did not report its port")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + CHILD_TIMEOUT
        while time.monotonic() < deadline:
            self._alive()
            try:
                if self.client.healthz():
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("server never became healthy")

    def stop(self) -> None:
        """Interrupt (so a traced server writes its spans) and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_service_op(client, op: workloads.Op, traced: bool) -> dict:
    record = {"cls": op.cls, "key": op.key, "traced": traced,
              "digest": None, "error": None}
    submitted_at = time.time()
    start = time.perf_counter()
    try:
        receipt = client.submit(op.payload)
        submitted = time.perf_counter()
        job, state, events = receipt["job_id"], None, 0
        for event in client.iter_events(job):
            events += 1
            if event.get("event") == "state" and event.get("state") in \
                    TERMINAL:
                state = event["state"]
                break
        streamed = time.perf_counter()
        body = client.result_bytes(job) if state == "done" else b""
        end = time.perf_counter()
    except Exception:  # recorded as a failed op; the loop goes on
        record["s"] = time.perf_counter() - start
        record["error"] = traceback.format_exc()
        return record
    record.update(
        s=end - start, job=job, events=events,
        submit_s=submitted - start, fetch_s=end - streamed,
        dedup=bool(receipt.get("deduplicated")), submitted_at=submitted_at,
    )
    if state == "done":
        record["digest"] = workloads.digest([body])[:workloads.DIGEST_CHARS]
    else:
        record["error"] = f"job {job} ended {state}"
    return record


def job_trace(client, record: dict, obs: Dict[str, List[float]]) -> None:
    """Read ``service.job`` and solver spans of an executed job."""
    for event in client.job_trace(record["job"])["traceEvents"]:
        if event.get("ph") != "X":
            continue
        if event["name"] == "service.job":
            record["exec_s"] = event["dur"] / 1e6
            record["queue_s"] = max(
                0.0, event["ts"] / 1e6 - record["submitted_at"]
            )
        elif event["name"] in layers.OBS_SPANS:
            obs[event["name"]][0] += 1
            obs[event["name"]][1] += event["dur"] / 1e6


def service_half(ctx: Context, m: Measured, server: Server, seconds: float,
                 limit: float, traced: bool, first: bool,
                 sampler: speed.Sampler) -> None:
    sched = workloads.schedule(ctx.workload.name, ctx.seed)
    client = server.client
    m.warmups += [run_service_op(client, op, traced)
                  for op in sched.warmups]
    rss_before = read_status(server.proc.pid, "VmRSS")
    checkpoint: List[float] = []
    done = 0

    def run_op(op):
        nonlocal done
        record = run_service_op(client, op, traced)
        if traced and record.get("job") and not record["dedup"]:
            job_trace(client, record, m.obs)
        done += 1
        if first and done == RSS_CHECKPOINT_OPS:
            checkpoint.append(read_status(server.proc.pid, "VmHWM"))
        return record

    begin = time.perf_counter()
    half = workloads.timed_rounds(iter(sched.rounds), seconds, limit, run_op,
                                  sampler)
    end = time.perf_counter()
    m.records += half["records"]
    m.rounds += half["rounds"]
    if first:
        m.peak_rss_kb = checkpoint[0] if checkpoint else read_status(
            server.proc.pid, "VmHWM")
    if traced:
        m.window = (begin, end)
        created = sum(1 for r in half["records"] if not r.get("dedup", True))
        grown = read_status(server.proc.pid, "VmRSS") - rss_before
        m.service["service.retained_kb_per_job"] = (
            grown / created if created else 0.0
        )


def run_service(m: Measured, ctx: Context) -> None:
    sampler = speed.Sampler()
    setup_sampler = speed.Sampler()
    for index, (seconds, limit, traced) in enumerate(ctx.halves):
        # Set-up is repeated on the first server only; each start gets a
        # fresh cache, and the last one serves the half.
        server = None
        try:
            for _ in range(ctx.setups if index == 0 else 1):
                if server is not None:
                    server.stop()
                before = setup_sampler.take()
                server = Server(ctx, traced)
                m.setup.append(server.setup)
                m.setup_speed.append(
                    setup_sampler.factor(before, setup_sampler.take())
                )
            service_half(ctx, m, server, seconds, limit, traced,
                         first=index == 0, sampler=sampler)
        finally:
            if server is not None:
                server.stop()
        if traced:
            m.trace_files.append(server.trace_out)
    m.slowness = sampler.samples


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def weighted_speed(records: List[dict]) -> float:
    """Latency-weighted mean speed factor of some ops."""
    return sum(r["s"] * r["speed"] for r in records) \
        / sum(r["s"] for r in records)


def end_to_end(ctx: Context, m: Measured,
               normalised: bool) -> Dict[str, float]:
    """The end-to-end metrics, raw or scaled to the reference speed."""
    def scale(values, factors):
        return [v * f for v, f in zip(values, factors)] if normalised \
            else values

    latencies = scale([r["s"] for r in m.records],
                      [r["speed"] for r in m.records])
    setup = scale(m.setup, m.setup_speed)
    # Every round is the same mix, so the median round's rate is the
    # run's throughput, robust to one round caught by a speed swing.
    walls = scale([r["wall"] for r in m.rounds],
                  [r["speed"] for r in m.rounds])
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": stats.percentile(latencies, ctx.workload.tail_pct)
        * 1e3,
        "ops_per_s": statistics.median(
            r["ops"] / wall for r, wall in zip(m.rounds, walls)),
        "peak_rss_mb": m.peak_rss_kb / 1024,
    }


def _p50_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(ctx: Context, m: Measured,
              imports: List[Dict[str, float]]) -> Tuple[Dict[str, float],
                                                         List[dict]]:
    events: List[dict] = []
    obs: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for name, (count, seconds) in m.obs.items():
        obs[name][0] += count
        obs[name][1] += seconds
    for path in m.trace_files:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        events += data["traceEvents"]
        for name, (count, seconds) in data["obs"].items():
            obs[name][0] += count
            obs[name][1] += seconds
    spans = layers.spans_from_events(events)
    if m.window is not None:
        spans = [s for s in spans
                 if s["start"] >= m.window[0] and s["end"] <= m.window[1]]
    agg = layers.aggregate(spans)
    traced = [r for r in m.records if r["traced"]]
    untraced = [r for r in m.records if not r["traced"]]
    # Rates over scaled op times only, so neither the traced half's span
    # fetching between ops nor a speed change between the halves counts
    # as tracing overhead.
    untraced_rate = len(untraced) / sum(r["s"] * r["speed"]
                                        for r in untraced)
    traced_rate = len(traced) / sum(r["s"] * r["speed"] for r in traced)
    extra = dict(m.service)
    extra.update({
        "bench.untraced_ops_per_s": untraced_rate,
        "bench.traced_ops_per_s": traced_rate,
        "bench.trace_overhead_pct": (untraced_rate / traced_rate - 1) * 100,
        "bench.layer_coverage": agg.covered / sum(r["s"] for r in traced),
    })
    if ctx.workload.kind == "service":
        done = [r for r in traced if r.get("job")]
        executed = [r for r in done if "exec_s" in r]
        extra.update({
            "service.submit_ms_p50": _p50_ms([r["submit_s"] for r in done]),
            "service.queue_wait_ms_p50": _p50_ms(
                [r["queue_s"] for r in executed]),
            "service.exec_ms_p50": _p50_ms([r["exec_s"] for r in executed]),
            "service.http_ms_p50": _p50_ms(
                [r["s"] - r.get("exec_s", 0.0) for r in done]),
            "service.result_fetch_ms_p50": _p50_ms(
                [r["fetch_s"] for r in done]),
            "service.events_per_job": statistics.mean(
                r["events"] for r in done) if done else 0.0,
            "service.dedupe_ratio": sum(r["dedup"] for r in done)
            / len(done) if done else 0.0,
        })
    import_medians = {
        key: statistics.median(p[key] for p in imports)
        for key in imports[0]
    } if imports else {}
    metrics = layers.layer_metrics(agg, obs, len(traced), import_medians,
                                   extra)
    return metrics, events


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _version(package: str) -> Optional[str]:
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> Optional[str]:
    # Only inside a git checkout, and never searching above it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def environment(load_before: Tuple[float, ...]) -> Dict[str, Any]:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "pinned_env": PINNED_ENV,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
RUNNERS = {"cli": run_cli, "inproc": run_inproc, "service": run_service}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 *, max_ops: Optional[int] = None,
                 setups: Optional[int] = None,
                 trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload and return its full result document.

    An op is correct when it raised nothing, its job ended ``done`` and
    its output digest equals the one ``expected/digests.json`` holds
    for its key.
    """
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    load_before = os.getloadavg()
    ctx = Context(workload, seed, seconds, trace, max_ops, setups)
    m = Measured()
    try:
        imports: List[Dict[str, float]] = []
        if trace:
            _times, import_speed, imports = import_repro_cli(
                ctx, IMPORTTIME_RUNS, True)
        RUNNERS[ctx.workload.kind](m, ctx)
        bench = load_benchmark()
        if trace:
            specs = bench["per_layer"]
            raw, events = per_layer(ctx, m, imports)
            # Import times scale by the samples around the import runs,
            # the rest by the traced ops' factors; the bench.* rates are
            # computed from already scaled op times.
            import_factor = statistics.median(import_speed)
            op_factor = weighted_speed([r for r in m.records if r["traced"]])
            values = {
                s["name"]: speed.normalise(
                    raw[s["name"]], s["unit"],
                    1.0 if s["name"].startswith("bench.")
                    else import_factor if s["name"].startswith("import.")
                    else op_factor,
                ) for s in specs if s["name"] in raw
            }
            if trace_path:
                with open(trace_path, "w", encoding="utf-8") as handle:
                    json.dump({"traceEvents": events,
                               "displayTimeUnit": "ms"}, handle,
                              separators=(",", ":"))
        else:
            specs = bench["end_to_end"]
            raw = end_to_end(ctx, m, normalised=False)
            values = end_to_end(ctx, m, normalised=True)
    finally:
        shutil.rmtree(ctx.dir, ignore_errors=True)

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    ops = m.warmups + m.records
    for r in ops:
        r["ok"] = r["error"] is None and r["digest"] is not None \
            and r["digest"] == expected.get(r["key"])
    failed = sum(1 for r in ops if not r["ok"])
    outputs = {r["key"]: r["digest"] for r in ops if r["digest"]}
    latencies = [r["s"] for r in m.records]
    by_class: Dict[str, List[float]] = defaultdict(list)
    for r in m.records:
        by_class[r["cls"]].append(r["s"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]],
                                "unit": s["unit"]} for s in specs},
        "raw_metrics": {s["name"]: raw[s["name"]] for s in specs},
        "speed": {
            "op_factor": weighted_speed(m.records),
            "setup_factors": m.setup_speed,
            "slowness_samples": len(m.slowness),
            "slowness_median": statistics.median(m.slowness),
        },
        "samples": {
            "n": len(latencies),
            "tail_pct": ctx.workload.tail_pct,
            "tail_beyond": stats.samples_beyond(len(latencies),
                                                ctx.workload.tail_pct),
            "class_p50_ms": {c: statistics.median(v) * 1e3
                             for c, v in sorted(by_class.items())},
            "setup_s": m.setup,
        },
        "errors": [r["error"] for r in ops if r["error"]][:5],
        "wrong_outputs": sorted({r["key"] for r in ops
                                 if not r["ok"] and r["digest"]}),
        "outputs": outputs,
        "outputs_sha256": workloads.outputs_sha256(ops),
        "env": environment(load_before),
    }


def cmd_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    trace_path = None
    if args.trace and args.out:
        trace_path = os.path.splitext(args.out)[0] + ".trace.json"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), trace_path=trace_path)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not result["correct"]:
        print(f"{result['failed']} of {result['attempted']} ops failed or "
              f"returned wrong outputs: {result['wrong_outputs'][:10]}",
              file=sys.stderr)
        for error in result["errors"]:
            print(error, file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def cmd_compare(argv: List[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = []
    for paths in (argv[:split], argv[split + 1:]):
        docs = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                docs.append(json.load(handle))
        sides.append([d for d in docs if not d["trace"]])
    parent, change = sides
    bench = load_benchmark()
    status = 0
    header = (f"{'metric':<12} {'workload':<12} {'parent p50 [q1,q3]':>28} "
              f"{'change p50 [q1,q3]':>28} {'delta':>7} {'wins':>6}  verdict")
    print(header)
    for spec in bench["end_to_end"]:
        for workload in sorted({d["workload"] for d in parent + change}):
            p = [d["metrics"][spec["name"]]["value"] for d in parent
                 if d["workload"] == workload]
            c = [d["metrics"][spec["name"]]["value"] for d in change
                 if d["workload"] == workload]
            if len(p) < 2 or len(c) < 2:
                print(f"{spec['name']:<12} {workload:<12} needs >= 2 runs "
                      f"per side (have {len(p)} and {len(c)})")
                status = max(status, 2)
                continue
            v = stats.compare_metric(p, c, spec["better"], spec["bound"])

            def fmt(q):
                return f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"

            print(f"{spec['name']:<12} {workload:<12} {fmt(v.parent):>28} "
                  f"{fmt(v.change):>28} {v.delta:>+7.1%} "
                  f"{v.wins:>3}/{v.pairs:<2}  {v.verdict}")
            if v.verdict == "regressed":
                status = max(status, 1)
    # Output identity: every op key must map to one digest across both
    # sides, and runs of the same (workload, seed) must agree overall.
    seen: Dict[Tuple[str, str], set] = defaultdict(set)
    combined: Dict[Tuple[str, int], set] = defaultdict(set)
    for doc in parent + change:
        for key, digest in doc["outputs"].items():
            seen[(doc["workload"], key)].add(digest)
        combined[(doc["workload"], doc["seed"])].add(doc["outputs_sha256"])
    differ = sorted(k for k, v in seen.items() if len(v) > 1)
    uneven = sorted(k for k, v in combined.items() if len(v) > 1)
    if differ or uneven:
        status = max(status, 1)
        print(f"OUTPUTS DIFFER: {len(differ)} op keys with two digests "
              f"{differ[:5]}; outputs_sha256 differs for {uneven[:5]}")
    else:
        print("outputs: every op key has one digest, and every "
              "(workload, seed) one outputs_sha256, on both sides")
    return status


def cmd_expect(_argv: List[str]) -> int:
    """Recompute ``expected/digests.json`` from the current code."""
    ctx = Context("cli-cold", 0, 0.0, False, None, 1)
    try:
        proc = subprocess.run(shim("expect"), env=ctx.env, cwd=ctx.dir,
                              capture_output=True, check=True)
        out = json.loads(proc.stdout.decode().splitlines()[-1])
        for op in workloads.all_ops():
            if op.argv:
                record = run_cli_op(ctx, op, traced=False)
                if record["error"]:
                    raise BenchError(f"{op.key}: {record['error']}")
                out[op.key] = record["digest"]
    finally:
        shutil.rmtree(ctx.dir, ignore_errors=True)
    os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(out)} digests to {EXPECTED}")
    return 0


def main(argv: List[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"run.py: no repro sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # The parent samples the machine's speed with numpy/scipy too; pin
    # it like the children before anything imports them.
    os.environ.update(PINNED_ENV)
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    if argv[:1] == ["expect"]:
        return cmd_expect(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
