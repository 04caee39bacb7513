"""Entry point of every process the benchmark measures.

``python benchmarks/perf/shim.py <mode> ...`` puts the checkout's
``src`` on ``sys.path`` and then, by mode:

* ``import`` -- ``import repro.cli`` and exit (a set-up);
* ``cli [--trace-out FILE] -- ARGS`` -- ``repro.cli.main(ARGS)``, the
  same as ``python -m repro ARGS``;
* ``inproc --workload W --seed N --seconds S --mode setup|run|traced``
  -- an in-process workload: set-up and warm-ups, a ``READY`` line,
  then the timed rounds and one JSON line of per-op records;
* ``expect`` -- print the digest of every payload op as JSON.

With ``--trace-out`` (or ``--mode traced``) the shim wraps the layer
entry points (:mod:`layers`) before calling into ``repro`` and writes
the spans to FILE when it ends.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))


def obs_totals(span_dicts, totals):
    """Add repro.obs solver-phase spans into ``{name: [count, s]}``."""
    from layers import OBS_SPANS

    for span in span_dicts:
        if span["name"] in OBS_SPANS:
            totals[span["name"]][0] += 1
            totals[span["name"]][1] += span["duration"]


def start_tracing():
    """Wrap the layer entry points and turn repro.obs spans on."""
    import repro.cli  # noqa: F401  (imports every layer module)
    import repro.obs.trace as obs_trace
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    obs_trace.clear()
    obs_trace.enable()
    return tracer


# ----------------------------------------------------------------------
def cmd_cli(argv):
    trace_out = None
    if argv and argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    if trace_out:
        tracer = start_tracing()

        def dump():
            import repro.obs.trace as obs_trace
            from layers import write_trace

            totals = defaultdict(lambda: [0, 0.0])
            obs_totals(obs_trace.spans(), totals)
            write_trace(trace_out, tracer, os.getpid(), dict(totals))

        atexit.register(dump)
    import repro.cli

    return repro.cli.main(argv)


def cmd_inproc(argv):
    parser = argparse.ArgumentParser(prog="shim.py inproc")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.service.schema import SimulationPayload
    from repro.service.workloads import render_document, run_payload

    import workloads
    from speed import Sampler

    sched = workloads.schedule(args.workload, args.seed)
    # Validated once, before any op runs or tracing starts.
    payloads = {
        op.key: SimulationPayload.from_dict(op.payload)
        for op in workloads.variants(args.workload)
    }

    def run_op(op, traced=False):
        payload = payloads[op.key]
        start = time.perf_counter()
        data, error = None, None
        try:
            data = render_document(run_payload(payload)).encode("utf-8")
        except Exception:  # recorded as a failed op; the loop goes on
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        latency = time.perf_counter() - start
        got = workloads.digest([data])[:workloads.DIGEST_CHARS] \
            if data is not None else None
        return {"cls": op.cls, "key": op.key, "s": latency, "digest": got,
                "error": error, "traced": traced}

    warmups = [run_op(op) for op in sched.warmups]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    import repro.obs.trace as obs_trace
    from layers import write_trace

    def ask_parent():
        print("SAMPLE", flush=True)
        return float(sys.stdin.readline())

    rounds = iter(sched.rounds)
    sampler = Sampler(ask_parent)
    records, rounds_done = [], []
    totals = defaultdict(lambda: [0, 0.0])
    for seconds, limit, traced in workloads.halves(
            args.seconds, args.max_ops, args.mode == "traced"):
        if traced:
            tracer = start_tracing()

            def step(op):
                record = run_op(op, True)
                obs_totals(obs_trace.collect(), totals)
                return record
        else:
            def step(op):
                return run_op(op)
        half = workloads.timed_rounds(rounds, seconds, limit, step, sampler)
        records += half["records"]
        rounds_done += half["rounds"]
    if args.mode == "traced":
        obs_trace.disable()
        tracer.restore()
        write_trace(args.trace_out, tracer, os.getpid(), dict(totals))

    print(json.dumps({"warmups": warmups, "records": records,
                      "rounds": rounds_done, "speed": sampler.samples}))
    return 0


def cmd_expect(_argv):
    from repro.service.schema import SimulationPayload
    from repro.service.workloads import render_document, run_payload

    import workloads

    out = {}
    for op in workloads.all_ops():
        if op.payload is None or op.key in out:
            continue
        payload = SimulationPayload.from_dict(op.payload)
        data = render_document(run_payload(payload)).encode("utf-8")
        out[op.key] = workloads.digest([data])[:workloads.DIGEST_CHARS]
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        import repro.cli  # noqa: F401

        return 0
    if mode == "cli":
        return cmd_cli(rest)
    if mode == "inproc":
        return cmd_inproc(rest)
    if mode == "expect":
        return cmd_expect(rest)
    print(f"shim.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
