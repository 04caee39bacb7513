"""The benchmark's four workloads: op classes, seeded schedules, digests.

Every workload is a closed loop with one operation in flight.  Its ops
come in *rounds*: one round holds a fixed multiset of op classes in an
order shuffled from the seed, and a run executes whole rounds until its
time budget is spent.  Fixed class counts per round keep the op mix --
and therefore the median and tail -- the same on every run, whatever
the seed or the number of rounds.  Each round holds an odd number of
latency steps around its middle, so the median falls inside one class
instead of on the gap between two classes.

The seed picks the shuffle and an offset into small pools of input
variants (network shapes, Monte-Carlo seeds, device-variation values).
Variants inside a pool cost the same, so seeds change the inputs but
not the amount of work.  Because the pools are finite, the expected
output digest of every op any seed can produce is committed in
``expected/digests.json`` (see ``run.py expect``).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The paper's 300-point DSE grid (Tables IV/VI): crossbar sizes 4-1024,
#: parallelism degrees 1-256 (clamped to the size), five wire nodes.
GRID_300 = {
    "crossbar_sizes": [4, 8, 16, 32, 64, 128, 256, 512, 1024],
    "parallelism_degrees": [1, 2, 4, 8, 16, 32, 64, 128, 256],
    "interconnect_nodes": [18, 22, 28, 36, 45],
}

#: Two-layer MLP shapes whose 300-point sweeps each take ~0.1 s.
MLP_SHAPES = [
    (96, 32), (112, 32), (112, 48), (128, 32),
    (128, 64), (144, 48), (160, 32), (96, 64),
]

BUILTIN_NETWORKS = ["vgg16", "caffenet", "jpeg", "validation-mlp",
                    "large-bank"]

#: Variants per solver-mc op class (Monte-Carlo / fault seeds).
SOLVER_POOL = 8

#: Variants per cli-cold op class; a ~20 s run executes about this many
#: rounds, so every seed covers nearly the same multiset of inputs.
CLI_POOL = 5

#: Fresh-job variants per service-mix kind.  A run consumes one per
#: round and stops early if the pool runs out, which is ~2x what a 20 s
#: run uses on the reference box.
SERVICE_POOL = 300

#: ``max_error_rate`` values of the explore re-filters (cache reads).
REFILTER_BOUNDS = (0.05, 0.2)

#: The example fault-sweep campaign, with its seed taken from the pool.
CAMPAIGN_TEMPLATE = {
    "version": 0,
    "name": "fault-sweep",
    "execution": {"numCPUs": 1, "numRuns": 2, "min_sweep_for_parallel": 2},
    "settings": {
        "regular": {
            "kind": "faults",
            "faults": {
                "networks": ["crossbar"],
                "modes": ["stuck_mixed"],
                "rates": [0.0, 0.02, 0.05],
                "trials": 4,
                "seed": 7,
                "size": 8,
                "device": "IDEAL",
            },
        },
        "combination": {"faults.size": [8, 16]},
    },
    "post": ["summary"],
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``key`` names the expected output digest.  In-process and service
    ops carry a service ``payload`` document; CLI ops carry the ``argv``
    after ``python -m repro`` (``{work}`` is replaced by the run's work
    directory), the output parts to digest, and any input file to write
    beforehand.
    """

    cls: str
    key: str
    payload: Optional[dict] = None
    argv: Tuple[str, ...] = ()
    digest_parts: Tuple[str, ...] = ("stdout",)
    input_file: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class Workload:
    """A named workload: how its ops run and how its tail is read."""

    name: str
    kind: str  # "cli", "inproc" or "service"
    #: Tail percentile, fixed so that it reads the same op class on every
    #: run and leaves ten samples beyond it in a typical 20 s run on the
    #: reference box (see README).
    tail_pct: float
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    classes: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "cli-cold", "cli",
            tail_pct=60.0, setups=5,
            classes=("simulate", "explore", "montecarlo", "campaign-run",
                     "campaign-validate"),
        ),
        Workload(
            "dse-sweep", "inproc",
            tail_pct=80.0, setups=3,
            classes=tuple(BUILTIN_NETWORKS) + ("mlp",),
        ),
        Workload(
            "solver-mc", "inproc",
            tail_pct=90.0, setups=3,
            classes=("mc-rram-32", "mc-rram-64", "mc-ideal-64-k32",
                     "faults-16"),
        ),
        Workload(
            "service-mix", "service",
            tail_pct=98.0, setups=3,
            classes=("simulate", "explore", "montecarlo", "faults",
                     "refilter", "dupe"),
        ),
    )
}


# ----------------------------------------------------------------------
# Op constructors
# ----------------------------------------------------------------------
def _explore(network: str, sizes: Optional[Tuple[int, ...]] = None,
             sweep: Optional[dict] = None,
             config: Optional[dict] = None) -> dict:
    net: dict = {"topology": network}
    if sizes is not None:
        net["sizes"] = list(sizes)
    doc: dict = {"kind": "explore", "network": net}
    if config is not None:
        doc["config"] = config
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


def _mlp_name(shape: Tuple[int, ...]) -> str:
    return "mlp:" + ",".join(str(s) for s in shape)


def dse_op(cls: str, variant: int = 0) -> Op:
    if cls == "mlp":
        shape = MLP_SHAPES[variant % len(MLP_SHAPES)]
        return Op("mlp", f"dse/{_mlp_name(shape)}",
                  payload=_explore("mlp", shape, GRID_300))
    return Op(cls, f"dse/{cls}", payload=_explore(cls, sweep=GRID_300))


def solver_op(cls: str, variant: int) -> Op:
    seed = variant % SOLVER_POOL
    if cls == "faults-16":
        payload = {"kind": "faults", "faults": {
            "networks": ["crossbar", "mlp:64,32,10"],
            "modes": ["stuck_mixed", "open_cell"],
            "rates": [0.0, 0.02, 0.05],
            "trials": 8, "size": 16, "seed": seed,
        }}
    else:
        device, size, trials, vectors = {
            "mc-rram-32": ("RRAM", 32, 16, 1),
            "mc-rram-64": ("RRAM", 64, 4, 1),
            "mc-ideal-64-k32": ("IDEAL", 64, 4, 32),
        }[cls]
        payload = {
            "kind": "montecarlo",
            "config": {"memristor_model": device},
            "montecarlo": {"size": size, "trials": trials, "seed": seed,
                           "inputs_per_trial": vectors},
        }
    return Op(cls, f"solver/{cls}/{seed}", payload=payload)


def campaign_document(variant: int) -> dict:
    doc = copy.deepcopy(CAMPAIGN_TEMPLATE)
    doc["settings"]["regular"]["faults"]["seed"] = 7 + variant
    return doc


def cli_op(cls: str, variant: int) -> Op:
    v = variant % CLI_POOL
    if cls == "simulate":
        net = BUILTIN_NETWORKS[v]
        return Op(cls, f"cli/simulate/{net}", argv=("simulate", net))
    if cls == "explore":
        net = _mlp_name(MLP_SHAPES[v])
        grid = (["--sizes"] + [str(s) for s in GRID_300["crossbar_sizes"]]
                + ["--degrees"]
                + [str(d) for d in GRID_300["parallelism_degrees"]]
                + ["--wires"]
                + [str(w) for w in GRID_300["interconnect_nodes"]])
        return Op(cls, f"cli/explore/{net}",
                  argv=("explore", net, *grid))
    if cls == "montecarlo":
        return Op(cls, f"cli/montecarlo/{v}", argv=(
            "montecarlo", "--size", "16", "--trials", "8", "--seed",
            str(v), "-o", "{work}/montecarlo.json",
        ), digest_parts=("stdout", "{work}/montecarlo.json"))
    campaign = (f"{{work}}/campaign-{v}.json",
                json.dumps(campaign_document(v), indent=2) + "\n")
    if cls == "campaign-run":
        # Its stdout table carries per-stage wall times, so only the
        # report file is compared.
        return Op(cls, f"cli/campaign-run/{v}", argv=(
            "campaign", "run", campaign[0], "-o", "{work}/report.json",
        ), digest_parts=("{work}/report.json",), input_file=campaign)
    return Op(cls, f"cli/campaign-validate/{v}",
              argv=("campaign", "validate", campaign[0]),
              input_file=campaign)


def _sigma(index: int) -> float:
    """A device-variation value per variant; it changes the results
    (and so the job id) but not the amount of work."""
    return round(0.01 + index * 0.0005, 4)


def service_fresh(kind: str, index: int) -> Op:
    index %= SERVICE_POOL
    if kind == "simulate":
        payload = {"kind": "simulate",
                   "config": {"device_sigma": _sigma(index)},
                   "network": {"topology": "mlp", "sizes": [128, 64]}}
    elif kind == "explore":
        payload = _explore("mlp", (256, 128),
                           config={"device_sigma": _sigma(index)})
    elif kind == "montecarlo":
        payload = {"kind": "montecarlo",
                   "montecarlo": {"size": 16, "trials": 8, "seed": index}}
    else:
        payload = {"kind": "faults",
                   "faults": {"size": 16, "trials": 4, "seed": index}}
    return Op(kind, f"svc/{kind}/{index}", payload=payload)


def service_refilter(index: int, bound: float) -> Op:
    index %= SERVICE_POOL
    payload = _explore("mlp", (256, 128),
                       sweep={"max_error_rate": bound},
                       config={"device_sigma": _sigma(index)})
    return Op("refilter", f"svc/refilter/{index}/{bound:g}",
              payload=payload)


def service_dupe(original: Op) -> Op:
    return Op("dupe", original.key, payload=original.payload)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
SERVICE_FRESH = ("simulate", "explore", "montecarlo", "faults")


@dataclass
class Schedule:
    """A run's warm-up ops and its (possibly finite) round generator."""

    warmups: List[Op]
    rounds: Iterator[List[Op]]


def schedule(workload: str, seed: int) -> Schedule:
    """The seeded op schedule of one run (same seed, same ops)."""
    rng = random.Random(seed)
    if workload == "dse-sweep":
        offset = rng.randrange(len(MLP_SHAPES))
        warmups = [dse_op(c) for c in BUILTIN_NETWORKS]
        warmups.append(dse_op("mlp", offset))

        def dse_rounds() -> Iterator[List[Op]]:
            r = 0
            while True:
                ops = [dse_op(c) for c in BUILTIN_NETWORKS]
                ops += [dse_op("mlp", offset + 2 * r),
                        dse_op("mlp", offset + 2 * r + 1)]
                rng.shuffle(ops)
                yield ops
                r += 1

        return Schedule(warmups, dse_rounds())

    if workload == "solver-mc":
        offset = rng.randrange(SOLVER_POOL)
        classes = WORKLOADS[workload].classes
        warmups = [solver_op(c, offset) for c in classes]

        def solver_rounds() -> Iterator[List[Op]]:
            r = 0
            while True:
                v = offset + r
                # The multi-RHS op runs twice per round, which puts the
                # median inside its class (see the module docstring).
                ops = [solver_op(c, v) for c in classes]
                ops.append(solver_op("mc-ideal-64-k32", v + SOLVER_POOL // 2))
                rng.shuffle(ops)
                yield ops
                r += 1

        return Schedule(warmups, solver_rounds())

    if workload == "cli-cold":
        offset = rng.randrange(CLI_POOL)
        classes = WORKLOADS[workload].classes

        def cli_rounds() -> Iterator[List[Op]]:
            r = 0
            while True:
                ops = [cli_op(c, offset + r) for c in classes]
                rng.shuffle(ops)
                yield ops
                r += 1

        return Schedule([], cli_rounds())

    if workload == "service-mix":
        base = rng.randrange(SERVICE_POOL)
        warmups = [service_fresh(k, base) for k in SERVICE_FRESH]

        def service_rounds() -> Iterator[List[Op]]:
            previous = {op.cls: op for op in warmups}
            prev_index = base
            # Fresh variants are used once per server; stop before the
            # pool wraps around to the warm-up's variant.
            for r in range(SERVICE_POOL - 1):
                index = base + r + 1
                fresh = [service_fresh(k, index) for k in SERVICE_FRESH]
                ops = list(fresh)
                ops += [service_refilter(prev_index, b)
                        for b in REFILTER_BOUNDS]
                ops += [service_dupe(previous["montecarlo"]),
                        service_dupe(previous["explore"])]
                rng.shuffle(ops)
                yield ops
                previous = {op.cls: op for op in fresh}
                prev_index = index

        return Schedule(warmups, service_rounds())

    raise KeyError(workload)


def halves(seconds: float, max_ops: Optional[int],
           trace: bool) -> List[Tuple[float, float, bool]]:
    """``(seconds, op limit, traced)`` of each measured half of a run.

    A traced run spends its first half untraced and its second half
    traced, so the two rates give the tracing overhead.
    """
    limit = float("inf") if max_ops is None else max_ops
    if not trace:
        return [(seconds, limit, False)]
    first = limit if max_ops is None else max(1, max_ops // 2)
    second = limit if max_ops is None else max(1, max_ops - first)
    return [(seconds / 2, first, False), (seconds / 2, second, True)]


def timed_rounds(rounds: Iterator[List[Op]], seconds: float, limit: float,
                 run_op: Callable[[Op], dict], sampler) -> dict:
    """Run whole rounds until ``seconds`` are spent (or ``limit`` ops).

    The machine's speed is sampled between ops (a :class:`speed.Sampler`)
    and each record gets ``speed``, the factor of the samples taken just
    before and just after it, and ``round``, its round's index in this
    call.  Each returned round has its op count, its wall time without
    sampling, and ``speed``, its ops' latency-weighted factor.
    """
    records: List[dict] = []
    done: List[dict] = []
    start = time.perf_counter()
    before = sampler.take()
    for index, ops in enumerate(rounds):
        begun, sampling, count = time.perf_counter(), sampler.seconds, 0
        for op in ops:
            if len(records) >= limit:
                break
            record = run_op(op)
            record["speed"] = before
            record["round"] = index
            records.append(record)
            count += 1
            sampler.maybe()
            before = len(sampler.samples) - 1
        done.append({"ops": count, "wall": time.perf_counter() - begun
                     - (sampler.seconds - sampling)})
        if time.perf_counter() - start >= seconds or len(records) >= limit:
            break
    sampler.take()
    for record in records:
        record["speed"] = sampler.factor(record["speed"])
    done = [round_ for round_ in done if round_["ops"]]
    for index, round_ in enumerate(done):
        ran = [r for r in records if r["round"] == index]
        round_["speed"] = sum(r["s"] * r["speed"] for r in ran) \
            / sum(r["s"] for r in ran)
    return {"records": records, "rounds": done}


def variants(workload: str) -> List[Op]:
    """Every op any seed can schedule on one workload."""
    if workload == "dse-sweep":
        return ([dse_op(c) for c in BUILTIN_NETWORKS]
                + [dse_op("mlp", v) for v in range(len(MLP_SHAPES))])
    if workload == "solver-mc":
        return [solver_op(c, v) for c in WORKLOADS[workload].classes
                for v in range(SOLVER_POOL)]
    if workload == "cli-cold":
        return [cli_op(c, v) for c in WORKLOADS[workload].classes
                for v in range(CLI_POOL)]
    ops = []
    for index in range(SERVICE_POOL):
        ops += [service_fresh(k, index) for k in SERVICE_FRESH]
        ops += [service_refilter(index, b) for b in REFILTER_BOUNDS]
    return ops


def all_ops() -> List[Op]:
    """Every op of every workload (the expected-digest table)."""
    return [op for name in WORKLOADS for op in variants(name)]


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
#: Hex digits of sha256 kept per op in the expected table (64 bits).
DIGEST_CHARS = 16


def digest(parts: List[bytes]) -> str:
    """sha256 over an op's output parts, length-prefixed."""
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d:" % len(part))
        h.update(part)
    return h.hexdigest()


def outputs_sha256(records: List[dict]) -> str:
    """One digest over the outputs of a run's warm-ups and first round.

    Those ops are a pure function of the seed, so two runs of one seed
    compare however many rounds each ran.
    """
    prefix = list(itertools.takewhile(lambda r: r.get("round", 0) == 0,
                                      records))
    pairs = sorted({f"{r['key']} {r['digest']}\n" for r in prefix})
    return hashlib.sha256("".join(pairs).encode()).hexdigest()
