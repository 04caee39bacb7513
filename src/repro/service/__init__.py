"""Simulation-as-a-service: validated payloads, jobs, HTTP API.

The service layer turns the engine into a multi-tenant job server:

* :mod:`repro.service.schema` — :class:`SimulationPayload`, the
  validated input contract (Enum vocabularies, path-addressed
  rejection, content-addressed fingerprints);
* :mod:`repro.service.workloads` — payload execution and deterministic
  result documents (byte-identical to the CLI's ``--output`` files);
* :mod:`repro.service.jobs` — the deduping job manager;
* :mod:`repro.service.server` — the stdlib HTTP front-end
  (``repro serve``);
* :mod:`repro.service.client` — the Python client over persistent
  ``http.client`` connections.
"""

from repro.service.jobs import JobEvent, JobManager, JobRecord, JobState
from repro.service.schema import (
    DeviceModel,
    ExecutionSpec,
    FaultMode,
    FaultsSpec,
    InputMode,
    MonteCarloSpec,
    NetworkSpec,
    NetworkTopology,
    PAYLOAD_SCHEMA,
    PayloadKind,
    SimulationPayload,
    SweepMode,
    SweepSpec,
)
from repro.service.workloads import (
    RESULT_SCHEMA,
    montecarlo_document,
    render_document,
    run_payload,
)

__all__ = [
    "DeviceModel",
    "ExecutionSpec",
    "FaultMode",
    "FaultsSpec",
    "InputMode",
    "JobEvent",
    "JobManager",
    "JobRecord",
    "JobState",
    "MonteCarloSpec",
    "NetworkSpec",
    "NetworkTopology",
    "PAYLOAD_SCHEMA",
    "PayloadKind",
    "RESULT_SCHEMA",
    "SimulationPayload",
    "SweepMode",
    "SweepSpec",
    "montecarlo_document",
    "render_document",
    "run_payload",
    "serve_main",
]


def serve_main(host: str, port: int, cache_dir=None, workers: int = 1):
    """Convenience: build a manager + bound server (used by the CLI)."""
    from repro.service.server import serve

    manager = JobManager(cache_dir=cache_dir, workers=workers)
    return manager, serve(host, port, manager)
