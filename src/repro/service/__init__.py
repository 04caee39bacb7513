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

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.service.jobs": ["JobEvent", "JobManager", "JobRecord", "JobState"],
    "repro.service.schema": [
        "DeviceModel",
        "ExecutionSpec",
        "FaultMode",
        "FaultsSpec",
        "InputMode",
        "MonteCarloSpec",
        "NetworkSpec",
        "NetworkTopology",
        "PAYLOAD_SCHEMA",
        "PayloadKind",
        "SimulationPayload",
        "SweepMode",
        "SweepSpec",
    ],
    "repro.service.workloads": [
        "RESULT_SCHEMA",
        "montecarlo_document",
        "render_document",
        "run_payload",
    ],
})
