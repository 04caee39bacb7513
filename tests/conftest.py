"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
from typing import Any, Dict

import numpy as np
import pytest

from repro.config import SimConfig
from repro.nn.networks import jpeg_autoencoder, large_bank_layer, validation_mlp
from repro.obs.metrics import REGISTRY
from repro.obs.trace import JobContext
from repro.runtime.pool import run_summary

_SCOPE_IDS = itertools.count()


class RunScope:
    """Engine calls made inside ``with scope:`` record under one fresh
    job label; :meth:`summary` reads them back the way the service
    reads a job's (``run_summary`` of its ``filter_job`` snapshot)."""

    def __init__(self) -> None:
        self.job_id = f"test-run-{next(_SCOPE_IDS)}"
        self._context = JobContext(self.job_id)

    def __enter__(self) -> "RunScope":
        self._context.__enter__()
        return self

    def __exit__(self, *exc: Any) -> bool:
        return self._context.__exit__(*exc)

    def summary(self) -> Dict[str, Any]:
        return run_summary(REGISTRY.filter_job(self.job_id))


@pytest.fixture
def run_scope():
    """A :class:`RunScope`, rolled back into the base series after."""
    scope = RunScope()
    yield scope
    REGISTRY.rollup_job(scope.job_id)


@pytest.fixture
def default_config() -> SimConfig:
    """The Table-I default configuration (90 nm, 128 crossbar, RRAM)."""
    return SimConfig()


@pytest.fixture
def paper_45nm_config() -> SimConfig:
    """The large-bank case-study base: 45 nm CMOS, 4-bit weights."""
    return SimConfig(
        cmos_tech=45,
        interconnect_tech=45,
        weight_bits=4,
        signal_bits=8,
        crossbar_size=128,
    )


@pytest.fixture
def mlp_network():
    """The Table II validation workload (two 128x128 weight layers)."""
    return validation_mlp()


@pytest.fixture
def autoencoder_network():
    """The 64-16-64 accuracy-validation workload."""
    return jpeg_autoencoder()


@pytest.fixture
def large_layer_network():
    """The 2048x1024 large-bank case-study workload."""
    return large_bank_layer()


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator: every randomised test is reproducible."""
    return np.random.default_rng(20160314)  # DATE'16 vintage
