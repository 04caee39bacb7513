"""The sweep contract of explore and fault campaigns.

Each driver builds its job specs, calls ``run_jobs`` once and folds
the results, so its hooks are the engine's: a monotone progress stream
over the sweep size ending at ``(N, N)``, cold or replayed from the
cache, and a cancel that stops the run before any worker is called.
"""

import pytest

import repro.dse.explorer as explorer
import repro.faults.campaign as faults
from repro.config import SimConfig
from repro.dse.space import DesignSpace
from repro.errors import JobCancelled
from repro.nn.networks import mlp
from repro.runtime.cache import ResultCache

SPACE = DesignSpace(
    crossbar_sizes=(32, 64),
    parallelism_degrees=(1, 8),
    interconnect_nodes=(45,),
)
CAMPAIGN = faults.CampaignSpec(
    fault_rates=(0.0, 0.05), trials=2, seed=3, size=8,
)


def _explore(**hooks):
    return explorer.explore(
        SimConfig(), mlp([32, 16], name="contract"), SPACE, **hooks
    )


def _faults(**hooks):
    return faults.run_campaign(CAMPAIGN, **hooks)


#: (driver, sweep size, module, worker names the driver dispatches to)
SWEEPS = [
    pytest.param(
        _explore, len(SPACE), explorer,
        ("_evaluate_point", "_evaluate_points_batch"), id="explore",
    ),
    pytest.param(
        _faults, len(CAMPAIGN.fault_rates) * CAMPAIGN.trials, faults,
        ("_run_trial", "_run_trial_batch"), id="faults",
    ),
]


def _assert_stream(events, size):
    assert events, "the sweep reported no progress"
    assert all(total == size for _done, total in events)
    dones = [done for done, _total in events]
    assert dones == sorted(dones), "progress must be monotone"
    assert events[-1] == (size, size)


@pytest.mark.parametrize("run, size, module, workers", SWEEPS)
def test_progress_is_monotone_and_ends_at_the_sweep_size(
    run, size, module, workers, tmp_path
):
    cold = []
    run(progress=lambda done, total: cold.append((done, total)))
    _assert_stream(cold, size)

    with ResultCache(tmp_path) as cache:
        run(cache=cache)
        replay = []
        run(cache=cache,
            progress=lambda done, total: replay.append((done, total)))
    _assert_stream(replay, size)
    assert replay == [(size, size)], "an all-hit replay reports once"


@pytest.mark.parametrize("run, size, module, workers", SWEEPS)
def test_cancel_before_start_never_calls_the_worker(
    run, size, module, workers, monkeypatch
):
    called = []
    for name in workers:
        monkeypatch.setattr(module, name, called.append)
    with pytest.raises(JobCancelled):
        run(should_cancel=lambda: True)
    assert called == []
