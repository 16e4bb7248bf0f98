import math
import os
import statistics
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import stats
from pointmatch.experiments import PairConfig, matching_cost
from pointmatch.geometry import substream_seed


def constant_seven(seed):
    return 7.0


def uniform_draw(seed):
    return float(np.random.default_rng(np.uint64(seed)).random())


def failing_on_third(seed):
    # deterministic failure trigger keyed off the seed value
    if seed % 5 == 0:
        raise ArithmeticError("boom")
    return 1.0


def test_constant_observable():
    ens = stats.run_ensemble(stats.EnsembleConfig(trials=50, master_seed=0), constant_seven)
    single = stats.TrialEnsemble(master_seed=0, observations=np.array([7.0]))
    for e in (ens, single):
        assert e.mean == 7.0
        assert e.variance == 0.0 and e.stderr == 0.0


def test_uniform_mean():
    ens = stats.run_ensemble(stats.EnsembleConfig(trials=100_000, master_seed=3), uniform_draw)
    assert abs(ens.mean - 0.5) <= 4 * ens.stderr
    assert ens.stderr == pytest.approx(math.sqrt(1.0 / 12.0 / 100_000), rel=0.05)


def test_d1_matching_cost_mean():
    cfg = PairConfig(n=10, dim=1)
    ens = stats.run_ensemble(stats.EnsembleConfig(trials=4000, master_seed=8), partial(matching_cost, cfg))
    assert abs(ens.mean - 1.0 / 33.0) <= 3 * ens.stderr


def test_ensembles_reproducible_and_worker_invariant():
    cfg = stats.EnsembleConfig(trials=64, master_seed=11, workers=1)
    a = stats.run_ensemble(cfg, uniform_draw)
    b = stats.run_ensemble(cfg, uniform_draw)
    c = stats.run_ensemble(stats.EnsembleConfig(trials=64, master_seed=11, workers=2), uniform_draw)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.observations, c.observations)
    assert a.mean == c.mean and a.stderr == c.stderr


def test_trial_seeds_are_substreams_of_the_master():
    for master, count in [(0, 0), (2, 1), (11, 64), (2**70, 3)]:
        assert stats.trial_seeds(master, count) == [substream_seed(master, t) for t in range(count)]


def test_trial_failure_reports_seed():
    with pytest.raises(stats.TrialError) as err:
        stats.run_ensemble(stats.EnsembleConfig(trials=100, master_seed=2), failing_on_third)
    assert "seed" in str(err.value)
    assert err.value.seed == substream_seed(2, err.value.trial)


def slow_first(seed):
    # the first trial finishes last, so a map that yields in completion order reorders
    time.sleep(0.5 if seed == 0 else 0.0)
    return seed


def test_map_trials_keeps_trial_order_when_an_earlier_trial_is_slower():
    seeds = [0, 1, 2, 3]
    assert list(stats.map_trials(slow_first, seeds, workers=2)) == seeds


@pytest.mark.parametrize("workers", [1, 2])
def test_map_trials_failure_names_first_failing_trial(workers):
    seeds = [substream_seed(4, t) for t in range(20)]
    first = next(t for t, s in enumerate(seeds) if s % 5 == 0)
    with pytest.raises(stats.TrialError) as err:
        list(stats.map_trials(failing_on_third, seeds, workers=workers))
    assert (err.value.trial, err.value.seed) == (first, seeds[first])
    assert f"trial {first} (seed {seeds[first]}) failed: ArithmeticError('boom')" == str(err.value)


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        return map(fn, jobs)


@pytest.mark.parametrize("workers,seeds,pool_size", [(1, 5, None), (8, 3, 3), (2, 1, None), (2, 10, 2)])
def test_map_trials_pool_never_exceeds_tasks(monkeypatch, workers, seeds, pool_size):
    monkeypatch.setattr(stats.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert list(stats.map_trials(constant_seven, range(seeds), workers=workers)) == [7.0] * seeds
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def test_default_workers_is_the_affinity_set(monkeypatch):
    assert stats.default_workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert stats.default_workers() == (os.cpu_count() or 1)


def test_map_trials_defaults_to_default_workers(monkeypatch):
    monkeypatch.setattr(stats.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(stats, "default_workers", lambda: 3)
    list(stats.map_trials(constant_seven, range(100)))
    stats.run_ensemble(stats.EnsembleConfig(trials=100, master_seed=0), constant_seven)
    assert RecordingPool.sizes == [3, 3]


@given(perm_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_ensemble_summary_order_independent(perm_seed):
    rng = np.random.default_rng(perm_seed)
    xs = rng.random(200) * 10.0
    ens1 = stats.TrialEnsemble(master_seed=0, observations=xs)
    ens2 = stats.TrialEnsemble(master_seed=0, observations=rng.permutation(xs))
    assert ens1.mean == pytest.approx(ens2.mean, rel=1e-12)
    assert ens1.variance == pytest.approx(ens2.variance, rel=1e-12)
    # oracle outside numpy: the statistics module sums exactly
    assert ens1.mean == pytest.approx(statistics.fmean(xs), rel=1e-12)
    assert ens1.variance == pytest.approx(statistics.variance(xs), rel=1e-12)
    assert ens1.stderr == pytest.approx(math.sqrt(statistics.variance(xs) / 200), rel=1e-12)


# --- scaling fits ---------------------------------------------------------------


def test_fit_recovers_exact_log_model():
    c = 0.31
    points = [(n, c * (1.0 / n) * math.log(n)) for n in (64, 256, 1024, 4096)]
    fit = stats.fit_scaling(points, dim=2)
    assert fit.model == "linear-in-lnN"
    assert fit.constant == pytest.approx(c, abs=1e-10)
    assert fit.ratio == pytest.approx(1.0, abs=1e-10)


def test_fit_d1_closed_form_constant():
    # means 1/(3(N+1)) give constants N/(3(N+1)) -> 1/3
    points = [(n, 1.0 / (3 * (n + 1))) for n in (10, 100, 1000, 10000)]
    fit = stats.fit_scaling(points, dim=1)
    assert fit.model == "linear-in-N"
    for n, c in zip(fit.n_values, fit.per_point_constants):
        if n >= 100:
            assert abs(c - 1.0 / 3.0) / (1.0 / 3.0) <= 0.1


def test_fit_requires_three_points_and_positive_means():
    with pytest.raises(ValueError):
        stats.fit_scaling([(4, 0.1), (8, 0.2)], dim=1)
    with pytest.raises(ValueError):
        stats.fit_scaling([(4, 0.1), (8, -0.2), (16, 0.1)], dim=1)


def test_constant_model_for_d3():
    points = [(n, 0.5 * n ** (-2.0 / 3.0)) for n in (64, 512, 4096)]
    fit = stats.fit_scaling(points, dim=3)
    assert fit.model == "constant"
    assert fit.constant == pytest.approx(0.5, rel=1e-12)
    assert abs(fit.slope_over_mean) <= 1e-10
