import math
import os
import signal
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
    ens = stats.run_ensemble(constant_seven, 50, 0)
    single = stats.TrialEnsemble(observations=np.array([7.0]))
    for e in (ens, single):
        assert e.mean == 7.0
        assert e.variance == 0.0 and e.stderr == 0.0


def test_uniform_mean():
    ens = stats.run_ensemble(uniform_draw, 100_000, 3)
    assert abs(ens.mean - 0.5) <= 4 * ens.stderr
    assert ens.stderr == pytest.approx(math.sqrt(1.0 / 12.0 / 100_000), rel=0.05)


def test_d1_matching_cost_mean():
    cfg = PairConfig(n=10, dim=1)
    ens = stats.run_ensemble(partial(matching_cost, cfg), 4000, 8)
    assert abs(ens.mean - 1.0 / 33.0) <= 3 * ens.stderr


def test_ensembles_reproducible_and_worker_invariant():
    a = stats.run_ensemble(uniform_draw, 64, 11, workers=1)
    b = stats.run_ensemble(uniform_draw, 64, 11, workers=1)
    c = stats.run_ensemble(uniform_draw, 64, 11, workers=2)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.observations, c.observations)
    assert a.mean == c.mean and a.stderr == c.stderr


def test_trial_seeds_are_substreams_of_the_master():
    for master, count in [(0, 0), (2, 1), (11, 64), (2**70, 3)]:
        assert stats.trial_seeds(master, count) == [substream_seed(master, t) for t in range(count)]


def test_trial_failure_reports_seed():
    with pytest.raises(stats.TrialError) as err:
        stats.run_ensemble(failing_on_third, 100, 2)
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


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts in this process during the test."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.mark.parametrize("workers,seeds,pool_size", [(1, 5, None), (8, 3, 3), (2, 1, None), (2, 10, 2)])
def test_map_trials_pool_never_exceeds_tasks(forks, workers, seeds, pool_size):
    # pool_size counts this process and its children; None: in-process, no fork
    assert list(stats.map_trials(constant_seven, range(seeds), workers=workers)) == [7.0] * seeds
    assert len(forks) == (0 if pool_size is None else pool_size - 1)


def test_map_trials_runs_share_0_in_this_process(forks):
    pids = list(stats.map_trials(lambda seed: os.getpid(), range(4), workers=2))
    assert pids == [os.getpid()] * 2 + forks * 2


def test_map_trials_runs_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert list(stats.map_trials(lambda seed: os.getpid(), range(4), workers=2)) == [os.getpid()] * 4


@pytest.mark.parametrize("workers", [2, 5])
def test_map_trials_lambda_observable_matches_in_process(workers):
    # the children inherit the observable, so only its results need to pickle
    observable = lambda seed: (seed, np.random.default_rng(seed).random(3))  # noqa: E731
    serial = list(stats.map_trials(observable, range(7), workers=1))
    forked = list(stats.map_trials(observable, range(7), workers=workers))
    assert [s for s, _ in forked] == list(range(7))
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(serial, forked))


TEST_PID = os.getpid()


def exits_on_seed_7(seed):
    # only in a forked child: exiting in this process would end the test run
    if seed == 7 and os.getpid() != TEST_PID:
        os._exit(3)
    return seed


def killed_on_seed_7(seed):
    if seed == 7 and os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return seed


@pytest.mark.parametrize("observable,status", [(exits_on_seed_7, 3), (killed_on_seed_7, -9)])
def test_map_trials_dead_worker_names_its_trial(observable, status):
    # shares [0, 5) here and [5, 10) in the child, which dies after trials 5 and 6
    with pytest.raises(stats.TrialError) as err:
        list(stats.map_trials(observable, range(10), workers=2))
    assert str(err.value) == f"trial 7 (seed 7) failed: worker exited with status {status}"


def fails_first_sleeps_in_child(seed):
    if seed == 0:
        raise ArithmeticError("first")
    if os.getpid() != TEST_PID:
        time.sleep(30)
    return seed


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_map_trials_kills_children_when_this_share_fails(forks):
    start = time.monotonic()
    with pytest.raises(stats.TrialError) as err:
        list(stats.map_trials(fails_first_sleeps_in_child, range(4), workers=2))
    assert err.value.trial == 0
    assert time.monotonic() - start < 5
    _assert_reaped(forks)


def test_map_trials_kills_children_when_closed_early(forks):
    start = time.monotonic()
    results = stats.map_trials(fails_first_sleeps_in_child, range(1, 5), workers=2)
    assert next(results) == 1
    results.close()
    assert time.monotonic() - start < 5
    _assert_reaped(forks)


def test_default_workers_is_the_affinity_set(monkeypatch):
    assert stats.default_workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert stats.default_workers() == (os.cpu_count() or 1)


def test_map_trials_defaults_to_default_workers(monkeypatch, forks):
    monkeypatch.setattr(stats, "default_workers", lambda: 3)
    list(stats.map_trials(constant_seven, range(100)))
    assert len(forks) == 2
    stats.run_ensemble(constant_seven, 100, 0)
    assert len(forks) == 4


def test_child_cpus_take_the_other_cpus_in_turn_then_this_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 3, 6}, raising=False)
    monkeypatch.setattr(stats, "_this_cpu", lambda: 3)
    assert stats._child_cpus(3) == [0, 1, 6]
    assert stats._child_cpus(6) == [0, 1, 6, 3, 0, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert stats._child_cpus(2) == [None, None]


def unreadable():
    raise OSError("no /proc")


def test_child_cpus_are_not_pinned_where_the_cpu_is_unknown(monkeypatch):
    monkeypatch.setattr(stats, "_this_cpu", unreadable)
    assert stats._child_cpus(2) == [None, None]
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert stats._child_cpus(1) == [None]


LINUX_AFFINITY = hasattr(os, "sched_setaffinity")


@pytest.mark.skipif(not LINUX_AFFINITY, reason="needs Linux CPU affinity")
def test_this_cpu_is_one_this_process_may_run_on():
    assert stats._this_cpu() in os.sched_getaffinity(0)


def pid_and_affinity(seed):
    return os.getpid(), sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not LINUX_AFFINITY or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to pin to")
def test_map_trials_pins_each_child_to_a_cpu_of_its_own(monkeypatch, forks):
    allowed = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(stats, "_this_cpu", lambda: allowed[0])
    results = list(stats.map_trials(pid_and_affinity, range(6), workers=3))
    assert [pid for pid, _ in results] == [os.getpid()] * 2 + [forks[0]] * 2 + [forks[1]] * 2
    # each child runs on the CPU _child_cpus gave it, the first off this one; this process is not pinned
    first, second = stats._child_cpus(2)
    assert first != allowed[0]
    assert [cpus for _, cpus in results] == [allowed] * 2 + [[first]] * 2 + [[second]] * 2
    assert sorted(os.sched_getaffinity(0)) == allowed


@given(perm_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_ensemble_summary_order_independent(perm_seed):
    rng = np.random.default_rng(perm_seed)
    xs = rng.random(200) * 10.0
    ens1 = stats.TrialEnsemble(observations=xs)
    ens2 = stats.TrialEnsemble(observations=rng.permutation(xs))
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
