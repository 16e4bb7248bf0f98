import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from pointmatch import binomial as bi
from pointmatch import geometry as geo
from pointmatch.experiments import box_counts_ensemble
from pointmatch.stats import TrialEnsemble


def test_slab_count_conventions():
    # the face x_1 = theta L belongs to the complement, the outer face x_1 = L to the slab
    pts = np.array([[0.0, 0.9], [0.5, 0.2], [1.0, 1.0], [0.25, 0.0]])
    cloud = geo.PointCloud(dim=2, side=1.0, points=pts)
    assert bi.count_in_box(cloud, 0.0) == 0
    assert bi.count_in_box(cloud, 0.5) == 2  # 0.5 sits on the face and is left out
    assert bi.count_in_box(cloud, 0.75) == 3
    assert bi.count_in_box(cloud, 1.0) == 4  # 1.0 sticks to the closed outer face


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), side=st.sampled_from([1.0, 0.3, 0.7, 2.5]))
@settings(max_examples=30, deadline=None)
def test_slab_count_is_monotone_in_theta(seed, dim, side):
    cloud = geo.sample_uniform(128, side, dim, seed)
    counts = [bi.count_in_box(cloud, theta) for theta in np.linspace(0.0, 1.0, 33)]
    assert counts[0] == 0
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 128


def test_count_mean_matches_lemma():
    # E[N_Q] = N * theta over an ensemble of seeds
    ens = box_counts_ensemble(10_000, 0.125, trials=1000, master_seed=17)
    mean, var, _ = bi.moment_bounds(10_000, 0.125)
    se = math.sqrt(var / ens.trials)
    assert abs(ens.mean - mean) <= 4 * se


@pytest.mark.parametrize(
    "n_total, theta, message",
    [(0, 0.5, "n_total"), (-3, 0.5, "n_total"), (10, -0.1, "theta"), (10, 1.5, "theta"), (10, math.nan, "theta")],
)
def test_moment_bounds_rejects_empty_total_or_theta_outside_unit_interval(n_total, theta, message):
    with pytest.raises(ValueError, match=message):
        bi.moment_bounds(n_total, theta)


def test_moment_bounds_values():
    assert bi.moment_bounds(100, 0.25) == (25.0, 18.75, 3 * 18.75**2 + 18.75)
    assert bi.moment_bounds(100, 0.25)[2] == pytest.approx(1073.4375)
    assert bi.moment_bounds(50, 0.0) == (0.0, 0.0, 0.0)
    assert bi.moment_bounds(50, 1.0) == (50.0, 0.0, 0.0)


def test_fourth_moment_bound_holds_exactly():
    # analytic binomial fourth central moment never exceeds the stated bound
    for theta in (0.125, 0.25, 0.5):
        for n in range(1, 1001):
            mu4 = bi.binomial_fourth_central_moment(n, theta)
            bound = bi.moment_bounds(n, theta)[2]
            assert mu4 <= bound * (1 + 1e-9)


def _ensemble(counts):
    return TrialEnsemble(observations=np.array(counts))


def test_concentration_trivial_at_exact_mean():
    rep = bi.lemma_check(_ensemble([25] * 10), 100, 0.25)
    assert rep["p2_stat"] == 0.0
    assert rep["p4_stat"] == 0.0
    assert rep["empirical_mean"] == rep["target_mean"] == 25.0
    assert rep["mean_ok"] and rep["p2_ok"] and rep["p4_ok"] and rep["inv_ok"]


def test_concentration_omitted_below_unit_mass():
    # N theta < 1: the box is below the microscopic scale, so only the moments are checked
    moments = {"empirical_mean", "target_mean", "mean_ok", "empirical_variance", "target_variance", "variance_ok"}
    for theta in (0.0, 0.01, 0.099):
        assert bi.lemma_check(_ensemble([0, 1, 0]), 10, theta).keys() == moments
    assert bi.lemma_check(_ensemble([0, 1, 0]), 10, 0.1).keys() > moments


def test_lemma_check_needs_two_trials():
    with pytest.raises(ValueError, match="at least 2 trials"):
        bi.lemma_check(_ensemble([3]), 10, 0.5)


def test_concentration_monte_carlo():
    """Empirical p=2 statistic sits near sqrt((1-theta)/(N theta)) and the
    inverse-count statistic near 1/(N theta); both clear the scaled bounds."""
    n, theta = 10_000, 1.0 / 16.0
    rep = bi.lemma_check(box_counts_ensemble(n, theta, trials=1000, master_seed=23), n, theta)
    nt = n * theta
    assert rep["p2_stat"] <= 3.0 / math.sqrt(nt)
    assert rep["inv_stat"] <= 10.0 / nt
    # oracle: exact binomial sums, brute force over the support
    ks = np.arange(n + 1)
    logpmf = (
        [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
         + k * math.log(theta) + (n - k) * math.log(1 - theta) for k in ks]
    )
    pmf = np.exp(np.array(logpmf))
    exact_p2 = math.sqrt(float((pmf * (ks / nt - 1.0) ** 2).sum()))
    exact_inv = math.sqrt(float((pmf[1:] * (1.0 / ks[1:]) ** 2).sum()))
    assert rep["p2_stat"] == pytest.approx(exact_p2, rel=0.15)
    assert rep["inv_stat"] == pytest.approx(exact_inv, rel=0.15)


def test_counts_follow_exact_binomial_law():
    """Chi-square test of N_Q against Binomial(N, theta) at significance 1e-3."""
    n, theta, trials = 12, 0.3, 100_000
    rng_master = 4242
    counts = np.zeros(n + 1, dtype=np.int64)
    for t in range(trials):
        cloud = geo.sample_uniform(n, 1.0, 1, geo.substream_seed(rng_master, t))
        counts[bi.count_in_box(cloud, theta)] += 1
    pmf = np.array(
        [math.comb(n, k) * theta**k * (1 - theta) ** (n - k) for k in range(n + 1)]
    )
    expected = trials * pmf
    stat = float(((counts - expected) ** 2 / expected).sum())
    critical = chi2.isf(1e-3, df=n)
    assert stat <= critical, f"chi2 {stat:.1f} > {critical:.1f}"
