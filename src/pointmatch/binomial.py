"""Counting statistics of points in sub-boxes: moments and the counting lemma.

The count N_Q of uniform points falling in a box Q of volume fraction theta is
Binomial(N, theta). This module exposes the count itself, the analytic
mean/variance/kurtosis-bound triple, and `lemma_check`, the one place the lemma
is checked on an ensemble of counts: the empirical mean and variance against
the binomial ones, and the concentration of the relative fluctuation
rho = N_Q / (N theta) and of the inverse count.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box, PointCloud
from .stats import TrialEnsemble


def count_in_box(cloud: PointCloud, box: Box) -> int:
    """Count points with lower <= x < lower + sides per coordinate.

    A face lying on the outer boundary x_i = side is closed, so that counts over
    any partition of [0, L]^d sum to N with no double counting.
    """
    lo = box.lower
    hi = box.lower + box.sides
    pts = cloud.points
    mask = np.ones(cloud.n, dtype=bool)
    for i in range(cloud.dim):
        upper_closed = hi[i] >= cloud.side
        above = pts[:, i] >= lo[i]
        below = pts[:, i] <= hi[i] if upper_closed else pts[:, i] < hi[i]
        mask &= above & below
    return int(mask.sum())


def moment_bounds(n_total: int, theta: float) -> tuple[float, float, float]:
    """Mean N*theta, variance N*theta*(1-theta), and the kurtosis bound
    3*(N*theta*(1-theta))^2 + N*theta*(1-theta)."""
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    mean = n_total * theta
    var = n_total * theta * (1.0 - theta)
    kurt_bound = 3.0 * var**2 + var
    return mean, var, kurt_bound


def binomial_fourth_central_moment(n_total: int, theta: float) -> float:
    """Exact fourth central moment of Binomial(N, theta):
    N*theta*(1-theta) * (1 + 3*(N-2)*theta*(1-theta))."""
    v = theta * (1.0 - theta)
    return n_total * v * (1.0 + 3.0 * (n_total - 2) * v)


def lemma_check(ens: TrialEnsemble, n_total: int, theta: float, c_bound: float = 10.0) -> dict:
    """The counting lemma on an ensemble of box counts N_Q ~ Binomial(N, theta).

    The empirical mean and variance must lie within 4 standard errors of the
    binomial ones. Where N theta >= 1, (E|rho - 1|^p)^(1/p) for p = 2, 4 must be
    at most C / sqrt(N theta) and (E[(I(N_Q != 0) / N_Q)^2])^(1/2) at most
    C / (N theta); the theory fixes these shapes, not the constant C.
    """
    trials = ens.trials
    if trials < 2:
        raise ValueError(f"the variance check needs at least 2 trials, got {trials}")
    mean, var, _ = moment_bounds(n_total, theta)
    mean_se = math.sqrt(var / trials)
    mu4 = binomial_fourth_central_moment(n_total, theta)
    var_se = math.sqrt(max(mu4 - var**2 * (trials - 3) / (trials - 1), 0.0) / trials)
    report = {
        "empirical_mean": ens.mean,
        "target_mean": mean,
        "mean_ok": abs(ens.mean - mean) <= 4 * mean_se,
        "empirical_variance": ens.variance,
        "target_variance": var,
        "variance_ok": abs(ens.variance - var) <= 4 * var_se,
    }
    nt = n_total * theta
    if nt < 1.0:
        return report

    counts = ens.observations.astype(np.float64)
    dev = np.abs(counts / nt - 1.0)
    inv_sq = np.divide(1.0, counts**2, out=np.zeros_like(counts), where=counts > 0)
    p2 = float(np.mean(dev**2) ** 0.5)
    p4 = float(np.mean(dev**4) ** 0.25)
    inv = float(np.mean(inv_sq) ** 0.5)
    p_bound = c_bound / math.sqrt(nt)
    inv_bound = c_bound / nt
    return report | {
        "p2_stat": p2,
        "p4_stat": p4,
        "inv_stat": inv,
        "p_bound": p_bound,
        "inv_bound": inv_bound,
        "p2_ok": p2 <= p_bound,
        "p4_ok": p4 <= p_bound,
        "inv_ok": inv <= inv_bound,
    }
