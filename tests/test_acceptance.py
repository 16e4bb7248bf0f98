"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s).

Each test pins the full protocol: instance sizes, trial counts
and tolerances. Statistical tolerances are stated in standard errors of the
ensembles actually run; structural identities use fixed relative tolerances.
"""

import math
from functools import partial

import numpy as np

from pointmatch import assignment as asg
from pointmatch import binomial as bi
from pointmatch import dual_potential as dp
from pointmatch import dyadic_transport as dy
from pointmatch import geometry as geo
from pointmatch import stats
from pointmatch.experiments import (
    BoxCountConfig,
    PairConfig,
    box_counts_ensemble,
    matching_cost,
    sample_pair,
    scaling_experiment,
)

MASTER_SEED = 20_260_808


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_d1_closed_form():
    # E[(1/N) min sum |Y-X|^2] = 1/(3(N+1)) for L = 1, checked at 3 stderr
    lines = []
    ok = True
    for n in (1, 2, 10, 100):
        cfg = PairConfig(n=n, dim=1)
        ens = stats.run_ensemble(partial(matching_cost, cfg), 10_000, geo.substream_seed(MASTER_SEED, 1, n))
        target = 1.0 / (3.0 * (n + 1))
        dev = abs(ens.mean - target) / ens.stderr
        ok &= dev <= 3.0
        lines.append(f"N={n}: {ens.mean:.6f} vs {target:.6f} ({dev:.2f} se)")
    _report(1, "d=1 closed form", ok, "; ".join(lines))
    assert ok


def test_criterion_02_birkhoff_equivalence():
    # LP value = solver value = brute-force value within 1e-9 absolute
    rng = np.random.default_rng(geo.substream_seed(MASTER_SEED, 2))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        cfg = PairConfig(n=n, dim=int(rng.integers(1, 4)))
        x, y = sample_pair(cfg, int(rng.integers(2**62)))
        c = asg.cost_matrix(x, y)
        brute = asg.match_bruteforce(c).cost
        solver = asg.match_solver(c).cost
        lp = asg.match_lp(c).cost
        worst = max(worst, abs(brute - solver), abs(brute - lp))
    ok = worst <= 1e-9
    _report(2, "Birkhoff equivalence", ok, f"max |route difference| = {worst:.2e} over 200 instances")
    assert ok


def test_criterion_03_sandwich_property():
    # certified dual lower bound <= exact optimal cost <= dyadic coupling cost, every
    # instance; the optimum comes from a plain solve, not the one behind the bound
    cfg = PairConfig(n=64, dim=2)
    violations = 0
    min_upper_margin = math.inf
    min_lower_margin = math.inf
    for t in range(100):
        seed = geo.substream_seed(MASTER_SEED, 3, t)
        x, y = sample_pair(cfg, seed)
        coupling = dy.coupling_cost_exact(dy.build_map(x), dy.build_map(y))
        bound = asg.optimal_with_dual(x, y)[1]
        optimal = asg.match_solver(asg.cost_matrix(x, y)).cost
        if not (bound <= optimal <= coupling):
            violations += 1
        min_upper_margin = min(min_upper_margin, coupling - optimal)
        min_lower_margin = min(min_lower_margin, optimal - bound)
    ok = violations == 0
    _report(
        3,
        "sandwich property",
        ok,
        f"{violations} violations; min margins lower {min_lower_margin:.2e}, upper {min_upper_margin:.2e}",
    )
    assert ok


def test_criterion_04_d2_scaling_shape():
    # c(N) = E[cost] / (r^2 ln N) varies by at most a factor 4 across N
    results, fit = scaling_experiment(
        [2**6, 2**8, 2**10, 2**12],
        [200, 200, 100, 30],
        dim=2,
        master_seed=geo.substream_seed(MASTER_SEED, 4),
    )
    ok = fit.ratio <= 4.0
    detail = ", ".join(f"c({r.n})={r.constant:.4f}" for r in results)
    _report(4, "d=2 scaling shape", ok, f"ratio {fit.ratio:.3f}; {detail}")
    assert ok


def test_criterion_05_d3_boundedness():
    # c(N) = E[cost] / r^2 has no ln N trend: |slope| <= 0.1 * mean constant
    results, fit = scaling_experiment(
        [2**6, 2**8, 2**10, 2**12],
        [200, 200, 100, 30],
        dim=3,
        master_seed=geo.substream_seed(MASTER_SEED, 5),
    )
    ok = abs(fit.slope_over_mean) <= 0.1
    detail = ", ".join(f"c({r.n})={r.constant:.4f}" for r in results)
    _report(5, "d=3 boundedness", ok, f"slope/mean {fit.slope_over_mean:+.4f}; {detail}")
    assert ok


def test_criterion_06_pushforward_exactness():
    # preimage-volume product identity at 1e-12 relative for every point
    rng = np.random.default_rng(geo.substream_seed(MASTER_SEED, 6))
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 257))
        side = float(rng.choice([1.0, 0.7, 3.0]))
        cloud = geo.sample_uniform(n, side, dim, int(rng.integers(2**62)))
        prods = dy.preimage_volume_products(dy.build_tree(cloud))
        target = side**dim / n
        worst = max(worst, float(np.abs(prods / target - 1.0).max()))
    ok = worst <= 1e-12
    _report(6, "pushforward exactness", ok, f"max relative defect {worst:.2e} over 50 trees")
    assert ok


def test_criterion_07_lemma_moments():
    lines = []
    ok = True
    # empirical mean and variance of the box count over 1000 seeds
    for i, (n, theta) in enumerate([(10**3, 0.125), (10**4, 0.5)]):
        trials = 1000
        cfg = BoxCountConfig(n=n, theta=theta, dim=1)
        ens = box_counts_ensemble(cfg, trials, geo.substream_seed(MASTER_SEED, 7, i))
        mean, var, _ = bi.moment_bounds(n, theta)
        mean_se = math.sqrt(var / trials)
        mu4 = bi.binomial_fourth_central_moment(n, theta)
        var_se = math.sqrt((mu4 - var**2 * (trials - 3) / (trials - 1)) / trials)
        emp_var = ens.variance
        mean_ok = abs(ens.mean - mean) <= 4 * mean_se
        var_ok = abs(emp_var - var) <= 4 * var_se
        ok &= mean_ok and var_ok
        lines.append(
            f"(N={n}, theta={theta}): mean dev {(ens.mean - mean) / mean_se:+.2f} se, "
            f"var dev {(emp_var - var) / var_se:+.2f} se"
        )
    # the analytic fourth central moment obeys the bound for every N <= 1000
    worst = -math.inf
    for theta in (0.125, 0.25, 0.5):
        ns = np.arange(1, 1001, dtype=np.float64)
        mu4 = ns * theta * (1 - theta) * (1.0 + 3.0 * (ns - 2) * theta * (1 - theta))
        bound = 3.0 * (ns * theta * (1 - theta)) ** 2 + ns * theta * (1 - theta)
        worst = max(worst, float(((mu4 - bound) / bound).max()))
    bound_ok = worst <= 1e-9
    ok &= bound_ok
    lines.append(f"kurtosis bound margin {worst:.2e}")
    _report(7, "Lemma moments", ok, "; ".join(lines))
    assert ok


def test_criterion_08_per_level_dual_gain():
    # E[int phi_k drho_k] = 2 L_k^2 2^(k-1) / N at every level (d=2, N=256)
    n, trials = 256, 200
    gains = []
    for t in range(trials):
        cloud = geo.sample_uniform(n, 1.0, 2, geo.substream_seed(MASTER_SEED, 8, t))
        gains.append(dp.per_level_gain(dy.build_tree(cloud)))
    gains = np.array(gains)
    ok = True
    devs = []
    for k in range(1, gains.shape[1] + 1):
        target = 2.0 * dy.level_scale(k, 2, 1.0) ** 2 * 2 ** (k - 1) / n
        mean = gains[:, k - 1].mean()
        se = gains[:, k - 1].std(ddof=1) / math.sqrt(trials)
        dev = (mean - target) / se
        ok &= abs(dev) <= 4.0
        devs.append(f"k={k}: {dev:+.2f} se")
    _report(8, "per-level dual gain", ok, "; ".join(devs))
    assert ok


def test_criterion_09_block_map_laws():
    # quadratic displacement law on a 21-point grid and quartic symmetrized defect
    grid = np.linspace(0.0, 2.0, 21)
    quad_ok = all(
        dy.block_map_displacement_cost(rho) <= 4.0 * (rho - 1.0) ** 2 + 1e-15 for rho in grid
    )
    eps = np.array([0.05, 0.1, 0.2])
    defects = np.array([dy.block_map_symmetrized_defect(1.0 + e) for e in eps])
    exponent = float(np.polyfit(np.log(eps), np.log(defects), 1)[0])
    quart_ok = 3.5 <= exponent <= 4.5
    ok = quad_ok and quart_ok
    _report(9, "block-map laws", ok, f"quadratic grid ok={quad_ok}, defect exponent {exponent:.3f}")
    assert ok


def test_criterion_10_gradient_check():
    # analytic gradient vs fourth-order central differences, 100 points per configuration
    h = 1e-5
    worst_all = 0.0
    ok = True
    details = []
    for dim, n in [(1, 64), (2, 256), (3, 256)]:
        cloud = geo.sample_uniform(n, 1.0, dim, geo.substream_seed(MASTER_SEED, 10, dim))
        pot = dp.hierarchical_potential(dy.build_tree(cloud))
        rng = np.random.default_rng(geo.substream_seed(MASTER_SEED, 10, dim, 1))
        pts = rng.random((100, dim))
        _, grads = dp.potential_eval_batch(pot, pts)
        worst = 0.0
        for i, x in enumerate(pts):
            fd = np.zeros(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                f = lambda p: dp.potential_eval(pot, p)[0]
                fd[j] = (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)) / (12 * h)
            denom = max(np.linalg.norm(grads[i]), np.linalg.norm(fd))
            if denom > 1e-13:
                worst = max(worst, float(np.linalg.norm(grads[i] - fd) / denom))
        ok &= worst <= 1e-4
        worst_all = max(worst_all, worst)
        details.append(f"d={dim}: {worst:.2e}")
    _report(10, "gradient check", ok, "; ".join(details) + " (tol 1e-4)")
    assert ok
