import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import assignment as asg
from pointmatch import dual_potential as dp
from pointmatch import dyadic_transport as dy
from pointmatch import geometry as geo


def _cloud_from(points, side=1.0):
    pts = np.asarray(points, dtype=float)
    return geo.PointCloud(dim=pts.shape[1], side=side, points=pts, seed=0)


def _potential(n, dim, seed, side=1.0):
    cloud = geo.sample_uniform(n, side, dim, seed)
    return cloud, dp.hierarchical_potential(dy.build_tree(cloud))


# --- the reference bump -------------------------------------------------------


def test_zeta_vanishes_to_second_order_at_support_ends():
    for x in (0.0, 1.0, -0.3, 1.7):
        v, d1, d2 = dp.zeta(x)
        assert v == d1 == d2 == 0.0


def test_zeta_midpoint_value():
    v, _, _ = dp.zeta(0.5)
    assert v == pytest.approx(140.0 / 64.0)


def test_zeta_integrates_to_one():
    # Beta-integral oracle: int x^3 (1-x)^3 = 1/140
    xs = np.linspace(0.0, 1.0, 100_001)
    vals, _, _ = dp.zeta(xs)
    assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-10)


@given(x=st.floats(-1.0, 2.0), h=st.floats(1e-7, 1e-6))
@settings(max_examples=200, deadline=None)
def test_zeta_derivatives_consistent(x, h):
    vp, d1p, _ = dp.zeta(x + h)
    vm, d1m, _ = dp.zeta(x - h)
    v, d1, d2 = dp.zeta(x)
    assert (vp - vm) / (2 * h) == pytest.approx(d1, abs=1e-4)
    assert (d1p - d1m) / (2 * h) == pytest.approx(d2, abs=1e-3)


def test_zeta_antiderivative_endpoints():
    assert dp.zeta_antiderivative(-1.0) == 0.0
    assert dp.zeta_antiderivative(0.0) == 0.0
    assert dp.zeta_antiderivative(1.0) == 1.0
    assert dp.zeta_antiderivative(2.0) == 1.0


# --- the block potential ------------------------------------------------------


def test_phi_block_vanishes_at_balance():
    xs = np.linspace(0.0, 2.0, 17)
    assert np.all(dp.phi_block(1.0, xs) == 0.0)


def test_phi_block_antisymmetry():
    xs = np.linspace(0.0, 2.0, 33)
    assert np.allclose(dp.phi_block(2.0 - 1.3, xs), -dp.phi_block(1.3, xs), atol=1e-14)


def test_phi_block_integrals():
    # int phi drho = 2 (rho - 1)^2 against the two-slab density; int phi dx = 0
    rho = 1.5
    xs = np.linspace(0.0, 2.0, 400_001)
    phi = dp.phi_block(rho, xs)
    dens = np.where(xs <= 1.0, rho, 2.0 - rho)
    assert np.trapezoid(phi * dens, xs) == pytest.approx(2 * (rho - 1) ** 2, abs=1e-6)
    assert np.trapezoid(phi, xs) == pytest.approx(0.0, abs=1e-8)


# --- hierarchical potential ----------------------------------------------------


def test_level_zero_potential_is_zero():
    cloud, _ = _potential(64, 2, 1)
    pot0 = dp.hierarchical_potential(dy.build_tree(cloud), level=0)
    vals, grads = dp.potential_eval_batch(pot0, np.random.default_rng(0).random((10, 2)))
    assert np.all(vals == 0.0)
    assert np.all(grads == 0.0)


def central_difference_gradient(pot, x, h):
    """Fourth-order central differences of the potential value."""
    dim = x.size
    fd = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        f = lambda p: dp.potential_eval(pot, p)[0]
        fd[i] = (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)) / (12 * h)
    return fd


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 256), (3, 256)])
def test_gradient_matches_central_differences(dim, n):
    cloud, pot = _potential(n, dim, 7 + dim)
    rng = np.random.default_rng(13)
    pts = rng.random((100, dim))
    _, grads = dp.potential_eval_batch(pot, pts)
    worst = 0.0
    for k, x in enumerate(pts):
        fd = central_difference_gradient(pot, x, 1e-5)
        denom = max(np.linalg.norm(grads[k]), np.linalg.norm(fd))
        if denom > 1e-13:
            worst = max(worst, np.linalg.norm(grads[k] - fd) / denom)
    assert worst <= 1e-4


def test_level_terms_vanish_on_parent_box_boundaries():
    # the level-k term is supported strictly inside level-(k-1) boxes: on any
    # face of those boxes it vanishes together with its gradient
    cloud, pot = _potential(256, 2, 3)
    tree = pot.tree
    rng = np.random.default_rng(8)
    for level in range(1, tree.k_star + 1):
        below = dp.hierarchical_potential(tree, level=level - 1)
        at = dp.hierarchical_potential(tree, level=level)
        sides = dy.level_sides(level - 1, 2, 1.0)
        for axis in (0, 1):
            x = rng.random(2)
            x[axis] = sides[axis] * rng.integers(0, round(1.0 / sides[axis]) + 1)
            v_hi, g_hi = dp.potential_eval(at, x)
            v_lo, g_lo = dp.potential_eval(below, x)
            assert v_hi - v_lo == pytest.approx(0.0, abs=1e-15)
            assert np.allclose(g_hi - g_lo, 0.0, atol=1e-12)


def test_spatial_mean_is_zero():
    cloud, pot = _potential(256, 2, 11)
    rng = np.random.default_rng(4)
    xs = rng.random((200_000, 2))
    vals, _ = dp.potential_eval_batch(pot, xs)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean()) <= 4 * se


def test_balanced_counts_give_zero_gain():
    pts = np.array([[0.125], [0.375], [0.625], [0.875]])
    cloud = _cloud_from(pts)
    pot = dp.hierarchical_potential(dy.build_tree(cloud))
    report = dp.lower_bound_functional(cloud, pot)
    assert report.point_mean == 0.0
    assert report.sup_grad_sq == 0.0


def test_zero_mean_identity_over_seeds():
    """E[(1/N) sum Phi(X_n) - int Phi drho_(k*)] = 0; the density integral is
    computed in closed form, so the only noise is across seeds."""
    trials = 1000
    diffs = np.empty(trials)
    for t in range(trials):
        cloud = geo.sample_uniform(128, 1.0, 2, geo.substream_seed(29, t))
        pot = dp.hierarchical_potential(dy.build_tree(cloud))
        vals, _ = dp.potential_eval_batch(pot, cloud.points)
        diffs[t] = vals.mean() - dp.integral_against_density(pot)
    se = diffs.std(ddof=1) / math.sqrt(trials)
    assert abs(diffs.mean()) <= 4 * se


def test_per_level_gain_identity():
    # E[per-level gain] = 2 L_k^2 2^(k-1) / N at every level
    n, trials = 256, 200
    gains = []
    for t in range(trials):
        cloud = geo.sample_uniform(n, 1.0, 2, geo.substream_seed(31, t))
        gains.append(dp.per_level_gain(dy.build_tree(cloud)))
    gains = np.array(gains)
    for k in range(1, gains.shape[1] + 1):
        target = 2.0 * dy.level_scale(k, 2, 1.0) ** 2 * 2 ** (k - 1) / n
        mean = gains[:, k - 1].mean()
        se = gains[:, k - 1].std(ddof=1) / math.sqrt(trials)
        assert abs(mean - target) <= 4 * se, f"level {k}: {mean} vs {target}"


def test_mean_gain_positive_with_log_shape():
    # d = 2: mean gain grows like r^2 k_*, i.e. like ln N / N
    trials = 200
    means = {}
    for n in (64, 256):
        gains = np.empty(trials)
        for t in range(trials):
            cloud = geo.sample_uniform(n, 1.0, 2, geo.substream_seed(37 + n, t))
            pot = dp.hierarchical_potential(dy.build_tree(cloud))
            vals, _ = dp.potential_eval_batch(pot, cloud.points)
            gains[t] = vals.mean()
        means[n] = gains.mean()
        k_star = dy.stopping_level(n, 2)
        assert gains.mean() > 0
        means[n] /= (1.0 / n) * k_star  # r^2 k_*
    ratio = max(means.values()) / min(means.values())
    assert ratio <= 4.0


def test_martingale_cancellation_of_gradients():
    """E[grad phi_k(x) | N_Q at level k-1] = 0: stratify seeds by the count of
    the box containing x and test each stratum mean against zero."""
    n, level, trials = 64, 3, 4000
    x = np.array([0.31, 0.57])
    per_count = {}
    for t in range(trials):
        cloud = geo.sample_uniform(n, 1.0, 2, geo.substream_seed(41, t))
        tree = dy.build_tree(cloud)
        pot_k = dp.hierarchical_potential(tree, level=level)
        pot_km1 = dp.hierarchical_potential(tree, level=level - 1)
        _, gk = dp.potential_eval(pot_k, x)
        _, gkm1 = dp.potential_eval(pot_km1, x)
        grad_phi = gk - gkm1
        box = int(dy.box_index_of_points(x, 1.0, 2, level - 1)[0])
        nq = int(tree.counts[level - 1][box])
        per_count.setdefault(nq, []).append(grad_phi)
    checked = 0
    for nq, grads in per_count.items():
        grads = np.array(grads)
        if len(grads) < 100:
            continue
        se = grads.std(axis=0, ddof=1) / math.sqrt(len(grads))
        assert np.all(np.abs(grads.mean(axis=0)) <= 4 * np.maximum(se, 1e-15)), nq
        checked += 1
    assert checked >= 3


# --- certificates ---------------------------------------------------------------


def test_dual_bound_zero_for_identical_clouds():
    cloud, pot = _potential(32, 2, 51)
    assert dp.dual_lower_bound(cloud, cloud, pot) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_dual_bound_below_bruteforce_d1(seed):
    x = geo.sample_uniform(6, 1.0, 1, geo.substream_seed(60 + seed, 0))
    y = geo.sample_uniform(6, 1.0, 1, geo.substream_seed(60 + seed, 1))
    pot = dp.hierarchical_potential(dy.build_tree(x))
    bound = dp.dual_lower_bound(x, y, pot)
    exact = asg.match_bruteforce(asg.cost_matrix(x, y)).cost
    assert bound <= exact


@pytest.mark.parametrize("seed", range(5))
def test_dual_bound_below_solver_d2(seed):
    x = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(70 + seed, 0))
    y = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(70 + seed, 1))
    pot = dp.hierarchical_potential(dy.build_tree(x))
    bound = dp.dual_lower_bound(x, y, pot)
    exact = asg.match_solver(asg.cost_matrix(x, y)).cost
    assert bound <= exact


def test_potential_requires_matching_cloud():
    x, pot = _potential(16, 2, 80)
    z = geo.sample_uniform(16, 1.0, 2, 81)
    with pytest.raises(ValueError):
        dp.dual_lower_bound(z, x, pot)


def test_sup_grad_reporting_both_orders():
    # E[sup |grad|^2] and sup_x E[|grad(x)|^2] are both reported; no ordering asserted
    sups = []
    grid_acc = None
    for t in range(20):
        cloud = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(91, t))
        pot = dp.hierarchical_potential(dy.build_tree(cloud))
        _, vals = dp.grad_sq_on_grid(pot)
        sups.append(vals.max())
        grid_acc = vals if grid_acc is None else grid_acc + vals
    mean_sup = float(np.mean(sups))
    sup_mean = float((grid_acc / 20).max())
    assert mean_sup > 0 and sup_mean > 0
