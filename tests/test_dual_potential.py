import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import assignment as asg
from pointmatch import cli
from pointmatch import dual_potential as dp
from pointmatch import dyadic_transport as dy
from pointmatch import geometry as geo
from pointmatch.dual_potential import DualPotential, _times_product, _zeta_d1, _zeta_val
from pointmatch.dyadic_transport import level_scale, level_sides, split_coordinate


def _cloud_from(points, side=1.0):
    pts = np.asarray(points, dtype=float)
    return geo.PointCloud(dim=pts.shape[1], side=side, points=pts)


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


def test_block_and_level_out_of_range_are_rejected():
    for rho in (-0.1, 2.1, math.nan):
        with pytest.raises(ValueError, match="rho_minus must lie in"):
            dp.phi_block(rho, 0.5)
    tree = dy.build_tree(geo.sample_uniform(64, 1.0, 2, 7))
    for level in (-1, tree.k_star + 1):
        with pytest.raises(ValueError, match=rf"level must lie in \[0, {tree.k_star}\]"):
            DualPotential(tree, level)


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


# --- the level-by-level walk, oracle of the stacked evaluator ----------------------


def _level_terms(p: DualPotential, xs: list, level: int, b, lo: list):
    """Value and gradient contributions of the level-`level` potential.

    xs holds one coordinate array per axis, and the arrays broadcast against
    each other: all of shape (N,) for a batch of points, or each laid along
    its own axis for a tensor grid, where every one-variable factor is then
    evaluated once per axis value. b is the index of the level-(level-1) box
    holding each point, lo one lower-corner array per axis shaped like that
    axis's coordinates (a box's extent along axis i depends on coordinate i
    alone). Returns (value, gradient per axis, child box index) and advances
    lo in place to the child box, for the next level.
    """
    tree = p.tree
    d, side = tree.dim, tree.side
    c = split_coordinate(level, d)
    lk = level_scale(level, d, side)
    parent_sides = level_sides(level - 1, d, side)

    amp = tree.rho_left(level)[b] - 1.0

    u = (xs[c] - lo[c]) / lk
    fu = _zeta_val(u) - _zeta_val(u - 1.0)
    fu_d = _zeta_d1(u) - _zeta_d1(u - 1.0)

    others = [i for i in range(d) if i != c]
    ws = {i: (xs[i] - lo[i]) / parent_sides[i] for i in others}
    zvals = {i: _zeta_val(w) for i, w in ws.items()}
    zders = {i: _zeta_d1(w) for i, w in ws.items()}

    scaled = lk**2 * amp * fu
    value = _times_product(scaled, [zvals[i] for i in others])
    grad = [None] * d
    grad[c] = _times_product(lk * amp * fu_d, [zvals[i] for i in others])
    for i in others:
        grad[i] = _times_product(scaled * zders[i] / parent_sides[i], [zvals[j] for j in others if j != i])

    go_right = (xs[c] >= lo[c] + lk).astype(np.int64)
    lo[c] = lo[c] + go_right * lk
    return value, grad, 2 * b + go_right


def _level_walk(p: DualPotential, xs: list):
    """Yield (value, gradient per axis) of each level's term at broadcasting coordinates xs."""
    b = np.zeros((), dtype=np.int64)
    lo = [np.zeros_like(x) for x in xs]
    for level in range(1, p.level + 1):
        value, grad, b = _level_terms(p, xs, level, b, lo)
        yield value, grad


def _walk_batch(pot, xs):
    """Values and gradients of Phi by the level-by-level walk, one level's arrays at a time."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    values, grads = np.zeros(xs.shape[0]), np.zeros_like(xs)
    for v, g in _level_walk(pot, list(xs.T)):
        values += v
        for i, gi in enumerate(g):
            grads[:, i] += gi
    return values, grads


def _bits(a):
    return a.view(np.uint64)  # compares signed zeros too


@pytest.mark.parametrize("side", [1.0, 2.5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_stacked_evaluator_is_bit_identical_to_level_walk(dim, side):
    rng = np.random.default_rng(dim)
    # N = 1 and N < 2^d stop at the root (k* = 0)
    for n in (1, 2**dim - 1, 2**dim, 64, 4096):
        cloud, pot = _potential(n, dim, 60 + n + dim, side)
        # the cloud, fresh points, and lattice points on the dyadic faces
        faces = np.floor(rng.random((300, dim)) * 16) / 16 * side
        pts = np.concatenate([cloud.points, rng.random((n, dim)) * side, faces])
        want_values, want_grads = _walk_batch(pot, pts)
        values, grads = dp.potential_eval_batch(pot, pts)
        assert np.array_equal(_bits(values), _bits(want_values))
        assert np.array_equal(_bits(grads), _bits(want_grads))
        assert grads.flags.c_contiguous
        assert np.array_equal(_bits(dp.potential_values(pot, pts)), _bits(want_values))
        for level in (0, pot.tree.k_star // 2):
            below = dp.hierarchical_potential(pot.tree, level=level)
            assert np.array_equal(_bits(dp.potential_values(below, pts)), _bits(_walk_batch(below, pts)[0]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluation_in_slices_is_bit_identical_to_one_slice(dim, monkeypatch):
    _, pot = _potential(4096, dim, 70 + dim)
    pts = np.random.default_rng(dim).random((1000, dim))
    assert len(pts) <= dp.EVAL_SLICE_POINTS
    (want_values, want_grads), want_alone = dp.potential_eval_batch(pot, pts), dp.potential_values(pot, pts)
    monkeypatch.setattr(dp, "EVAL_SLICE_POINTS", 7)
    values, grads = dp.potential_eval_batch(pot, pts)
    assert np.array_equal(_bits(values), _bits(want_values))
    assert np.array_equal(_bits(grads), _bits(want_grads))
    assert grads.flags.c_contiguous
    assert np.array_equal(_bits(dp.potential_values(pot, pts)), _bits(want_alone))


_EVAL_RSS_PROBE = """
import numpy as np
from pointmatch import dual_potential as dp, dyadic_transport as dy, geometry as geo
pot = dp.hierarchical_potential(dy.build_tree(geo.sample_uniform(1 << 12, 1.0, 3, geo.substream_seed(8, 0))))
xs = np.random.default_rng(0).random((200_000, 3))
before = peak_kib()
dp.potential_eval_batch(pot, xs)
dp.potential_values(pot, xs)
print(peak_kib() - before)
"""


_GRID_RSS_PROBE = """
from pointmatch import dual_potential as dp, dyadic_transport as dy, geometry as geo
pot = dp.hierarchical_potential(dy.build_tree(geo.sample_uniform(512, 1.0, 3, geo.substream_seed(8, 0))))
before = peak_kib()
axis, _ = dp.grad_sq_on_grid(pot)
assert axis.size == 65
print(peak_kib() - before)
"""


def test_potential_evaluation_peak_memory_is_bounded(peak_growth_mb):
    # d = 3, 10 levels, 200,000 points: evaluating every point at once grew the peak by about 400 MB
    assert peak_growth_mb(_EVAL_RSS_PROBE) < 60


def test_gradient_grid_peak_memory_is_bounded(peak_growth_mb):
    # d = 3, N = 512, 65^3 = 274,625 grid points: evaluating the whole grid at once grew the peak by about 400 MB
    assert peak_growth_mb(_GRID_RSS_PROBE) < 60


def test_lower_bound_gain_builds_no_gradient(capsys, monkeypatch):
    def forbidden(x):
        raise AssertionError("a gradient of the potential was built")

    monkeypatch.setattr(dp, "_zeta_d1", forbidden)
    code = cli.run(["lower-bound", "--dim", "2", "--n", "64", "--seeds", "3", "--seed", "4"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(json.loads(out)["results"]) == 3


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
    report = dp.lower_bound_functional(pot, cloud)
    assert report.gain == 0.0
    assert report.sup_grad_sq == 0.0
    assert report.gap == 0.0
    assert report.lower_bound == 0.0


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


def test_integral_against_density_rejects_levels_outside_its_range():
    tree = dy.build_tree(geo.sample_uniform(64, 1.0, 2, 7))
    pot = dp.hierarchical_potential(tree, level=2)
    for k in (pot.level, tree.k_star):
        assert math.isfinite(dp.integral_against_density(pot, at_level=k))
    for k in (pot.level - 1, tree.k_star + 1):
        with pytest.raises(ValueError, match=rf"density level {k} outside \[2, {tree.k_star}\]"):
            dp.integral_against_density(pot, at_level=k)


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
        box = int(dy.box_index_of_points(x, 1.0, level - 1)[0][0])
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
    assert dp.dual_lower_bound(pot, cloud) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_dual_bound_below_bruteforce_d1(seed):
    x = geo.sample_uniform(6, 1.0, 1, geo.substream_seed(60 + seed, 0))
    y = geo.sample_uniform(6, 1.0, 1, geo.substream_seed(60 + seed, 1))
    pot = dp.hierarchical_potential(dy.build_tree(x))
    bound = dp.dual_lower_bound(pot, y)
    exact = asg.match_bruteforce(asg.cost_matrix(x, y))
    assert bound <= exact


@pytest.mark.parametrize("seed", range(5))
def test_dual_bound_below_solver_d2(seed):
    x = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(70 + seed, 0))
    y = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(70 + seed, 1))
    pot = dp.hierarchical_potential(dy.build_tree(x))
    bound = dp.dual_lower_bound(pot, y)
    c = asg.cost_matrix(x, y)
    exact = asg.perm_cost(c, asg.match_solver(c))
    assert bound <= exact


# --- the sup-gradient grid -------------------------------------------------------


def _grid_oracle(pot, spacing_divisor=8):
    """|grad Phi|^2 point by point: potential_eval_batch on every meshgrid point."""
    tree = pot.tree
    h = dy.level_scale(tree.k_star, tree.dim, tree.side) / spacing_divisor
    axis = np.linspace(0.0, tree.side, int(round(tree.side / h)) + 1)
    pts = np.stack([m.ravel() for m in np.meshgrid(*[axis] * tree.dim, indexing="ij")], axis=1)
    _, grads = dp.potential_eval_batch(pot, pts)
    return axis, (grads**2).sum(axis=1)


@pytest.mark.parametrize("level", ["k_star", 0, 1, "k_star-2"])
@pytest.mark.parametrize("divisor", [1, 3, 8])
@pytest.mark.parametrize("side", [1.0, 2.5])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 256), (3, 64)])
def test_grid_is_bit_identical_to_pointwise_oracle(dim, n, side, divisor, level):
    _, pot = _potential(n, dim, 17 + dim, side)
    k_star = pot.tree.k_star
    pot = dp.hierarchical_potential(pot.tree, level={"k_star": k_star, "k_star-2": k_star - 2}.get(level, level))
    axis, vals = dp.grad_sq_on_grid(pot, divisor)
    want_axis, want_vals = _grid_oracle(pot, divisor)
    assert np.array_equal(axis, want_axis)
    assert axis[0] == 0.0 and axis[-1] == side
    assert np.array_equal(vals, want_vals)
    if level == "k_star":
        assert vals.max() > 0


def test_lower_bound_functional_is_bit_identical_through_pointwise_grid(monkeypatch):
    pairs = []
    for t in range(3):
        _, pot = _potential(64, 3, geo.substream_seed(5, t, 0))
        pairs.append((pot, geo.sample_uniform(64, 1.0, 3, geo.substream_seed(5, t, 1))))
    fast = [dp.lower_bound_functional(pot, y) for pot, y in pairs]
    monkeypatch.setattr(dp, "grad_sq_on_grid", _grid_oracle)
    oracle = [dp.lower_bound_functional(pot, y) for pot, y in pairs]
    for a, b in zip(fast, oracle):
        assert a == b
        assert a.lower_bound > 0


def test_one_batch_gain_and_gap_equal_separate_batches():
    x, pot = _potential(256, 2, 23)
    y = geo.sample_uniform(256, 1.0, 2, 24)
    report = dp.lower_bound_functional(pot, y)
    vx, _ = dp.potential_eval_batch(pot, x.points)
    vy, _ = dp.potential_eval_batch(pot, y.points)
    gap = float(vx.mean() - vy.mean())
    assert gap > 0
    assert report.gain == float(vx.mean())
    assert report.gap == gap
    assert report.lower_bound == gap**2 / report.sup_grad_sq
    assert report.lower_bound == dp.dual_lower_bound(pot, y)


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


def test_transport_side_does_not_load_the_solver():
    # the dyadic map and the potential need nothing of the exact solver or of scipy.optimize
    src = str(Path(dp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, pointmatch.geometry, pointmatch.dyadic_transport, pointmatch.dual_potential; "
        "print([m for m in ('pointmatch.assignment', 'scipy.optimize') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
