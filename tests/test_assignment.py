from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import assignment as asg
from pointmatch import geometry as geo
from pointmatch.experiments import PairConfig, matching_cost
from pointmatch.stats import EnsembleConfig, run_ensemble


def _pair(n, dim, seed, side=1.0):
    x = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 0))
    y = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 1))
    return x, y


def _cloud_from(points, side=1.0):
    pts = np.asarray(points, dtype=float)
    return geo.PointCloud(dim=pts.shape[1], side=side, points=pts, seed=0)


# --- cost matrix -----------------------------------------------------------


def test_cost_matrix_zero_diagonal_for_equal_clouds():
    x = geo.sample_uniform(6, 1.0, 2, 3)
    c = asg.cost_matrix(x, x)
    assert np.all(np.diag(c.entries) == 0.0)


def test_cost_matrix_single_pair():
    x = _cloud_from([[0.2]])
    y = _cloud_from([[0.7]])
    c = asg.cost_matrix(x, y)
    assert c.entries[0, 0] == pytest.approx(0.25)


def test_cost_matrix_matches_direct_loop():
    x, y = _pair(3, 2, 10)
    c = asg.cost_matrix(x, y)
    for n in range(3):
        for m in range(3):
            direct = sum((y.points[m, i] - x.points[n, i]) ** 2 for i in range(2))
            assert c.entries[n, m] == pytest.approx(direct, rel=1e-15)


def test_cost_matrix_size_mismatch():
    x = geo.sample_uniform(3, 1.0, 2, 0)
    y = geo.sample_uniform(4, 1.0, 2, 1)
    with pytest.raises(ValueError):
        asg.cost_matrix(x, y)


# --- brute force -----------------------------------------------------------


def test_bruteforce_identity_clouds():
    x = geo.sample_uniform(5, 1.0, 2, 8)
    plan = asg.match_bruteforce(asg.cost_matrix(x, x))
    assert plan.cost == pytest.approx(0.0, abs=1e-15)


def test_bruteforce_single_point():
    x = _cloud_from([[0.1, 0.9]])
    y = _cloud_from([[0.4, 0.5]])
    c = asg.cost_matrix(x, y)
    assert asg.match_bruteforce(c).cost == pytest.approx(c.entries[0, 0])


def test_bruteforce_refuses_large_instance():
    x = geo.sample_uniform(11, 1.0, 2, 0)
    with pytest.raises(ValueError, match="10"):
        asg.match_bruteforce(asg.cost_matrix(x, x))


# --- solver ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_solver_matches_bruteforce(seed):
    n = 1 + seed % 8
    x, y = _pair(n, 2, seed)
    c = asg.cost_matrix(x, y)
    assert asg.match_solver(c).cost == pytest.approx(asg.match_bruteforce(c).cost, abs=1e-10)


def test_solver_rejects_nonfinite():
    c = asg.CostMatrix(2, np.array([[0.0, np.inf], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        asg.match_solver(c)


@pytest.mark.parametrize("seed", range(6))
def test_monotone_matching_is_optimal_in_1d(seed):
    x, y = _pair(7, 1, seed)
    mono = asg.monotone_matching_1d(x, y)
    brute = asg.match_bruteforce(asg.cost_matrix(x, y))
    assert mono.cost == pytest.approx(brute.cost, rel=1e-12)
    solver = asg.match_solver(asg.cost_matrix(x, y))
    assert mono.cost == pytest.approx(solver.cost, rel=1e-12)


def test_d1_closed_form_n10():
    # E[(1/N) min sum |Y - X|^2] = 1/(3(N+1)) for uniform clouds on [0,1]
    cfg = PairConfig(n=10, dim=1)
    from functools import partial

    ens = run_ensemble(EnsembleConfig(trials=10_000, master_seed=123), partial(matching_cost, cfg))
    target = 1.0 / 33.0
    assert abs(ens.mean - target) <= 3 * ens.stderr


# --- LP --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_lp_equals_bruteforce(seed):
    n = 2 + seed % 5
    x, y = _pair(n, 2, 100 + seed)
    c = asg.cost_matrix(x, y)
    lp = asg.match_lp(c)
    assert lp.cost == pytest.approx(asg.match_bruteforce(c).cost, abs=1e-9)
    assert np.allclose(lp.weights.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(lp.weights.sum(axis=1), 1.0, atol=1e-9)


def test_lp_identity_instance():
    x = geo.sample_uniform(4, 1.0, 2, 5)
    lp = asg.match_lp(asg.cost_matrix(x, x))
    assert lp.cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(lp.weights, np.eye(4), atol=1e-9)


def test_lp_two_by_two_diagonal():
    c = asg.CostMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    lp = asg.match_lp(c)
    assert lp.cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(lp.weights, np.eye(2), atol=1e-9)


def test_lp_equals_solver_at_size_limit():
    x, y = _pair(asg.LP_SIZE_LIMIT, 2, 64)
    c = asg.cost_matrix(x, y)
    assert asg.match_lp(c).cost == pytest.approx(asg.match_solver(c).cost, abs=1e-9)


def test_lp_solver_failure_raises(monkeypatch):
    failed = SimpleNamespace(status=2, message="infeasible")
    monkeypatch.setattr(asg, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(RuntimeError, match="infeasible"):
        asg.match_lp(asg.CostMatrix(2, np.eye(2)))


def test_lp_refuses_large_instance():
    x = geo.sample_uniform(65, 1.0, 2, 0)
    with pytest.raises(ValueError, match="64"):
        asg.match_lp(asg.cost_matrix(x, x))


# --- rounding couplings to permutations -------------------------------------


def test_round_keeps_permutation_input():
    x, y = _pair(4, 2, 3)
    plan = asg.match_solver(asg.cost_matrix(x, y))
    assert asg.round_to_permutation(plan, asg.cost_matrix(x, y)) is plan


def test_round_half_cycle_coupling():
    # the classic 3x3 all-half coupling rounds to an integral permutation
    w = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    c = asg.CostMatrix(3, np.arange(9, dtype=float).reshape(3, 3))
    plan = asg.TransportPlan(kind="coupling", cost=asg.coupling_cost(c, w), weights=w)
    rounded = asg.round_to_permutation(plan, c)
    assert sorted(rounded.perm.tolist()) == [0, 1, 2]
    assert rounded.cost <= plan.cost + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_round_random_mixtures_never_increase_cost(seed):
    rng = np.random.default_rng(seed)
    n = 5
    w = np.zeros((n, n))
    for lam in rng.dirichlet(np.ones(3)):
        p = rng.permutation(n)
        w[np.arange(n), p] += lam
    x, y = _pair(n, 2, 200 + seed)
    c = asg.cost_matrix(x, y)
    plan = asg.TransportPlan(kind="coupling", cost=asg.coupling_cost(c, w), weights=w)
    rounded = asg.round_to_permutation(plan, c)
    brute = asg.match_bruteforce(c)
    assert rounded.cost <= plan.cost + 1e-9
    assert rounded.cost >= brute.cost - 1e-12


def test_round_lp_output_with_degenerate_ties():
    # duplicate points force ties; the rounded cost must equal the LP value
    pts = np.array([[0.25, 0.25], [0.25, 0.25], [0.75, 0.75], [0.1, 0.9], [0.9, 0.1]])
    x = _cloud_from(pts)
    y = _cloud_from(pts[::-1].copy())
    c = asg.cost_matrix(x, y)
    lp = asg.match_lp(c)
    rounded = asg.round_to_permutation(lp, c)
    assert rounded.cost == pytest.approx(lp.cost, abs=1e-9)


# --- invariants ------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_enumeration_invariance(seed):
    # permuting the input order changes sigma but not the optimal cost
    rng = np.random.default_rng(seed)
    x, y = _pair(6, 2, int(rng.integers(2**31)))
    cost = asg.match_solver(asg.cost_matrix(x, y)).cost
    order = rng.permutation(6)
    x_shuffled = geo.PointCloud(dim=2, side=1.0, points=x.points[order], seed=0)
    shuffled_cost = asg.match_solver(asg.cost_matrix(x_shuffled, y)).cost
    assert shuffled_cost == pytest.approx(cost, rel=1e-12, abs=1e-15)


def test_plan_costs_match_recomputation():
    # the stored cost always equals the objective recomputed from the plan
    x, y = _pair(6, 2, 91)
    c = asg.cost_matrix(x, y)
    solver = asg.match_solver(c)
    assert solver.cost == pytest.approx(asg.perm_cost(c, solver.perm), rel=1e-12)
    lp = asg.match_lp(c)
    assert lp.cost == pytest.approx(asg.coupling_cost(c, lp.weights), rel=1e-12)


def test_zero_cost_iff_equal_multisets():
    x = geo.sample_uniform(8, 1.0, 2, 77)
    order = np.random.default_rng(0).permutation(8)
    y = geo.PointCloud(dim=2, side=1.0, points=x.points[order], seed=1)
    assert asg.match_solver(asg.cost_matrix(x, y)).cost == pytest.approx(0.0, abs=1e-15)
    z = geo.sample_uniform(8, 1.0, 2, 78)
    assert asg.match_solver(asg.cost_matrix(x, z)).cost > 0.0
