import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from pointmatch import assignment as asg
from pointmatch import geometry as geo
from pointmatch.experiments import PairConfig, matching_cost
from pointmatch.stats import run_ensemble


def _pair(n, dim, seed, side=1.0):
    x = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 0))
    y = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 1))
    return x, y


def _cloud_from(points, side=1.0):
    pts = np.asarray(points, dtype=float)
    return geo.PointCloud(dim=pts.shape[1], side=side, points=pts)


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
    # scipy itself accepts a +inf that a permutation avoids, so the check is the solver's own
    asg.linear_sum_assignment(np.array([[0.0, np.inf], [1.0, 0.0]]))
    for bad in (np.inf, -np.inf, np.nan):
        c = asg.CostMatrix(2, np.array([[0.0, bad], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            asg.match_solver(c)


def test_solver_gets_the_entries_without_a_copy(monkeypatch):
    # scipy copies a read-only cost matrix, so the entries must reach it writable and as they are
    c = asg.cost_matrix(*_pair(32, 2, 5))
    seen = []

    def spy(cost):
        seen.append(cost)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(asg, "linear_sum_assignment", spy)
    plan = asg.match_solver(c)
    assert seen[0] is c.entries
    assert c.entries.flags.writeable
    assert plan.cost == asg.perm_cost(c, plan.perm)
    e = np.eye(3)
    assert asg.CostMatrix(3, e).entries is e


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

    ens = run_ensemble(partial(matching_cost, cfg), 10_000, 123)
    target = 1.0 / 33.0
    assert abs(ens.mean - target) <= 3 * ens.stderr


# --- warm start -------------------------------------------------------------


def _plain_optimum(x, y):
    return asg.match_solver(asg.cost_matrix(x, y)).cost


def _lattice_pair(n, dim, steps, side, seed):
    # every coordinate is a multiple of side/steps, so the clouds are full of tied permutations
    rng = np.random.default_rng(seed)
    return tuple(_cloud_from(rng.integers(0, steps + 1, (n, dim)) * (side / steps), side) for _ in range(2))


@pytest.mark.parametrize("dim", range(2, 13))
def test_pair_cost_matches_the_cost_matrix_bit_for_bit(dim):
    # d >= 8 is where a plain sum over the axes would switch to numpy's unrolled pairwise order
    x, y = _pair(200, dim, 40 + dim, side=2.5)
    c = asg.cost_matrix(x, y)
    for perm in (np.arange(200), np.random.default_rng(dim).permutation(200)):
        assert asg.pair_cost(x, y, perm) == asg.perm_cost(c, perm)


_WARM_N = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64]
_WARM_N += [80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 768, 1024]


@pytest.mark.parametrize("side", [1.0, 2.5])
@pytest.mark.parametrize("dim", [2, 3, 4, 6, 9, 12])
def test_warm_start_equals_the_plain_solve(dim, side):
    for n in _WARM_N:
        x = geo.sample_uniform(n, side, dim, geo.substream_seed(31, dim, n, 0))
        y = geo.sample_uniform(n, side, dim, geo.substream_seed(31, dim, n, 1))
        f = asg.poisson_dual(x, y)
        if f is not None:
            assert f.shape == (n,) and np.all(np.isfinite(f))
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y), (dim, side, n)


@pytest.mark.parametrize("steps", [4, 8])
def test_warm_start_equals_the_plain_solve_on_dyadic_lattices(steps):
    # dyadic steps make every entry and sum exact, so tied permutations cost exactly the same
    for seed in range(10):
        x, y = _lattice_pair(40 + 25 * seed, 2 + seed % 2, steps, (1.0, 2.5)[seed % 2], seed)
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y), seed


@pytest.mark.parametrize("steps", [3, 7])
def test_warm_start_on_other_lattices_is_optimal_up_to_summation_rounding(steps):
    # another tied permutation may be picked, whose rounded entries sum to a last bit of difference
    for seed in range(10):
        n = 40 + 25 * seed
        x, y = _lattice_pair(n, 2 + seed % 2, steps, (1.0, 2.5)[seed % 2], 100 + seed)
        plain = _plain_optimum(x, y)
        assert asg.optimal_cost(x, y) == pytest.approx(plain, rel=n * np.finfo(float).eps, abs=0.0), seed


def test_warm_start_with_points_on_the_boundary():
    pts = np.random.default_rng(3).random((64, 2))
    pts[:8] = [[0, 0], [1, 1], [0, 1], [1, 0], [0, 0.5], [1, 0.5], [0.5, 0], [0.5, 1]]
    for side in (1.0, 2.5):
        x = _cloud_from(pts * side, side)
        y = _cloud_from(pts[::-1] * side * np.array([1.0, 0.5]) + [0, 0.25 * side], side)
        f = asg.poisson_dual(x, y)
        assert f.shape == (64,) and np.all(np.isfinite(f))
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y)


def test_warm_start_on_identical_clouds_costs_zero():
    x = geo.sample_uniform(300, 1.0, 3, 12)
    assert np.array_equal(asg.poisson_dual(x, x), np.zeros(300))
    assert asg.optimal_cost(x, x) == 0.0


@pytest.mark.parametrize("n, dim", [(1, 2), (1, 3), (64, 12)])
def test_warm_start_falls_back_to_the_plain_solve(n, dim):
    # a grid larger than the cost matrix is not built
    x, y = _pair(n, dim, 13)
    assert asg.poisson_dual(x, y) is None
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)


def test_poisson_dual_rejects_mismatched_clouds():
    with pytest.raises(ValueError, match="differ"):
        asg.poisson_dual(*(geo.sample_uniform(n, 1.0, 2, 0) for n in (16, 17)))


# --- candidate shift ----------------------------------------------------------


@pytest.fixture
def shifts(monkeypatch):
    """Force the candidate shift at every N and record what each call returned."""
    monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
    ran = []
    shift = asg._candidate_shift

    def spy(e):
        ran.append(shift(e))
        return ran[-1]

    monkeypatch.setattr(asg, "_candidate_shift", spy)
    return ran


@pytest.mark.parametrize("side", [1.0, 2.5])
@pytest.mark.parametrize("dim", [3, 4, 6])
def test_candidate_shift_equals_the_plain_solve(shifts, dim, side):
    for n in _WARM_N:
        x = geo.sample_uniform(n, side, dim, geo.substream_seed(31, dim, n, 0))
        y = geo.sample_uniform(n, side, dim, geo.substream_seed(31, dim, n, 1))
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y), (dim, side, n)
        assert shifts[-1] == (n > asg.CANDIDATE_K), (dim, side, n)


def test_candidate_shift_equals_the_plain_solve_at_n_2048():
    # unforced: the warm-start test above reaches the shift's smallest N, 1024, in d >= 3
    x, y = _pair(2048, 3, 17)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)


def test_candidate_shift_on_identical_clouds_costs_zero(shifts):
    for dim in (3, 4):
        x = geo.sample_uniform(300, 2.5, dim, 12 + dim)
        assert asg.optimal_with_dual(x, x) == (0.0, 0.0)
    assert shifts == [True, True]


@pytest.mark.parametrize("steps", [4, 8, 3, 7])
def test_candidate_shift_on_lattices(shifts, steps):
    # dyadic steps make every entry exact, so tied permutations cost the same; other steps may differ in a last bit.
    # Handed float weights, the sparse solver looped forever on some of these clouds.
    for seed in range(10):
        n = 40 + 25 * seed
        x, y = _lattice_pair(n, 3 + seed % 2, steps, (1.0, 2.5)[seed % 2], 500 + seed)
        plain = _plain_optimum(x, y)
        if steps in (4, 8):
            assert asg.optimal_cost(x, y) == plain, seed
        else:
            assert asg.optimal_cost(x, y) == pytest.approx(plain, rel=n * np.finfo(float).eps, abs=0.0), seed
    assert len(shifts) == 10


def test_candidate_shift_skips_candidates_without_a_perfect_matching(shifts, monkeypatch):
    # one candidate per row: the rows' cheapest columns collide
    monkeypatch.setattr(asg, "CANDIDATE_K", 1)
    x, y = _pair(200, 3, 21)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert shifts == [False]


def test_candidate_shift_skips_potentials_that_do_not_settle(shifts, monkeypatch):
    monkeypatch.setattr(asg, "CANDIDATE_ROUNDS", 1)
    for dim in (3, 4):
        x, y = _pair(200, dim, 22)
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert shifts == [False, False]


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_candidate_shift_skips_clouds_no_larger_than_k(shifts, n):
    x, y = _pair(n, 3, 23)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert shifts == [False]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [1e200, -1e200])
def test_candidate_shift_passes_non_finite_entries_on_to_the_solver_check(shifts, bad):
    # a finite coordinate whose square overflows: the cloud accepts it, its cost
    # entries are +inf, and d = 12 at this N has no Poisson dual, so nothing
    # before the shift rejects the point
    x, y = _pair(asg.CANDIDATE_MIN_N, 12, 27)
    pts = x.points.copy()
    pts[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        asg.optimal_cost(_cloud_from(pts), y)
    assert shifts == [False]


def test_candidate_shift_leaves_the_matrix_alone_when_it_skips(monkeypatch):
    monkeypatch.setattr(asg, "CANDIDATE_K", 1)
    e = asg.cost_matrix(*_pair(64, 3, 24)).entries
    before = e.copy()
    assert not asg._candidate_shift(e)
    assert np.array_equal(e, before)


def test_candidate_shift_runs_only_in_d3_and_up_from_its_size(monkeypatch):
    def refuse(e):
        raise AssertionError("candidate shift entered")

    monkeypatch.setattr(asg, "_candidate_shift", refuse)
    for n, dim in [(asg.CANDIDATE_MIN_N, 2), (asg.CANDIDATE_MIN_N - 1, 3), (asg.CANDIDATE_MIN_N, 1), (300, 6)]:
        x, y = _pair(n, dim, 25)
        asg.optimal_cost(x, y)
        asg.optimal_with_dual(x, y)
    with pytest.raises(AssertionError, match="entered"):
        asg.optimal_cost(*_pair(asg.CANDIDATE_MIN_N, 3, 25))


@pytest.mark.parametrize("dim", [3, 4])
def test_candidate_shift_leaves_the_dual_terms_and_bound_alone(monkeypatch, dim):
    for n in (16, 64, 256):
        x, y = _pair(n, dim, 26 + n)
        monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
        on = asg._solve_with_dual(x, y), asg.optimal_with_dual(x, y)
        monkeypatch.setattr(asg, "CANDIDATE_MIN_N", n + 1)
        off = asg._solve_with_dual(x, y), asg.optimal_with_dual(x, y)
        assert on[0][0] == off[0][0] and on[1] == off[1]
        assert all(np.array_equal(a, b) for a, b in zip(on[0][1], off[0][1], strict=True))


def test_cli_does_not_load_the_sparse_matching():
    # scipy.sparse.csgraph is imported where the candidate shift runs, not at start-up
    src = str(Path(asg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, pointmatch.cli; print('scipy.sparse.csgraph' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# --- certified lower bound ------------------------------------------------------

_EPS = np.finfo(np.float64).eps
_CERT_N = [1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64, 100, 128, 256]


def _assert_certified(x, y):
    opt, lower = asg.optimal_with_dual(x, y)
    assert opt == asg.optimal_cost(x, y)
    assert 0.0 <= lower <= opt
    return opt, lower


@pytest.mark.parametrize("side", [1.0, 2.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_certified_lower_bound_never_exceeds_the_optimum(dim, side):
    ratios = []
    for n in _CERT_N:
        for t in range(10):
            x = geo.sample_uniform(n, side, dim, geo.substream_seed(37, dim, n, t, 0))
            y = geo.sample_uniform(n, side, dim, geo.substream_seed(37, dim, n, t, 1))
            opt, lower = _assert_certified(x, y)
            if n >= 64:
                ratios.append(lower / opt)
    # the Poisson dual's c-transform is far tighter than the nearest-neighbour floor; d = 1 is exact
    assert min(ratios) > {1: 0.999999, 2: 0.6, 3: 0.6}[dim]


@pytest.mark.parametrize("n, dim", [(1, 1), (1, 2), (1, 3), (64, 12)])
def test_certified_lower_bound_without_a_potential(n, dim):
    # N = 1 and d = 12 take f = 0: the nearest-neighbour c-transform bound
    for t in range(10):
        x, y = _pair(n, dim, 200 + t, side=(1.0, 2.5)[t % 2])
        opt, lower = _assert_certified(x, y)
        assert lower > 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_certified_lower_bound_of_identical_clouds_is_zero(dim):
    for n in (1, 17, 200):
        x = geo.sample_uniform(n, 2.5, dim, 12 + n)
        assert asg.optimal_with_dual(x, x) == (0.0, 0.0)


@pytest.mark.parametrize("steps", [4, 8, 3])
def test_certified_lower_bound_on_lattices(steps):
    # exact ties: many optimal permutations and equal minima in the c-transform
    for seed in range(10):
        x, y = _lattice_pair(40 + 25 * seed, 1 + seed % 3, steps, (1.0, 2.5)[seed % 2], 300 + seed)
        _assert_certified(x, y)


@pytest.mark.parametrize("side", [1.0, 2.5])
def test_staircase_dual_is_feasible_and_tight_entry_by_entry(side):
    for n in range(1, 9):
        for t in range(10):
            x, y = _pair(n, 1, 400 + 10 * n + t, side=side)
            u, v = asg.staircase_dual(x, y)
            c = asg.cost_matrix(x, y).entries
            # the per-entry rounding bound of the staircase, (2.51 N + 1.01) eps M
            slack = (2.51 * n + 1.01) * _EPS * (side**2 * (1 + _EPS) + np.abs(u).max() + np.abs(v).max())
            assert np.all(u[:, None] + v[None, :] <= c + slack)
            perm = asg.monotone_matching_1d(x, y).perm
            assert np.all(np.abs(u + v[perm] - c[np.arange(n), perm]) <= slack)
            brute = asg.match_bruteforce(asg.cost_matrix(x, y)).cost
            assert abs((u.sum() + v.sum()) / n - brute) <= slack


def test_staircase_dual_rejects_d2():
    with pytest.raises(ValueError, match="d = 1"):
        asg.staircase_dual(*_pair(4, 2, 0))


_OPTIMUM_RSS_PROBE = """
from pointmatch import assignment as asg, geometry as geo
x, y = (geo.sample_uniform(4096, 1.0, 3, geo.substream_seed(7, i)) for i in (0, 1))
asg.optimal_cost(*(geo.sample_uniform(64, 1.0, 3, i) for i in (0, 1)))
before = peak_kib()
asg.optimal_cost(x, y)
print(peak_kib() - before)
"""


def test_optimal_cost_peak_memory_is_one_cost_matrix(peak_growth_mb):
    # d = 3, N = 4096: a second N x N array (the potential subtracted out of place) would double the growth
    assert peak_growth_mb(_OPTIMUM_RSS_PROBE) * 2**20 < 1.2 * 8 * 4096**2


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


# --- invariants ------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_enumeration_invariance(seed):
    # permuting the input order changes sigma but not the optimal cost
    rng = np.random.default_rng(seed)
    x, y = _pair(6, 2, int(rng.integers(2**31)))
    cost = asg.match_solver(asg.cost_matrix(x, y)).cost
    order = rng.permutation(6)
    x_shuffled = geo.PointCloud(dim=2, side=1.0, points=x.points[order])
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
    y = geo.PointCloud(dim=2, side=1.0, points=x.points[order])
    assert asg.match_solver(asg.cost_matrix(x, y)).cost == pytest.approx(0.0, abs=1e-15)
    z = geo.sample_uniform(8, 1.0, 2, 78)
    assert asg.match_solver(asg.cost_matrix(x, z)).cost > 0.0
