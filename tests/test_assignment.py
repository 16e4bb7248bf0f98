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
from scipy.sparse import csgraph

from pointmatch import assignment as asg
from pointmatch import geometry as geo
from pointmatch.experiments import matching_cost
from pointmatch.stats import run_ensemble


def _pair(n, dim, seed, side=1.0):
    x = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 0))
    y = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 1))
    return x, y


def _cloud_from(points, side=1.0):
    pts = np.asarray(points, dtype=float)
    return geo.PointCloud(dim=pts.shape[1], side=side, points=pts)


def _solver_cost(c):
    return asg.perm_cost(c, asg.match_solver(c))


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
    assert asg.match_bruteforce(asg.cost_matrix(x, x)) == pytest.approx(0.0, abs=1e-15)


def test_bruteforce_single_point():
    x = _cloud_from([[0.1, 0.9]])
    y = _cloud_from([[0.4, 0.5]])
    c = asg.cost_matrix(x, y)
    assert asg.match_bruteforce(c) == pytest.approx(c.entries[0, 0])


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
    assert _solver_cost(c) == pytest.approx(asg.match_bruteforce(c), abs=1e-10)


def test_solver_rejects_nonfinite():
    # scipy itself accepts a +inf that a permutation avoids, so the check is the solver's own
    asg.linear_sum_assignment(np.array([[0.0, np.inf], [1.0, 0.0]]))
    for bad in (np.inf, -np.inf, np.nan):
        c = asg.CostMatrix(np.array([[0.0, bad], [1.0, 0.0]]))
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
    perm = asg.match_solver(c)
    assert seen[0] is c.entries
    assert c.entries.flags.writeable
    assert np.array_equal(np.sort(perm), np.arange(c.n))
    e = np.eye(3)
    m = asg.CostMatrix(e)
    assert m.entries is e and m.n == 3


@pytest.mark.parametrize("seed", range(6))
def test_optimal_cost_is_optimal_in_1d(seed):
    # d = 1 reads the cost off one sort of each cloud; brute force is the oracle
    for n in range(1, asg.BRUTE_FORCE_LIMIT + 1):
        x, y = _pair(n, 1, 20 * seed + n, side=(1.0, 2.5)[n % 2])
        c = asg.cost_matrix(x, y)
        assert asg.optimal_cost(x, y) == pytest.approx(asg.match_bruteforce(c), rel=1e-12, abs=0.0), n
        assert asg.optimal_cost(x, y) == pytest.approx(_solver_cost(c), rel=1e-12, abs=0.0), n


def test_d1_closed_form_n10():
    # E[(1/N) min sum |Y - X|^2] = 1/(3(N+1)) for uniform clouds on [0,1]
    from functools import partial

    ens = run_ensemble(partial(matching_cost, 10, 1, 1.0), 10_000, 123)
    target = 1.0 / 33.0
    assert abs(ens.mean - target) <= 3 * ens.stderr


# --- warm start -------------------------------------------------------------


def _plain_optimum(x, y):
    return _solver_cost(asg.cost_matrix(x, y))


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
    # a grid larger than the cost matrix is not built: the potential is zeros
    x, y = _pair(n, dim, 13)
    assert np.array_equal(asg.poisson_dual(x, y), np.zeros(n))
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)


def test_poisson_dual_rejects_mismatched_clouds():
    with pytest.raises(ValueError, match="differ"):
        asg.poisson_dual(*(geo.sample_uniform(n, 1.0, 2, 0) for n in (16, 17)))


# --- sparse route (d >= 3) -------------------------------------------------------
# The tests named test_candidate_shift_* test the sparse route: the prefix is that of the
# dense warm start the route replaced, kept so that these test ids stay stable.


@pytest.fixture
def sparse_calls(monkeypatch):
    """Force the sparse route at every N and record whether each call returned an optimum."""
    monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
    ran = []
    sparse_optimum = asg._sparse_optimum

    def spy(x, y, f):
        found = sparse_optimum(x, y, f)
        ran.append(found is not None)
        return found

    monkeypatch.setattr(asg, "_sparse_optimum", spy)
    return ran


@pytest.fixture
def dense_solves(monkeypatch):
    """Count the cost matrices built: each is one dense solve."""
    built = []
    build = asg.cost_matrix

    def spy(x, y):
        built.append(x.n)
        return build(x, y)

    monkeypatch.setattr(asg, "cost_matrix", spy)
    return built


@pytest.mark.parametrize("side", [1.0, 0.7, 2.5])
@pytest.mark.parametrize("dim", [3, 4, 6])
def test_candidate_shift_equals_the_plain_solve(sparse_calls, dim, side):
    for n in _WARM_N:
        x = geo.sample_uniform(n, side, dim, geo.substream_seed(31, dim, n, 0))
        y = geo.sample_uniform(n, side, dim, geo.substream_seed(31, dim, n, 1))
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y), (dim, side, n)
        assert sparse_calls[-1] == (n > asg.CANDIDATE_K), (dim, side, n)


def test_candidate_shift_equals_the_plain_solve_at_n_2048(dense_solves):
    # unforced: the warm-start test above reaches the route's smallest N, 1024, in d >= 3
    x, y = _pair(2048, 3, 17)
    cost = asg.optimal_cost(x, y)
    assert dense_solves == []
    assert cost == _plain_optimum(x, y)


def test_candidate_shift_on_identical_clouds_costs_zero(sparse_calls):
    for dim in (3, 4):
        x = geo.sample_uniform(300, 2.5, dim, 12 + dim)
        assert asg.optimal_with_dual(x, x) == (0.0, 0.0)
    assert sparse_calls == [True, True]


@pytest.mark.parametrize("steps", [4, 8, 3, 7])
def test_candidate_shift_on_lattices(sparse_calls, steps):
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
    assert sparse_calls == [True] * 10


def test_candidate_shift_skips_candidates_without_a_perfect_matching(sparse_calls, dense_solves, monkeypatch):
    # one candidate per row: the rows' cheapest columns collide, so LAPJVsp finds no full matching
    monkeypatch.setattr(asg, "CANDIDATE_K", 1)
    raised = []
    solve = csgraph.min_weight_full_bipartite_matching

    def spy(graph):
        try:
            return solve(graph)
        except ValueError:
            raised.append(True)
            raise

    monkeypatch.setattr(csgraph, "min_weight_full_bipartite_matching", spy)
    x, y = _pair(200, 3, 21)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert (sparse_calls, raised, dense_solves) == ([False], [True], [200, 200])


def test_candidate_shift_skips_potentials_that_do_not_settle(sparse_calls, dense_solves, monkeypatch):
    monkeypatch.setattr(asg, "CANDIDATE_ROUNDS", 1)
    for dim in (3, 4):
        x, y = _pair(200, dim, 22)
        assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert (sparse_calls, dense_solves) == ([False, False], [200] * 4)


def test_candidate_shift_skips_after_its_round_cap(sparse_calls, dense_solves, monkeypatch):
    # this instance adds violating edges once and solves twice
    x, y = _pair(200, 4, 23)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    monkeypatch.setattr(asg, "CHECK_ROUNDS", 1)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert (sparse_calls, dense_solves) == ([True, False], [200, 200, 200])


def _sigma_weights(graph, sigma):
    """Each row's weight on its edge to column sigma[row], and each row's set of columns."""
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    on = graph.indices == sigma[rows]
    assert np.array_equal(rows[on], np.arange(graph.shape[0]))
    return graph.data[on], [set(graph.indices[lo:hi]) for lo, hi in zip(graph.indptr[:-1], graph.indptr[1:])]


@pytest.mark.parametrize("n, dim, seed, forced", [(200, 4, 23, True), (2048, 3, 20, False)])
def test_sparse_optimum_re_solves_on_the_last_rounds_duals(dense_solves, monkeypatch, n, dim, seed, forced):
    # The second solve's weights are reduced by the first round's duals, so the first sigma's edges weigh 1
    # wherever no new edge lowered its row. A cold re-solve weighs them by their own reduced entries.
    if forced:
        monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
    graphs, sigmas = [], []
    solve = csgraph.min_weight_full_bipartite_matching

    def spy(graph):
        found = solve(graph)
        graphs.append(graph)
        sigmas.append(found[1])
        return found

    monkeypatch.setattr(csgraph, "min_weight_full_bipartite_matching", spy)
    x, y = _pair(n, dim, seed)
    cost = asg.optimal_cost(x, y)
    assert len(graphs) == 2 and dense_solves == []
    assert cost == _plain_optimum(x, y)
    cold, cold_cols = _sigma_weights(graphs[0], sigmas[0])
    warm, warm_cols = _sigma_weights(graphs[1], sigmas[0])
    kept = np.array([a == b for a, b in zip(cold_cols, warm_cols)])
    assert 0 < kept.sum() < n
    assert np.all(warm[kept] == 1.0)
    assert np.any(cold[kept] > 1.0)


def _settle_calls(monkeypatch):
    """The arguments of every `_settle` call of the forced route on an instance that solves twice."""
    monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
    calls = []
    settle = asg._settle

    def spy(*args):
        calls.append(args)
        return settle(*args)

    monkeypatch.setattr(asg, "_settle", spy)
    asg.optimal_cost(*_pair(200, 4, 23))
    monkeypatch.undo()
    return calls


def test_settle_stays_below_its_start_and_satisfies_every_edge(monkeypatch):
    # the first round starts from zeros, the second from the first round's row duals
    calls = _settle_calls(monkeypatch)
    assert len(calls) == 2 and not calls[0][3].any() and calls[1][3].any()
    lowered = -np.random.default_rng(0).random(calls[1][3].size)
    for tails, lengths, tol, start in calls:
        real = np.isfinite(lengths)
        for begin in (np.zeros(start.size), start, np.minimum(start, lowered)):
            kept = begin.copy()
            p = asg._settle(tails, lengths, tol, begin)
            assert np.array_equal(begin, kept)
            assert np.all(p <= begin)
            assert np.all((p[None, :] <= p[tails] + lengths + tol)[real])


def test_settle_keeps_its_round_cap(monkeypatch):
    calls = _settle_calls(monkeypatch)
    monkeypatch.setattr(asg, "CANDIDATE_ROUNDS", 1)
    for tails, lengths, tol, start in calls:
        assert asg._settle(tails, lengths, tol, np.zeros(start.size)) is None


def test_candidate_shift_skips_a_gap_it_cannot_certify(sparse_calls, dense_solves, monkeypatch):
    monkeypatch.setattr(asg, "CERTIFIED_GAP", 0.0)
    x, y = _pair(200, 3, 21)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert (sparse_calls, dense_solves) == ([False], [200, 200])


def _dense_with_dual(monkeypatch, x, y):
    """optimal_with_dual(x, y) by the dense route, then the sparse route forced again."""
    monkeypatch.setattr(asg, "CANDIDATE_MIN_N", x.n + 1)
    found = asg.optimal_with_dual(x, y)
    monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
    return found


@pytest.mark.parametrize("query", [0, 1])
def test_sparse_optimum_hands_over_when_the_lift_cannot_decide(sparse_calls, dense_solves, monkeypatch, query):
    # query 0 is the lift of x that gives g, query 1 the lift of y that gives h
    x, y = _pair(200, 3, 28)
    dense = _dense_with_dual(monkeypatch, x, y)
    assert asg.optimal_with_dual(x, y) == dense
    lifted_nearest = asg._lifted_nearest
    queries = []

    def unsure(*args):
        near, sure = lifted_nearest(*args)
        queries.append(len(queries))
        return near, sure & (queries[-1] != query)

    monkeypatch.setattr(asg, "_lifted_nearest", unsure)
    assert asg.optimal_with_dual(x, y) == dense
    assert (sparse_calls, dense_solves, queries) == ([True, False], [200, 200], list(range(query + 1)))


def test_sparse_optimum_stops_when_short_rows_add_no_edge(sparse_calls, dense_solves, monkeypatch):
    # the check finds row 0 short of its dual, by a value lowered far below the certified gap;
    # its nearest edges violate nothing, so the loop stops and certifies the matching it has
    x, y = _pair(200, 3, 29)
    dense = _dense_with_dual(monkeypatch, x, y)
    nearest = asg._nearest
    ks = []

    def short_first_row(tree, points, k):
        idx, v = nearest(tree, points, k)
        ks.append(k)
        if k == 1:  # the check's query of every row
            v = v.copy()
            v[0] -= 1e-13
        return idx, v

    monkeypatch.setattr(asg, "_nearest", short_first_row)
    assert asg.optimal_with_dual(x, y) == dense
    k = asg.CANDIDATE_K
    assert (sparse_calls, dense_solves, ks) == ([True], [200], [k + 1, k + 1, 1, k])


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_candidate_shift_skips_clouds_no_larger_than_k(sparse_calls, n):
    x, y = _pair(n, 3, 23)
    assert asg.optimal_cost(x, y) == _plain_optimum(x, y)
    assert sparse_calls == [False]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [1e200, -1e200])
def test_candidate_shift_passes_non_finite_entries_on_to_the_solver_check(sparse_calls, bad):
    # a finite coordinate whose square overflows: the cloud accepts it, its cost
    # entries are +inf, and d = 12 at this N has a zero Poisson dual, so nothing
    # before the sparse route rejects the point
    x, y = _pair(asg.CANDIDATE_MIN_N, 12, 27)
    pts = x.points.copy()
    pts[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        asg.optimal_cost(_cloud_from(pts), y)
    assert sparse_calls == [False]


def test_candidate_shift_leaves_the_matrix_alone_when_it_skips(monkeypatch):
    # the dense route the sparse route hands over to solves the matrix reduced by f, g and h only
    monkeypatch.setattr(asg, "CANDIDATE_MIN_N", 1)
    monkeypatch.setattr(asg, "CANDIDATE_K", 1)
    x, y = _pair(64, 3, 24)
    e = asg.cost_matrix(x, y).entries - asg.poisson_dual(x, y)[:, None]
    e -= e.min(axis=0)
    e -= e.min(axis=1)[:, None]
    solved = []
    solve = asg.match_solver

    def spy(c):
        solved.append(c.entries.copy())
        return solve(c)

    monkeypatch.setattr(asg, "match_solver", spy)
    asg.optimal_cost(x, y)
    assert len(solved) == 1 and np.array_equal(solved[0], e)


def test_candidate_shift_runs_only_in_d3_and_up_from_its_size(monkeypatch):
    def refuse(x, y, f):
        raise AssertionError("sparse route entered")

    monkeypatch.setattr(asg, "_sparse_optimum", refuse)
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


@pytest.mark.parametrize("n", [1024, 2048, 4096])
@pytest.mark.parametrize("dim", [3, 4])
def test_sparse_optimum_is_certified_and_reads_the_dense_reduction(dim, n):
    x, y = _pair(n, dim, 60 + dim)
    f = asg.poisson_dual(x, y)
    cost, g, h, gap = asg._sparse_optimum(x, y, f)
    c = asg.cost_matrix(x, y)
    e = c.entries
    e -= f[:, None]
    assert np.array_equal(g, e.min(axis=0))
    e -= g
    assert np.array_equal(h, e.min(axis=1))
    e -= h[:, None]
    dense = asg.pair_cost(x, y, asg.match_solver(c))
    assert 0.0 <= gap <= asg.CERTIFIED_GAP * cost
    assert cost - gap <= dense <= cost
    opt, lower = asg.optimal_with_dual(x, y)
    assert opt == cost
    assert 0.0 <= lower <= opt


def test_cli_does_not_load_the_sparse_matching():
    # scipy.sparse.csgraph is imported where the sparse route runs, not at start-up
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
            cost, u, v = asg.staircase_dual(x, y)
            c = asg.cost_matrix(x, y).entries
            # the per-entry rounding bound of the staircase, (2.51 N + 1.01) eps M
            slack = (2.51 * n + 1.01) * _EPS * (side**2 * (1 + _EPS) + np.abs(u).max() + np.abs(v).max())
            assert np.all(u[:, None] + v[None, :] <= c + slack)
            perm = np.empty(n, dtype=np.intp)  # the monotone matching: sorted x-points to sorted y-points
            perm[np.argsort(x.points[:, 0], kind="stable")] = np.argsort(y.points[:, 0], kind="stable")
            assert np.all(np.abs(u + v[perm] - c[np.arange(n), perm]) <= slack)
            brute = asg.match_bruteforce(asg.cost_matrix(x, y))
            assert abs((u.sum() + v.sum()) / n - brute) <= slack
            assert abs(cost - brute) <= slack


def test_staircase_dual_rejects_d2():
    with pytest.raises(ValueError, match="d = 1"):
        asg.staircase_dual(*_pair(4, 2, 0))


_OPTIMUM_RSS_PROBE = """
from pointmatch import assignment as asg, geometry as geo
x, y = (geo.sample_uniform(4096, 1.0, DIM, geo.substream_seed(7, i)) for i in (0, 1))
asg.optimal_cost(*(geo.sample_uniform(64, 1.0, DIM, i) for i in (0, 1)))
if DIM >= 3:
    def refuse(x, y):
        raise AssertionError("cost matrix built")
    asg.cost_matrix = refuse
before = peak_kib()
asg.optimal_cost(x, y)
print(peak_kib() - before)
"""


def test_optimal_cost_peak_memory_is_one_cost_matrix(peak_growth_mb):
    # d = 2, N = 4096: a second N x N array (the potential subtracted out of place) would double the growth
    assert peak_growth_mb(_OPTIMUM_RSS_PROBE.replace("DIM", "2")) * 2**20 < 1.2 * 8 * 4096**2


def test_sparse_optimum_peak_memory_holds_no_cost_matrix(peak_growth_mb):
    # d = 3, N = 4096: one 8N^2-byte matrix is 128 MiB; the sparse route holds a few N x CANDIDATE_K arrays
    assert peak_growth_mb(_OPTIMUM_RSS_PROBE.replace("DIM", "3")) < 32


# --- LP --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_lp_equals_bruteforce(seed):
    n = 2 + seed % 5
    x, y = _pair(n, 2, 100 + seed)
    c = asg.cost_matrix(x, y)
    cost, weights = asg.match_lp(c)
    assert cost == pytest.approx(asg.match_bruteforce(c), abs=1e-9)
    assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)


def test_lp_identity_instance():
    x = geo.sample_uniform(4, 1.0, 2, 5)
    cost, weights = asg.match_lp(asg.cost_matrix(x, x))
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(weights, np.eye(4), atol=1e-9)


def test_lp_two_by_two_diagonal():
    c = asg.CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cost, weights = asg.match_lp(c)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(weights, np.eye(2), atol=1e-9)


def test_lp_equals_solver_at_size_limit():
    x, y = _pair(asg.LP_SIZE_LIMIT, 2, 64)
    c = asg.cost_matrix(x, y)
    assert asg.match_lp(c)[0] == pytest.approx(_solver_cost(c), abs=1e-9)


def test_lp_solver_failure_raises(monkeypatch):
    failed = SimpleNamespace(status=2, message="infeasible")
    monkeypatch.setattr(asg, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(RuntimeError, match="infeasible"):
        asg.match_lp(asg.CostMatrix(np.eye(2)))


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
    cost = _solver_cost(asg.cost_matrix(x, y))
    order = rng.permutation(6)
    x_shuffled = geo.PointCloud(dim=2, side=1.0, points=x.points[order])
    shuffled_cost = _solver_cost(asg.cost_matrix(x_shuffled, y))
    assert shuffled_cost == pytest.approx(cost, rel=1e-12, abs=1e-15)


def test_zero_cost_iff_equal_multisets():
    x = geo.sample_uniform(8, 1.0, 2, 77)
    order = np.random.default_rng(0).permutation(8)
    y = geo.PointCloud(dim=2, side=1.0, points=x.points[order])
    assert _solver_cost(asg.cost_matrix(x, y)) == pytest.approx(0.0, abs=1e-15)
    z = geo.sample_uniform(8, 1.0, 2, 78)
    assert _solver_cost(asg.cost_matrix(x, z)) > 0.0
