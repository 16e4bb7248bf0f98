"""Exact matching cost between two point clouds.

Three independent routes to the optimum of (1/N) min_sigma sum |Y_sigma(n) - X_n|^2:
factorial enumeration (the oracle, tiny N), a dense shortest-augmenting-path
assignment solver, and the Kantorovich linear program over bistochastic matrices
solved by HiGHS, a code path independent of the assignment solver.
All costs carry the 1/N normalization.

`optimal_with_dual` warm-starts the assignment solver with the linearised
dual. The optimal Kantorovich potential of the quadratic cost is close to
2 phi, where -Lap phi = mu_x - mu_y with Neumann conditions on the cube
(`poisson_dual`). Subtracting a row or column constant leaves the optimal
permutation unchanged, so the cost matrix is reduced in place by that
potential and then by its column and row minima. The solver's optimal edges
then sit near 0 and it finishes several times sooner. The three subtracted
vectors are a Kantorovich dual pair, so the sum of their means, less a proven
rounding allowance, is a certified lower bound on the optimum. The potential
lives here rather than in `dual_potential`, which imports this module through
`dyadic_transport`.

In d >= 3, from N = CANDIDATE_MIN_N, a second shift follows: the dual of the
sparse assignment on each row's few cheapest reduced entries. Above the
critical dimension d = 2 a point's optimal partner is among its nearest
ones, so that dual is close to the dense optimum's and the solver finishes
about twice as fast again. The bound is read from f, g and h before this
shift, and the cost from the points, so neither moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.fft import dctn, idctn
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from .geometry import PointCloud

BRUTE_FORCE_LIMIT = 10
LP_SIZE_LIMIT = 64
# The candidate shift of `optimal_with_dual` (d >= 3): from N = CANDIDATE_MIN_N, each row's
# CANDIDATE_K cheapest entries, Bellman-Ford capped at CANDIDATE_ROUNDS rounds (about 250
# sufficed at N = 4096), rows scanned CANDIDATE_BLOCK entries at a time.
CANDIDATE_MIN_N = 1024
CANDIDATE_K = 10
CANDIDATE_ROUNDS = 1024
CANDIDATE_BLOCK = 1 << 16


@dataclass(frozen=True)
class CostMatrix:
    """The N x N squared-distance matrix of two clouds.

    The entries stay writable: `linear_sum_assignment` silently copies a
    read-only input, which would hold the N x N matrix twice during the solve.
    """

    n: int
    entries: np.ndarray  # (N, N), entry (n, m) = |Y_m - X_n|^2

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.float64))


@dataclass(frozen=True)
class TransportPlan:
    """Either a permutation matching or a (possibly estimated) bistochastic coupling."""

    cost: float
    perm: np.ndarray | None = None
    weights: np.ndarray | None = None


def _check_pair(x: PointCloud, y: PointCloud) -> None:
    """Reject two clouds that are empty or differ in size, dim or side."""
    if x.n != y.n:
        raise ValueError(f"cloud sizes differ: {x.n} vs {y.n}")
    if x.n < 1:
        raise ValueError("clouds must be nonempty")
    if x.dim != y.dim or x.side != y.side:
        raise ValueError("clouds must share dim and side")


def cost_matrix(x: PointCloud, y: PointCloud) -> CostMatrix:
    """Squared-Euclidean cost kernel, entry (n, m) = |Y_m - X_n|^2."""
    _check_pair(x, y)
    return CostMatrix(n=x.n, entries=cdist(x.points, y.points, "sqeuclidean"))


def perm_cost(c: CostMatrix, perm: np.ndarray) -> float:
    return float(c.entries[np.arange(c.n), perm].mean())


def pair_cost(x: PointCloud, y: PointCloud, perm: np.ndarray) -> float:
    """`perm_cost` from the points: each |Y_perm(n) - X_n|^2 summed one axis at a time, as `cdist` does."""
    diff = x.points - y.points[perm]
    sq = np.zeros(x.n)
    for axis in diff.T:
        sq += axis * axis
    return float(sq.mean())


def coupling_cost(c: CostMatrix, weights: np.ndarray) -> float:
    return float((c.entries * weights).sum() / c.n)


def match_bruteforce(c: CostMatrix) -> TransportPlan:
    """Exact optimum by enumerating all permutations; guarded to N <= 10."""
    n = c.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force enumeration is limited to N <= {BRUTE_FORCE_LIMIT}, got N = {n}")
    rows = c.entries
    best = math.inf
    best_perm = None
    used = [False] * n
    cur = [0] * n

    def descend(i, acc):
        nonlocal best, best_perm
        if acc >= best:
            return
        if i == n:
            best = acc
            best_perm = cur.copy()
            return
        row = rows[i]
        for j in range(n):
            if not used[j]:
                used[j] = True
                cur[i] = j
                descend(i + 1, acc + row[j])
                used[j] = False

    descend(0, 0.0)
    perm = np.array(best_perm, dtype=np.intp)
    return TransportPlan(cost=best / n, perm=perm)


def match_solver(c: CostMatrix) -> TransportPlan:
    """Exact optimum via a dense shortest-augmenting-path assignment solver.

    The entries go to the solver as they are, without a copy. The solver
    accepts +inf where a permutation avoids it, so non-finite entries are
    rejected here; the extremes are checked instead of an N x N mask, and a
    NaN anywhere makes them NaN.
    """
    if not (np.isfinite(c.entries.min()) and np.isfinite(c.entries.max())):
        raise ValueError("cost matrix has non-finite entries")
    rows, cols = linear_sum_assignment(c.entries)
    perm = np.empty(c.n, dtype=np.intp)
    perm[rows] = cols
    return TransportPlan(cost=perm_cost(c, perm), perm=perm)


def poisson_dual(x: PointCloud, y: PointCloud) -> np.ndarray:
    """The linearised Kantorovich potential f = 2 phi at the x-points.

    phi solves -Lap phi = (mu_x - mu_y) / mu_uniform on [0, L]^d with Neumann
    conditions, spectrally on an M^d grid of cells, M = 2^ceil(log2(2 N^(1/d))):
    the histogram of x - y goes through an orthonormal type-2 DCT, is divided
    by |k|^2 with k = pi m / L, smoothed by the heat kernel exp(-0.1 r^2 |k|^2)
    with r = L N^(-1/d), and transformed back. Each x-point reads its own
    cell. Returns zeros when the grid would have more cells than the N x N
    cost matrix has entries (M^d > N^2).
    """
    _check_pair(x, y)
    n, dim, side = x.n, x.dim, x.side
    m = 1 << math.ceil(math.log2(2.0 * n ** (1.0 / dim)))
    size = m**dim
    if size > n * n:
        return np.zeros(n)
    shape = (m,) * dim

    def cells(cloud):
        return np.ravel_multi_index(np.minimum((cloud.points * (m / side)).astype(np.intp), m - 1).T, shape)

    cell_x = cells(x)
    rho = (np.bincount(cell_x, minlength=size) - np.bincount(cells(y), minlength=size)) * (size / n)
    k_sq = sum(np.reshape((np.pi / side * np.arange(m)) ** 2, (m,) + (1,) * i) for i in range(dim))
    k_sq.flat[0] = np.inf  # phi is fixed up to a constant: the mean mode gets weight 0
    hat = dctn(rho.reshape(shape), norm="ortho")
    hat *= np.exp(-0.1 * side * side * n ** (-2.0 / dim) * k_sq) / k_sq
    return 2.0 * idctn(hat, norm="ortho", overwrite_x=True).ravel()[cell_x]


def staircase_dual(x: PointCloud, y: PointCloud) -> tuple[float, np.ndarray, np.ndarray]:
    """The monotone matching's cost in d = 1 and its Kantorovich potentials u, v on the x- and y-points.

    Pairing the sorted orders is optimal for the squared-distance cost, so the
    cost is the mean of the sorted diagonal C_ii = (xs_i - ys_i)^2, summed in
    sorted order. With both clouds sorted, u_i + v_i = C_ii and
    u_i + v_(i+1) = C_(i,i+1): v climbs from v_1 = 0 by the steps
    C_(i,i+1) - C_ii, and u_i = C_ii - v_i.
    The cost (x - y)^2 is Monge (C_ij + C_kl <= C_il + C_kj for i < k, j < l),
    so the steps telescope to u_i + v_j <= C_ij for every pair, and
    sum u + sum v = sum C_ii is the optimum. No cost matrix is built.
    """
    _check_pair(x, y)
    if x.dim != 1:
        raise ValueError("the staircase dual applies to d = 1 only")
    ix = np.argsort(x.points[:, 0], kind="stable")
    iy = np.argsort(y.points[:, 0], kind="stable")
    xs, ys = x.points[ix, 0], y.points[iy, 0]
    diag = (xs - ys) ** 2
    steps = np.zeros(x.n)
    np.cumsum((xs[:-1] - ys[1:]) ** 2 - diag[:-1], out=steps[1:])
    u, v = np.empty(x.n), np.empty(x.n)
    u[ix] = diag - steps
    v[iy] = steps
    return float(diag.mean()), u, v


def _certified_bound(x: PointCloud, terms: list) -> float:
    """max(0, (sum of every entry of terms) / N - (4 N + d + 8) eps M); see `optimal_with_dual`."""
    eps = np.finfo(np.float64).eps
    scale = x.dim * x.side**2 * (1.0 + x.dim * eps) + sum(float(np.abs(t).max()) for t in terms)
    value = math.fsum(np.concatenate(terms)) / x.n
    return max(0.0, value - (4 * x.n + x.dim + 8) * eps * scale)


def optimal_with_dual(x: PointCloud, y: PointCloud) -> tuple[float, float]:
    """The exact matching cost and a certified lower bound on it, from one solve.

    d = 1: the monotone matching, optimal for the squared-distance cost and
    checked against brute force in the test suite, with its staircase dual
    (`staircase_dual`) u on the x-points and v on the y-points, both read off
    one sort of each cloud.

    d >= 2: the assignment solver on a cost matrix reduced in place before the
    solve: by the Poisson dual f (`poisson_dual`; zeros where its grid would
    outgrow the matrix) along rows, then by its column minima g, then by its
    row minima h. Each step subtracts a row or column constant, so the optimal
    permutation stays, and the solver finds it several times sooner. f is computed before the
    matrix exists, so the matrix is the only N x N array alive at any time.
    In d >= 3 with N >= CANDIDATE_MIN_N the matrix is then shifted once more,
    by row and column constants from the sparse assignment on each row's
    CANDIDATE_K cheapest entries (`_candidate_shift`), which again leaves the
    optimal permutation in place; where that assignment or its duals are not
    found, the matrix is solved as reduced. The solver's own cost would read
    reduced entries, so the cost comes from the points, entry by entry as
    `cdist` computes it. The reduction is the c-transform pair of f: in exact
    arithmetic f_n + g_m + h_n <= C_nm. The bound below reads only f, g and h,
    taken before the second shift, so it is the same with or without it.

    The lower bound is max(0, T - a). T = (sum f + sum g + sum h) / N
    (d = 1: (sum u + sum v) / N), summed by `math.fsum` and divided once. The
    allowance is a = (4 N + d + 8) eps M, where eps is the float64 epsilon,
    M = D + max|f| + max|g| + max|h| (d = 1: D + max|u| + max|v|) and
    D = d L^2 (1 + d eps). The bound is at most the exact optimum of the
    points as given and at most the returned cost. The allowance reads only
    O(N) values: no pass over the matrix. Derivation,
    with u_r = eps / 2, N eps <= 1/4 and every point in [0, L]^d:
    - Every entry, exact (C) or as `cdist` rounds it (C'), lies in [0, D],
      and |C' - C| <= 1.01 (d + 1) u_r D: d + 1 roundings (difference,
      square, d - 1 additions).
    - d >= 2, per entry: e = fl(C' - f) = C' - f + r1, |r1| <= u_r (D + |f|);
      fl(e - g) = e - g + r2, |r2| <= u_r (|e| + |g|); h_n is at most every
      fl(e - g) of its row, and g, h are exact minima. So f + g + h <= C' +
      1.01 eps M <= C + (0.51 d + 2.1) eps M.
    - d = 1, per step k of the sorted staircase: u_k + v_k misses C_kk by the
      rounding of u_k and of C'_kk, u_k + v_(k+1) misses C_(k,k+1) by those
      plus the roundings of the step and of the cumulative sum, in all
      u_r (2 max|u| + max|v| + 5.02 D) <= 2.51 eps M. The pair (i, j)
      telescopes over at most N steps under the Monge inequality, so
      u_i + v_j <= C_ij + 2.51 N eps M <= C'_ij + (2.51 N + 1.01) eps M.
    - Summed along any permutation, a per-entry bound gives weak duality:
      the exact T is at most the permutation's mean entry plus that bound,
      for the exact optimum's permutation and for the returned one alike.
    - The returned cost, a float sum of N entries C' in [0, D] divided by N,
      is at least (1 - N eps) times their exact mean, so at most
      1.01 N eps M below it.
    - fsum is correctly rounded and the division rounds once, so the float T
      is within 1.01 eps M of the exact T; subtracting a rounds once more,
      by at most 1.1 eps M.
    These add up to at most (3.52 N + 0.51 d + 5.2) eps M, below a.
    """
    cost, terms = _solve_with_dual(x, y)
    return cost, _certified_bound(x, terms)


def _solve_with_dual(x: PointCloud, y: PointCloud) -> tuple[float, list]:
    """The exact cost and the dual terms of `optimal_with_dual`: [u, v] (d = 1) or [f, g, h].

    The only place the exact solve chooses its route by the dimension.
    """
    if x.dim == 1:
        cost, u, v = staircase_dual(x, y)
        return cost, [u, v]
    f = poisson_dual(x, y)
    c = cost_matrix(x, y)
    e = c.entries
    e -= f[:, None]
    g = e.min(axis=0)
    e -= g
    h = e.min(axis=1)
    e -= h[:, None]
    if x.dim >= 3 and x.n >= CANDIDATE_MIN_N:
        _candidate_shift(e)
    return pair_cost(x, y, match_solver(c).perm), [f, g, h]


def _candidate_shift(e: np.ndarray) -> bool:
    """Shift the reduced matrix in place by a dual of its k-cheapest-candidate assignment.

    Each row keeps its CANDIDATE_K smallest entries w, found a block of rows
    at a time. They go to the sparse assignment solver (LAPJVsp) as integer
    weights W = rint(w / unit) + 1 >= 1 with unit = max(w) / 2^32: it needs
    non-zero weights, and on float weights it can loop forever where rounding
    makes ties inconsistent (seen on lattice clouds), while integers below
    2^33 keep its sums exact up to N = 2^19. Its matching sigma is optimal
    for W, so Bellman-Ford over the candidate edges settles: in one direction
    to the largest row potentials u <= 0, in the other to the largest column
    potentials v <= 0, each with its partner read off sigma. Both are duals of
    W (u_i + v_j <= W_ij, equality on sigma), and so is their mean, which
    leaves fewer negative entries outside the candidates than either one: the
    dense solver then took 0.15-0.21 s at d = 3, N = 4096, against 0.33-0.46 s
    from the column potentials alone. The mean, times unit, is subtracted.
    Returns False, leaving e as it was, when N <= k, when the candidates hold
    no perfect matching or when either pass has not settled within
    CANDIDATE_ROUNDS rounds.
    """
    n, k = e.shape[0], CANDIDATE_K
    if n <= k:
        return False
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    cols = np.empty((k, n), dtype=np.intp)  # cols[:, i]: the candidates of row i
    step = max(1, CANDIDATE_BLOCK // n)
    for start in range(0, n, step):
        cols[:, start : start + step] = np.argpartition(e[start : start + step], k - 1, axis=1)[:, :k].T
    w = e[np.arange(n), cols]
    unit = float(w.max()) / 2**32 or 1.0
    weights = np.rint(w / unit) + 1.0
    heads = cols.T.ravel()  # row i's candidates at i k, ..., i k + k - 1
    graph = sparse.csr_array((weights.T.ravel(), heads, np.arange(0, n * k + 1, k)), shape=(n, n))
    try:
        sigma = min_weight_full_bipartite_matching(graph)[1]
    except ValueError:
        return False
    rho = np.empty(n, dtype=np.intp)
    rho[sigma] = np.arange(n)
    row_w = weights[(cols == sigma).argmax(axis=0), np.arange(n)]  # W_(i, sigma(i))
    col_w = row_w[rho]  # W_(rho(j), j)
    # row i's in-edges come from the rows matched to its candidates: u_i <= u_rho(j) + W_ij - W_rho(j)j
    u = _settle(rho[cols], weights - col_w[cols])
    # column j's in-edges come from the rows listing j, padded to the largest in-degree with +inf
    order = np.argsort(heads, kind="stable")
    deg = np.bincount(heads, minlength=n)
    slot = np.arange(n * k) - np.repeat(np.cumsum(deg) - deg, deg)
    tails = np.zeros((deg.max(), n), dtype=np.intp)
    lengths = np.full(tails.shape, np.inf)
    tails[slot, heads[order]] = np.repeat(sigma, k)[order]
    lengths[slot, heads[order]] = (weights - row_w).T.ravel()[order]
    v = _settle(tails, lengths)
    if u is None or v is None:
        return False
    row_shift = unit * (0.5 * (u + row_w - v[sigma]) - 1.0)
    col_shift = unit * 0.5 * (v + col_w - u[rho])
    for start in range(0, n, step):
        e[start : start + step] -= row_shift[start : start + step, None] + col_shift
    return True


def _settle(tails: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The largest p <= 0 with p_h <= p_t + l for every edge t -> h, or None.

    Column h of the (D, N) arrays lists the tails and lengths of the edges into
    node h. Jacobi Bellman-Ford from p = 0; None if it has not settled within
    CANDIDATE_ROUNDS rounds.
    """
    p = np.zeros(tails.shape[1])
    for _ in range(CANDIDATE_ROUNDS):
        reach = p[tails]
        reach += lengths
        best = reach.min(axis=0)
        if not (best < p).any():
            return p
        np.minimum(p, best, out=p)
    return None


def optimal_cost(x: PointCloud, y: PointCloud) -> float:
    """Exact matching cost: the first value of `optimal_with_dual`, without its bound."""
    return _solve_with_dual(x, y)[0]


def match_lp(c: CostMatrix) -> TransportPlan:
    """Kantorovich relaxation over bistochastic matrices, solved exactly.

    min sum c_nm w_nm subject to unit row and column sums and w >= 0, handed
    to the HiGHS LP solver as a sparse 2N x N^2 equality system. HiGHS shares
    no code with the assignment solver, so the agreement of the two routes
    (and of both with brute force, the oracle) checks each of them. Raises
    RuntimeError if HiGHS reports anything other than an optimum.
    """
    n = c.n
    if n > LP_SIZE_LIMIT:
        raise ValueError(f"dense LP is limited to N <= {LP_SIZE_LIMIT}, got N = {n}")
    var = np.arange(n * n)  # variable n*i + j is w_ij
    rows = np.concatenate([var // n, n + var % n])  # row sums, then column sums
    a_eq = sparse.csr_array((np.ones(2 * n * n), (rows, np.tile(var, 2))), shape=(2 * n, n * n))
    res = linprog(c.entries.ravel(), A_eq=a_eq, b_eq=np.ones(2 * n), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the transport LP: {res.message}")
    weights = res.x.reshape(n, n)
    return TransportPlan(cost=coupling_cost(c, weights), weights=weights)
