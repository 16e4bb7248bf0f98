"""Exact matching cost between two point clouds.

Three independent routes to the optimum of (1/N) min_sigma sum |Y_sigma(n) - X_n|^2:
factorial enumeration (the oracle, tiny N), a dense shortest-augmenting-path
assignment solver, and the Kantorovich linear program over bistochastic matrices
solved by HiGHS, a code path independent of the assignment solver. A coupling
is rounded to a permutation by the assignment solver restricted to the
coupling's support (Birkhoff-von Neumann: never above the coupling's cost).
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

    kind: str  # "permutation" | "coupling"
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
    return TransportPlan(kind="permutation", cost=best / n, perm=perm)


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
    return TransportPlan(kind="permutation", cost=perm_cost(c, perm), perm=perm)


def monotone_matching_1d(x: PointCloud, y: PointCloud) -> TransportPlan:
    """Pair sorted orders; optimal in d = 1 for the squared-distance cost."""
    _check_pair(x, y)
    if x.dim != 1:
        raise ValueError("monotone matching applies to d = 1 only")
    ix = np.argsort(x.points[:, 0], kind="stable")
    iy = np.argsort(y.points[:, 0], kind="stable")
    perm = np.empty(x.n, dtype=np.intp)
    perm[ix] = iy
    cost = float(((x.points[ix, 0] - y.points[iy, 0]) ** 2).mean())
    return TransportPlan(kind="permutation", cost=cost, perm=perm)


def poisson_dual(x: PointCloud, y: PointCloud) -> np.ndarray | None:
    """The linearised Kantorovich potential f = 2 phi at the x-points, or None.

    phi solves -Lap phi = (mu_x - mu_y) / mu_uniform on [0, L]^d with Neumann
    conditions, spectrally on an M^d grid of cells, M = 2^ceil(log2(2 N^(1/d))):
    the histogram of x - y goes through an orthonormal type-2 DCT, is divided
    by |k|^2 with k = pi m / L, smoothed by the heat kernel exp(-0.1 r^2 |k|^2)
    with r = L N^(-1/d), and transformed back. Each x-point reads its own
    cell. Returns None when the grid would have more cells than the N x N
    cost matrix has entries (M^d > N^2).
    """
    _check_pair(x, y)
    n, dim, side = x.n, x.dim, x.side
    m = 1 << math.ceil(math.log2(2.0 * n ** (1.0 / dim)))
    size = m**dim
    if size > n * n:
        return None
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


def staircase_dual(x: PointCloud, y: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Kantorovich potentials (u, v) of the monotone matching in d = 1, on the x- and y-points.

    With both clouds sorted, u_i + v_i = C_ii and u_i + v_(i+1) = C_(i,i+1): v
    climbs from v_1 = 0 by the steps C_(i,i+1) - C_ii, and u_i = C_ii - v_i.
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
    return u, v


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
    (`staircase_dual`) u on the x-points and v on the y-points.

    d >= 2: the assignment solver on a cost matrix reduced in place before the
    solve: by the Poisson dual f (`poisson_dual`; f = 0 where it returns None)
    along rows, then by its column minima g, then by its row minima h. Each
    step subtracts a row or column constant, so the optimal permutation stays,
    and the solver finds it several times sooner. f is computed before the
    matrix exists, so the matrix is the only N x N array alive at any time.
    The solver's own cost would read reduced entries, so the cost comes from
    the points, entry by entry as `cdist` computes it. The reduction is the
    c-transform pair of f: in exact arithmetic f_n + g_m + h_n <= C_nm.

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
    """The exact cost and the dual terms of `optimal_with_dual`: [u, v] (d = 1) or [f, g, h]."""
    if x.dim == 1:
        return monotone_matching_1d(x, y).cost, list(staircase_dual(x, y))
    f = poisson_dual(x, y)
    c = cost_matrix(x, y)
    e = c.entries
    if f is None:
        f = np.zeros(x.n)
    else:
        e -= f[:, None]
    g = e.min(axis=0)
    e -= g
    h = e.min(axis=1)
    e -= h[:, None]
    return pair_cost(x, y, match_solver(c).perm), [f, g, h]


def optimal_cost(x: PointCloud, y: PointCloud) -> float:
    """Exact matching cost: the first value of `optimal_with_dual`, without its bound."""
    if x.dim == 1:
        return monotone_matching_1d(x, y).cost
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
    return TransportPlan(kind="coupling", cost=coupling_cost(c, weights), weights=weights)


def round_to_permutation(plan: TransportPlan, c: CostMatrix) -> TransportPlan:
    """The cheapest permutation inside a coupling's support.

    By Birkhoff-von Neumann a bistochastic coupling is a convex combination of
    permutations, each inside its support, so the cheapest of them, found by
    the assignment solver with the entries outside the support forbidden,
    costs at most the coupling does. Raises ValueError if the weights hold no
    permutation in their support, so they are not a coupling.
    """
    if plan.kind == "permutation":
        return plan
    if plan.weights is None:
        raise ValueError("coupling plan has no weights to round")
    w = np.asarray(plan.weights, dtype=np.float64)
    try:
        rows, cols = linear_sum_assignment(np.where(w > 0, c.entries, np.inf))
    except ValueError as err:
        raise ValueError(f"weights are not a coupling: no permutation lies in their support ({err})") from err
    perm = np.empty(c.n, dtype=np.intp)
    perm[rows] = cols
    cost = perm_cost(c, perm)
    if cost > coupling_cost(c, w) + 1e-9:
        raise AssertionError("rounding increased the cost")
    return TransportPlan(kind="permutation", cost=cost, perm=perm)
