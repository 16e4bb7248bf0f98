"""Exact matching cost between two point clouds.

Three independent routes to the optimum of (1/N) min_sigma sum |Y_sigma(n) - X_n|^2:
factorial enumeration (the oracle, tiny N), a dense shortest-augmenting-path
assignment solver, and the Kantorovich linear program over bistochastic matrices
solved by HiGHS, a code path independent of the assignment solver. A coupling
is rounded to a permutation by the assignment solver restricted to the
coupling's support (Birkhoff-von Neumann: never above the coupling's cost).
All costs carry the 1/N normalization.

`optimal_cost` warm-starts the assignment solver with the linearised dual.
The optimal Kantorovich potential of the quadratic cost is close to 2 phi,
where -Lap phi = mu_x - mu_y with Neumann conditions on the cube
(`poisson_dual`). Subtracting a row or column constant leaves the optimal
permutation unchanged, so the cost matrix is reduced in place by that
potential and then by its column and row minima. The solver's optimal edges
then sit near 0 and it finishes several times sooner. The potential lives
here rather than in `dual_potential`, which imports this module through
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


def optimal_cost(x: PointCloud, y: PointCloud) -> float:
    """Exact matching cost: the monotone matching in d = 1, the assignment solver otherwise.

    The monotone (sorted) matching is optimal for the squared-distance cost in
    d = 1 and is checked against brute force in the test suite. In d >= 2 the
    cost matrix is reduced in place before the solve: by the Poisson dual
    f (`poisson_dual`) along rows, then by its column minima, then by its row
    minima. Each step subtracts a row or column constant, so the optimal
    permutation stays, and the solver finds it several times sooner. f is
    computed before the matrix exists, so the matrix is the only N x N array
    alive at any time. Without a potential the matrix is solved unreduced.
    The solver's own cost would read reduced entries, so the cost comes from
    the points, entry by entry as `cdist` computes it.
    """
    if x.dim == 1:
        return monotone_matching_1d(x, y).cost
    f = poisson_dual(x, y)
    c = cost_matrix(x, y)
    if f is not None:
        e = c.entries
        e -= f[:, None]
        e -= e.min(axis=0)
        e -= e.min(axis=1)[:, None]
    return pair_cost(x, y, match_solver(c).perm)


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
