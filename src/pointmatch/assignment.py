"""Exact matching cost between two point clouds.

Three independent routes to the optimum of (1/N) min_sigma sum |Y_sigma(n) - X_n|^2:
factorial enumeration (the oracle, tiny N), a dense shortest-augmenting-path
assignment solver, and the Kantorovich linear program over bistochastic matrices
solved by HiGHS, a code path independent of the assignment solver. A coupling
is rounded to a permutation by the assignment solver restricted to the
coupling's support (Birkhoff-von Neumann: never above the coupling's cost).
All costs carry the 1/N normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
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


def cost_matrix(x: PointCloud, y: PointCloud) -> CostMatrix:
    """Squared-Euclidean cost kernel, entry (n, m) = |Y_m - X_n|^2."""
    if x.n != y.n:
        raise ValueError(f"cloud sizes differ: {x.n} vs {y.n}")
    if x.n < 1:
        raise ValueError("clouds must be nonempty")
    if x.dim != y.dim or x.side != y.side:
        raise ValueError("clouds must share dim and side")
    return CostMatrix(n=x.n, entries=cdist(x.points, y.points, "sqeuclidean"))


def perm_cost(c: CostMatrix, perm: np.ndarray) -> float:
    return float(c.entries[np.arange(c.n), perm].mean())


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
    if x.dim != 1 or y.dim != 1:
        raise ValueError("monotone matching applies to d = 1 only")
    if x.n != y.n or x.n < 1:
        raise ValueError("clouds must be nonempty and of equal size")
    ix = np.argsort(x.points[:, 0], kind="stable")
    iy = np.argsort(y.points[:, 0], kind="stable")
    perm = np.empty(x.n, dtype=np.intp)
    perm[ix] = iy
    cost = float(((x.points[ix, 0] - y.points[iy, 0]) ** 2).mean())
    return TransportPlan(kind="permutation", cost=cost, perm=perm)


def optimal_cost(x: PointCloud, y: PointCloud) -> float:
    """Exact matching cost: the monotone matching in d = 1, the assignment solver otherwise.

    The monotone (sorted) matching is optimal for the squared-distance cost in
    d = 1 and is checked against brute force in the test suite.
    """
    if x.dim == 1:
        return monotone_matching_1d(x, y).cost
    return match_solver(cost_matrix(x, y)).cost


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
