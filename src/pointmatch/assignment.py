"""Exact matching cost between two point clouds.

Three independent routes to the optimum of (1/N) min_sigma sum |Y_sigma(n) - X_n|^2:
factorial enumeration (the oracle, tiny N), a dense shortest-augmenting-path
assignment solver, and the Kantorovich linear program over bistochastic matrices
solved by HiGHS, a code path independent of the assignment solver. All costs
carry the 1/N normalization.
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
_FRAC_TOL = 1e-9


@dataclass(frozen=True)
class CostMatrix:
    n: int
    entries: np.ndarray  # (N, N), entry (n, m) = |Y_m - X_n|^2

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


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
    """Exact optimum via a dense shortest-augmenting-path assignment solver."""
    if not np.all(np.isfinite(c.entries)):
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
    """Cancel fractional cycles of a coupling until a permutation remains.

    Repeatedly locates a cycle of strictly fractional entries, shifts mass by the
    minimal entry along the cycle in whichever direction does not increase cost,
    and zeroes at least one entry per step; cost never increases.
    """
    if plan.kind == "permutation":
        return plan
    if plan.weights is None:
        raise ValueError("coupling plan has no weights to round")
    w = np.array(plan.weights, dtype=np.float64)
    n = c.n
    start_cost = coupling_cost(c, w)
    for _ in range(n * n + 1):
        frac = _first_fractional(w)
        if frac is None:
            break
        cycle = _fractional_cycle(w, frac)
        plus = cycle[0::2]
        minus = cycle[1::2]
        delta = sum(c.entries[cell] for cell in plus) - sum(c.entries[cell] for cell in minus)
        if delta > 0:  # shifting + direction raises cost; go the other way
            plus, minus = minus, plus
        eps = min(w[cell] for cell in minus)
        for cell in plus:
            w[cell] += eps
        for cell in minus:
            w[cell] -= eps
        w[np.abs(w) <= _FRAC_TOL] = 0.0
        w[np.abs(w - 1.0) <= _FRAC_TOL] = 1.0
    else:
        raise AssertionError("cycle canceling failed to terminate on a valid coupling")
    perm = np.argmax(w, axis=1).astype(np.intp)
    if sorted(perm.tolist()) != list(range(n)):
        raise AssertionError("rounded coupling is not a permutation")
    cost = perm_cost(c, perm)
    if cost > start_cost + 1e-9:
        raise AssertionError("rounding increased the cost")
    return TransportPlan(kind="permutation", cost=cost, perm=perm)


def _first_fractional(w: np.ndarray):
    frac = (w > _FRAC_TOL) & (w < 1.0 - _FRAC_TOL)
    idx = np.argwhere(frac)
    return None if idx.size == 0 else (int(idx[0, 0]), int(idx[0, 1]))


def _fractional_cycle(w: np.ndarray, start):
    """Closed alternating row/column walk through strictly fractional entries.

    Row and column sums are integral, so every row or column touching a
    fractional entry holds at least two of them; the walk cannot get stuck and
    must revisit a row or column. Cutting at the edge that first left the
    revisited row/column yields an even cycle whose cells alternate signs
    consistently (one +, one - per row and per column).
    """

    def frac_in_col(j, avoid_i):
        for i in np.flatnonzero((w[:, j] > _FRAC_TOL) & (w[:, j] < 1.0 - _FRAC_TOL)):
            if i != avoid_i:
                return int(i)
        return None

    def frac_in_row(i, avoid_j):
        for j in np.flatnonzero((w[i] > _FRAC_TOL) & (w[i] < 1.0 - _FRAC_TOL)):
            if j != avoid_j:
                return int(j)
        return None

    path = [start]
    # node -> index of the path cell that leaves it after its first visit
    row_cut = {start[0]: 0}
    col_cut = {start[1]: 1}
    by_column = True
    while True:
        i, j = path[-1]
        if by_column:
            i2 = frac_in_col(j, i)
            assert i2 is not None, "fractional column lost its partner"
            if i2 in row_cut:
                return path[row_cut[i2]:] + [(i2, j)]
            row_cut[i2] = len(path) + 1
            path.append((i2, j))
        else:
            j2 = frac_in_row(i, j)
            assert j2 is not None, "fractional row lost its partner"
            if j2 in col_cut:
                return path[col_cut[j2]:] + [(i, j2)]
            col_cut[j2] = len(path) + 1
            path.append((i, j2))
        by_column = not by_column
