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
rounding allowance, is a certified lower bound on the optimum.

In d >= 3, from N = CANDIDATE_MIN_N, no N x N matrix is built. Above the
critical dimension d = 2 a point's optimal partner is among its few cheapest
candidates, so the sparse assignment on each row's and each column's
CANDIDATE_K cheapest reduced entries, found by kd-tree queries on the
power-diagram lift of the potentials, is checked against every other entry by one more lifted query;
violating entries join and it is solved again (column generation, as in
Schmitzer's sparse multiscale transport solver). The check certifies the
permutation: its cost is within a computed gap, at most CERTIFIED_GAP of it,
of the optimum. g and h are the dense route's floats, so the bound does not
move; where a step fails, the dense route runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.fft import dctn, idctn
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .geometry import PointCloud, check_pair

BRUTE_FORCE_LIMIT = 10
LP_SIZE_LIMIT = 64
# The sparse route of `optimal_with_dual` (d >= 3): from N = CANDIDATE_MIN_N, each row's and
# column's CANDIDATE_K cheapest reduced entries, Bellman-Ford capped at CANDIDATE_ROUNDS rounds (about
# 250 sufficed at N = 4096), at most CHECK_ROUNDS solves (1-3 sufficed up to N = 16384), and a
# certified gap of at most CERTIFIED_GAP of the cost.
CANDIDATE_MIN_N = 1024
CANDIDATE_K = 10
CANDIDATE_ROUNDS = 1024
CHECK_ROUNDS = 8
CERTIFIED_GAP = 1e-12


@dataclass(frozen=True)
class CostMatrix:
    """The N x N squared-distance matrix of two clouds.

    The entries stay writable: `linear_sum_assignment` silently copies a
    read-only input, which would hold the N x N matrix twice during the solve.
    """

    entries: np.ndarray  # (N, N), entry (n, m) = |Y_m - X_n|^2

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def cost_matrix(x: PointCloud, y: PointCloud) -> CostMatrix:
    """Squared-Euclidean cost kernel, entry (n, m) = |Y_m - X_n|^2."""
    check_pair(x, y)
    return CostMatrix(cdist(x.points, y.points, "sqeuclidean"))


def perm_cost(c: CostMatrix, perm: np.ndarray) -> float:
    return float(c.entries[np.arange(c.n), perm].mean())


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|^2 over the last axis, broadcast, summed one axis at a time as `cdist` sums it."""
    diff = a - b
    sq = np.zeros(diff.shape[:-1])
    for i in range(diff.shape[-1]):
        sq += diff[..., i] * diff[..., i]
    return sq


def pair_cost(x: PointCloud, y: PointCloud, perm: np.ndarray) -> float:
    """`perm_cost` from the points: each |Y_perm(n) - X_n|^2 as `cdist` computes it."""
    return float(_sq_dist(x.points, y.points[perm]).mean())


def match_bruteforce(c: CostMatrix) -> float:
    """Exact optimum by enumerating all permutations; guarded to N <= 10."""
    n = c.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force enumeration is limited to N <= {BRUTE_FORCE_LIMIT}, got N = {n}")
    rows = c.entries
    best = math.inf
    used = [False] * n

    def descend(i, acc):
        nonlocal best
        if acc >= best:
            return
        if i == n:
            best = acc
            return
        row = rows[i]
        for j in range(n):
            if not used[j]:
                used[j] = True
                descend(i + 1, acc + row[j])
                used[j] = False

    descend(0, 0.0)
    return best / n


def match_solver(c: CostMatrix) -> np.ndarray:
    """The optimal permutation, row n to column perm[n], by a dense shortest-augmenting-path solver.

    The entries go to the solver as they are, without a copy. The solver
    accepts +inf where a permutation avoids it, so non-finite entries are
    rejected here; the extremes are checked instead of an N x N mask, and a
    NaN anywhere makes them NaN.
    """
    if not (np.isfinite(c.entries.min()) and np.isfinite(c.entries.max())):
        raise ValueError("cost matrix has non-finite entries")
    return linear_sum_assignment(c.entries)[1]  # a square matrix's row indices are arange(N)


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
    check_pair(x, y)
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
    check_pair(x, y)
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
    In d >= 3 with N >= CANDIDATE_MIN_N no matrix is built: `_sparse_optimum`
    reads g and h off kd-tree queries on the lift, as the same floats (it
    rules out the lift's rounding, or hands over to the matrix), and returns a
    permutation certified within CERTIFIED_GAP of the optimum. The solver's
    own cost would read reduced entries, so the cost comes from the points,
    entry by entry as `cdist` computes it. The reduction is the c-transform
    pair of f: in exact arithmetic f_n + g_m + h_n <= C_nm. The bound below
    reads only f, g and h, so it is the same on either route.

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
    - The lift's rounding (d >= 3, N >= CANDIDATE_MIN_N): each g_m and h_n is
      the least of its entries recomputed in the dense rounding over every
      point the lift leaves within its rounding of the nearest, (d + 16) eps
      of the lifted distances (`_sparse_optimum` derives it), and the route
      hands over to the matrix where more than CANDIDATE_K points are that
      close (a row with an entry of exactly 0, the least possible, needs no
      margin). So g and h are still exact minima, and the line above holds
      with nothing added for the lift.
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
    if x.dim >= 3 and x.n >= CANDIDATE_MIN_N:
        found = _sparse_optimum(x, y, f)
        if found is not None:
            cost, g, h, _ = found
            return cost, [f, g, h]
    c = cost_matrix(x, y)
    e = c.entries
    e -= f[:, None]
    g = e.min(axis=0)
    e -= g
    h = e.min(axis=1)
    e -= h[:, None]
    return pair_cost(x, y, match_solver(c)), [f, g, h]


def _lifted_tree(points: np.ndarray, pot: np.ndarray) -> tuple[cKDTree, float]:
    """A kd-tree over the points lifted by sqrt(T - pot), T = max pot, and T.

    The squared distance from (q, 0) to lifted point i is |q - p_i|^2 + T - pot_i,
    so the nearest lifted points are the least |q - p_i|^2 - pot_i: a power
    diagram query (Aurenhammer 1987), the c-transform of pot without the matrix.
    """
    top = float(pot.max())
    return cKDTree(np.column_stack([points, np.sqrt(top - pot)])), top


def _nearest(tree: cKDTree, points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared lifted distances of the k nearest lifted points to (points, 0)."""
    dist, idx = tree.query(np.column_stack([points, np.zeros(len(points))]), k=k)
    return idx, dist * dist


def _lifted_nearest(
    points: np.ndarray, pot: np.ndarray, queries: np.ndarray, delta: float, spread: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's CANDIDATE_K nearest lifted points, nearest first, and whether they surely hold its least entry.

    They hold every point of least |q - p|^2 - pot in the dense rounding when
    the next lifted distance clears the first by the lift's rounding (see
    `_sparse_optimum`).
    """
    idx, v = _nearest(_lifted_tree(points, pot)[0], queries, CANDIDATE_K + 1)
    return idx[:, :-1], v[:, -1] - v[:, 0] >= delta * (v[:, -1] + v[:, 0] + spread)


def _sparse_optimum(x: PointCloud, y: PointCloud, f: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float] | None:
    """The exact optimum without the N x N matrix: (cost, g, h, gap), or None.

    Used in d >= 3, where each point's optimal partner is among its few cheapest
    candidates. Every entry is recomputed as the dense route rounds it: C' as
    `cdist` sums it (`_sq_dist`), then ((C' - f) - g) - h.
    - g: each column's least C' - f among its CANDIDATE_K nearest points of x
      lifted by f (`_lifted_nearest`); h: each row's least (C' - f) - g among
      its CANDIDATE_K nearest points of y lifted by g. Both sets of nearest
      points are the candidates: the rows' alone left one N = 4096 instance of
      the benchmark without a perfect matching. g and h are the dense route's
      floats: the lifted squared distance V = C + T - pot is found by the
      tree within (d + 7.1) u_r V (u_r = eps / 2: the lift coordinate, d + 1
      squares and their sum, the root and its square), and the dense entry
      plus T lies within (d + 3.1) u_r V + 2 u_r s of V, s = max|f|
      (+ max|g| for h). With delta = (d + 16) eps, a (k + 1)-th lifted
      distance V' that clears the first, V, by delta (V' + V + s) rules out
      every point from it on, the tree's own pruning taken as exact in its
      float distance. A row
      that is some column's nearest needs no margin: its entry there is
      fl(g_m - g_m) = 0, and no entry is below 0, since g_m is the least of
      its column. Such ties are how a row's (k + 1)-th entry can reach its
      first on random clouds.
    - The candidates' entries w >= 0 go to LAPJVsp as integer weights
      W = rint(w / unit) + 1 >= 1 with unit = max(w) / 2^32: it needs non-zero
      weights, and on float weights it can loop forever where rounding makes
      ties inconsistent (seen on lattice clouds), while integers below 2^33
      keep its sums exact up to N = 2^19. Its matching sigma is optimal for W.
    - Bellman-Ford over the edges, on the float w, gives row duals a <= 0 and
      column duals b_j = w_(rho(j), j) - a_(rho(j)), tight on sigma. Where
      sigma misses the optimum of w on its edges by more than the rounding of
      w (tol = delta (max w + max|f| + max|g| + max|h|) an edge), it does not
      settle.
    - The check: one nearest query of y lifted by G = g + b gives, for every
      row, q_n = min_m (C_nm - G_m) + max G within delta (q_n + |max G|).
      Rows short of f_n + h_n + a_n by more than that add their violating
      edges among their CANDIDATE_K nearest, and the sparse solve runs again.
    - The certificate: lambda_n = q_n - max G - delta (q_n + |max G|) and G
      are a dual pair of the exact costs C of the points as given, whatever a
      and b are, so their optimum is at least
      B = max(0, (sum lambda + sum G) / N - 2 eps (mean|lambda| + mean|G|)),
      the fsum rounding included, and gap = cost - B + eps (cost + B) bounds
      cost - B: cost - gap <= optimum. The duals only make it tight.
    Returns None, for the dense route, when N <= CANDIDATE_K, when a squared
    distance would overflow, when the lift cannot rule a point out, when the
    candidates hold no perfect matching, when Bellman-Ford has not settled,
    after CHECK_ROUNDS rounds, or when gap > CERTIFIED_GAP cost.
    """
    n, k = x.n, CANDIDATE_K
    xs, ys = x.points, y.points
    eps = np.finfo(np.float64).eps
    delta = (x.dim + 16) * eps
    reach = float(np.abs(xs).max()) + float(np.abs(ys).max())
    if n <= k or not math.isfinite(x.dim * reach * reach):
        return None
    near, sure = _lifted_nearest(xs, f, ys, delta, float(np.abs(f).max()))
    if not sure.all():
        return None
    g = (_sq_dist(xs[near], ys[:, None]) - f[near]).min(axis=1)
    cands, sure = _lifted_nearest(ys, g, xs, delta, float(np.abs(f).max() + np.abs(g).max()))
    h = ((_sq_dist(xs[:, None], ys[cands]) - f[:, None]) - g[cands]).min(axis=1)
    if not (sure | (h == 0.0)).all():
        return None
    spread = float(np.abs(f).max() + np.abs(g).max() + np.abs(h).max())

    def reduced(keys):
        """Rows, columns and reduced entries of the edges n N + m, in the dense rounding."""
        r, c = keys // n, keys % n
        return r, c, ((_sq_dist(xs[r], ys[c]) - f[r]) - g[c]) - h[r]

    # each row's k nearest and each column's k nearest, so that no column is left with too few rows
    keys = np.union1d(np.arange(n).repeat(k) * n + cands.ravel(), near.ravel() * n + np.arange(n).repeat(k))
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    for _ in range(CHECK_ROUNDS):
        rows, cols, w = reduced(keys)  # sorted by row
        deg = np.bincount(rows, minlength=n)
        first = np.cumsum(deg) - deg
        unit = float(w.max()) / 2**32 or 1.0
        graph = sparse.csr_array((np.rint(w / unit) + 1.0, cols, np.append(first, rows.size)), shape=(n, n))
        try:
            sigma = min_weight_full_bipartite_matching(graph)[1]
        except ValueError:
            return None
        rho = np.empty(n, dtype=np.intp)
        rho[sigma] = np.arange(n)
        on = cols == sigma[rows]
        w_col = np.empty(n)
        w_col[cols[on]] = w[on]  # w_(rho(j), j)
        # row i's in-edges come from the rows matched to its columns: a_i <= a_rho(j) + w_ij - w_rho(j)j
        tails = np.zeros((deg.max(), n), dtype=np.intp)
        lengths = np.full(tails.shape, np.inf)
        slot = np.arange(rows.size) - first[rows]
        tails[slot, rows] = rho[cols]
        lengths[slot, rows] = w - w_col[cols]
        a = _settle(tails, lengths, delta * (float(w.max()) + spread))
        if a is None:
            return None
        b = w_col - a[rho]
        big_g = g + b
        tree, top = _lifted_tree(ys, big_g)
        q = _nearest(tree, xs, 1)[1]
        slack = delta * (q + abs(top))
        low = q - top
        short = np.flatnonzero(low + slack < f + h + a)
        if short.size == 0:
            break
        r, c, wr = reduced(np.repeat(short, k) * n + _nearest(tree, xs[short], k)[0].ravel())
        grown = np.union1d(keys, (r * n + c)[wr < a[r] + b[c]])
        if grown.size == keys.size:
            break
        keys = grown
    else:
        return None
    cost = pair_cost(x, y, sigma)
    lam = low - slack
    rounding = 2 * eps * float(np.abs(lam).mean() + np.abs(big_g).mean())
    bound = max(0.0, (math.fsum(lam) + math.fsum(big_g)) / n - rounding)
    gap = cost - bound + eps * (cost + bound)
    if not gap <= CERTIFIED_GAP * cost:
        return None
    return cost, g, h, gap


def _settle(tails: np.ndarray, lengths: np.ndarray, tol: float) -> np.ndarray | None:
    """A p <= 0 with p_h <= p_t + l + tol for every edge t -> h, or None.

    Column h of the (D, N) arrays lists the tails and lengths of the edges into
    node h. Jacobi Bellman-Ford from p = 0, until no node falls by more than
    tol in a round; None if that has not happened within CANDIDATE_ROUNDS
    rounds. tol lets a cycle of zero length, which rounding may make a last
    bit negative, settle.
    """
    p = np.zeros(tails.shape[1])
    for _ in range(CANDIDATE_ROUNDS):
        reach = p[tails]
        reach += lengths
        best = reach.min(axis=0)
        if not (best < p - tol).any():
            return p
        np.minimum(p, best, out=p)
    return None


def optimal_cost(x: PointCloud, y: PointCloud) -> float:
    """Exact matching cost: the first value of `optimal_with_dual`, without its bound."""
    return _solve_with_dual(x, y)[0]


def match_lp(c: CostMatrix) -> tuple[float, np.ndarray]:
    """Kantorovich relaxation over bistochastic matrices, solved exactly: (cost, weights).

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
    return float((c.entries * weights).sum() / n), weights
