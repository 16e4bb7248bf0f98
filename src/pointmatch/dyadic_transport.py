"""Hierarchical transport map from the uniform measure to an empirical measure.

The unit of work is a dyadic tree over [0, L]^d: each level halves every box
along one coordinate (cycling through coordinates), down to the stopping level
where box sides reach the microscopic scale [r, 2r). A one-dimensional block map
rebalances mass between the two halves of every box at every level; composing
the per-level maps and finishing with an equal-volume cell assignment inside
each stopping box yields a map T whose preimages all have volume exactly L^d/N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import TransportPlan
from .geometry import PointCloud, sample_uniform, substream_seed

MIN_COST_PROBES = 1000


# ---------------------------------------------------------------------------
# Level bookkeeping: one coordinate is halved per level, cycling 1, 2, ..., d.


def split_coordinate(level: int, dim: int) -> int:
    """0-based coordinate halved when refining level-(k-1) boxes into level-k boxes."""
    return (level - 1) % dim


def splits_per_coordinate(level: int, dim: int) -> np.ndarray:
    """How many times each coordinate has been halved after `level` levels."""
    m = np.full(dim, level // dim, dtype=np.int64)
    m[: level % dim] += 1
    return m


def level_sides(level: int, dim: int, side: float) -> np.ndarray:
    """Per-coordinate side lengths of every box at a given level (all boxes agree)."""
    return side * 2.0 ** (-splits_per_coordinate(level, dim).astype(np.float64))


def level_scale(level: int, dim: int, side: float) -> float:
    """Shortest box side at a level: L_k = 2^(-ceil(k/d)) * L."""
    return side * 2.0 ** (-((level + dim - 1) // dim))


def stopping_level(n: int, dim: int) -> int:
    """First level whose scale L_k lands in [r, 2r), r = L * n^(-1/d).

    Computed in integer arithmetic: j is the unique integer with
    2^(j*d) <= n < 2^((j+1)*d), and the first level with ceil(k/d) = j
    is d*(j-1)+1 (or 0 when j = 0).
    """
    if n < 1 or dim < 1:
        raise ValueError("stopping level requires n >= 1 and dim >= 1")
    j = 0
    while 2 ** ((j + 1) * dim) <= n:
        j += 1
    return dim * (j - 1) + 1 if j > 0 else 0


def box_corners(level: int, idx: np.ndarray, dim: int, side: float) -> np.ndarray:
    """Lower corners of the boxes with the given indices at a level.

    Bit l of an index (most significant first) says whether the box sits in the
    upper half of the level-l split.
    """
    idx = np.asarray(idx, dtype=np.int64)
    corners = np.zeros((idx.shape[0], dim))
    for l in range(1, level + 1):
        c = split_coordinate(l, dim)
        child_side = side * 2.0 ** (-((l - 1) // dim + 1))
        bit = (idx >> (level - l)) & 1
        corners[:, c] += bit * child_side
    return corners


# ---------------------------------------------------------------------------
# The dyadic tree with per-box counts.


@dataclass(frozen=True)
class DyadicTree:
    cloud: PointCloud
    k_star: int
    counts: list  # counts[k]: int64 array of length 2^k, box counts at level k
    point_box: np.ndarray  # stopping-level box index of each sample point

    @property
    def dim(self) -> int:
        return self.cloud.dim

    @property
    def side(self) -> float:
        return self.cloud.side

    def scale(self, level: int) -> float:
        return level_scale(level, self.dim, self.side)

    def rho_left(self, level: int) -> np.ndarray:
        """2 * N_left / N_parent for every level-(level-1) box; 1 where the parent is empty."""
        parents = self.counts[level - 1]
        lefts = self.counts[level][0::2]
        return np.where(parents > 0, 2.0 * lefts / np.maximum(parents, 1), 1.0)


def box_index_of_points(points: np.ndarray, side: float, dim: int, level: int) -> np.ndarray:
    """Level-`level` box index of each point (half-open boxes, outer faces closed)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = splits_per_coordinate(level, dim)
    cells = np.empty((points.shape[0], dim), dtype=np.int64)
    for i in range(dim):
        t = np.floor(points[:, i] * (2.0 ** m[i] / side)).astype(np.int64)
        cells[:, i] = np.clip(t, 0, 2 ** m[i] - 1)
    box = np.zeros(points.shape[0], dtype=np.int64)
    for l in range(1, level + 1):
        c = split_coordinate(l, dim)
        done = (l - 1) // dim + 1  # halvings of coordinate c up to level l
        bit = (cells[:, c] >> (m[c] - done)) & 1
        box = (box << 1) | bit
    return box


def build_tree(cloud: PointCloud) -> DyadicTree:
    """Count points in every dyadic box down to the stopping level.

    Points are binned once at the stopping level and parent counts are pairwise
    sums, so per-level totals and child/parent consistency hold structurally.
    """
    if cloud.n < 1:
        raise ValueError("build_tree requires a nonempty cloud")
    k_star = stopping_level(cloud.n, cloud.dim)
    box = box_index_of_points(cloud.points, cloud.side, cloud.dim, k_star)
    counts = [None] * (k_star + 1)
    counts[k_star] = np.bincount(box, minlength=2**k_star).astype(np.int64)
    for k in range(k_star - 1, -1, -1):
        counts[k] = counts[k + 1].reshape(-1, 2).sum(axis=1)
    return DyadicTree(cloud=cloud, k_star=k_star, counts=counts, point_box=box)


def preimage_volume_products(tree: DyadicTree) -> np.ndarray:
    """Per point: L^d * prod(N_child / N_parent along its branch) / N_(stopping box).

    The product telescopes to L^d / N; returning the factored form exposes any
    bookkeeping error in the tree."""
    d, L, n = tree.dim, tree.side, tree.cloud.n
    prod = np.full(n, L**d)
    b = tree.point_box.copy()
    for level in range(tree.k_star, 0, -1):
        parent = b >> 1
        prod *= tree.counts[level][b] / tree.counts[level - 1][parent]
        b = parent
    return prod / tree.counts[tree.k_star][tree.point_box]


# ---------------------------------------------------------------------------
# The one-dimensional building block on [0, 2].


def _block_map_vec(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    on_left = u <= rho
    left = np.where(on_left, u, 0.0) / np.where(rho > 0.0, rho, 1.0)
    right = 2.0 - np.where(on_left, 0.0, 2.0 - u) / np.where(rho < 2.0, 2.0 - rho, 1.0)
    out = np.where(on_left, left, right)
    out = np.where(rho == 0.0, 1.0 + u / 2.0, out)
    return np.where(rho == 2.0, u / 2.0, out)


def block_map(rho_minus: float, x: float) -> float:
    """Monotone map of [0, 2] onto itself pushing Lebesgue measure to the
    two-slab density (rho_minus on [0,1], 2 - rho_minus on [1,2]).

    x <= rho_minus maps to x / rho_minus, the rest affinely onto [1, 2]; the
    degenerate endpoints follow T_0(0) = 1, T_0(x) = 1 + x/2, T_2(x) = x/2.
    """
    if not 0.0 <= rho_minus <= 2.0:
        raise ValueError(f"rho_minus must lie in [0, 2], got {rho_minus}")
    if not 0.0 <= x <= 2.0:
        raise ValueError(f"x must lie in [0, 2], got {x}")
    return float(_block_map_vec(rho_minus, x))


def _simpson(f, a: float, b: float, n: int) -> float:
    if b <= a:
        return 0.0
    n = max(2, n + (n % 2))
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


def _piecewise_quadrature(f, breaks, nodes: int) -> float:
    pts = sorted({0.0, 2.0, *(float(np.clip(t, 0.0, 2.0)) for t in breaks)})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        total += _simpson(f, a, b, max(2, round(nodes * (b - a) / 2.0)))
    return total


def block_map_displacement_cost(rho_minus: float, nodes: int = 10_000) -> float:
    """Quadrature value of the squared displacement integral of the block map."""
    if not 0.0 <= rho_minus <= 2.0:
        raise ValueError(f"rho_minus must lie in [0, 2], got {rho_minus}")
    return _piecewise_quadrature(
        lambda u: (_block_map_vec(rho_minus, u) - u) ** 2, [rho_minus], nodes
    )


def block_map_symmetrized_defect(rho_minus: float, nodes: int = 10_000) -> float:
    """Quadrature value of int (0.5*(T_rho - id) + 0.5*(T_(2-rho) - id))^2.

    The two displacements cancel to leading order, leaving a quartically small
    defect in (rho_minus - 1)."""
    if not 0.0 <= rho_minus <= 2.0:
        raise ValueError(f"rho_minus must lie in [0, 2], got {rho_minus}")

    def f(u):
        da = _block_map_vec(rho_minus, u) - u
        db = _block_map_vec(2.0 - rho_minus, u) - u
        return (0.5 * da + 0.5 * db) ** 2

    return _piecewise_quadrature(f, [rho_minus, 2.0 - rho_minus], nodes)


# ---------------------------------------------------------------------------
# The composed hierarchical map.


@dataclass(frozen=True)
class HierarchicalMap:
    """Composed map: per-level block maps followed by the last-mile cell map.

    Points inside each stopping box are enumerated in lexicographic coordinate
    order; the box is sliced into equal-width slabs along coordinate 1 and slab
    j maps onto the j-th point.
    """

    tree: DyadicTree
    cell_order: np.ndarray = field(repr=False)  # point ids sorted by (box, lex coords)
    box_offsets: np.ndarray = field(repr=False)  # CSR-style offsets per stopping box


def hierarchical_map(tree: DyadicTree) -> HierarchicalMap:
    pts = tree.cloud.points
    keys = tuple(pts[:, i] for i in range(tree.dim - 1, -1, -1)) + (tree.point_box,)
    order = np.lexsort(keys)
    sorted_box = tree.point_box[order]
    offsets = np.searchsorted(sorted_box, np.arange(2**tree.k_star + 1))
    return HierarchicalMap(tree=tree, cell_order=order, box_offsets=offsets)


def build_map(cloud: PointCloud) -> HierarchicalMap:
    return hierarchical_map(build_tree(cloud))


def _descend(h: HierarchicalMap, xs: np.ndarray, record_levels: bool = False):
    """Run the per-level block maps on a batch of probes.

    Returns final images, matched point indices (-1 on the measure-zero event
    of landing in an empty stopping box), and optionally the position after
    every level.
    """
    tree = h.tree
    d, L = tree.dim, tree.side
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    p = xs.shape[0]
    pos = xs.copy()
    lo = np.zeros((p, d))
    b = np.zeros(p, dtype=np.int64)
    history = [pos.copy()] if record_levels else None

    for level in range(1, tree.k_star + 1):
        c = split_coordinate(level, d)
        half = L * 2.0 ** (-((level - 1) // d + 1))
        rho = tree.rho_left(level)[b]
        u = np.clip((pos[:, c] - lo[:, c]) / half, 0.0, 2.0)
        v = _block_map_vec(rho, u)
        pos[:, c] = lo[:, c] + v * half
        go_right = ((u >= rho) & (rho < 2.0)).astype(np.int64)
        b = 2 * b + go_right
        lo[:, c] += go_right * half
        if record_levels:
            history.append(pos.copy())

    n_box = tree.counts[tree.k_star][b]
    images = pos.copy()
    idx = np.full(p, -1, dtype=np.int64)
    occupied = n_box > 0
    if occupied.any():
        width0 = L * 2.0 ** (-splits_per_coordinate(tree.k_star, d)[0])
        rel = np.clip((pos[occupied, 0] - lo[occupied, 0]) / width0, 0.0, 1.0)
        slab = np.clip((rel * n_box[occupied]).astype(np.int64), 0, n_box[occupied] - 1)
        pid = h.cell_order[h.box_offsets[b[occupied]] + slab]
        idx[occupied] = pid
        images[occupied] = tree.cloud.points[pid]
    return images, idx, history


def evaluate_map(h: HierarchicalMap, x: np.ndarray) -> np.ndarray:
    """Image T(x) of a single point; identity on (measure-zero) empty stopping boxes."""
    images, _, _ = _descend(h, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return images[0]


def map_images(h: HierarchicalMap, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch images and the matched sample index per probe."""
    images, idx, _ = _descend(h, xs)
    return images, idx


def map_cost(h: HierarchicalMap, probes: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of (1/L^d) int |T(x) - x|^2 dx with its standard error."""
    if probes < MIN_COST_PROBES:
        raise ValueError(f"probes must be >= {MIN_COST_PROBES}")
    tree = h.tree
    rng = np.random.default_rng(np.uint64(seed))
    xs = rng.random((probes, tree.dim)) * tree.side
    images, _, _ = _descend(h, xs)
    sq = ((images - xs) ** 2).sum(axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(probes))


def couple_two_clouds(
    t: HierarchicalMap,
    s: HierarchicalMap,
    probes: int = 100_000,
    seed: int = 0,
    collect_matrix: bool = False,
) -> tuple[TransportPlan, float]:
    """Couple the clouds behind two maps by pushing common probes through both.

    A probe x contributes the pair (T(x), S(x)); the fraction of probes hitting
    (X_n, Y_m) estimates the coupling weight, and the mean of |Y_m - X_n|^2 over
    probes estimates the coupling cost directly (1/N normalization built in).
    Returns the plan and the standard error of its cost.
    """
    tx, ty = t.tree.cloud, s.tree.cloud
    if tx.n != ty.n or tx.dim != ty.dim or tx.side != ty.side:
        raise ValueError("maps must be built over clouds of equal size, dim and side")
    if probes < MIN_COST_PROBES:
        raise ValueError(f"probes must be >= {MIN_COST_PROBES}")
    rng = np.random.default_rng(np.uint64(seed))
    xs = rng.random((probes, tx.dim)) * tx.side
    _, n_idx, _ = _descend(t, xs)
    _, m_idx, _ = _descend(s, xs)
    hit = (n_idx >= 0) & (m_idx >= 0)
    n_idx, m_idx = n_idx[hit], m_idx[hit]
    sq = ((ty.points[m_idx] - tx.points[n_idx]) ** 2).sum(axis=1)
    cost = float(sq.mean())
    stderr = float(sq.std(ddof=1) / np.sqrt(sq.size))
    weights = None
    if collect_matrix:
        weights = np.zeros((tx.n, tx.n))
        np.add.at(weights, (n_idx, m_idx), 1.0)
        weights *= tx.n / sq.size
    return TransportPlan(kind="coupling", cost=cost, weights=weights), stderr


# ---------------------------------------------------------------------------
# Exact costs from preimage boxes.
#
# Each level map moves the split coordinate affinely on either side of its
# breakpoint, so S_k maps the preimage of every level-k box affinely onto the
# box: preimages are axis-aligned boxes, and along the split coordinate the
# left child takes the fraction rho_left/2 = N_left/N_Q of its parent's.


def _cut(lo: np.ndarray, hi: np.ndarray, frac) -> np.ndarray:
    """Point at fraction `frac` of [lo, hi]; exactly lo at 0 and hi at 1, so
    neighbouring boxes share their faces bit for bit."""
    return lo * (1.0 - frac) + hi * frac


def _split(level: int, lo: np.ndarray, hi: np.ndarray, frac):
    """Children of every box along the level's split coordinate, the left child
    taking the fraction `frac` of its parent."""
    c = split_coordinate(level, lo.shape[1])
    lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
    cut = _cut(lo[0::2, c], hi[0::2, c], frac)
    hi[0::2, c] = cut
    lo[1::2, c] = cut
    return lo, hi


def _split_preimages(tree: DyadicTree, level: int, lo: np.ndarray, hi: np.ndarray):
    """Corners of the level-`level` box preimages under S_level from their parents'."""
    return _split(level, lo, hi, tree.rho_left(level) / 2.0)


def _point_preimages(h: HierarchicalMap, lo_box: np.ndarray, hi_box: np.ndarray):
    """Cut each stopping-box preimage into equal slabs along coordinate 1, one per
    point in cell order; returns (lower, upper corners) indexed by point id."""
    tree = h.tree
    order = h.cell_order
    box = tree.point_box[order]
    n_box = tree.counts[tree.k_star][box]
    slab = np.arange(order.size) - h.box_offsets[box]
    lo, hi = lo_box[box], hi_box[box]
    start, stop = slab / n_box, (slab + 1) / n_box
    lo[:, 0], hi[:, 0] = _cut(lo[:, 0], hi[:, 0], start), _cut(lo[:, 0], hi[:, 0], stop)
    lower, upper = np.empty_like(lo), np.empty_like(hi)
    lower[order], upper[order] = lo, hi
    return lower, upper


def _domain(tree: DyadicTree):
    return np.zeros((1, tree.dim)), np.full((1, tree.dim), tree.side)


def _centre_width(lo: np.ndarray, hi: np.ndarray):
    return (lo + hi) / 2.0, hi - lo


def preimage_boxes(h: HierarchicalMap) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of T^(-1)(X_n) for every sample point; each box has volume L^d/N."""
    lo, hi = _domain(h.tree)
    for level in range(1, h.tree.k_star + 1):
        lo, hi = _split_preimages(h.tree, level, lo, hi)
    return _point_preimages(h, lo, hi)


def map_cost_exact(h: HierarchicalMap) -> float:
    """(1/L^d) int |T(x) - x|^2 dx in closed form.

    T is constant on each preimage box (centre c_n, widths w_n, volume L^d/N),
    so the integral is (1/N) sum_n (|X_n - c_n|^2 + sum_i w_(n,i)^2 / 12).
    """
    centres, widths = _centre_width(*preimage_boxes(h))
    sq = ((h.tree.cloud.points - centres) ** 2).sum(axis=1) + (widths**2).sum(axis=1) / 12.0
    return float(sq.mean())


def coupling_exact(t: HierarchicalMap, s: HierarchicalMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coupling of the two clouds through a common uniform point, exactly.

    Returns (n, m, mass) for every pair whose preimage boxes R_n = T^(-1)(X_n)
    and Q_m = S^(-1)(Y_m) overlap, with mass vol(R_n & Q_m) / L^d; every row and
    column sums to 1/N. Both trees split the same coordinate at every level, so
    one joint descent keeps only the box pairs whose preimages overlap.
    """
    tx, ty = t.tree, s.tree
    if tx.cloud.n != ty.cloud.n or tx.dim != ty.dim or tx.side != ty.side:
        raise ValueError("maps must be built over clouds of equal size, dim and side")
    (lo_t, hi_t), (lo_s, hi_s) = _domain(tx), _domain(ty)
    a = b = np.zeros(1, dtype=np.int64)
    for level in range(1, tx.k_star + 1):
        c = split_coordinate(level, tx.dim)
        lo_t, hi_t = _split_preimages(tx, level, lo_t, hi_t)
        lo_s, hi_s = _split_preimages(ty, level, lo_s, hi_s)
        a = (2 * a[:, None] + np.array([0, 0, 1, 1])).ravel()
        b = (2 * b[:, None] + np.array([0, 1, 0, 1])).ravel()
        keep = np.minimum(hi_t[a, c], hi_s[b, c]) > np.maximum(lo_t[a, c], lo_s[b, c])
        a, b = a[keep], b[keep]

    # every point pair of every overlapping pair of stopping boxes
    na, nb = tx.counts[tx.k_star][a], ty.counts[ty.k_star][b]
    reps = na * nb
    pair = np.repeat(np.arange(a.size), reps)
    local = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    n_idx = t.cell_order[t.box_offsets[a][pair] + local // nb[pair]]
    m_idx = s.cell_order[s.box_offsets[b][pair] + local % nb[pair]]
    (lo_r, hi_r), (lo_q, hi_q) = _point_preimages(t, lo_t, hi_t), _point_preimages(s, lo_s, hi_s)
    sides = np.minimum(hi_r[n_idx], hi_q[m_idx]) - np.maximum(lo_r[n_idx], lo_q[m_idx])
    vol = sides.clip(min=0.0).prod(axis=1)
    keep = vol > 0.0
    return n_idx[keep], m_idx[keep], vol[keep] / tx.side**tx.dim


def coupling_cost_exact(t: HierarchicalMap, s: HierarchicalMap) -> float:
    """sum over pairs of mass * |Y_m - X_n|^2 for the exact coupling; an upper
    bound on the optimal matching cost by the Birkhoff-von Neumann theorem."""
    n_idx, m_idx, mass = coupling_exact(t, s)
    sq = ((s.tree.cloud.points[m_idx] - t.tree.cloud.points[n_idx]) ** 2).sum(axis=1)
    return float(mass @ sq)


# ---------------------------------------------------------------------------
# Per-level cost recursion audit.


def level_costs_exact(tree: DyadicTree) -> tuple[np.ndarray, np.ndarray]:
    """Per level k = 0..k*: (1/L^d) int |S_k - id|^2 and the cross term
    (1/L^d) int (S_(k-1) - id) . (S_k - S_(k-1)), in closed form.

    S_k maps the preimage P of each level-k box B diagonal-affinely onto B, and
    S_(k-1) maps P onto Q, the parent box cut at rho_left/2. With centres c and
    side widths w, a box contributes vol(P)/L^d times
    |c_B - c_P|^2 + sum_i (w_B - w_P)^2 / 12 to the first and
    (c_Q - c_P).(c_B - c_Q) + sum_i (w_Q - w_P)(w_B - w_Q) / 12 to the second.
    """
    sq, cross = np.zeros(tree.k_star + 1), np.zeros(tree.k_star + 1)
    lo_p, hi_p = lo_b, hi_b = _domain(tree)
    for level in range(1, tree.k_star + 1):
        frac = tree.rho_left(level) / 2.0
        c_q, w_q = _centre_width(*_split(level, lo_b, hi_b, frac))
        lo_p, hi_p = _split(level, lo_p, hi_p, frac)
        lo_b, hi_b = _split(level, lo_b, hi_b, 0.5)
        (c_p, w_p), (c_b, w_b) = _centre_width(lo_p, hi_p), _centre_width(lo_b, hi_b)
        weight = w_p.prod(axis=1) / tree.side**tree.dim
        sq[level] = weight @ (((c_b - c_p) ** 2).sum(axis=1) + ((w_b - w_p) ** 2).sum(axis=1) / 12.0)
        cross[level] = weight @ (
            ((c_q - c_p) * (c_b - c_q)).sum(axis=1) + ((w_q - w_p) * (w_b - w_q)).sum(axis=1) / 12.0
        )
    return sq, cross


@dataclass(frozen=True)
class AuditRow:
    level: int
    scale: float  # L_k
    mean_sq: float  # E int |S_k - id|^2 d(uniform), mean over the ensemble
    stderr: float
    increment: float  # mean_sq[k] - mean_sq[k-1]
    cross_term: float  # E int (S_(k-1) - id) . (T_k - id) o S_(k-1)
    cross_stderr: float
    admissible_c: float  # smallest C satisfying the one-step recursion bound


@dataclass(frozen=True)
class RecursionAudit:
    n: int
    dim: int
    side: float
    trials: int
    rows: list
    admissible_c: float  # max over levels


def recursion_audit(
    n: int,
    dim: int,
    side: float = 1.0,
    trials: int = 100,
    master_seed: int = 0,
) -> RecursionAudit:
    """Per-level costs of the composed map over an ensemble of clouds.

    Each cloud's terms are exact (`level_costs_exact`); the error bars are the
    spread over the ensemble. For each level reports E int |S_k - id|^2 against
    the uniform measure, the increment over the previous level, the mixed cross
    term, and the smallest constant C that makes the one-step recursion
    E_k <= C (L_k/r)^(2-d) r^2 + (1 + C (r/L_k)^d) E_(k-1) hold.
    """
    if trials < 2:
        raise ValueError("audit needs at least 2 trials")
    k_star = stopping_level(n, dim)
    terms = np.array([
        level_costs_exact(build_tree(sample_uniform(n, side, dim, substream_seed(master_seed, trial, 0))))
        for trial in range(trials)
    ])
    sq_sums, cross_sums = terms[:, 0], terms[:, 1]
    r = side * n ** (-1.0 / dim)
    means = sq_sums.mean(axis=0)
    errs = sq_sums.std(axis=0, ddof=1) / np.sqrt(trials)
    cross_means = cross_sums.mean(axis=0)
    cross_errs = cross_sums.std(axis=0, ddof=1) / np.sqrt(trials)

    rows = []
    worst_c = 0.0
    for k in range(k_star + 1):
        if k == 0:
            rows.append(AuditRow(0, level_scale(0, dim, side), means[0], errs[0], 0.0, 0.0, 0.0, 0.0))
            continue
        lk = level_scale(k, dim, side)
        a_k = (lk / r) ** (2 - dim) * r**2
        b_k = (r / lk) ** dim
        increment = means[k] - means[k - 1]
        c_k = max(0.0, increment / (a_k + b_k * means[k - 1]))
        worst_c = max(worst_c, c_k)
        rows.append(
            AuditRow(k, lk, means[k], errs[k], increment, cross_means[k], cross_errs[k], c_k)
        )
    return RecursionAudit(n=n, dim=dim, side=side, trials=trials, rows=rows, admissible_c=worst_c)
