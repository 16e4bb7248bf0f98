"""Hierarchical transport map from the uniform measure to an empirical measure.

The unit of work is a dyadic tree over [0, L]^d: each level halves every box
along one coordinate (cycling through coordinates), down to the stopping level
where box sides reach the microscopic scale [r, 2r). A one-dimensional block map
rebalances mass between the two halves of every box at every level; composing
the per-level maps and finishing with an equal-volume cell assignment inside
each stopping box yields a map T whose preimages all have volume exactly L^d/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .assignment import TransportPlan, _check_pair
from .geometry import PointCloud

MIN_COST_PROBES = 1000
COUPLING_CHUNK_PAIRS = 1 << 18  # candidate point pairs per chunk in the exact coupling
EVAL_SLICE_POINTS = 1 << 12  # points per slice of a level walk: build_tree and the potential's evaluators


# ---------------------------------------------------------------------------
# Level bookkeeping: one coordinate is halved per level, cycling 1, 2, ..., d.


def split_coordinate(level: int, dim: int) -> int:
    """0-based coordinate halved when refining level-(k-1) boxes into level-k boxes."""
    return (level - 1) % dim


def level_sides(level: int, dim: int, side: float) -> np.ndarray:
    """Per-coordinate side lengths of every box at a given level (all boxes agree)."""
    halvings = level // dim + (np.arange(dim) < level % dim)
    return side * 2.0 ** (-halvings.astype(np.float64))


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

    @cached_property
    def rho_heap(self) -> np.ndarray:
        """2 * N_left / N_parent for every box above the stopping level, 1 where
        the box is empty, in heap order: box b of level k at 2^k - 1 + b."""
        counts = np.concatenate(self.counts)  # heap order; a box's left child at 2 j + 1
        parents, lefts = counts[: counts.size // 2], counts[1::2]
        rho = np.where(parents > 0, 2.0 * lefts / np.maximum(parents, 1), 1.0)
        rho.flags.writeable = False  # computed once; rho_left hands out views of it
        return rho

    def rho_left(self, level: int) -> np.ndarray:
        """rho_heap of every level-(level-1) box."""
        return self.rho_heap[(1 << (level - 1)) - 1 : (1 << level) - 1]

    @cached_property
    def boxes(self) -> tuple:
        """(lower, upper corners) of every level-k box, k = 0..k*, by box index;
        computed once per tree, read-only."""
        return _levels(self, lambda level: 0.5)

    @cached_property
    def preimages(self) -> tuple:
        """(lower, upper corners) of every level-k box's preimage under S_k,
        k = 0..k*, by box index; computed once per tree, read-only."""
        return _levels(self, lambda level: self.rho_left(level) / 2.0)


def box_index_of_points(points: np.ndarray, side: float, dim: int, level: int):
    """Level-`level` box of each point by the dyadic halving walk, with its corners.

    Round r halves every coordinate once (levels r d + 1 .. r d + d, one
    scale), comparing each point with its running lower corner plus the half
    side: an interior face belongs to the upper box, the outer face x_i = L to
    the last. Returns (box, lo): the level-`level` box index, its bits the
    walk's choices in level order, and lo (rounds + 1, d, N) the lower corners
    before every round.
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=np.float64)).T)
    rounds = -(-level // dim)
    lo = np.zeros((rounds + 1,) + x.shape)
    right = np.empty((rounds,) + x.shape, dtype=bool)
    for r in range(rounds):
        lk = level_scale(r * dim + 1, dim, side)
        np.greater_equal(x, lo[r] + lk, out=right[r])
        np.add(lo[r], right[r] * lk, out=lo[r + 1])
    bits = right.reshape(rounds * dim, x.shape[1])[:level]
    box = np.left_shift(bits, np.arange(level - 1, -1, -1)[:, None], dtype=np.int64).sum(axis=0)
    return box, lo


def build_tree(cloud: PointCloud) -> DyadicTree:
    """Count points in every dyadic box down to the stopping level.

    Points are binned once at the stopping level and parent counts are pairwise
    sums, so per-level totals and child/parent consistency hold structurally.
    """
    if cloud.n < 1:
        raise ValueError("build_tree requires a nonempty cloud")
    k_star = stopping_level(cloud.n, cloud.dim)
    slices = (cloud.points[lo : lo + EVAL_SLICE_POINTS] for lo in range(0, cloud.n, EVAL_SLICE_POINTS))
    box = np.concatenate([box_index_of_points(pts, cloud.side, cloud.dim, k_star)[0] for pts in slices])
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


def block_map_displacement_cost(rho_minus: float) -> float:
    """Closed form of int_0^2 (T_rho(u) - u)^2 du = 2 (rho_minus - 1)^2 / 3.

    The displacement is (1 - rho) u / rho left of rho_minus and
    (1 - rho) (2 - u) / (2 - rho) right of it, so each piece contributes its
    length times (rho_minus - 1)^2 / 3; this holds at the endpoints 0 and 2 too.
    """
    if not 0.0 <= rho_minus <= 2.0:
        raise ValueError(f"rho_minus must lie in [0, 2], got {rho_minus}")
    return 2.0 * (rho_minus - 1.0) ** 2 / 3.0


def block_map_symmetrized_defect(rho_minus: float) -> float:
    """Closed form of int (0.5*(T_rho - id) + 0.5*(T_(2-rho) - id))^2 on [0, 2].

    The two displacements cancel to leading order, leaving the quartically
    small defect 2 (rho_minus - 1)^4 / (3 max(rho_minus, 2 - rho_minus)^2),
    valid on all of [0, 2]."""
    if not 0.0 <= rho_minus <= 2.0:
        raise ValueError(f"rho_minus must lie in [0, 2], got {rho_minus}")
    return 2.0 * (rho_minus - 1.0) ** 4 / (3.0 * max(rho_minus, 2.0 - rho_minus) ** 2)


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

    @cached_property
    def point_preimages(self) -> tuple:
        """(lower, upper corners) of T^(-1)(X_n) by point id, each of volume
        L^d/N; computed once per map, read-only."""
        return _read_only(*_point_preimages(self, *self.tree.preimages[-1]))


def build_map(cloud: PointCloud) -> HierarchicalMap:
    tree = build_tree(cloud)
    pts = cloud.points
    keys = tuple(pts[:, i] for i in range(tree.dim - 1, -1, -1)) + (tree.point_box,)
    order = np.lexsort(keys)
    sorted_box = tree.point_box[order]
    offsets = np.searchsorted(sorted_box, np.arange(2**tree.k_star + 1))
    return HierarchicalMap(tree=tree, cell_order=order, box_offsets=offsets)


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
        rel = np.clip((pos[occupied, 0] - lo[occupied, 0]) / tree.scale(tree.k_star), 0.0, 1.0)
        slab = np.clip((rel * n_box[occupied]).astype(np.int64), 0, n_box[occupied] - 1)
        pid = h.cell_order[h.box_offsets[b[occupied]] + slab]
        idx[occupied] = pid
        images[occupied] = tree.cloud.points[pid]
    return images, idx, history


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
    _check_pair(tx, ty)
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
    return TransportPlan(cost=cost, weights=weights), stderr


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


def _levels(tree: DyadicTree, frac) -> tuple:
    """(lower, upper corners) of the boxes of every level k = 0..k*, read-only:
    level 0 is the domain and each level splits the one above it, the left
    child taking the fraction frac(k) of its parent."""
    levels = [(np.zeros((1, tree.dim)), np.full((1, tree.dim), tree.side))]
    for level in range(1, tree.k_star + 1):
        levels.append(_split(level, *levels[-1], frac(level)))
    return tuple(_read_only(*corners) for corners in levels)


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


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _centre_width(lo: np.ndarray, hi: np.ndarray):
    return (lo + hi) / 2.0, hi - lo


def map_cost_exact(h: HierarchicalMap) -> float:
    """(1/L^d) int |T(x) - x|^2 dx in closed form.

    T is constant on each preimage box (centre c_n, widths w_n, volume L^d/N),
    so the integral is (1/N) sum_n (|X_n - c_n|^2 + sum_i w_(n,i)^2 / 12).
    """
    centres, widths = _centre_width(*h.point_preimages)
    sq = ((h.tree.cloud.points - centres) ** 2).sum(axis=1) + (widths**2).sum(axis=1) / 12.0
    return float(sq.mean())


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + lengths[k] - 1 for every k, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - lengths), lengths)


def _slab_pairs(na: np.ndarray, nb: np.ndarray, edges_t: np.ndarray, edges_s: np.ndarray):
    """Candidate slab pairs of box pairs holding na and nb slabs, by merging slab edges.

    Inside a stopping box the point preimages are slabs along coordinate 1,
    so two boxes' slabs can only overlap along a staircase. edges_t and
    edges_s hold each box pair's inner slab edges, the pairs one after
    another, each run sorted. Merging a box pair's two runs, every merged edge
    steps to the next slab on its side: the first pair (0, 0) and one pair
    per edge give na + nb - 1 slab pairs (i, j) in lexicographic order,
    among them every pair that overlaps. Returns (i, j, reps), reps being the
    slab pairs per box pair.
    """
    pair = np.arange(na.size)
    owner_t, owner_s = np.repeat(pair, na - 1), np.repeat(pair, nb - 1)
    # edges of earlier box pairs, or of this one lying strictly below, on the other side
    below = np.searchsorted(owner_s + 1j * edges_s, owner_t + 1j * edges_t)
    reps = na + nb - 1
    steps_t = np.zeros(reps.sum(), dtype=np.int64)
    steps_t[np.arange(edges_t.size) + below + owner_t + 1] = 1
    i = np.cumsum(steps_t) - np.repeat(np.cumsum(na - 1) - (na - 1), reps)
    j = np.arange(steps_t.size) - np.repeat(np.cumsum(reps) - reps, reps) - i
    return i, j, reps


def _overlapping_boxes(t: HierarchicalMap, s: HierarchicalMap):
    """Stopping-box pairs (a, b) whose preimages overlap, with every box's
    preimage corners: (a, b, (lo_t, hi_t), (lo_s, hi_s)).

    Both trees split the same coordinate at every level, so one joint descent
    keeps only the overlapping pairs, checking the split coordinate."""
    tx, ty = t.tree, s.tree
    _check_pair(tx.cloud, ty.cloud)
    a = b = np.zeros(1, dtype=np.int64)
    for level in range(1, tx.k_star + 1):
        c = split_coordinate(level, tx.dim)
        (lo_t, hi_t), (lo_s, hi_s) = tx.preimages[level], ty.preimages[level]
        a = (2 * a[:, None] + np.array([0, 0, 1, 1])).ravel()
        b = (2 * b[:, None] + np.array([0, 1, 0, 1])).ravel()
        keep = np.minimum(hi_t[a, c], hi_s[b, c]) > np.maximum(lo_t[a, c], lo_s[b, c])
        a, b = a[keep], b[keep]
    return a, b, tx.preimages[-1], ty.preimages[-1]


def _coupling_chunks(t: HierarchicalMap, s: HierarchicalMap):
    """Yield (n, m, mass) of the exact coupling, about COUPLING_CHUNK_PAIRS
    candidate point pairs at a time.

    The candidates of each pair of `_overlapping_boxes` are the na + nb - 1
    slab pairs of `_slab_pairs`, and a chunk takes the box pairs whose first
    candidate falls in its window, so no box pair is split.
    """
    tx, ty = t.tree, s.tree
    a, b, (lo_t, hi_t), (lo_s, hi_s) = _overlapping_boxes(t, s)
    # Slabs differ from their box along coordinate 1 only: the box pair's
    # overlap gives the other sides. A kept box pair holds points on both
    # sides, since an empty box's preimage has no width along the coordinate
    # that emptied it.
    (lo_r, hi_r), (lo_q, hi_q) = t.point_preimages, s.point_preimages
    lower_t, upper_t = lo_r[t.cell_order, 0], hi_r[t.cell_order, 0]
    lower_s, upper_s = lo_q[s.cell_order, 0], hi_q[s.cell_order, 0]
    across = np.minimum(hi_t[a, 1:], hi_s[b, 1:]) - np.maximum(lo_t[a, 1:], lo_s[b, 1:])
    na, nb = tx.counts[tx.k_star][a], ty.counts[ty.k_star][b]
    off_t, off_s = t.box_offsets[a], s.box_offsets[b]
    reps = na + nb - 1
    starts = np.cumsum(reps) - reps
    windows = np.arange(0, starts[-1] + 1, COUPLING_CHUNK_PAIRS)
    edges = np.unique(np.append(np.searchsorted(starts, windows), a.size))
    volume = tx.side**tx.dim
    for first, last in zip(edges[:-1], edges[1:]):
        box = slice(first, last)
        inner_t = lower_t[_ranges(off_t[box] + 1, na[box] - 1)]
        inner_s = lower_s[_ranges(off_s[box] + 1, nb[box] - 1)]
        i, j, r = _slab_pairs(na[box], nb[box], inner_t, inner_s)
        at, bs = np.repeat(off_t[box], r) + i, np.repeat(off_s[box], r) + j
        vol = (np.minimum(upper_t[at], upper_s[bs]) - np.maximum(lower_t[at], lower_s[bs])).clip(min=0.0)
        for side in across[box].T.clip(min=0.0):
            vol = vol * np.repeat(side, r)
        keep = vol > 0.0
        yield t.cell_order[at[keep]], s.cell_order[bs[keep]], vol[keep] / volume


def coupling_exact(t: HierarchicalMap, s: HierarchicalMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coupling of the two clouds through a common uniform point, exactly.

    Returns (n, m, mass) for every pair whose preimage boxes R_n = T^(-1)(X_n)
    and Q_m = S^(-1)(Y_m) overlap, with mass vol(R_n & Q_m) / L^d; every row and
    column sums to 1/N. The candidate point pairs are expanded in chunks
    (`_coupling_chunks`), so only the overlapping pairs are ever held whole.
    """
    n_idx, m_idx, mass = zip(*_coupling_chunks(t, s))
    return np.concatenate(n_idx), np.concatenate(m_idx), np.concatenate(mass)


def coupling_cost_exact(t: HierarchicalMap, s: HierarchicalMap) -> float:
    """sum over pairs of mass * |Y_m - X_n|^2 for the exact coupling; an upper
    bound on the optimal matching cost by the Birkhoff-von Neumann theorem.

    The pairs' terms stream chunk by chunk into math.fsum, so no array spans
    all the pairs and the correctly rounded sum does not depend on the
    chunking."""
    x, y = t.tree.cloud.points, s.tree.cloud.points
    terms = (mass * ((y[m] - x[n]) ** 2).sum(axis=1) for n, m, mass in _coupling_chunks(t, s))
    return math.fsum(chain.from_iterable(v.tolist() for v in terms))


# ---------------------------------------------------------------------------
# Per-level costs of the composed map, in closed form.


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
    for level in range(1, tree.k_star + 1):
        c_q, w_q = _centre_width(*_split(level, *tree.boxes[level - 1], tree.rho_left(level) / 2.0))
        (c_p, w_p), (c_b, w_b) = _centre_width(*tree.preimages[level]), _centre_width(*tree.boxes[level])
        weight = w_p.prod(axis=1) / tree.side**tree.dim
        sq[level] = weight @ (((c_b - c_p) ** 2).sum(axis=1) + ((w_b - w_p) ** 2).sum(axis=1) / 12.0)
        cross[level] = weight @ (
            ((c_q - c_p) * (c_b - c_q)).sum(axis=1) + ((w_q - w_p) * (w_b - w_q)).sum(axis=1) / 12.0
        )
    return sq, cross
