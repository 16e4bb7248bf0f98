"""Hierarchical dual potential giving per-instance lower bounds on the matching cost.

A fixed C^2 bump and its shifted negative are glued into a zero-mean block
phi(x) = (rho_- - 1) * (zeta(x) - zeta(x - 1)) on [0, 2]; rescaled copies are
planted on every dyadic box, weighted by the observed left/right count
imbalance, and summed over levels. The resulting potential has zero spatial
mean, vanishes with its gradient on all box boundaries, and its empirical-mean
gap divided by its gradient supremum lower-bounds the matching cost.

One evaluator walks the levels: `_level_stack` stacks every level's factors
for a slice of points, and values, gradients and the gradient grid all go
through it. The supremum is estimated on a grid (see `INFLATION`), so the
reported bound is only as sound as that estimate. The grid evaluates every
factor at every grid point, slower than a per-axis walk would be; that is
accepted because the grid route is a library diagnostic: the `lower-bound`
and `sandwich` subcommands report the certified bound of the exact solve
(`assignment.optimal_with_dual`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import _check_pair
from .dyadic_transport import (
    EVAL_SLICE_POINTS,
    DyadicTree,
    box_index_of_points,
    level_scale,
    split_coordinate,
)
from .geometry import PointCloud

ZETA_SCALE = 140.0  # normalizes int_0^1 x^3 (1-x)^3 dx = 1/140
# sup |grad Phi|^2 is estimated as the grid maximum times INFLATION**2. This is a
# heuristic, not a proven upper bound: the margin is meant to cover the residual
# between the grid maximum and the true supremum, but a finer grid can exceed it
# (at N = 64, divisor 32 beats the inflated divisor-8 value on 4 of 40 seeds in
# d = 2 and 13 of 40 in d = 3).
INFLATION = 1.05


def _zeta_val(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    inside = (x > 0.0) & (x < 1.0)
    xm = np.where(inside, x, 0.0)
    return ZETA_SCALE * xm**3 * (1.0 - xm) ** 3


def _zeta_d1(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    inside = (x > 0.0) & (x < 1.0)
    xm = np.where(inside, x, 0.0)
    return 3.0 * ZETA_SCALE * xm**2 * (1.0 - xm) ** 2 * (1.0 - 2.0 * xm)


def _zeta_d2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    inside = (x > 0.0) & (x < 1.0)
    xm = np.where(inside, x, 0.0)
    return 6.0 * ZETA_SCALE * xm * (1.0 - xm) * (5.0 * xm**2 - 5.0 * xm + 1.0)


def zeta(x):
    """Reference bump 140 x^3 (1-x)^3 on (0, 1), zero elsewhere.

    Returns (value, first derivative, second derivative); the triple zeros at 0
    and 1 make the extension by zero twice continuously differentiable, and the
    polynomial form gives closed-form integrals for oracles.
    """
    v, d1, d2 = _zeta_val(x), _zeta_d1(x), _zeta_d2(x)
    if np.ndim(x) == 0:
        return float(v), float(d1), float(d2)
    return v, d1, d2


def zeta_antiderivative(t):
    """int_0^t zeta, clamped to [0, 1] outside the support."""
    t = np.asarray(t, dtype=np.float64)
    tm = np.clip(t, 0.0, 1.0)
    val = 35.0 * tm**4 - 84.0 * tm**5 + 70.0 * tm**6 - 20.0 * tm**7
    return float(val) if np.ndim(t) == 0 else val


def phi_block(rho_minus: float, x) -> float | np.ndarray:
    """Zero-mean block (rho_- - 1) * (zeta(x) - zeta(x - 1)); odd under rho_- <-> 2 - rho_-."""
    if not 0.0 <= rho_minus <= 2.0:
        raise ValueError(f"rho_minus must lie in [0, 2], got {rho_minus}")
    out = (rho_minus - 1.0) * (_zeta_val(x) - _zeta_val(np.asarray(x, dtype=np.float64) - 1.0))
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class DualPotential:
    """Sum of per-level block potentials over the first `level` levels of a tree."""

    tree: DyadicTree
    level: int

    def __post_init__(self):
        if not 0 <= self.level <= self.tree.k_star:
            raise ValueError(f"level must lie in [0, {self.tree.k_star}], got {self.level}")


def hierarchical_potential(tree: DyadicTree, level: int | None = None) -> DualPotential:
    return DualPotential(tree=tree, level=tree.k_star if level is None else level)


def _times_product(a, factors: list):
    """a * (f_1 * f_2 * ...), the product taken first; a itself when there are no factors."""
    if not factors:
        return a
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    return a * prod


def _level_stack(p: DualPotential, xs: np.ndarray):
    """Per-level factors of the potential at a batch of points, levels stacked on axis 0.

    Row k - 1 belongs to the level-k term. Slot 0 of each row is the level's
    split coordinate and slots 1..d-1 the other coordinates in ascending
    order. Returns (axes, w, scale, amp): axes (K, d) the coordinate of each
    slot; w (K, d + 1, N) each point's offset from the lower corner of its
    level-(k-1) box over scale, and in slot d the split coordinate's minus 1,
    so one call evaluates every bump factor; scale (K, d) L_k in slot 0 and
    the parent box's sides in the others; amp (K, N) rho_left - 1 of the box.
    """
    tree = p.tree
    d, side, levels = tree.dim, tree.side, p.level
    x = np.ascontiguousarray(xs.T)
    path, lo = box_index_of_points(x.T, side, d, levels)  # x.T is xs again, read without a copy

    parent = np.arange(levels)  # the level of each row's parent boxes
    split = parent % d
    axes = (split[:, None] + np.arange(d)) % d
    axes[:, 1:].sort(axis=1)
    halvings = parent[:, None] // d + (axes < split[:, None])
    scale = np.ldexp(side, -halvings)
    scale[:, 0] /= 2.0
    w = np.empty((levels, d + 1, x.shape[1]))
    np.divide(x[axes] - lo[halvings, axes], scale[:, :, None], out=w[:, :d])
    np.subtract(w[:, 0], 1.0, out=w[:, d])

    # The row's parent box is the first k - 1 bits of the point's level-K
    # box, offset into the tree's heap order.
    box = (path >> (levels - parent)[:, None]) + ((1 << parent) - 1)[:, None]
    return axes, w, scale, tree.rho_heap[box] - 1.0


def _level_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of per-level terms in level order, from zero, as a level walk adds them."""
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


def _in_slices(evaluate, p: DualPotential, xs) -> tuple:
    """evaluate(p, slice) on consecutive slices of EVAL_SLICE_POINTS points, its arrays joined.

    Each point's level sum is its own, so the result is bit-identical to one
    call on all the points, while the p.level x (d + 1) floats per point that
    an evaluation holds are held for one slice at a time.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    slices = [evaluate(p, xs[lo : lo + EVAL_SLICE_POINTS]) for lo in range(0, max(len(xs), 1), EVAL_SLICE_POINTS)]
    return tuple(np.concatenate(parts) for parts in zip(*slices))


def _values(p: DualPotential, xs: np.ndarray) -> tuple[np.ndarray]:
    _, w, scale, amp = _level_stack(p, xs)
    zvals = _zeta_val(w)
    scaled = (scale[:, :1] ** 2 * amp) * (zvals[:, 0] - zvals[:, -1])
    return (_level_sum(_times_product(scaled, list(zvals[:, 1:-1].swapaxes(0, 1)))),)


def _values_and_gradients(p: DualPotential, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axes, w, scale, amp = _level_stack(p, xs)
    zvals, zders = _zeta_val(w), _zeta_d1(w)
    lk = scale[:, :1]
    scaled = (lk**2 * amp) * (zvals[:, 0] - zvals[:, -1])
    others = list(zvals[:, 1:-1].swapaxes(0, 1))
    grads = np.empty_like(w[:, :-1])
    grads[:, 0] = _times_product((lk * amp) * (zders[:, 0] - zders[:, -1]), others)
    for s in range(1, xs.shape[1]):
        grads[:, s] = _times_product((scaled * zders[:, s]) / scale[:, s, None], others[: s - 1] + others[s:])
    # from slot to coordinate order, then summed over levels
    grads = grads[np.arange(axes.shape[0])[:, None], np.argsort(axes, axis=1)]
    values = _level_sum(_times_product(scaled, others))
    return values, np.ascontiguousarray(_level_sum(grads).T)


def potential_values(p: DualPotential, xs: np.ndarray) -> np.ndarray:
    """Values of the potential at a batch of points, all levels at once.

    Bit-identical to the values of `potential_eval_batch`; no derivative of
    the bump is evaluated. Like it, works through the points in slices.
    """
    (values,) = _in_slices(_values, p, xs)
    return values


def potential_eval_batch(p: DualPotential, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of the potential at a batch of points, all levels
    at once, EVAL_SLICE_POINTS points at a time."""
    return _in_slices(_values_and_gradients, p, xs)


def potential_eval(p: DualPotential, x: np.ndarray) -> tuple[float, np.ndarray]:
    values, grads = potential_eval_batch(p, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return float(values[0]), grads[0]


def per_level_gain(tree: DyadicTree) -> np.ndarray:
    """Observed dual gain per level: sum over level-(k-1) boxes of
    (N_Q/N) * L_k^2 * 2 * (rho_- - 1)^2, for k = 1..k_star.

    In expectation each level contributes 2 * L_k^2 * 2^(k-1) / N (up to the
    exponentially rare empty-box depletion at the deepest levels)."""
    gains = np.zeros(tree.k_star)
    n = tree.cloud.n
    for level in range(1, tree.k_star + 1):
        lk = tree.scale(level)
        nq = tree.counts[level - 1]
        rho = tree.rho_left(level)
        gains[level - 1] = float((nq / n * lk**2 * 2.0 * (rho - 1.0) ** 2).sum())
    return gains


def integral_against_density(p: DualPotential, at_level: int | None = None) -> float:
    """Exact integral of the potential against the piecewise-constant number
    density of a given level (default: the stopping level).

    Uses the closed-form antiderivative of the bump, so the value is exact up
    to roundoff; no quadrature is involved.
    """
    tree = p.tree
    k = tree.k_star if at_level is None else at_level
    if not p.level <= k <= tree.k_star:
        raise ValueError(f"density level {k} outside [{p.level}, {tree.k_star}] (potential level, k*)")
    d, side, n = tree.dim, tree.side, tree.cloud.n

    weights = tree.counts[k] / n  # mass of each level-k box under rho_k
    idx = np.flatnonzero(weights)
    weights = weights[idx]
    lo, hi = (corners[idx] for corners in tree.boxes[k])
    density = weights / (hi - lo).prod(axis=1)

    total = 0.0
    for level in range(1, p.level + 1):
        c = split_coordinate(level, d)
        lk = level_scale(level, d, side)
        parents = idx >> (k - (level - 1))
        amp = tree.rho_left(level)[parents] - 1.0
        lo_parent, hi_parent = (corners[parents] for corners in tree.boxes[level - 1])
        a, bnd, parent_sides = lo - lo_parent, hi - lo_parent, hi_parent - lo_parent

        ua, ub = a[:, c] / lk, bnd[:, c] / lk
        ic = lk * (
            (zeta_antiderivative(ub) - zeta_antiderivative(ua))
            - (zeta_antiderivative(ub - 1.0) - zeta_antiderivative(ua - 1.0))
        )
        factor = lk**2 * amp * ic
        for i in range(d):
            if i == c:
                continue
            s = parent_sides[:, i]
            factor = factor * s * (zeta_antiderivative(bnd[:, i] / s) - zeta_antiderivative(a[:, i] / s))
        total += float((density * factor).sum())
    return total


def grad_sq_on_grid(p: DualPotential, spacing_divisor: int = 8):
    """|grad Phi|^2 on a tensor grid of spacing L_(k_star)/spacing_divisor.

    Returns (axis, values): the grid is the d-fold product of the axis values,
    which include the domain boundary where the potential vanishes
    identically, and the values are flat in `indexing="ij"` order. The grid
    points are built and evaluated EVAL_SLICE_POINTS at a time by the stacked
    evaluator behind `potential_eval_batch`, so the values are its gradients'
    squared norms bit for bit and only one slice is held at a time. Each
    bump factor is evaluated at every grid point rather than once per axis
    value, about ten times the work of a per-axis walk; that is accepted
    because no CLI subcommand calls the grid.
    """
    tree = p.tree
    h = level_scale(tree.k_star, tree.dim, tree.side) / spacing_divisor
    axis = np.linspace(0.0, tree.side, int(round(tree.side / h)) + 1)
    out = np.empty(axis.size**tree.dim)
    for lo in range(0, out.size, EVAL_SLICE_POINTS):
        flat = np.arange(lo, min(lo + EVAL_SLICE_POINTS, out.size))
        index = np.unravel_index(flat, (axis.size,) * tree.dim)
        _, grads = _values_and_gradients(p, axis[np.stack(index, axis=1)])
        out[lo : lo + flat.size] = (grads**2).sum(axis=1)
    return axis, out


@dataclass(frozen=True)
class GainReport:
    gain: float  # mean Phi over the x-cloud minus the spatial mean of Phi, which is exactly zero
    sup_grad_sq: float  # grid maximum of |grad Phi|^2 times INFLATION**2
    grid_grad_sq: np.ndarray  # |grad Phi|^2 on the grid behind sup_grad_sq
    gap: float  # mean Phi over the x-cloud minus over the y-cloud
    lower_bound: float  # gap^2 / sup_grad_sq, or 0 for a nonpositive gap


def lower_bound_functional(
    cloud_x: PointCloud,
    cloud_y: PointCloud,
    p: DualPotential,
    spacing_divisor: int = 8,
) -> GainReport:
    """Empirical dual gain, gap and lower bound of a potential built from cloud_x's own tree.

    Every block zeta(u) - zeta(u - 1) integrates to zero, so the gain is the
    mean of Phi over cloud_x. Phi is evaluated on both clouds in one batch;
    the lower bound is the one `dual_lower_bound` returns.
    """
    _check_same_cloud(cloud_x, p)
    _check_pair(cloud_x, cloud_y)
    values = potential_values(p, np.concatenate([cloud_x.points, cloud_y.points]))
    mean_x, mean_y = float(values[: cloud_x.n].mean()), float(values[cloud_x.n :].mean())
    _, grid = grad_sq_on_grid(p, spacing_divisor)
    sup_sq = float(grid.max() * INFLATION**2)
    gap = mean_x - mean_y
    # a nonpositive gap certifies nothing; sup_sq is 0 only for the
    # all-balanced potential, whose gap is 0 too
    bound = gap**2 / sup_sq if gap > 0.0 and sup_sq > 0.0 else 0.0
    return GainReport(gain=mean_x, sup_grad_sq=sup_sq, grid_grad_sq=grid, gap=gap, lower_bound=bound)


def dual_lower_bound(
    cloud_x: PointCloud,
    cloud_y: PointCloud,
    p: DualPotential,
    spacing_divisor: int = 8,
) -> float:
    """Dual lower bound on the matching cost between the clouds.

    The potential must be built from cloud_x alone. The empirical mean gap per
    point, divided by the gradient supremum, lower-bounds the mean L^1
    matching distance; squaring gives a bound on the quadratic cost by
    Cauchy-Schwarz. The supremum is the inflated grid maximum (see
    `INFLATION`), so the bound holds only as far as that estimate does. A
    nonpositive gap certifies nothing and returns 0. A library diagnostic:
    the CLI's certified bound is `assignment.optimal_with_dual`'s.
    """
    return lower_bound_functional(cloud_x, cloud_y, p, spacing_divisor).lower_bound


def _check_same_cloud(cloud: PointCloud, p: DualPotential) -> None:
    tc = p.tree.cloud
    if tc.n != cloud.n or tc.dim != cloud.dim or not np.array_equal(tc.points, cloud.points):
        raise ValueError("potential must be built from the given cloud's own tree")
