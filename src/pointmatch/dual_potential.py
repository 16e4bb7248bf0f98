"""Hierarchical dual potential giving per-instance lower-bound certificates.

A fixed C^2 bump and its shifted negative are glued into a zero-mean block
phi(x) = (rho_- - 1) * (zeta(x) - zeta(x - 1)) on [0, 2]; rescaled copies are
planted on every dyadic box, weighted by the observed left/right count
imbalance, and summed over levels. The resulting potential has zero spatial
mean, vanishes with its gradient on all box boundaries, and its empirical-mean
gap divided by a conservative gradient supremum lower-bounds the matching cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic_transport import (
    DyadicTree,
    box_corners,
    level_scale,
    level_sides,
    split_coordinate,
)
from .geometry import PointCloud

ZETA_SCALE = 140.0  # normalizes int_0^1 x^3 (1-x)^3 dx = 1/140


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


def _level_terms(p: DualPotential, xs: np.ndarray, level: int, b: np.ndarray, lo: np.ndarray):
    """Per-point value/gradient contribution of the level-`level` potential.

    b and lo identify each point's level-(level-1) box; both are advanced in
    place to the child box for the next level.
    """
    tree = p.tree
    d, side = tree.dim, tree.side
    c = split_coordinate(level, d)
    lk = level_scale(level, d, side)
    parent_sides = level_sides(level - 1, d, side)

    amp = tree.rho_left(level)[b] - 1.0

    u = (xs[:, c] - lo[:, c]) / lk
    fu = _zeta_val(u) - _zeta_val(u - 1.0)
    fu_d = _zeta_d1(u) - _zeta_d1(u - 1.0)

    others = [i for i in range(d) if i != c]
    zvals, zders = {}, {}
    prod_z = np.ones(xs.shape[0])
    for i in others:
        w = (xs[:, i] - lo[:, i]) / parent_sides[i]
        zvals[i] = _zeta_val(w)
        zders[i] = _zeta_d1(w)
        prod_z = prod_z * zvals[i]

    value = lk**2 * amp * fu * prod_z
    grad = np.zeros_like(xs)
    grad[:, c] = lk * amp * fu_d * prod_z
    for i in others:
        partial = np.ones(xs.shape[0])
        for j in others:
            if j != i:
                partial = partial * zvals[j]
        grad[:, i] = lk**2 * amp * fu * zders[i] / parent_sides[i] * partial

    go_right = (xs[:, c] >= lo[:, c] + lk).astype(np.int64)
    b[:] = 2 * b + go_right
    lo[:, c] += go_right * lk
    return value, grad


def potential_eval_batch(p: DualPotential, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of the potential at a batch of points."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    n = xs.shape[0]
    values = np.zeros(n)
    grads = np.zeros_like(xs)
    b = np.zeros(n, dtype=np.int64)
    lo = np.zeros_like(xs)
    for level in range(1, p.level + 1):
        v, g = _level_terms(p, xs, level, b, lo)
        values += v
        grads += g
    return values, grads


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
    if k < p.level:
        raise ValueError("density level must be at least the potential level")
    d, side, n = tree.dim, tree.side, tree.cloud.n

    idx = np.arange(2**k, dtype=np.int64)
    weights = tree.counts[k] / n  # mass of each level-k box under rho_k
    nonzero = weights > 0
    idx = idx[nonzero]
    weights = weights[nonzero]
    corners = box_corners(k, idx, d, side)
    sides_k = level_sides(k, d, side)
    vol_k = float(np.prod(sides_k))

    total = 0.0
    for level in range(1, p.level + 1):
        c = split_coordinate(level, d)
        lk = level_scale(level, d, side)
        parent_sides = level_sides(level - 1, d, side)
        parents = idx >> (k - (level - 1))
        amp = tree.rho_left(level)[parents] - 1.0
        corners_parent = box_corners(level - 1, parents, d, side)
        a = corners - corners_parent
        bnd = a + sides_k

        ua, ub = a[:, c] / lk, bnd[:, c] / lk
        ic = lk * (
            (zeta_antiderivative(ub) - zeta_antiderivative(ua))
            - (zeta_antiderivative(ub - 1.0) - zeta_antiderivative(ua - 1.0))
        )
        factor = lk**2 * amp * ic
        for i in range(d):
            if i == c:
                continue
            s = parent_sides[i]
            factor = factor * s * (zeta_antiderivative(bnd[:, i] / s) - zeta_antiderivative(a[:, i] / s))
        total += float((weights / vol_k * factor).sum())
    return total


def grad_sq_on_grid(p: DualPotential, spacing_divisor: int = 8, chunk: int = 1 << 15):
    """|grad Phi|^2 on a tensor grid of spacing L_(k_star)/spacing_divisor.

    Returns (grid points, values); the grid includes the domain boundary where
    the potential vanishes identically.
    """
    tree = p.tree
    side = tree.side
    h = level_scale(tree.k_star, tree.dim, side) / spacing_divisor
    per_axis = int(round(side / h)) + 1
    axes = [np.linspace(0.0, side, per_axis)] * tree.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], chunk):
        sel = slice(start, start + chunk)
        _, grads = potential_eval_batch(p, pts[sel])
        out[sel] = (grads**2).sum(axis=1)
    return pts, out


def sup_grad_sq(p: DualPotential, spacing_divisor: int = 8, inflation: float = 1.05) -> float:
    """Conservative estimate of sup |grad Phi|^2: grid maximum inflated by a margin.

    The margin covers the residual between the grid maximum and the true
    supremum; the certificate divides by this value, so inflating it only makes
    the reported lower bound smaller (safer)."""
    _, vals = grad_sq_on_grid(p, spacing_divisor)
    return _inflated_max(vals, inflation)


def _inflated_max(grid_vals: np.ndarray, inflation: float) -> float:
    return float(grid_vals.max() * inflation**2)


@dataclass(frozen=True)
class GainReport:
    gain: float  # mean Phi over the cloud minus the spatial mean of Phi, which is exactly zero
    point_mean: float
    sup_grad_sq: float
    grid_grad_sq: np.ndarray  # |grad Phi|^2 on the grid behind sup_grad_sq


def lower_bound_functional(
    cloud_x: PointCloud,
    p: DualPotential,
    spacing_divisor: int = 8,
    inflation: float = 1.05,
) -> GainReport:
    """Empirical dual gain of a potential built from the cloud's own tree.

    Every block zeta(u) - zeta(u - 1) integrates to zero, so the gain is the
    mean of Phi over the cloud.
    """
    _check_same_cloud(cloud_x, p)
    values, _ = potential_eval_batch(p, cloud_x.points)
    point_mean = float(values.mean())
    _, grid = grad_sq_on_grid(p, spacing_divisor)
    return GainReport(
        gain=point_mean,
        point_mean=point_mean,
        sup_grad_sq=_inflated_max(grid, inflation),
        grid_grad_sq=grid,
    )


def dual_lower_bound(
    cloud_x: PointCloud,
    cloud_y: PointCloud,
    p: DualPotential,
    spacing_divisor: int = 8,
    inflation: float = 1.05,
    sup_sq: float | None = None,
) -> float:
    """Certified lower bound on the matching cost between the clouds.

    The potential must be built from cloud_x alone. The empirical mean gap per
    point, divided by the (inflated) gradient supremum, lower-bounds the mean
    L^1 matching distance; squaring gives a bound on the quadratic cost by
    Cauchy-Schwarz. A nonpositive gap certifies nothing and returns 0.
    """
    _check_same_cloud(cloud_x, p)
    if cloud_y.n != cloud_x.n or cloud_y.dim != cloud_x.dim or cloud_y.side != cloud_x.side:
        raise ValueError("clouds must share size, dim and side")
    vx, _ = potential_eval_batch(p, cloud_x.points)
    vy, _ = potential_eval_batch(p, cloud_y.points)
    gap = float(vx.mean() - vy.mean())
    if gap <= 0.0:
        return 0.0
    if sup_sq is None:
        sup_sq = sup_grad_sq(p, spacing_divisor, inflation)
    if sup_sq <= 0.0:
        # only possible for the all-balanced potential, whose gap is zero too
        return 0.0
    return gap**2 / sup_sq


def _check_same_cloud(cloud: PointCloud, p: DualPotential) -> None:
    tc = p.tree.cloud
    if tc.n != cloud.n or tc.dim != cloud.dim or not np.array_equal(tc.points, cloud.points):
        raise ValueError("potential must be built from the given cloud's own tree")
