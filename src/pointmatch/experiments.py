"""Experiment drivers binding sampling, solvers, maps, and potentials.

Observables are module-level functions over frozen dataclass configs, bound
with `functools.partial`; forked trial workers inherit them and pickle back only
their results. Every randomized quantity inside a trial draws from a substream
derived from the trial seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import assignment as asg
from . import dual_potential as dp
from . import dyadic_transport as dy
from .binomial import BoxCount
from .geometry import Box, PointCloud, sample_uniform, substream_seed
from .stats import EnsembleConfig, ScalingFit, fit_scaling, run_ensemble


@dataclass(frozen=True)
class PairConfig:
    n: int
    dim: int
    side: float = 1.0


def sample_pair(cfg: PairConfig, seed: int) -> tuple[PointCloud, PointCloud]:
    x = sample_uniform(cfg.n, cfg.side, cfg.dim, substream_seed(seed, 0))
    y = sample_uniform(cfg.n, cfg.side, cfg.dim, substream_seed(seed, 1))
    return x, y


def matching_cost(cfg: PairConfig, seed: int) -> float:
    """Exact matching cost of a fresh pair of clouds."""
    return asg.optimal_cost(*sample_pair(cfg, seed))


@dataclass(frozen=True)
class BoxCountConfig:
    n: int
    theta: float
    dim: int = 1
    side: float = 1.0


def slab_box(cfg: BoxCountConfig) -> Box:
    """Axis-aligned slab [0, theta*L] x [0, L]^(d-1) with volume fraction theta."""
    sides = np.full(cfg.dim, cfg.side)
    sides[0] = cfg.theta * cfg.side
    return Box(lower=np.zeros(cfg.dim), sides=sides)


def box_count(cfg: BoxCountConfig, seed: int) -> int:
    from .binomial import count_in_box

    cloud = sample_uniform(cfg.n, cfg.side, cfg.dim, seed)
    return count_in_box(cloud, slab_box(cfg)).n_q


def box_counts_ensemble(cfg: BoxCountConfig, trials: int, master_seed: int, workers: int | None = None):
    ens = run_ensemble(EnsembleConfig(trials, master_seed, workers), partial(box_count, cfg))
    samples = [BoxCount(n_q=int(v), n_total=cfg.n, theta=cfg.theta) for v in ens.observations]
    return ens, samples


# ---------------------------------------------------------------------------
# Upper bound rows: hierarchical map cost, coupling cost, exact optimum.


@dataclass(frozen=True)
class UpperBoundRow:
    seed: int
    k_star: int
    map_cost: float
    coupling_cost: float
    optimal_cost: float


def upper_bound_row(cfg: PairConfig, seed: int) -> UpperBoundRow:
    x, y = sample_pair(cfg, seed)
    t = dy.build_map(x)
    return UpperBoundRow(
        seed=seed,
        k_star=t.tree.k_star,
        map_cost=dy.map_cost_exact(t),
        coupling_cost=dy.coupling_cost_exact(t, dy.build_map(y)),
        optimal_cost=asg.optimal_cost(x, y),
    )


# ---------------------------------------------------------------------------
# Lower bound rows: dual lower bound against the exact optimum.


@dataclass(frozen=True)
class LowerBoundRow:
    seed: int
    gain: float
    sup_grad_sq: float
    certified_lower_bound: float
    optimal_cost: float


def lower_bound_row(
    cfg: PairConfig,
    seed: int,
    spacing_divisor: int = 8,
) -> tuple[LowerBoundRow, np.ndarray]:
    """The row and |grad Phi|^2 on the sup-gradient grid behind its lower bound.

    Phi is evaluated on both clouds in one batch; the CSV column keeps the name
    certified_lower_bound, although the grid supremum it divides by is an
    estimate (see dual_potential.INFLATION)."""
    x, y = sample_pair(cfg, seed)
    pot = dp.hierarchical_potential(dy.build_tree(x))
    report = dp.lower_bound_functional(x, y, pot, spacing_divisor=spacing_divisor)
    row = LowerBoundRow(
        seed=seed,
        gain=report.gain,
        sup_grad_sq=report.sup_grad_sq,
        certified_lower_bound=report.lower_bound,
        optimal_cost=asg.optimal_cost(x, y),
    )
    return row, report.grid_grad_sq


# ---------------------------------------------------------------------------
# Scaling experiments.


@dataclass(frozen=True)
class ScalingResult:
    n: int
    dim: int
    trials: int
    mean: float
    stderr: float
    r: float
    constant: float  # mean / (r^2 g(N))


def scaling_experiment(
    n_values,
    trials,
    dim: int,
    side: float = 1.0,
    master_seed: int = 0,
    workers: int | None = None,
) -> tuple[list[ScalingResult], ScalingFit]:
    """Ensemble mean of the exact matching cost per N, plus the shape fit.

    The trials of each N run on `workers` processes (None: every CPU this
    process may run on); the results do not depend on the count."""
    from .stats import scaling_shape

    if len(trials) != len(n_values):
        raise ValueError("trials list must match n list")
    results = []
    for i, (n, t) in enumerate(zip(n_values, trials)):
        cfg = PairConfig(n=n, dim=dim, side=side)
        ens = run_ensemble(
            EnsembleConfig(trials=t, master_seed=substream_seed(master_seed, i), workers=workers),
            partial(matching_cost, cfg),
        )
        r = side * n ** (-1.0 / dim)
        results.append(
            ScalingResult(
                n=n,
                dim=dim,
                trials=t,
                mean=ens.mean,
                stderr=ens.stderr,
                r=r,
                constant=ens.mean / (r**2 * scaling_shape(n, dim)),
            )
        )
    fit = fit_scaling([(res.n, res.mean) for res in results], dim, side=side)
    return results, fit
