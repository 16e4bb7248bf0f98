"""Experiment drivers binding sampling, solvers, maps, and potentials.

Observables take the instance shape (N, d, L) as plain arguments and the
trial seed last, so a `functools.partial` or a closure binds them; forked trial
workers inherit them and pickle back only their results. Every randomized
quantity inside a trial draws from a substream derived from the trial seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import assignment as asg
from . import dual_potential as dp
from . import dyadic_transport as dy
from .binomial import count_in_box
from .geometry import PointCloud, sample_uniform, substream_seed
from .stats import ScalingFit, TrialEnsemble, fit_scaling, map_trials, run_ensemble, scaling_constant, trial_seeds


def sample_pair(n: int, dim: int, side: float, seed: int) -> tuple[PointCloud, PointCloud]:
    x = sample_uniform(n, side, dim, substream_seed(seed, 0))
    y = sample_uniform(n, side, dim, substream_seed(seed, 1))
    return x, y


def matching_cost(n: int, dim: int, side: float, seed: int) -> float:
    """Exact matching cost of a fresh pair of clouds."""
    return asg.optimal_cost(*sample_pair(n, dim, side, seed))


def box_counts_ensemble(
    n: int, theta: float, trials: int, master_seed: int, dim: int = 1, side: float = 1.0, workers: int | None = None
) -> TrialEnsemble:
    """Per trial, how many points of a fresh cloud of n points lie in the lemma's box of volume fraction theta."""

    def count(seed: int) -> int:
        return count_in_box(sample_uniform(n, side, dim, seed), theta)

    return run_ensemble(count, trials, master_seed, workers)


# ---------------------------------------------------------------------------
# Upper bound rows: hierarchical map cost, coupling cost, exact optimum.


@dataclass(frozen=True)
class UpperBoundRow:
    seed: int
    k_star: int
    map_cost: float
    coupling_cost: float
    optimal_cost: float
    ub_over_opt: float


def _over(bound: float, optimal: float) -> float:
    """bound / optimal, 0 for a zero optimum (identical clouds)."""
    return bound / optimal if optimal else 0.0


def upper_bound_row(n: int, dim: int, side: float, seed: int) -> UpperBoundRow:
    x, y = sample_pair(n, dim, side, seed)
    t = dy.build_map(x)
    coupling, optimal = dy.coupling_cost_exact(t, dy.build_map(y)), asg.optimal_cost(x, y)
    return UpperBoundRow(
        seed=seed,
        k_star=t.tree.k_star,
        map_cost=dy.map_cost_exact(t),
        coupling_cost=coupling,
        optimal_cost=optimal,
        ub_over_opt=_over(coupling, optimal),
    )


# ---------------------------------------------------------------------------
# Lower bound rows: certified dual lower bound against the exact optimum.


@dataclass(frozen=True)
class LowerBoundRow:
    seed: int
    gain: float
    certified_lower_bound: float
    optimal_cost: float
    lb_over_opt: float


def lower_bound_row(n: int, dim: int, side: float, seed: int) -> LowerBoundRow:
    """The paper's dual gain and the certified lower bound of one instance.

    The bound and the optimum come from one solve (`optimal_with_dual`): the
    c-transform pair of the Poisson dual that warm-starts it. The gain is the
    mean of the hierarchical potential Phi over the x-cloud; the grid route
    from Phi to a bound (`dual_potential.lower_bound_functional`) is a library
    diagnostic, not this row's bound."""
    x, y = sample_pair(n, dim, side, seed)
    values = dp.potential_values(dp.hierarchical_potential(dy.build_tree(x)), x.points)
    optimal, lower = asg.optimal_with_dual(x, y)
    return LowerBoundRow(
        seed=seed,
        gain=float(values.mean()),
        certified_lower_bound=lower,
        optimal_cost=optimal,
        lb_over_opt=_over(lower, optimal),
    )


# ---------------------------------------------------------------------------
# Sandwich rows: certified lower bound <= exact optimum <= coupling upper bound.


@dataclass(frozen=True)
class SandwichRow:
    seed: int
    certified_lower_bound: float
    optimal_cost: float
    coupling_cost: float
    lb_over_opt: float
    ub_over_opt: float


def sandwich_row(n: int, dim: int, side: float, seed: int) -> SandwichRow:
    """Both bounds of one instance around its optimum, each computed once.

    The pair is sampled once, each cloud's map built once, and one solve gives
    the optimum together with its certified lower bound."""
    x, y = sample_pair(n, dim, side, seed)
    coupling = dy.coupling_cost_exact(dy.build_map(x), dy.build_map(y))
    optimal, bound = asg.optimal_with_dual(x, y)
    return SandwichRow(
        seed=seed,
        certified_lower_bound=bound,
        optimal_cost=optimal,
        coupling_cost=coupling,
        lb_over_opt=_over(bound, optimal),
        ub_over_opt=_over(coupling, optimal),
    )


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
    if len(trials) != len(n_values):
        raise ValueError("trials list must match n list")
    results = []
    for i, (n, t) in enumerate(zip(n_values, trials)):
        ens = run_ensemble(partial(matching_cost, n, dim, side), t, substream_seed(master_seed, i), workers)
        results.append(
            ScalingResult(
                n=n,
                dim=dim,
                trials=t,
                mean=ens.mean,
                stderr=ens.stderr,
                r=side * n ** (-1.0 / dim),
                constant=scaling_constant(n, ens.mean, dim, side),
            )
        )
    fit = fit_scaling([(res.n, res.mean) for res in results], dim, side=side)
    return results, fit


# ---------------------------------------------------------------------------
# Per-level cost recursion audit of the hierarchical map.


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


def recursion_audit(
    n: int,
    dim: int,
    side: float = 1.0,
    trials: int = 100,
    master_seed: int = 0,
    workers: int | None = None,
) -> list[AuditRow]:
    """Per-level costs of the composed map over an ensemble of clouds, one row a level.

    Each cloud's terms are exact (`level_costs_exact`); the error bars are the
    spread over the ensemble. For each level reports E int |S_k - id|^2 against
    the uniform measure, the increment over the previous level, the mixed cross
    term, and the smallest constant C that makes the one-step recursion
    E_k <= C (L_k/r)^(2-d) r^2 + (1 + C (r/L_k)^d) E_(k-1) hold. The clouds
    run on `workers` processes; the audit does not depend on the count.
    """
    if trials < 2:
        raise ValueError("audit needs at least 2 trials")

    def level_terms(seed: int) -> tuple[np.ndarray, np.ndarray]:
        return dy.level_costs_exact(dy.build_tree(sample_uniform(n, side, dim, seed)))

    terms = np.array(map_trials(level_terms, trial_seeds(master_seed, trials), workers))  # (trials, 2, levels)
    (means, cross_means), (errs, cross_errs) = terms.mean(axis=0), terms.std(axis=0, ddof=1) / np.sqrt(trials)
    r = side * n ** (-1.0 / dim)
    rows = [AuditRow(0, dy.level_scale(0, dim, side), means[0], errs[0], 0.0, 0.0, 0.0, 0.0)]
    for k in range(1, means.size):  # levels 1..k*
        lk = dy.level_scale(k, dim, side)
        a_k = (lk / r) ** (2 - dim) * r**2
        b_k = (r / lk) ** dim
        increment = means[k] - means[k - 1]
        c_k = max(0.0, increment / (a_k + b_k * means[k - 1]))
        rows.append(
            AuditRow(k, lk, means[k], errs[k], increment, cross_means[k], cross_errs[k], c_k)
        )
    return rows
