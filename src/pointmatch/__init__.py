"""Optimal matching of uniform random point clouds.

Exact matching costs (brute force, assignment solver, Kantorovich LP),
a hierarchical dyadic transport map giving per-instance upper bounds,
a dual potential giving per-instance lower bounds, and a
Monte Carlo harness reproducing the dimension-dependent cost asymptotics.
"""

from .assignment import (
    CostMatrix,
    TransportPlan,
    cost_matrix,
    match_bruteforce,
    match_lp,
    match_solver,
    monotone_matching_1d,
)
from .binomial import count_in_box, lemma_check, moment_bounds
from .dual_potential import (
    DualPotential,
    dual_lower_bound,
    hierarchical_potential,
    lower_bound_functional,
    phi_block,
    potential_eval,
    zeta,
)
from .dyadic_transport import (
    DyadicTree,
    HierarchicalMap,
    block_map,
    block_map_symmetrized_defect,
    build_map,
    build_tree,
    couple_two_clouds,
    map_cost,
)
from .experiments import recursion_audit
from .geometry import Box, PointCloud, micro_scale, sample_uniform, substream_seed
from .stats import ScalingFit, TrialEnsemble, fit_scaling, run_ensemble, trial_seeds

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CostMatrix",
    "DualPotential",
    "DyadicTree",
    "HierarchicalMap",
    "PointCloud",
    "ScalingFit",
    "TransportPlan",
    "TrialEnsemble",
    "block_map",
    "block_map_symmetrized_defect",
    "build_map",
    "build_tree",
    "cost_matrix",
    "count_in_box",
    "couple_two_clouds",
    "dual_lower_bound",
    "fit_scaling",
    "hierarchical_potential",
    "lemma_check",
    "lower_bound_functional",
    "map_cost",
    "match_bruteforce",
    "match_lp",
    "match_solver",
    "micro_scale",
    "moment_bounds",
    "monotone_matching_1d",
    "phi_block",
    "potential_eval",
    "recursion_audit",
    "run_ensemble",
    "sample_uniform",
    "substream_seed",
    "trial_seeds",
    "zeta",
    "__version__",
]
