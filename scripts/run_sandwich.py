#!/usr/bin/env python3
"""Per-instance sandwich: dual lower bound <= exact optimum <= dyadic coupling.

Runs the upper-bound and lower-bound pipelines on a shared ensemble and prints
how tightly the two constructive bounds bracket the exact matching cost.

Usage: python scripts/run_sandwich.py [--n 64] [--dim 2] [--seeds 20] [--outdir results]
"""

import argparse
import csv
import sys
from pathlib import Path

from pointmatch import assignment as asg
from pointmatch import dual_potential as dp
from pointmatch import dyadic_transport as dy
from pointmatch.experiments import PairConfig, sample_pair
from pointmatch.stats import trial_seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    for name in ("n", "dim", "seeds"):
        if getattr(args, name) < 1:
            ap.error(f"--{name} must be >= 1")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = PairConfig(n=args.n, dim=args.dim)
    path = outdir / f"sandwich_n{args.n}_d{args.dim}.csv"
    # Both costs are sums of n non-negative terms, each off by at most about
    # n*eps relative in recursive summation; so a coupling that undercuts the
    # optimum by less than 2*n*eps*optimal is tight (in d = 1 the coupling is the
    # monotone optimum), not a violation. The lower bound is checked strictly.
    rounding = 2 * args.n * sys.float_info.epsilon
    violations = tight = 0
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "lower_bound", "optimal_cost", "coupling_cost", "ratio_upper", "ratio_lower"])
        for t, seed in enumerate(trial_seeds(args.seed, args.seeds)):
            x, y = sample_pair(cfg, seed)
            t_map, s_map = dy.build_map(x), dy.build_map(y)
            coupling = dy.coupling_cost_exact(t_map, s_map)
            pot = dp.hierarchical_potential(t_map.tree)
            bound = dp.dual_lower_bound(x, y, pot)
            optimal = asg.optimal_cost(x, y)
            if not bound <= optimal or optimal - coupling > rounding * optimal:
                violations += 1
            tight += abs(optimal - coupling) <= rounding * optimal
            w.writerow([seed, bound, optimal, coupling,
                        coupling / optimal, bound / optimal if optimal else 0.0])
            print(f"seed {t}: {bound:.3e} <= {optimal:.3e} <= {coupling:.3e}")
    print(f"wrote {path}; sandwich violations: {violations}/{args.seeds}; "
          f"upper bound tight to rounding: {tight}/{args.seeds}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
