#!/usr/bin/env python3
"""Per-level cost audit of the hierarchical map.

Tabulates E int |S_k - id|^2, the level increments, the cross terms, and the
smallest constant admissible in the one-step recursion bound. Each cloud's
per-level terms are exact; the stderr column is the spread over the clouds.
In d=1 the coarse levels dominate; in d=2 every level contributes comparably;
in d>2 the fine levels win.

Usage: python scripts/run_recursion_audit.py [--n 1024] [--dim 2] [--trials 100]
"""

import argparse
import sys

from pointmatch.dyadic_transport import recursion_audit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for name, least in (("n", 1), ("dim", 1), ("trials", 2)):
        if getattr(args, name) < least:
            ap.error(f"--{name} must be >= {least}")

    audit = recursion_audit(args.n, args.dim, trials=args.trials, master_seed=args.seed)
    header = f"{'k':>3} {'L_k':>10} {'E|S_k-id|^2':>14} {'stderr':>10} {'increment':>12} {'cross':>12} {'C_k':>8}"
    print(header)
    print("-" * len(header))
    for row in audit.rows:
        print(
            f"{row.level:>3} {row.scale:>10.5f} {row.mean_sq:>14.6e} {row.stderr:>10.2e} "
            f"{row.increment:>12.4e} {row.cross_term:>12.4e} {row.admissible_c:>8.3f}"
        )
    print(f"\nadmissible C over all levels: {audit.admissible_c:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
