"""Optimal matching of uniform random point clouds.

Exact matching costs (brute force, assignment solver, Kantorovich LP),
a hierarchical dyadic transport map giving per-instance upper bounds,
a dual potential giving per-instance lower bounds, and a
Monte Carlo harness reproducing the dimension-dependent cost asymptotics.
"""

__version__ = "0.1.0"
