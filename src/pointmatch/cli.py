"""Experiment runner: sample, match, upper-bound, lower-bound, scaling, lemma-check.

Every experiment prints a JSON summary {config, results, fit, version} to stdout
(the run's configuration is embedded verbatim for provenance) and optionally
writes plot-ready CSV. Exit codes: 0 success, 2 configuration error, 1
numerical failure. The default master seed comes from $POINTMATCH_SEED.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import assignment as asg
from . import binomial
from . import experiments as xp
from .geometry import cloud_to_csv, sample_uniform, substream_seed
from .stats import TrialError

SEED_ENV_VAR = "POINTMATCH_SEED"


@dataclass(frozen=True)
class ExperimentConfig:
    """Scalar options of a run; serialized verbatim into the JSON summary."""

    subcommand: str
    n_values: tuple
    dim: int
    side: float
    trials: tuple
    master_seed: int
    workers: int
    thetas: tuple = ()
    method: str = ""
    grid_divisor: int = 8
    c_bound: float = 10.0
    out: str | None = None

    def __post_init__(self):
        """Reject, before any work starts, a configuration no run can complete."""
        min_trials = 2 if self.subcommand in ("scaling", "lemma-check") else 1
        checks = [
            (self.dim >= 1, f"--dim must be >= 1, got {self.dim}"),
            (self.side > 0, f"--side must be > 0, got {self.side}"),
            (all(n >= 1 for n in self.n_values), f"every --n must be >= 1, got {list(self.n_values)}"),
            (all(t >= min_trials for t in self.trials),
             f"{self.subcommand} needs at least {min_trials} trial(s) per run, got {list(self.trials)}"),
            (self.workers >= 1, f"--workers must be >= 1, got {self.workers}"),
            (self.grid_divisor >= 1, f"--grid-divisor must be >= 1, got {self.grid_divisor}"),
            (all(0.0 <= t <= 1.0 for t in self.thetas), f"every --theta must lie in [0, 1], got {list(self.thetas)}"),
        ]
        if self.subcommand == "scaling":
            checks += [
                (len(set(self.n_values)) >= 3, "the scaling fit needs at least 3 distinct --n values"),
                (self.dim != 2 or all(n >= 2 for n in self.n_values), "the d = 2 shape ln N needs every --n >= 2"),
            ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


def _env_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


_MISSING = object()
# accept the field names a JSON summary embeds, so a run's own config replays it
_CONFIG_ALIASES = {"n": "n_values", "seed": "master_seed", "theta": "thetas"}


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags first, then the optional JSON config file, then built-in defaults."""
    from_file = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            from_file = json.load(f)
    merged = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
            continue
        val = from_file.get(key, _MISSING)
        if val is _MISSING and key in _CONFIG_ALIASES:
            val = from_file.get(_CONFIG_ALIASES[key], _MISSING)
        if val is _MISSING:
            merged[key] = fallback
            continue
        if isinstance(val, list):
            if isinstance(fallback, tuple):
                val = tuple(val)
            elif len(val) == 1:
                val = val[0]
        merged[key] = val
    return merged


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str | None, header: list, rows: list) -> None:
    f = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if path:
            f.close()


def _summary(config: ExperimentConfig, results, fit=None, seconds: float | None = None) -> dict:
    payload = {
        "config": asdict(config),
        "results": results,
        "fit": fit if fit is not None else {},
        "version": __version__,
    }
    if seconds is not None:
        payload["seconds"] = round(seconds, 3)
    return payload


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_sample(args) -> int:
    opts = _merge(args, {"n": 100, "dim": 2, "side": 1.0, "seed": _env_seed(), "out": None})
    cloud = sample_uniform(opts["n"], opts["side"], opts["dim"], opts["seed"])
    if opts["out"]:
        cloud_to_csv(cloud, opts["out"])
    else:
        cloud_to_csv(cloud, sys.stdout)
    return 0


def cmd_match(args) -> int:
    opts = _merge(args, {"n": 10, "dim": 2, "side": 1.0, "seed": _env_seed(), "method": "solver"})
    cfg = xp.PairConfig(n=opts["n"], dim=opts["dim"], side=opts["side"])
    x, y = xp.sample_pair(cfg, opts["seed"])
    t0 = time.perf_counter()
    c = asg.cost_matrix(x, y)
    method = opts["method"]
    if method == "brute":
        plan = asg.match_bruteforce(c)
    elif method == "solver":
        plan = asg.match_solver(c)
    elif method == "lp":
        plan = asg.match_lp(c)
    else:
        raise ValueError(f"unknown method {method!r}; expected brute, solver or lp")
    seconds = time.perf_counter() - t0
    print(json.dumps({"cost": plan.cost, "method": method, "seconds": round(seconds, 6)}))
    return 0


def cmd_upper_bound(args) -> int:
    opts = _merge(
        args,
        {"n": 64, "dim": 2, "side": 1.0, "seeds": 10, "seed": _env_seed(), "out": None, "json": None},
    )
    config = ExperimentConfig(
        subcommand="upper-bound", n_values=(opts["n"],), dim=opts["dim"], side=opts["side"],
        trials=(opts["seeds"],), master_seed=opts["seed"], workers=1, out=opts["out"],
    )
    t0 = time.perf_counter()
    cfg = xp.PairConfig(n=opts["n"], dim=opts["dim"], side=opts["side"])
    rows = [xp.upper_bound_row(cfg, substream_seed(opts["seed"], t)) for t in range(opts["seeds"])]
    header = ["seed", "k_star", "map_cost", "coupling_cost", "optimal_cost"]
    csv_rows = [[r.seed, r.k_star, r.map_cost, r.coupling_cost, r.optimal_cost] for r in rows]
    if opts["out"]:
        _write_csv(opts["out"], header, csv_rows)
    _emit_json(_summary(config, [asdict(r) for r in rows], seconds=time.perf_counter() - t0), opts["json"])
    return 0


def cmd_lower_bound(args) -> int:
    opts = _merge(
        args,
        {"n": 64, "dim": 2, "side": 1.0, "seeds": 10, "grid_divisor": 8,
         "seed": _env_seed(), "out": None, "json": None},
    )
    config = ExperimentConfig(
        subcommand="lower-bound", n_values=(opts["n"],), dim=opts["dim"], side=opts["side"],
        trials=(opts["seeds"],), master_seed=opts["seed"], workers=1,
        grid_divisor=opts["grid_divisor"], out=opts["out"],
    )
    t0 = time.perf_counter()
    cfg = xp.PairConfig(n=opts["n"], dim=opts["dim"], side=opts["side"])
    rows = []
    grid_sum = 0.0  # per-grid-point sum of |grad Phi|^2 across seeds
    for t in range(opts["seeds"]):
        row, grid = xp.lower_bound_row(cfg, substream_seed(opts["seed"], t), spacing_divisor=opts["grid_divisor"])
        rows.append(row)
        grid_sum += grid
    grid_mean = grid_sum / opts["seeds"]
    header = ["seed", "gain", "sup_grad_sq", "certified_lower_bound", "optimal_cost"]
    csv_rows = [[r.seed, r.gain, r.sup_grad_sq, r.certified_lower_bound, r.optimal_cost] for r in rows]
    if opts["out"]:
        _write_csv(opts["out"], header, csv_rows)
    # Both orders of sup and expectation, reported without asserting their ratio.
    fit = {
        "mean_sup_grad_sq": float(np.mean([r.sup_grad_sq for r in rows])),
        "sup_mean_grad_sq": float(grid_mean.max()),
    }
    _emit_json(_summary(config, [asdict(r) for r in rows], fit=fit, seconds=time.perf_counter() - t0), opts["json"])
    return 0


def cmd_scaling(args) -> int:
    opts = _merge(
        args,
        {"n": (64, 256, 1024), "dim": 2, "side": 1.0, "trials": (200,),
         "seed": _env_seed(), "workers": os.cpu_count() or 1, "out": None, "json": None},
    )
    n_values = tuple(opts["n"])
    trials = tuple(opts["trials"])
    if len(trials) == 1:
        trials = trials * len(n_values)
    if len(trials) != len(n_values):
        raise ValueError("--trials must be a single value or one per N")
    config = ExperimentConfig(
        subcommand="scaling", n_values=n_values, dim=opts["dim"], side=opts["side"],
        trials=trials, master_seed=opts["seed"], workers=opts["workers"], out=opts["out"],
    )
    t0 = time.perf_counter()
    results, fit = xp.scaling_experiment(
        n_values, list(trials), opts["dim"], side=opts["side"],
        master_seed=opts["seed"], workers=opts["workers"],
    )
    header = ["n", "dim", "trials", "mean", "stderr", "fitted_constant"]
    csv_rows = [[r.n, r.dim, r.trials, r.mean, r.stderr, r.constant] for r in results]
    if opts["out"]:
        _write_csv(opts["out"], header, csv_rows)
    _emit_json(
        _summary(config, [asdict(r) for r in results], fit=asdict(fit), seconds=time.perf_counter() - t0),
        opts["json"],
    )
    return 0


def cmd_lemma_check(args) -> int:
    opts = _merge(
        args,
        {"n": (1000,), "theta": (0.125,), "dim": 1, "side": 1.0, "trials": 1000,
         "seed": _env_seed(), "c_bound": 10.0, "workers": os.cpu_count() or 1, "json": None},
    )
    config = ExperimentConfig(
        subcommand="lemma-check", n_values=tuple(opts["n"]), dim=opts["dim"], side=opts["side"],
        trials=(opts["trials"],), master_seed=opts["seed"], workers=opts["workers"],
        thetas=tuple(opts["theta"]), c_bound=opts["c_bound"],
    )
    t0 = time.perf_counter()
    results = []
    for i, n in enumerate(config.n_values):
        for j, theta in enumerate(config.thetas):
            cfg = xp.BoxCountConfig(n=n, theta=theta, dim=opts["dim"], side=opts["side"])
            ens, samples = xp.box_counts_ensemble(
                cfg, opts["trials"], substream_seed(opts["seed"], i, j), workers=opts["workers"]
            )
            mean, var, _ = binomial.moment_bounds(n, theta)
            emp_var = float(ens.moments.variance)
            mean_se = np.sqrt(var / opts["trials"])
            mu4 = binomial.binomial_fourth_central_moment(n, theta)
            var_se = np.sqrt(max(mu4 - var**2 * (opts["trials"] - 3) / (opts["trials"] - 1), 0.0) / opts["trials"])
            entry = {
                "n": n,
                "theta": theta,
                "trials": opts["trials"],
                "empirical_mean": ens.mean,
                "target_mean": mean,
                "mean_ok": bool(abs(ens.mean - mean) <= 4 * mean_se),
                "empirical_variance": emp_var,
                "target_variance": var,
                "variance_ok": bool(abs(emp_var - var) <= 4 * var_se),
            }
            if n * theta >= 1.0:
                rep = binomial.concentration_check(samples, c_bound=opts["c_bound"])
                entry.update(
                    {
                        "p2_stat": rep.p2_stat,
                        "p4_stat": rep.p4_stat,
                        "inv_stat": rep.inv_stat,
                        "p_bound": rep.p_bound,
                        "inv_bound": rep.inv_bound,
                        "p2_ok": rep.p2_ok,
                        "p4_ok": rep.p4_ok,
                        "inv_ok": rep.inv_ok,
                    }
                )
            results.append(entry)
    _emit_json(_summary(config, results, seconds=time.perf_counter() - t0), opts["json"])
    return 0


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointmatch",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seeds=False, workers=False):
        p.add_argument("--config", help="JSON file supplying defaults; flags always win")
        p.add_argument("--dim", type=int, help="space dimension d")
        p.add_argument("--side", type=float, help="box side length L")
        p.add_argument("--seed", type=int, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
        if seeds:
            p.add_argument("--seeds", type=int, help="number of independent instances")
        if workers:
            p.add_argument("--workers", type=int, help="parallel trial workers (default: the CPU count)")

    p = sub.add_parser("sample", help="write a uniform cloud as CSV (header x1,...,xd)")
    p.add_argument("--n", type=int, help="number of points")
    p.add_argument("--out", help="CSV path (default stdout)")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("match", help="exact matching cost of one instance; prints JSON")
    p.add_argument("--n", type=int, help="points per cloud")
    p.add_argument("--method", choices=["brute", "solver", "lp"])
    add_common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("upper-bound", help="exact hierarchical map and coupling costs, from preimage boxes, vs the optimum; CSV rows (seed, k_star, map_cost, coupling_cost, optimal_cost)")
    p.add_argument("--n", type=int)
    p.add_argument("--out", help="CSV path")
    p.add_argument("--json", help="JSON summary path (default stdout)")
    add_common(p, seeds=True)
    p.set_defaults(func=cmd_upper_bound)

    p = sub.add_parser("lower-bound", help="dual certificates vs the optimum, gain = mean of the potential over the x-cloud (its spatial mean is exactly 0); CSV rows (seed, gain, sup_grad_sq, certified_lower_bound, optimal_cost)")
    p.add_argument("--n", type=int)
    p.add_argument("--grid-divisor", dest="grid_divisor", type=int, help="sup-gradient grid spacing divisor")
    p.add_argument("--out", help="CSV path")
    p.add_argument("--json", help="JSON summary path (default stdout)")
    add_common(p, seeds=True)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("scaling", help="mean exact cost over N list with shape fit; CSV rows (n, dim, trials, mean, stderr, fitted_constant)")
    p.add_argument("--n", type=_int_list, help="comma-separated N list")
    p.add_argument("--trials", type=_int_list, help="trials per N (single value broadcasts)")
    p.add_argument("--out", help="CSV path")
    p.add_argument("--json", help="JSON summary path (default stdout)")
    add_common(p, workers=True)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("lemma-check", help="box-count moment and concentration report (JSON)")
    p.add_argument("--n", type=_int_list, help="comma-separated N list")
    p.add_argument("--theta", type=_float_list, help="comma-separated volume fractions")
    p.add_argument("--trials", type=int)
    p.add_argument("--c-bound", dest="c_bound", type=float, help="constant in the concentration bounds")
    p.add_argument("--json", help="JSON report path (default stdout)")
    add_common(p, workers=True)
    p.set_defaults(func=cmd_lemma_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrialError, RuntimeError, AssertionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
