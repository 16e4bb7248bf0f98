"""Experiment runner: sample, match, upper-bound, lower-bound, sandwich, scaling,
recursion-audit, lemma-check.

Every experiment prints a JSON summary {config, results, fit, version} to stdout
(the run's configuration is embedded verbatim for provenance) and optionally
writes plot-ready CSV. Exit codes: 0 success, 2 configuration error, 1
numerical failure. The default master seed comes from $POINTMATCH_SEED.

Each subcommand's options are declared once, in OPTIONS (name -> default);
its flags, its --config merge and its embedded config follow from that table.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from functools import partial

from . import __version__
from . import assignment as asg
from . import binomial
from . import experiments as xp
from .geometry import cloud_to_csv, sample_uniform, substream_seed
from .stats import TrialError, default_workers, map_trials, trial_seeds

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
    c_bound: float = 10.0
    out: str | None = None

    def __post_init__(self):
        """Reject, before any work starts, a configuration no run can complete."""
        min_trials = 2 if self.subcommand in ("scaling", "lemma-check", "recursion-audit") else 1
        min_n = 0 if self.subcommand == "sample" else 1  # an empty cloud is a valid CSV
        lo, hi = side_range(max(self.dim, 1))  # a --dim below 1 fails its own check first
        checks = [
            (self.dim >= 1, f"--dim must be >= 1, got {self.dim}"),
            (lo <= self.side <= hi, f"--side must lie in [{lo!r}, {hi!r}] for --dim {self.dim}, got {self.side}"),
            (all(n >= min_n for n in self.n_values), f"every --n must be >= {min_n}, got {list(self.n_values)}"),
            (all(t >= min_trials for t in self.trials),
             f"{self.subcommand} needs at least {min_trials} trial(s) per run, got {list(self.trials)}"),
            (self.workers >= 1, f"--workers must be >= 1, got {self.workers}"),
            (all(0.0 <= t <= 1.0 for t in self.thetas), f"every --theta must lie in [0, 1], got {list(self.thetas)}"),
            (math.isfinite(self.c_bound) and self.c_bound > 0, f"--c-bound must be finite and > 0, got {self.c_bound}"),
            (self.master_seed >= 0, f"--seed must be >= 0, got {self.master_seed}"),
        ]
        if self.subcommand == "scaling":
            checks += [
                (len(set(self.n_values)) >= 3, "the scaling fit needs at least 3 distinct --n values"),
                (self.dim != 2 or all(n >= 2 for n in self.n_values), "the d = 2 shape ln N needs every --n >= 2"),
            ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


def side_range(dim: int) -> tuple[float, float]:
    """The box sides (lo, hi) a run in dimension d accepts: those that keep
    D^2 = (d L^2)^2, the scale of an ensemble variance of costs, and the volume
    L^d, which divides every coupling mass and level weight, in
    [tiny / eps, eps * big] (float64's smallest normal and largest value, eps
    its epsilon). An underflow then errs by at most eps of the rounding that
    the bounds' allowances grant, no sum of under 1 / eps terms overflows, and
    the Poisson wavenumbers pi m / L, m < 4 N^(1/d), stay normal for N < 2^500.
    """
    low, high = sys.float_info.min / sys.float_info.epsilon, sys.float_info.max * sys.float_info.epsilon
    return max(low ** (1 / dim), low**0.25 / math.sqrt(dim)), min(high ** (1 / dim), high**0.25 / math.sqrt(dim))


def _env_seed() -> int:
    """The master seed when neither --seed nor --config gives one: $POINTMATCH_SEED, else 0."""
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"${SEED_ENV_VAR} must be an integer, got {text!r}") from None


_MATCH_SOLVERS = {"brute": asg.match_bruteforce, "solver": asg.match_solver, "lp": asg.match_lp}

# Each subcommand's options, name -> default. The name gives the flag
# (c_bound -> --c-bound) and the default its parse type: int, float,
# str, None for a path, a tuple for a comma-separated list. A callable default
# is an int computed only when neither the flag nor --config gives the option.
_CLOUD = {"dim": 2, "side": 1.0, "seed": _env_seed}
_RUN = {**_CLOUD, "workers": default_workers, "json": None}
_BOUND = {"n": 64, "seeds": 10, **_RUN, "out": None}
OPTIONS = {
    "sample": {"n": 100, **_CLOUD, "out": None},
    "match": {"n": 10, **_CLOUD, "method": "solver"},
    "upper-bound": _BOUND,
    "lower-bound": _BOUND,
    "sandwich": _BOUND,
    "scaling": {"n": (64, 256, 1024), "trials": (200,), **_RUN, "out": None},
    "recursion-audit": {"n": 1024, "trials": 100, **_RUN, "out": None},
    "lemma-check": {"n": (1000,), "theta": (0.125,), "trials": 1000, **_RUN, "dim": 1, "c_bound": 10.0},
}
HELP = {
    "n": "points per cloud (scaling, lemma-check: a comma-separated N list)",
    "dim": "space dimension d",
    "side": "box side length L",
    "seed": f"master seed (default ${SEED_ENV_VAR}, else 0)",
    "seeds": "number of independent instances",
    "workers": "parallel trial workers, the forked ones pinned to CPUs of their own (default: the CPUs this process may run on)",
    "trials": "trials per run (scaling: a comma-separated list, one per N; a single value broadcasts)",
    "theta": "comma-separated volume fractions",
    "method": "exact solver: " + ", ".join(_MATCH_SOLVERS),
    "c_bound": "constant in the concentration bounds",
    "out": "CSV path (sample: default stdout)",
    "json": "JSON summary path (default stdout)",
}

# accept the field names a JSON summary embeds, so a run's own config replays it
_CONFIG_ALIASES = {"n": "n_values", "seed": "master_seed", "theta": "thetas", "seeds": "trials"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _parse_type(default):
    """The argparse type of an option, read off its default."""
    if callable(default):
        return int
    if default is None:
        return str
    if isinstance(default, tuple):
        item = type(default[0])

        def parse_list(text: str) -> tuple:
            return tuple(item(v) for v in text.split(","))

        parse_list.__name__ = f"comma-separated {item.__name__}"
        return parse_list
    return type(default)


def _merge(args: argparse.Namespace, options: dict) -> dict:
    """Flags first, then the optional JSON config file, then the declared defaults."""
    from_file = {}
    if args.config:
        with open(args.config) as f:
            from_file = json.load(f)
        if not isinstance(from_file, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object, got {type(from_file).__name__}")
    merged = {}
    for key, default in options.items():
        val = getattr(args, key)
        name = key if key in from_file else _CONFIG_ALIASES.get(key)
        if val is None and name in from_file:
            val = from_file[name]
            if isinstance(val, list):
                if isinstance(default, tuple):
                    val = tuple(val)
                elif len(val) == 1:
                    val = val[0]
            if not _same_kind(val, default):
                raise ValueError(f"--config {args.config}: {key!r} = {val!r} does not have the type of its default {default!r}")
        elif val is None:
            val = default() if callable(default) else default
        if default is None and val is not None:
            _check_output_path(key, val)
        merged[key] = val
    return merged


def _check_output_path(key: str, path: str) -> None:
    """Reject, before any work, an output path that cannot be written."""
    if os.path.isdir(path):
        raise ValueError(f"--{key} {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"--{key} {path}: directory {parent} does not exist")


def _same_kind(val, fallback) -> bool:
    """Whether a config-file value has the type of the option's default (None stands for a path)."""
    if callable(fallback):
        fallback = 0
    if fallback is None:
        return val is None or isinstance(val, str)
    if isinstance(fallback, tuple):
        return isinstance(val, tuple) and all(_same_kind(v, fallback[0]) for v in val)
    if isinstance(val, bool) or isinstance(fallback, bool):
        return type(val) is type(fallback)
    if isinstance(fallback, float):
        return isinstance(val, (int, float))
    return isinstance(val, type(fallback))


def _config(subcommand: str, opts: dict) -> ExperimentConfig:
    """The validated record of a run: options under their field names, a scalar N or trial count as a 1-tuple."""
    record = {_CONFIG_ALIASES.get(key, key): val for key, val in opts.items()}
    for field in ("n_values", "trials"):
        if not isinstance(record[field], tuple):
            record[field] = (record[field],)
    return ExperimentConfig(subcommand, **{k: v for k, v in record.items() if k in _CONFIG_FIELDS})


def _emit_summary(config: ExperimentConfig, results, fit: dict, t0: float, path: str | None) -> int:
    """Print the run's JSON summary, or write it to path."""
    payload = {
        "config": asdict(config),
        "results": results,
        "fit": fit,
        "version": __version__,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


# the scaling CSV names ScalingResult.constant in full
_CSV_FIELD = {"fitted_constant": "constant"}


def _emit_rows(opts: dict, config: ExperimentConfig, header: list, rows: list, t0: float, fit: dict | None = None) -> int:
    """Write the rows as CSV to --out, one column per header name, then emit the summary."""
    if opts["out"]:
        with open(opts["out"], "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows([getattr(r, _CSV_FIELD.get(h, h)) for h in header] for r in rows)
    return _emit_summary(config, [asdict(r) for r in rows], fit or {}, t0, opts["json"])


# ---------------------------------------------------------------------------
# Subcommands. Each docstring is the subcommand's --help text.


def cmd_sample(opts: dict) -> int:
    """write a uniform cloud as CSV (header x1,...,xd)"""
    _config("sample", {**opts, "trials": 1, "workers": 1})  # the --dim, --side and --n checks
    cloud = sample_uniform(opts["n"], opts["side"], opts["dim"], opts["seed"])
    cloud_to_csv(cloud, opts["out"] or sys.stdout)
    return 0


def cmd_match(opts: dict) -> int:
    """exact matching cost of one instance; prints JSON"""
    method = opts["method"]
    if method not in _MATCH_SOLVERS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(_MATCH_SOLVERS)}")
    _config("match", {**opts, "trials": 1, "workers": 1})  # the --dim, --side, --n and --seed checks
    x, y = xp.sample_pair(xp.PairConfig(n=opts["n"], dim=opts["dim"], side=opts["side"]), opts["seed"])
    t0 = time.perf_counter()
    plan = _MATCH_SOLVERS[method](asg.cost_matrix(x, y))
    seconds = time.perf_counter() - t0
    print(json.dumps({"cost": plan.cost, "method": method, "seconds": round(seconds, 6)}))
    return 0


def _instances(opts: dict, row):
    """row(cfg, seed) of each of the run's --seeds instances, in seed order, on --workers processes."""
    cfg = xp.PairConfig(n=opts["n"], dim=opts["dim"], side=opts["side"])
    return map_trials(partial(row, cfg), trial_seeds(opts["seed"], opts["seeds"]), opts["workers"])


def cmd_upper_bound(opts: dict) -> int:
    """exact hierarchical map and coupling costs, from preimage boxes, vs the optimum; CSV rows (seed, k_star, map_cost, coupling_cost, optimal_cost, ub_over_opt)"""
    config = _config("upper-bound", opts)
    t0 = time.perf_counter()
    rows = list(_instances(opts, xp.upper_bound_row))
    header = [f.name for f in fields(xp.UpperBoundRow)]
    return _emit_rows(opts, config, header, rows, t0)


def cmd_lower_bound(opts: dict) -> int:
    """certified dual lower bound (the c-transform pair of the exact solve's warm start) vs the optimum, gain = mean of the paper's potential over the x-cloud (its spatial mean is exactly 0); CSV rows (seed, gain, certified_lower_bound, optimal_cost, lb_over_opt)"""
    config = _config("lower-bound", opts)
    t0 = time.perf_counter()
    rows = list(_instances(opts, xp.lower_bound_row))
    header = [f.name for f in fields(xp.LowerBoundRow)]
    return _emit_rows(opts, config, header, rows, t0)


def cmd_sandwich(opts: dict) -> int:
    """per-instance sandwich certified lower bound <= optimum <= coupling cost, the optimum and its lower bound from one solve; CSV rows (seed, certified_lower_bound, optimal_cost, coupling_cost, lb_over_opt, ub_over_opt); exits 1, after writing both, if an instance breaks it"""
    config = _config("sandwich", opts)
    t0 = time.perf_counter()
    rows = list(_instances(opts, xp.sandwich_row))
    # Both costs are sums of N non-negative terms, each off by at most about
    # N eps relative; so a coupling that undercuts the optimum by less than
    # 2 N eps opt is tight (in d = 1 it is the monotone optimum), not a
    # violation. The lower side is checked strictly.
    slack = 2 * opts["n"] * sys.float_info.epsilon
    violating = [
        r.seed for r in rows
        if not r.certified_lower_bound <= r.optimal_cost or r.optimal_cost - r.coupling_cost > slack * r.optimal_cost
    ]
    fit = {
        "violations": len(violating),
        "upper_tight": sum(abs(r.optimal_cost - r.coupling_cost) <= slack * r.optimal_cost for r in rows),
    }
    header = [f.name for f in fields(xp.SandwichRow)]
    _emit_rows(opts, config, header, rows, t0, fit)
    if violating:
        print(f"sandwich violated at seed(s) {', '.join(map(str, violating))}", file=sys.stderr)
        return 1
    return 0


def cmd_scaling(opts: dict) -> int:
    """mean exact cost over N list with shape fit; CSV rows (n, dim, trials, mean, stderr, fitted_constant)"""
    n_values, trials = opts["n"], opts["trials"]
    if len(trials) == 1:
        trials = trials * len(n_values)
    if len(trials) != len(n_values):
        raise ValueError("--trials must be a single value or one per N")
    config = _config("scaling", {**opts, "trials": trials})
    t0 = time.perf_counter()
    results, fit = xp.scaling_experiment(
        n_values, list(trials), opts["dim"], side=opts["side"],
        master_seed=opts["seed"], workers=opts["workers"],
    )
    header = ["n", "dim", "trials", "mean", "stderr", "fitted_constant"]
    return _emit_rows(opts, config, header, results, t0, asdict(fit))


def cmd_recursion_audit(opts: dict) -> int:
    """per-level cost of the hierarchical map, exact per cloud, averaged over --trials clouds, and the smallest constant of the one-step recursion; CSV rows (level, scale, mean_sq, stderr, increment, cross_term, cross_stderr, admissible_c)"""
    config = _config("recursion-audit", opts)
    t0 = time.perf_counter()
    audit = xp.recursion_audit(
        opts["n"], opts["dim"], side=opts["side"], trials=opts["trials"],
        master_seed=opts["seed"], workers=opts["workers"],
    )
    header = [f.name for f in fields(xp.AuditRow)]
    return _emit_rows(opts, config, header, audit.rows, t0, {"admissible_c": audit.admissible_c})


def cmd_lemma_check(opts: dict) -> int:
    """box-count moment and concentration report (JSON)"""
    config = _config("lemma-check", opts)
    t0 = time.perf_counter()
    results = []
    for i, n in enumerate(config.n_values):
        for j, theta in enumerate(config.thetas):
            cfg = xp.BoxCountConfig(n=n, theta=theta, dim=opts["dim"], side=opts["side"])
            ens = xp.box_counts_ensemble(cfg, opts["trials"], substream_seed(opts["seed"], i, j), workers=opts["workers"])
            entry = {"n": n, "theta": theta, "trials": opts["trials"]}
            results.append(entry | binomial.lemma_check(ens, n, theta, opts["c_bound"]))
    return _emit_summary(config, results, {}, t0, opts["json"])


_COMMANDS = {
    "sample": cmd_sample,
    "match": cmd_match,
    "upper-bound": cmd_upper_bound,
    "lower-bound": cmd_lower_bound,
    "sandwich": cmd_sandwich,
    "scaling": cmd_scaling,
    "recursion-audit": cmd_recursion_audit,
    "lemma-check": cmd_lemma_check,
}


# ---------------------------------------------------------------------------
# Parser.


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; with `only`, the other subcommands get no options.

    Building every subcommand's options costs milliseconds, about one
    upper-bound instance at N = 256, and a command line names one subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="pointmatch",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__)
        if only not in (None, name):
            continue
        p.add_argument(
            "--config",
            help="JSON file of option values, under the option names or a summary's config field names; flags always win",
        )
        for key, default in OPTIONS[name].items():
            p.add_argument("--" + key.replace("_", "-"), type=_parse_type(default), help=HELP[key])
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.subcommand](_merge(args, OPTIONS[args.subcommand]))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrialError, RuntimeError, AssertionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
