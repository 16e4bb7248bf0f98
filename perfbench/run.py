"""End-to-end and per-layer benchmark of the `pointmatch` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one CLI subcommand. A run spawns it repeatedly, one batch per
fresh single-threaded process (`perfbench/child.py`), with the CLI master seed
of batch b derived from (--seed, b), until the batch processes have taken
--seconds. Every instance is checked against the benchmark's own reference
optimum: clouds are regenerated here from the seed and solved with scipy's
assignment solver, so a change to the program's sampler, seeding or solver
that alters an optimum is a failure. The checks compare exact optima and the
sandwich inequalities, never bound values. `upper-bound` and `lower-bound`
share batch seeds, so the first instances of each batch are the same clouds
and both subcommands are held to the same reference optimum.

With --trace 0 the last line reports the end-to-end metrics:
  instances_per_s  median over batches of instances / seconds inside `cli.run`
  setup_s          median over launches of spawn -> `pointmatch.cli` imported
  peak_rss_mb      median over batches of the process's peak resident memory
  bound_looseness  mean factor by which the reported values miss the exact
                   optimum: mean of coupling/opt (upper-bound), 1 / mean of
                   certified lower bound/opt (lower-bound), mean of per-N
                   mean/reference mean (exact-scaling, 1 up to rounding)
With --trace 1 each batch runs untraced and then traced with the same inputs;
the last line reports per-batch self times and counts of the public functions
of each module, per-instance latencies, and the tracing overhead.

The line before the last is a report with provenance, the deterministic
per-instance outcomes and the timings, kept apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads, here and in every batch process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402

from child import LATENCY_SPANS as LATENCY  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_LAUNCHES = 3
BATCH_TIMEOUT_S = 150
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # "scaling" | "upper-bound" | "lower-bound"
    dim: int
    n_values: tuple
    trials: tuple  # instances per N in one batch

    @property
    def instances(self) -> int:
        return sum(self.trials)

    def cli_args(self, batch_seed: int) -> list:
        if self.subcommand == "scaling":
            sizes = ["--n", ",".join(map(str, self.n_values)), "--trials", ",".join(map(str, self.trials)), "--workers", "1"]
        else:
            sizes = ["--n", str(self.n_values[0]), "--seeds", str(self.trials[0])]
        return [self.subcommand, "--dim", str(self.dim), *sizes, "--seed", str(batch_seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-scaling", "scaling", 3, (256, 1024, 4096), (64, 24, 2)),
        Workload("upper-bound", "upper-bound", 2, (256,), (10,)),
        Workload("lower-bound", "lower-bound", 2, (256,), (40,)),
    )
}

END_TO_END = {"instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "bound_looseness": "ratio"}

# (span, key, unit): per-batch totals that perfbench/child.py records per span.
SPAN_TOTALS = (
    *((name, "self_s", "s") for name in (
        "assignment.cost_matrix",
        "assignment.match_solver",
        "dyadic_transport.build_map",
        "dyadic_transport.build_tree",
        "dyadic_transport.map_cost",
        "dyadic_transport.couple_two_clouds",
        "dual_potential.lower_bound_functional",
        "dual_potential.grad_sq_on_grid",
        "dual_potential.potential_eval_batch",
        "dual_potential.dual_lower_bound",
        "geometry.sample_uniform",
        "stats.run_ensemble",
        "cli",
    )),
    ("assignment.cost_matrix", "calls", "count"),
    ("assignment.cost_matrix", "bytes_computed", "B"),
    ("assignment.match_solver", "n_sq_sum", "count"),
    ("dyadic_transport.map_cost", "probes", "count"),
    ("dyadic_transport.couple_two_clouds", "probes", "count"),
    ("dual_potential.grad_sq_on_grid", "calls", "count"),
    ("dual_potential.grad_sq_on_grid", "points", "count"),
    ("dual_potential.potential_eval_batch", "points", "count"),
)
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_SAMPLES = 10


def per_layer_units() -> dict:
    units = {f"{name}.{key}": unit for name, key, unit in SPAN_TOTALS}
    for name in LATENCY:
        units.update({f"{name}.p50_ms": "ms", f"{name}.ptail_ms": "ms", f"{name}.ptail_pct": "%", f"{name}.samples": "count"})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Reference optima, computed independently of the program under test.


def substream(master: int, *path: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def reference_optimum(n: int, dim: int, instance_seed: int) -> float:
    """(1/N) min over permutations of sum |Y_sigma(n) - X_n|^2 on the unit cube."""
    x, y = (np.random.default_rng(np.uint64(substream(instance_seed, k))).random((n, dim)) for k in (0, 1))
    c = cdist(x, y, "sqeuclidean")
    rows, cols = linear_sum_assignment(c)
    return float(c[rows, cols].mean())


def instance_seeds(w: Workload, batch_seed: int) -> list:
    """Seeds of every instance of one batch, grouped per N, as the CLI derives them."""
    if w.subcommand == "scaling":
        return [[substream(substream(batch_seed, i), t) for t in range(k)] for i, k in enumerate(w.trials)]
    return [[substream(batch_seed, t) for t in range(w.trials[0])]]


def reference(w: Workload, batch_seed: int) -> list:
    return [[reference_optimum(n, w.dim, s) for s in seeds] for n, seeds in zip(w.n_values, instance_seeds(w, batch_seed))]


# ---------------------------------------------------------------------------
# Output checks.


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _close(value, ref: float) -> bool:
    return _number(value) and abs(value - ref) <= REL_TOL * abs(ref)


def check_batch(w: Workload, batch_seed: int, exit_code: int, summary, ref: list) -> tuple[int, list]:
    """Failed instance count and the reported-to-optimum ratios of one batch.

    A ratio is coupling/opt (upper-bound), certified lower bound/opt
    (lower-bound) or the per-N mean over the reference mean (scaling). It is
    taken from every row that reports numbers, passing or not. A non-zero exit
    or an unreadable summary fails every instance of the batch.
    """
    if exit_code != 0 or not isinstance(summary, dict) or not isinstance(summary.get("results"), list):
        return w.instances, []
    rows = [r if isinstance(r, dict) else {} for r in summary["results"]]
    failed, ratios = 0, []
    if w.subcommand == "scaling":
        by_n = {r.get("n"): r for r in rows}
        for n, k, opts in zip(w.n_values, w.trials, ref):
            row = by_n.get(n, {})
            ref_mean = sum(opts) / len(opts)
            if _number(row.get("mean")):
                ratios.append(row["mean"] / ref_mean)
            if row.get("trials") != k or not _close(row.get("mean"), ref_mean):
                failed += k
        return failed, ratios
    rows += [{}] * (w.instances - len(rows))
    for row, seed, opt_ref in zip(rows, instance_seeds(w, batch_seed)[0], ref[0]):
        opt = row.get("optimal_cost")
        upper = w.subcommand == "upper-bound"
        bound = row.get("coupling_cost" if upper else "certified_lower_bound")
        sandwich = False
        if _number(opt) and _number(bound) and opt > 0:
            ratios.append(bound / opt)
            sandwich = opt <= bound if upper else 0 <= bound <= opt
        if not (row.get("seed") == seed and _close(opt, opt_ref) and sandwich):
            failed += 1
    return failed, ratios


def looseness(w: Workload, ratios: list) -> float:
    """Mean factor by which the reported values miss the optimum; >= 1, lower is better."""
    mean = statistics.fmean(ratios)
    return 1.0 / mean if w.subcommand == "lower-bound" else mean


# ---------------------------------------------------------------------------
# Launching batches.


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("POINTMATCH_SEED", None)
    return env


def launch(cli_args=None, trace: bool = False) -> dict:
    """Run one child process; returns its report plus the measured set-up time."""
    cmd = [sys.executable, str(CHILD)]
    if cli_args is not None:
        cmd += ["1" if trace else "0", *cli_args]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": -1, "error": f"timed out after {BATCH_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode or -1, "error": proc.stderr.strip()[-2000:]}
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready") - start
    report.setdefault("exit_code", 0)
    return report


def parse_summary(report: dict):
    try:
        return json.loads(report.get("stdout", ""))
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# Metrics.


def tail(durations: list) -> tuple[float, float, float]:
    """Median, the highest tail percentile with TAIL_SAMPLES samples beyond it, and that percentile."""
    if not durations:
        return 0.0, 0.0, 0.0
    values = np.asarray(durations)
    pct = next((q for q in TAIL_PERCENTILES if values.size * (1 - q / 100) >= TAIL_SAMPLES), 50.0)
    return float(np.median(values)), float(np.percentile(values, pct)), pct


def end_to_end_metrics(w: Workload, batches: list, setup_samples: list, ratios: list) -> dict:
    ok = [b for b in batches if b["exit_code"] == 0]
    values = {
        "instances_per_s": statistics.median(w.instances / b["cli_s"] for b in ok),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in ok),
        "bound_looseness": looseness(w, ratios),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(traced: list, overheads: list) -> dict:
    traces = [b["trace"] for b in traced if b.get("trace") is not None]
    values = {f"{name}.{key}": statistics.median(t.get(name, {}).get(key, 0) for t in traces)
              for name, key, _ in SPAN_TOTALS}
    for name in LATENCY:
        durations = [d for t in traces for d in t.get(name, {}).get("durations_ms", [])]
        p50, ptail, pct = tail(durations)
        values.update({f"{name}.p50_ms": p50, f"{name}.ptail_ms": ptail, f"{name}.ptail_pct": pct, f"{name}.samples": len(durations)})
    values["trace.overhead_s"] = statistics.median(overheads)
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def provenance(w: Workload, seed: int) -> dict:
    src = ROOT / "src" / "pointmatch"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = cpu_model = None
    try:
        if (ROOT / ".git").exists():
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = res.stdout.strip() or None
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": w.name,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; returns (report, result) where result is the last printed line.

    The measuring window counts the batch processes only; computing the
    reference optima and checking outputs happen between them, untimed.
    """
    w = WORKLOADS[workload]
    setup_samples = []
    for _ in range(SETUP_LAUNCHES):
        probe = launch()
        if probe["exit_code"] != 0:
            raise RuntimeError(f"cannot start pointmatch from {ROOT / 'src'}: {probe.get('error')}")
        setup_samples.append(probe["setup_s"])

    batches, traced, overheads, outcomes, ratios = [], [], [], [], []
    attempted = failed = 0
    measured = 0.0
    while not batches or measured < seconds:
        batch_seed = substream(seed, len(batches))
        cli_args = w.cli_args(batch_seed)
        t0 = time.monotonic()
        runs = [launch(cli_args)]
        if trace:
            runs.append(launch(cli_args, trace=True))
        measured += time.monotonic() - t0
        ref = reference(w, batch_seed)
        outcome = {"batch_seed": batch_seed, "cli_args": cli_args, "reference_optima": ref, "runs": []}
        for rep in runs:
            n_failed, batch_ratios = check_batch(w, batch_seed, rep["exit_code"], parse_summary(rep), ref)
            attempted += w.instances
            failed += n_failed
            setup_samples += [rep["setup_s"]] if "setup_s" in rep else []
            outcome["runs"].append({"exit_code": rep["exit_code"], "error": rep.get("error"),
                                    "failed": n_failed, "ratios": batch_ratios})
        ratios += outcome["runs"][0]["ratios"]
        outcomes.append(outcome)
        batches.append(runs[0])
        if trace:
            traced.append(runs[1])
            if all(r["exit_code"] == 0 for r in runs):
                overheads.append(runs[1]["cli_s"] - runs[0]["cli_s"])

    timing_keys = ("cli_s", "setup_s", "peak_rss_mb")
    report = {
        "provenance": provenance(w, seed),
        "deterministic": {"batches": outcomes, "attempted": attempted, "failed": failed,
                          "failed_fraction": failed / attempted},
        "timings": {
            "measured_s": measured,
            "setup_s": setup_samples,
            "batches": [{k: b.get(k) for k in timing_keys} for b in batches],
            "traced_batches": [{k: b.get(k) for k in timing_keys} for b in traced],
        },
    }
    if not any(b["exit_code"] == 0 for b in batches) or not ratios or (trace and not overheads):
        raise RuntimeError(f"no batch of {workload} completed: {outcomes[0]['runs'][0]['error']}")
    metrics = per_layer_metrics(traced, overheads) if trace else end_to_end_metrics(w, batches, setup_samples, ratios)
    return report, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
