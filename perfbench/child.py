"""One benchmark batch: a fresh process that runs one `pointmatch` subcommand.

Usage: python child.py              import `pointmatch.cli` and report readiness
       python child.py TRACE ARGS   also run `pointmatch.cli.run(ARGS)`; TRACE is 0 or 1

The last line of standard output is one JSON object. `ready` is the
`time.monotonic()` reading once `pointmatch.cli` is imported, which the parent
compares with its own reading at spawn time to get the set-up time. With
TRACE=1 the public functions of each module are wrapped in timing spans before
the subcommand runs; the program itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cost_matrix_counts(args, result):
    n, m, d = args["x"].n, args["y"].n, args["x"].dim
    # the N x N x d difference temporary plus the N x N float64 output
    return {"bytes_computed": n * m * d * 8 + n * m * 8}


# Span name -> function(bound arguments, result) giving the counts to add.
SPANS = {
    "assignment.cost_matrix": _cost_matrix_counts,
    "assignment.match_solver": lambda a, r: {"n_sq_sum": a["c"].n ** 2},
    "dyadic_transport.build_map": None,
    "dyadic_transport.build_tree": None,
    "dyadic_transport.map_cost": lambda a, r: {"probes": a["probes"]},
    "dyadic_transport.couple_two_clouds": lambda a, r: {"probes": a["probes"]},
    "dual_potential.lower_bound_functional": None,
    "dual_potential.grad_sq_on_grid": lambda a, r: {"points": len(r[1])},
    "dual_potential.potential_eval_batch": lambda a, r: {"points": len(r[0])},
    "dual_potential.dual_lower_bound": None,
    "geometry.sample_uniform": None,
    "stats.run_ensemble": None,
    "experiments.matching_cost": None,
    "experiments.upper_bound_row": None,
    "experiments.lower_bound_row": None,
}
# Spans whose every duration is kept, for latency percentiles.
LATENCY_SPANS = ("experiments.matching_cost", "experiments.upper_bound_row", "experiments.lower_bound_row")


class Tracer:
    """Nested timing spans aggregated per name: self time, calls and counts.

    `stats[name]` holds `self_s` (duration minus the time of child spans),
    `calls`, one entry per count, and for latency spans `durations_ms`.
    """

    def __init__(self):
        self._child_time = []  # one accumulator per open span
        self.stats = {}

    def call(self, name, fn, counter, signature, *args, **kwargs):
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            child = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            entry = self.stats.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += duration - child
            entry["calls"] += 1
            if name in LATENCY_SPANS:
                entry.setdefault("durations_ms", []).append(duration * 1e3)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in counter(bound.arguments, result).items():
                entry[key] = entry.get(key, 0) + int(value)
        return result

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, signature, *args, **kwargs)

        return traced


def install(tracer: Tracer) -> None:
    """Replace every module-level reference to each traced function by its span."""
    modules = [m for key, m in sys.modules.items() if key == "pointmatch" or key.startswith("pointmatch.")]
    for name, counter in SPANS.items():
        module_name, fn_name = name.split(".")
        original = getattr(sys.modules["pointmatch." + module_name], fn_name)
        traced = tracer.wrap(name, original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    import pointmatch.cli as cli

    ready = time.monotonic()
    loaded_from = Path(cli.__file__).resolve()
    if SRC not in loaded_from.parents:
        print(f"pointmatch was imported from {loaded_from}, not from {SRC}", file=sys.stderr)
        return 3
    report = {"ready": ready}
    if argv:
        tracer = Tracer() if argv[0] == "1" else None
        if tracer is not None:
            install(tracer)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = cli.run(argv[1:])
            else:
                code = tracer.call("cli", cli.run, None, None, argv[1:])
        report.update(
            exit_code=code,
            cli_s=time.perf_counter() - t0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            stdout=out.getvalue(),
            trace=tracer.stats if tracer is not None else None,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
