"""The benchmark's traced mode still finds every function it wraps.

`perfbench/child.py` looks each traced function up by name, so deleting or
renaming one breaks `perfbench/run.py --trace 1`; these runs catch that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


_BOUND_ARGS = ["--n", "32", "--seeds", "2", "--workers", "1"]


@pytest.mark.parametrize(
    "args, spans",
    [
        (
            ["upper-bound", *_BOUND_ARGS],
            {"dyadic_transport.build_map", "dyadic_transport.build_tree", "experiments.upper_bound_row"},
        ),
        (["lower-bound", *_BOUND_ARGS], {"dyadic_transport.build_tree", "experiments.lower_bound_row"}),
        (
            ["scaling", "--dim", "3", "--n", "16,32,64", "--trials", "2", "--workers", "1"],
            {"experiments.matching_cost", "assignment.match_solver", "stats.run_ensemble"},
        ),
    ],
    ids=["upper-bound", "lower-bound", "exact-scaling"],
)
def test_traced_benchmark_batch_runs(args, spans):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "1", *args], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["exit_code"] == 0
    assert spans <= report["trace"].keys()
