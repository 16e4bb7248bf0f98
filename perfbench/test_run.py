"""Tests of the benchmark itself: its output checks fire, and it prints every metric.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import copy
import json

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SEED = 11

# Same subcommands as the benchmark's workloads, at sizes that run in about a second.
SMALL = {
    w.subcommand: w
    for w in (
        bench.Workload("small-scaling", "scaling", 3, (16, 32, 64), (3, 2, 2)),
        bench.Workload("small-upper", "upper-bound", 2, (32,), (3,)),
        bench.Workload("small-lower", "lower-bound", 2, (32,), (3,)),
    )
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def batch(request):
    w = SMALL[request.param]
    report = bench.launch(w.cli_args(SEED))
    return w, report["exit_code"], bench.parse_summary(report), bench.reference(w, SEED)


def failed(w, exit_code, summary, ref):
    return bench.check_batch(w, SEED, exit_code, summary, ref)[0]


def test_untouched_batch_passes(batch):
    w, code, summary, ref = batch
    assert code == 0
    assert failed(w, code, summary, ref) == 0


def test_tampered_optimum_fails(batch):
    w, code, summary, ref = batch
    tampered = copy.deepcopy(summary)
    row = tampered["results"][0]
    key = "mean" if w.subcommand == "scaling" else "optimal_cost"
    row[key] *= 1 + 1e-7
    assert failed(w, code, tampered, ref) == (w.trials[0] if w.subcommand == "scaling" else 1)


def test_violated_inequality_fails(batch):
    w, code, summary, ref = batch
    if w.subcommand == "scaling":
        pytest.skip("the scaling subcommand reports no bounds")
    tampered = copy.deepcopy(summary)
    row = tampered["results"][1]
    if w.subcommand == "upper-bound":
        row["coupling_cost"] = 0.5 * row["optimal_cost"]
    else:
        row["certified_lower_bound"] = 2.0 * row["optimal_cost"]
    assert failed(w, code, tampered, ref) == 1


def test_nonzero_exit_fails_every_instance(batch):
    w, code, summary, ref = batch
    bad = bench.launch([*w.cli_args(SEED), "--dim", "0"])
    assert bad["exit_code"] != 0
    assert failed(w, bad["exit_code"], bench.parse_summary(bad), ref) == w.instances
    assert failed(w, 1, summary, ref) == w.instances


def test_failures_reach_the_printed_result(monkeypatch):
    true_reference = bench.reference
    monkeypatch.setattr(bench, "reference", lambda w, s: [[2.0 * v for v in opts] for opts in true_reference(w, s)])
    _, result = bench.run("upper-bound", SEED, 0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, trace, section):
    code = bench.main(["--workload", "upper-bound", "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    printed = {name: m["unit"] for name, m in last["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
