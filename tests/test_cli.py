import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pointmatch import assignment as asg
from pointmatch import cli
from pointmatch import experiments as xp
from pointmatch import dual_potential as dp
from pointmatch import dyadic_transport as dy
from pointmatch.geometry import substream_seed


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_sample_empty_cloud_is_valid_csv(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "0", "--dim", "3", "--seed", "1")
    assert code == 0
    assert out.strip() == "x1,x2,x3"


def test_sample_writes_file(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    code, _, _ = run_cli(capsys, "sample", "--n", "5", "--dim", "2", "--seed", "9", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 6


def test_json_path_holds_the_summary_and_stdout_stays_empty(tmp_path, capsys):
    argv = ["upper-bound", "--n", "16", "--seeds", "2", "--seed", "3"]
    path = tmp_path / "ub.json"
    assert run_cli(capsys, *argv, "--workers", "1", "--json", str(path)) == (0, "", "")
    written, printed = json.loads(path.read_text()), _summary(capsys, *argv)
    assert written["config"]["subcommand"] == "upper-bound" and len(written["results"]) == 2
    assert {**written, "seconds": 0} == {**printed, "seconds": 0}


def test_match_methods_agree(capsys):
    costs = {}
    for method in ("brute", "solver", "lp"):
        code, out, _ = run_cli(capsys, "match", "--n", "5", "--dim", "2", "--seed", "1", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"cost", "method", "seconds"}
        costs[method] = payload["cost"]
    assert costs["brute"] == costs["solver"] == pytest.approx(costs["lp"], abs=1e-9)


@pytest.mark.parametrize("dim, n", [(2, 64), (2, 500), (3, 200), (3, 1024)])
def test_match_solver_prints_the_warm_started_optimum(capsys, monkeypatch, dim, n):
    # the product route: the warm start's cost bit for bit, equal to the plain solve's;
    # at d = 3, N = 1024 the sparse route finds it without the matrix
    sparse_calls = []
    sparse_optimum = asg._sparse_optimum

    def spy(x, y, f):
        found = sparse_optimum(x, y, f)
        sparse_calls.append(found is not None)
        return found

    monkeypatch.setattr(asg, "_sparse_optimum", spy)
    code, out, err = run_cli(capsys, "match", "--n", str(n), "--dim", str(dim), "--seed", "1")
    assert code == 0, err
    x, y = xp.sample_pair(n, dim, 1.0, 1)
    c = asg.cost_matrix(x, y)
    assert json.loads(out)["cost"] == asg.optimal_cost(x, y) == asg.perm_cost(c, asg.match_solver(c))
    assert sparse_calls == ([True, True] if n >= asg.CANDIDATE_MIN_N and dim >= 3 else [])


def test_match_d1_builds_no_cost_matrix(capsys, monkeypatch):
    # N = 10^5: an N x N matrix would take 80 GB; the sorted staircase takes a few N-vectors
    def refuse(x, y):
        raise AssertionError("cost matrix built")

    monkeypatch.setattr(asg, "cost_matrix", refuse)
    n = 100_000
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "match", "--n", str(n), "--dim", "1", "--seed", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert json.loads(out)["cost"] > 0.0
    assert peak < 16 * 8 * n


def out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64")


@pytest.mark.parametrize("argv", [["match", "--n", "200000", "--dim", "2"], ["sample", "--n", "100000000000", "--dim", "2"]])
def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch, argv):
    # stand-ins raise where the N x N matrix or the cloud would not fit: neither is allocated
    monkeypatch.setattr(asg, "cost_matrix", out_of_memory)
    monkeypatch.setattr(cli, "sample_uniform", out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("out of memory: MemoryError('Unable to allocate 298. GiB")
    assert err.count("\n") == 1 and "Traceback" not in err


COST_MATRIX = asg.cost_matrix


def out_of_memory_in_a_child(x, y):
    # forked children inherit the stand-in; this process builds its share's matrices
    if os.getpid() != TEST_PID:
        out_of_memory()
    return COST_MATRIX(x, y)


@pytest.mark.parametrize(
    "workers,stand_in,trial", [("1", out_of_memory, 0), ("2", out_of_memory, 0), ("2", out_of_memory_in_a_child, 2)]
)
@pytest.mark.parametrize("subcommand", ["upper-bound", "scaling"])
def test_out_of_memory_in_a_trial_exits_1_naming_it(capsys, monkeypatch, subcommand, workers, stand_in, trial):
    # with 4 trials and 2 workers, trial 2 is the first of the forked child's share;
    # scaling's trials of its first N run first, on substream 0 of the master seed
    argv, master = {
        "upper-bound": (["--n", "16", "--seeds", "4"], 5),
        "scaling": (["--n", "16,32,64", "--trials", "4"], substream_seed(5, 0)),
    }[subcommand]
    monkeypatch.setattr(asg, "cost_matrix", stand_in)
    code, out, err = run_cli(capsys, subcommand, *argv, "--dim", "2", "--seed", "5", "--workers", workers)
    assert (code, out) == (1, "")
    seed = substream_seed(master, trial)
    assert err.startswith(f"out of memory: trial {trial} (seed {seed}) failed: MemoryError('Unable to allocate 298. GiB")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_package_runs_as_a_module():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "pointmatch", "--help"], env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert "upper-bound" in out.stdout


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "match", "--frobnicate", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["lower-bound", "--seeds", "0"],
        ["upper-bound", "--seeds", "0"],
        ["scaling", "--dim", "2", "--n", "1,2,3"],
        ["scaling", "--n", "0,2,3"],
        ["lower-bound", "--dim", "0"],
        ["upper-bound", "--probes", "10"],
        ["lower-bound", "--probes", "10"],
        ["scaling", "--n", "4,8,16", "--trials", "2", "--side", "inf", "--workers", "1"],
        ["upper-bound", "--side", "nan"],
        ["lemma-check", "--c-bound", "-1"],
        ["lemma-check", "--c-bound", "0"],
        ["upper-bound", "--workers", "0"],
        ["lower-bound", "--workers", "0"],
        ["scaling", "--dim", "1", "--n", "4,8,16", "--trials", "2", "--seed", "-1", "--workers", "1"],
        ["upper-bound", "--seed", "-1"],
        ["lemma-check", "--c-bound", "inf"],
        ["upper-bound", "--json", "/nonexistent-dir/ub.json"],
        ["upper-bound", "--out", "."],
        ["lower-bound", "--out", "/nonexistent-dir/lb.csv"],
        ["scaling", "--dim", "1", "--n", "4,8,16", "--trials", "2", "--json", "."],
        ["lemma-check", "--json", "/nonexistent-dir/lemma.json"],
        ["sample", "--n", "4", "--seed", "-1"],
        ["sample", "--n", "4", "--seed", str(2**64)],
        ["sample", "--n", "4", "--out", "."],
        ["match", "--n", "4", "--seed", "-1"],
        ["recursion-audit", "--trials", "1"],
        ["recursion-audit", "--n", "0"],
        ["recursion-audit", "--dim", "0"],
        ["recursion-audit", "--probes", "10"],
        ["sandwich", "--n", "0"],
        ["sandwich", "--dim", "0"],
        ["sandwich", "--seeds", "0"],
        # sides whose volumes, costs or variances leave float64's range (see cli.side_range)
        ["upper-bound", "--n", "64", "--dim", "4", "--side", "1e-100", "--seeds", "1"],
        ["recursion-audit", "--n", "64", "--dim", "4", "--side", "1e-100"],
        ["sandwich", "--n", "64", "--dim", "2", "--side", "1e-200"],
        ["sandwich", "--n", "64", "--dim", "2", "--side", "1e-155"],
        ["upper-bound", "--dim", "3", "--side", "1e120"],
        ["scaling", "--dim", "1", "--n", "4,8,16", "--side", "1e100"],
        ["match", "--n", "8", "--dim", "2", "--side", "1e-200"],
        ["match", "--n", "8", "--dim", "2", "--side", "1e300"],
        ["sample", "--n", "2", "--side", "1e-320"],
        ["sample", "--n", "2", "--dim", "3", "--side", "1e100"],
        ["scaling", "--n", "4,8,16", "--trials", "2,3"],
        # an empty output path, and one file named by both outputs
        ["upper-bound", "--n", "16", "--seeds", "2", "--workers", "1", "--out", ""],
        ["upper-bound", "--n", "16", "--seeds", "2", "--workers", "1", "--json", ""],
        ["sample", "--n", "3", "--out", ""],
        ["upper-bound", "--n", "16", "--seeds", "2", "--workers", "1", "--out", "same.txt", "--json", "./same.txt"],
    ],
)
def test_bad_configuration_exits_2_before_any_work(capsys, monkeypatch, argv):
    _forbid_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "subcommand,content",
    [
        ("upper-bound", {"n": "abc"}),
        ("upper-bound", [1, 2]),
        ("lower-bound", {"side": "1.0"}),
        ("lower-bound", {"seeds": True}),
        ("scaling", {"n": [4, 8, "16"]}),
        ("scaling", {"n": 16}),
        ("lemma-check", {"c_bound": None}),
        ("upper-bound", "n"),
        ("upper-bound", {"out": 5}),
        ("lemma-check", {"n": []}),
        ("lemma-check", {"theta": []}),
        ("upper-bound", {"out": ""}),
        ("lemma-check", {"json": ""}),
        ("recursion-audit", {"out": "same.csv", "json": "./same.csv"}),
    ],
)
def test_bad_config_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, subcommand, content):
    _forbid_work(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, subcommand, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _forbid_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad configuration reached the experiment")

    for name in ("sample_pair", "scaling_experiment", "box_counts_ensemble", "recursion_audit"):
        monkeypatch.setattr(cli.xp, name, no_work)
    monkeypatch.setattr(cli, "map_trials", no_work)


def test_unknown_method_exits_2(capsys):
    code, _, err = run_cli(capsys, "match", "--n", "4", "--method", "magic")
    assert code == 2


def test_scaling_csv_round_trips(tmp_path, capsys):
    path = tmp_path / "scaling.csv"
    argv = ["scaling", "--dim", "1", "--n", "4,8,16", "--trials", "30", "--seed", "7", "--out", str(path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    first = path.read_bytes()
    payload = json.loads(out)
    assert payload["config"]["subcommand"] == "scaling"
    assert payload["config"]["n_values"] == [4, 8, 16]
    assert payload["config"]["master_seed"] == 7
    assert payload["version"]
    assert len(payload["results"]) == 3
    assert payload["fit"]["model"] == "linear-in-N"
    # re-running the embedded config reproduces the CSV byte for byte
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert path.read_bytes() == first


def test_scaling_uses_config_file_for_unset_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": [4, 8, 16], "trials": [20], "dim": 1, "seed": 5}))
    code, out, _ = run_cli(capsys, "scaling", "--config", str(cfg_path), "--seed", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["n_values"] == [4, 8, 16]
    # the explicit flag beats the config file
    assert payload["config"]["master_seed"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("scaling", "--dim", "1", "--n", "4,8,16", "--trials", "25", "--seed", "13"),
        ("upper-bound", "--n", "16", "--seeds", "3", "--seed", "2"),
        ("lower-bound", "--n", "16", "--seeds", "3", "--seed", "2"),
        ("sandwich", "--n", "16", "--seeds", "3", "--seed", "2"),
        ("recursion-audit", "--n", "6", "--dim", "1", "--trials", "3", "--seed", "2"),  # k* = 2: 3 levels
        ("lemma-check", "--n", "200", "--theta", "0.125,0.25,0.5", "--trials", "50", "--seed", "4"),
    ],
    ids=lambda argv: argv[0],
)
def test_embedded_config_replays_byte_identical_csv(tmp_path, capsys, argv):
    # lemma-check writes no CSV, so its replay is compared on the JSON results
    def out_args(name):
        return [] if argv[0] == "lemma-check" else ["--out", str(tmp_path / name)]

    code, out, _ = run_cli(capsys, *argv, *out_args("first.csv"))
    assert code == 0
    first = json.loads(out)
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(first["config"]))
    code, out, _ = run_cli(capsys, argv[0], "--config", str(cfg_path), *out_args("second.csv"))
    assert code == 0
    if argv[0] != "lemma-check":
        assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    second = json.loads(out)
    assert second["results"] == first["results"]
    assert len(second["results"]) == 3


def _replays_with_dropped_field(tmp_path, capsys, subcommand, field, value):
    argv = [subcommand, "--n", "16", "--seeds", "3", "--seed", "2"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "first.csv"))
    assert code == 0
    config = json.loads(out)["config"]
    assert field not in config
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({**config, field: value}))
    code, _, _ = run_cli(capsys, subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "second.csv"))
    assert code == 0
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_old_summary_with_method_field_replays(tmp_path, capsys):
    # summaries written before the unused config.method was dropped carry "method": ""
    _replays_with_dropped_field(tmp_path, capsys, "upper-bound", "method", "")


def test_old_summary_with_grid_divisor_field_replays(tmp_path, capsys):
    # lower-bound summaries written before the sup-gradient grid left the CLI carry "grid_divisor": 8
    _replays_with_dropped_field(tmp_path, capsys, "lower-bound", "grid_divisor", 8)


@pytest.mark.parametrize(
    "argv",
    [
        ["upper-bound", "--grid-divisor", "4"],
        ["scaling", "--theta", "0.5"],
        ["sample", "--workers", "2"],
        ["match", "--json", "x.json"],
        ["lemma-check", "--out", "x.csv"],
        ["lower-bound", "--grid-divisor", "0"],  # the sup-gradient grid is no longer the CLI's bound
    ],
)
def test_options_do_not_leak_across_subcommands(capsys, monkeypatch, argv):
    _forbid_work(monkeypatch)
    monkeypatch.setattr(cli, "sample_uniform", lambda *args: pytest.fail("sample ran"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("subcommand", cli._COMMANDS)
def test_parser_of_one_subcommand_parses_it_as_the_full_parser(subcommand):
    flags = [a for key in cli.OPTIONS[subcommand] for a in ("--" + key.replace("_", "-"), "1")]
    one, full = cli.build_parser(subcommand), cli.build_parser()
    assert one.parse_args([subcommand, *flags]) == full.parse_args([subcommand, *flags])
    assert one.parse_args([subcommand]) == full.parse_args([subcommand])
    other = next(name for name in cli._COMMANDS if name != subcommand)
    with pytest.raises(SystemExit):
        one.parse_args([other, "--seed", "1"])


@pytest.mark.parametrize("subcommand", cli._COMMANDS)
def test_help_exits_0(capsys, subcommand):
    code, out, _ = run_cli(capsys, subcommand, "--help")
    assert code == 0
    assert "--config" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("upper-bound", "--n", "64", "--dim", "2", "--seeds", "6"),
        ("lower-bound", "--n", "64", "--dim", "2", "--seeds", "6"),
        ("sandwich", "--n", "64", "--dim", "2", "--seeds", "6"),
        ("recursion-audit", "--n", "64", "--dim", "2", "--trials", "6"),
    ],
    ids=lambda argv: argv[0],
)
def test_outputs_do_not_depend_on_worker_count(tmp_path, capsys, argv):
    runs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.csv"
        code, out, _ = run_cli(capsys, *argv, "--workers", workers, "--out", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["workers"] == int(workers)
        runs.append((path.read_bytes(), payload["results"], payload["fit"]))
    assert runs[0] == runs[1]


FAILING_SEED = substream_seed(5, 2)
TEST_PID = os.getpid()


def fail_on_third_instance(n, dim, side, seed):
    # forked children inherit the patched row function; other instances give a stand-in row
    if seed == FAILING_SEED:
        raise ArithmeticError("injected")
    return seed, 0.0


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("subcommand,row", [("upper-bound", "upper_bound_row"), ("lower-bound", "lower_bound_row")])
def test_failing_instance_exits_1_naming_trial_and_seed(capsys, monkeypatch, subcommand, row, workers):
    monkeypatch.setattr(cli.xp, row, fail_on_third_instance)
    code, out, err = run_cli(capsys, subcommand, "--n", "16", "--seeds", "4", "--seed", "5", "--workers", workers)
    assert code == 1
    assert out == ""
    assert f"trial 2 (seed {FAILING_SEED}) failed: ArithmeticError('injected')" in err


def exit_on_third_instance(n, dim, side, seed):
    # with 4 seeds and 2 workers, trial 2 is the first of the forked child's share
    if seed == FAILING_SEED and os.getpid() != TEST_PID:
        os._exit(3)
    return seed, 0.0


def test_dead_worker_exits_1_naming_trial_and_seed(capsys, monkeypatch):
    monkeypatch.setattr(cli.xp, "upper_bound_row", exit_on_third_instance)
    code, out, err = run_cli(capsys, "upper-bound", "--n", "16", "--seeds", "4", "--seed", "5", "--workers", "2")
    assert code == 1
    assert out == ""
    assert f"trial 2 (seed {FAILING_SEED}) failed: worker exited with status 3" in err


def test_seed_env_var_provides_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "31")
    code, out, _ = run_cli(capsys, "scaling", "--dim", "1", "--n", "4,8,16", "--trials", "20")
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 31


@pytest.mark.parametrize("seed_source", ["flag", "config"])
def test_seed_env_var_is_not_read_when_a_seed_is_given(tmp_path, capsys, monkeypatch, seed_source):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5}))
    given = ["--seed", "5"] if seed_source == "flag" else ["--config", str(cfg_path)]
    code, out, _ = run_cli(capsys, "sample", "--n", "2", *given)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["upper-bound", "--n", "16", "--seeds", "2"],
        ["scaling", "--dim", "1", "--n", "4,8,16", "--trials", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_seed_env_var_exits_2_naming_it_before_any_work(capsys, monkeypatch, argv):
    _forbid_work(monkeypatch)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert cli.SEED_ENV_VAR in err


@pytest.mark.parametrize("dim,n_values", [(3, [9, 30, 78]), (2, [15, 26, 33])])
def test_scaling_rows_and_fit_share_each_constant(dim, n_values):
    # at these N numpy's array power and Python's scalar power differ in the last bit of r
    results, fit = cli.xp.scaling_experiment(n_values, [3] * 3, dim=dim, workers=1)
    assert [r.constant for r in results] == list(fit.per_point_constants)


@pytest.mark.parametrize("method,limit", [("brute", asg.BRUTE_FORCE_LIMIT), ("lp", asg.LP_SIZE_LIMIT)])
def test_match_rejects_n_above_the_oracle_limit_before_sampling(capsys, monkeypatch, method, limit):
    def no_work(*args, **kwargs):
        raise AssertionError("an oversized instance reached the oracle")

    monkeypatch.setattr(cli.xp, "sample_pair", no_work)
    monkeypatch.setattr(cli.asg, "cost_matrix", no_work)
    code, out, err = run_cli(capsys, "match", "--n", str(limit + 1), "--method", method)
    assert code == 2
    assert out == ""
    assert f"is limited to N <= {limit}, got N = {limit + 1}" in err


def test_scaling_experiment_needs_one_trial_count_per_n():
    with pytest.raises(ValueError, match="trials list must match n list"):
        cli.xp.scaling_experiment([4, 8, 16], [2, 2], dim=1, workers=1)


def test_sandwich_smoke(tmp_path, capsys):
    path = tmp_path / "sandwich.csv"
    code, out, _ = run_cli(capsys, "sandwich", "--dim", "2", "--n", "16", "--seeds", "3", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,certified_lower_bound,optimal_cost,coupling_cost,lb_over_opt,ub_over_opt"
    assert len(lines) == 4
    payload = json.loads(out)
    assert payload["fit"]["violations"] == 0
    for row in payload["results"]:
        assert row["certified_lower_bound"] <= row["optimal_cost"] <= row["coupling_cost"]
        assert row["ub_over_opt"] == row["coupling_cost"] / row["optimal_cost"]


def test_sandwich_d1_tight_upper_bound_is_not_a_violation(capsys):
    # in d = 1 the coupling is the monotone optimum, equal to it up to rounding
    code, out, _ = run_cli(capsys, "sandwich", "--dim", "1", "--n", "64", "--seeds", "20")
    assert code == 0
    assert json.loads(out)["fit"] == {"violations": 0, "upper_tight": 20}


def violate_on_third_instance(n, dim, side, seed):
    # a lower bound above the optimum on one seed; forked children inherit the patch
    lower = 2.0 if seed == FAILING_SEED else 0.5
    return cli.xp.SandwichRow(seed, lower, 1.0, 1.5, lower, 1.5)


def test_sandwich_violation_exits_1_after_writing_csv_and_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.xp, "sandwich_row", violate_on_third_instance)
    path = tmp_path / "sandwich.csv"
    code, out, err = run_cli(capsys, "sandwich", "--n", "16", "--seeds", "4", "--seed", "5", "--out", str(path))
    assert code == 1
    assert len(path.read_text().strip().splitlines()) == 5
    assert json.loads(out)["fit"] == {"violations": 1, "upper_tight": 0}
    assert str(FAILING_SEED) in err


def _summary(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_runs_hold_at_both_ends_of_the_side_range(capsys, dim):
    # the sandwich holds, and since costs scale with L^2 the scaling sweep's
    # stderr / mean and the audit's recursion constant read as at L = 1
    lo, hi = cli.side_range(dim)
    scale_free = []
    for side in ("1.0", repr(lo), repr(hi)):
        argv = ["--dim", str(dim), "--side", side]
        assert _summary(capsys, "sandwich", "--n", "64", "--seeds", "4", *argv)["fit"]["violations"] == 0
        sweep = _summary(capsys, "scaling", "--n", "8,16,32", "--trials", "3", *argv)["results"]
        audit = _summary(capsys, "recursion-audit", "--n", "32", "--trials", "3", *argv)["fit"]
        scale_free.append([r["stderr"] / r["mean"] for r in sweep] + [audit["admissible_c"]])
    assert scale_free[1] == pytest.approx(scale_free[0], rel=1e-9)
    assert scale_free[2] == pytest.approx(scale_free[0], rel=1e-9)
    for subcommand in ("sandwich", "match", "sample"):
        for side in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            code, out, err = run_cli(capsys, subcommand, "--n", "64", "--dim", str(dim), "--side", repr(side))
            assert (code, out) == (2, "")
            assert f"--side must lie in [{lo!r}, {hi!r}]" in err


def test_recursion_audit_smoke(tmp_path, capsys):
    path = tmp_path / "audit.csv"
    code, out, _ = run_cli(capsys, "recursion-audit", "--n", "16", "--dim", "1", "--trials", "3", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,scale,mean_sq,stderr,increment,cross_term,cross_stderr,admissible_c"
    payload = json.loads(out)
    assert [row["level"] for row in payload["results"]] == list(range(5))  # k* = 4 for N = 16 in d = 1
    assert len(lines) == 6
    assert payload["fit"]["admissible_c"] == max(row["admissible_c"] for row in payload["results"])


# small sizes for every subcommand; --dim and --seed are added per run
_ROUTE_ARGV = {
    "sample": ["--n", "16"],
    "match": ["--n", "8"],
    "upper-bound": ["--n", "32", "--seeds", "2"],
    "lower-bound": ["--n", "32", "--seeds", "2"],
    "sandwich": ["--n", "32", "--seeds", "2"],
    "scaling": ["--n", "8,16,32", "--trials", "2"],
    "recursion-audit": ["--n", "32", "--trials", "2"],
    "lemma-check": ["--n", "50", "--theta", "0.25", "--trials", "2"],
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("subcommand", cli._COMMANDS)
def test_subcommands_call_no_grid_or_monte_carlo_route(capsys, monkeypatch, subcommand, dim):
    # the sup-gradient grid and the Monte Carlo map estimators are library
    # diagnostics: no subcommand may reach them
    def forbidden(*args, **kwargs):
        raise AssertionError("a subcommand reached a library-only route")

    for module, name in [
        (dp, "grad_sq_on_grid"),
        (dp, "lower_bound_functional"),
        (dp, "dual_lower_bound"),
        (dy, "map_cost"),
        (dy, "couple_two_clouds"),
        (dy, "_descend"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    workers = ["--workers", "1"] if "workers" in cli.OPTIONS[subcommand] else []
    argv = [subcommand, "--dim", str(dim), "--seed", "3", *_ROUTE_ARGV[subcommand], *workers]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_lines_parse(monkeypatch):
    # every `pointmatch ...` line of a README code block (the CLI block and the
    # scaling sweep) must pass the checks `run` makes before any work: no flag
    # gone, no configuration that exits 2
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("pointmatch ")]
    parser = cli.build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            cli._config(args.subcommand, cli._merge(args, cli.OPTIONS[args.subcommand]))
        except (SystemExit, ValueError) as exc:
            pytest.fail(f"README line would exit 2: {line}: {exc}")
    assert {line.split()[1] for line in lines} == set(cli._COMMANDS)


def test_upper_bound_csv_schema(tmp_path, capsys):
    path = tmp_path / "ub.csv"
    code, out, _ = run_cli(
        capsys, "upper-bound", "--n", "16", "--dim", "2", "--seeds", "2",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,k_star,map_cost,coupling_cost,optimal_cost,ub_over_opt"
    assert len(lines) == 3
    payload = json.loads(out)
    assert len(payload["results"]) == 2
    for row in payload["results"]:
        assert row["coupling_cost"] >= row["optimal_cost"]
        assert row["ub_over_opt"] == row["coupling_cost"] / row["optimal_cost"]


@pytest.mark.parametrize("row", ["upper_bound_row", "sandwich_row"])
def test_ub_over_opt_is_zero_for_a_zero_optimum(monkeypatch, row):
    cloud = cli.xp.sample_uniform(16, 1.0, 2, 3)
    monkeypatch.setattr(cli.xp, "sample_pair", lambda n, dim, side, seed: (cloud, cloud))
    result = getattr(cli.xp, row)(16, 2, 1.0, 0)
    assert result.optimal_cost == result.coupling_cost == 0.0
    assert result.ub_over_opt == 0.0


def test_lower_bound_csv_schema(tmp_path, capsys):
    path = tmp_path / "lb.csv"
    code, out, _ = run_cli(
        capsys, "lower-bound", "--n", "16", "--dim", "2", "--seeds", "2",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,gain,certified_lower_bound,optimal_cost,lb_over_opt"
    payload = json.loads(out)
    for row in payload["results"]:
        assert 0.0 < row["certified_lower_bound"] <= row["optimal_cost"]
        assert row["lb_over_opt"] == row["certified_lower_bound"] / row["optimal_cost"]
    assert payload["fit"] == {}  # no sup-gradient grid summary


def test_lemma_check_report(capsys):
    code, out, _ = run_cli(
        capsys, "lemma-check", "--n", "200", "--theta", "0.125,0.5",
        "--trials", "200", "--seed", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 2
    for entry in payload["results"]:
        assert entry["mean_ok"] and entry["variance_ok"]
        assert entry["p2_ok"] and entry["p4_ok"] and entry["inv_ok"]


def test_lemma_check_entry_schema(capsys):
    # N theta = 0, 0.5 and 12.5: the concentration keys appear only where N theta >= 1
    code, out, _ = run_cli(capsys, "lemma-check", "--n", "50", "--theta", "0,0.01,0.25", "--trials", "2")
    assert code == 0
    moments = {
        "n", "theta", "trials", "empirical_mean", "target_mean", "mean_ok",
        "empirical_variance", "target_variance", "variance_ok",
    }
    concentration = {"p2_stat", "p4_stat", "inv_stat", "p_bound", "inv_bound", "p2_ok", "p4_ok", "inv_ok"}
    keys = [set(entry) for entry in json.loads(out)["results"]]
    assert keys == [moments, moments, moments | concentration]
    assert len(moments) == 9 and len(moments | concentration) == 17


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "scaling", "--config", "/nonexistent.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("subcommand", ["upper-bound", "scaling"])
def test_config_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch, subcommand):
    _forbid_work(monkeypatch)
    code, out, err = run_cli(capsys, subcommand, "--config", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
