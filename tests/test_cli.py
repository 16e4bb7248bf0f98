import json
import os

import pytest

from pointmatch import cli
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


def test_match_methods_agree(capsys):
    costs = {}
    for method in ("brute", "solver", "lp"):
        code, out, _ = run_cli(capsys, "match", "--n", "5", "--dim", "2", "--seed", "1", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"cost", "method", "seconds"}
        costs[method] = payload["cost"]
    assert costs["brute"] == costs["solver"] == pytest.approx(costs["lp"], abs=1e-9)


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
        ["lower-bound", "--grid-divisor", "0"],
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

    for name in ("sample_pair", "scaling_experiment", "box_counts_ensemble"):
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


def test_old_summary_with_method_field_replays(tmp_path, capsys):
    # summaries written before the unused config.method was dropped carry "method": ""
    argv = ["upper-bound", "--n", "16", "--seeds", "3", "--seed", "2"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "first.csv"))
    assert code == 0
    config = json.loads(out)["config"]
    assert "method" not in config
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({**config, "method": ""}))
    code, _, _ = run_cli(capsys, "upper-bound", "--config", str(cfg_path), "--out", str(tmp_path / "second.csv"))
    assert code == 0
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["upper-bound", "--grid-divisor", "4"],
        ["scaling", "--theta", "0.5"],
        ["sample", "--workers", "2"],
        ["match", "--json", "x.json"],
        ["lemma-check", "--out", "x.csv"],
    ],
)
def test_options_do_not_leak_across_subcommands(capsys, monkeypatch, argv):
    _forbid_work(monkeypatch)
    monkeypatch.setattr(cli, "sample_uniform", lambda *args: pytest.fail("sample ran"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("subcommand", ["sample", "match", "upper-bound", "lower-bound", "scaling", "lemma-check"])
def test_help_exits_0(capsys, subcommand):
    code, out, _ = run_cli(capsys, subcommand, "--help")
    assert code == 0
    assert "--config" in out


@pytest.mark.parametrize("subcommand", ["upper-bound", "lower-bound"])
def test_outputs_do_not_depend_on_worker_count(tmp_path, capsys, subcommand):
    runs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.csv"
        argv = [subcommand, "--n", "64", "--dim", "2", "--seeds", "6", "--workers", workers, "--out", str(path)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["workers"] == int(workers)
        runs.append((path.read_bytes(), payload["results"], payload["fit"]))
    # fit holds sup_mean_grad_sq for lower-bound: the per-seed grids must add up in seed order
    assert runs[0] == runs[1]


FAILING_SEED = substream_seed(5, 2)
TEST_PID = os.getpid()


def fail_on_third_instance(cfg, seed, **kwargs):
    # forked children inherit the patched row function; other instances give a (row, grid) stand-in
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


def exit_on_third_instance(cfg, seed, **kwargs):
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


def test_scaling_experiment_needs_one_trial_count_per_n():
    with pytest.raises(ValueError, match="trials list must match n list"):
        cli.xp.scaling_experiment([4, 8, 16], [2, 2], dim=1, workers=1)


def test_upper_bound_csv_schema(tmp_path, capsys):
    path = tmp_path / "ub.csv"
    code, out, _ = run_cli(
        capsys, "upper-bound", "--n", "16", "--dim", "2", "--seeds", "2",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,k_star,map_cost,coupling_cost,optimal_cost"
    assert len(lines) == 3
    payload = json.loads(out)
    assert len(payload["results"]) == 2
    for row in payload["results"]:
        assert row["coupling_cost"] >= row["optimal_cost"]


def test_lower_bound_csv_schema(tmp_path, capsys):
    path = tmp_path / "lb.csv"
    code, out, _ = run_cli(
        capsys, "lower-bound", "--n", "16", "--dim", "2", "--seeds", "2",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,gain,sup_grad_sq,certified_lower_bound,optimal_cost"
    payload = json.loads(out)
    for row in payload["results"]:
        assert row["certified_lower_bound"] <= row["optimal_cost"]
    assert {"mean_sup_grad_sq", "sup_mean_grad_sq"} <= set(payload["fit"])


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
