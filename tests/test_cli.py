import json

import pytest

from pointmatch import cli


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
    ],
)
def test_bad_configuration_exits_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad configuration reached the experiment")

    for name in ("sample_pair", "scaling_experiment"):
        monkeypatch.setattr(cli.xp, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


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


def test_embedded_config_replays_byte_identical_csv(tmp_path, capsys):
    path = tmp_path / "first.csv"
    code, out, _ = run_cli(
        capsys, "scaling", "--dim", "1", "--n", "4,8,16", "--trials", "25",
        "--seed", "13", "--out", str(path),
    )
    assert code == 0
    first = path.read_bytes()
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(json.loads(out)["config"]))
    path2 = tmp_path / "second.csv"
    code, _, _ = run_cli(capsys, "scaling", "--config", str(cfg_path), "--out", str(path2))
    assert code == 0
    assert path2.read_bytes() == first


def test_seed_env_var_provides_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "31")
    code, out, _ = run_cli(capsys, "scaling", "--dim", "1", "--n", "4,8,16", "--trials", "20")
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 31


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
