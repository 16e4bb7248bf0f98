import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(script, monkeypatch, *args):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script, *args])
    return main


def test_run_sandwich_smoke(tmp_path, monkeypatch, capsys):
    main = _main("run_sandwich.py", monkeypatch, "--n", "16", "--seeds", "3", "--outdir", str(tmp_path))
    assert main() == 0
    lines = (tmp_path / "sandwich_n16_d2.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert "sandwich violations: 0/3" in capsys.readouterr().out


def test_run_sandwich_d1_tight_upper_bound_is_not_a_violation(tmp_path, monkeypatch, capsys):
    # in d = 1 the coupling is the monotone optimum, equal to it up to rounding
    main = _main("run_sandwich.py", monkeypatch, "--dim", "1", "--n", "64", "--seeds", "20", "--outdir", str(tmp_path))
    assert main() == 0
    assert "violations: 0/20" in capsys.readouterr().out


def test_run_recursion_audit_smoke(monkeypatch, capsys):
    main = _main("run_recursion_audit.py", monkeypatch, "--n", "16", "--dim", "1", "--trials", "3")
    assert main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    levels = [int(row[0]) for row in rows if row and row[0].isdigit()]
    assert levels == list(range(5))  # k* = 4 for N = 16 in d = 1


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_recursion_audit.py", ["--trials", "1"]),
        ("run_recursion_audit.py", ["--n", "0"]),
        ("run_recursion_audit.py", ["--dim", "0"]),
        ("run_recursion_audit.py", ["--probes", "10"]),
        ("run_sandwich.py", ["--n", "0"]),
        ("run_sandwich.py", ["--dim", "0"]),
        ("run_sandwich.py", ["--seeds", "0"]),
    ],
)
def test_scripts_reject_bad_arguments(script, args, tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    main = _main(script, monkeypatch, *args, *(["--outdir", str(outdir)] if script == "run_sandwich.py" else []))
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert not outdir.exists()
