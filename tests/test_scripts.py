import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_sandwich_smoke(tmp_path, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "run_sandwich.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["run_sandwich.py", "--n", "16", "--seeds", "3", "--outdir", str(tmp_path)])
    assert main() == 0
    lines = (tmp_path / "sandwich_n16_d2.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert "sandwich violations: 0/3" in capsys.readouterr().out
