import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# To report a failing test, Hypothesis imports libcst, whose import warns with
# a DeprecationWarning. pyproject.toml turns DeprecationWarnings into errors,
# and one raised there stops pytest with INTERNALERROR before any later test
# runs, so that warning alone is ignored. Any other DeprecationWarning still
# fails its test.
_PROBE = """
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None, max_examples=5)
def test_fails(k):
    assert k != k


def test_passes():
    pass


def test_warns():
    warnings.warn("deprecated", DeprecationWarning)
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(_PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "2 failed, 1 passed" in out.stdout, out.stdout
