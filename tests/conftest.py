import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointmatch

# A probe reads its own resident high-water mark (VmHWM, in KiB). Its
# ru_maxrss would start at the parent's resident size at the fork, which
# hides any growth below that: under a 400 MB parent it read 0 for a
# whole-grid evaluation of the potential, and for a d = 3, N = 4096 optimum.
_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def _peak_growth_mb(probe: str) -> float:
    """Peak RSS growth of a fresh interpreter running the probe, in MB (MiB).

    The probe prints peak_kib() after its measured work minus peak_kib() before it."""
    src = str(Path(pointmatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _PEAK_KIB + probe], env=env, capture_output=True, text=True, check=True)
    return int(out.stdout) / 1024


@pytest.fixture
def peak_growth_mb():
    return _peak_growth_mb
