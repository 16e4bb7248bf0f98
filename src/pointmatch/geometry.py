"""Point clouds on [0, L]^d and the microscopic scale."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def substream_seed(master_seed: int, *path: int) -> int:
    """Derive an independent 64-bit seed from a master seed and an index path.

    Built on numpy's SeedSequence spawning so that (master, t) substreams are
    statistically independent; parallel trials must never share generator state.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PointCloud:
    """N ordered points in [0, L]^d."""

    dim: int
    side: float
    points: np.ndarray  # shape (N, dim), float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, self.dim)
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def sample_uniform(n: int, side: float, dim: int, seed: int) -> PointCloud:
    """Draw n i.i.d. uniform points in [0, side]^dim, reproducibly from seed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"side must be finite and > 0, got {side}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    rng = np.random.default_rng(np.uint64(seed))
    pts = rng.random((n, dim)) * side
    return PointCloud(dim=dim, side=float(side), points=pts)


def micro_scale(cloud: PointCloud) -> float:
    """Typical inter-point distance r = L * N^(-1/d); r^d is the volume per particle."""
    if cloud.n < 1:
        raise ValueError("micro_scale requires a nonempty cloud")
    return float(cloud.side * cloud.n ** (-1.0 / cloud.dim))


def cloud_to_csv(cloud: PointCloud, path_or_file) -> None:
    """Write the cloud as CSV with header x1,...,xd; 17 significant digits round-trip exactly."""
    own = isinstance(path_or_file, (str, bytes))
    f = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        w = csv.writer(f)
        w.writerow([f"x{i + 1}" for i in range(cloud.dim)])
        for row in cloud.points:
            w.writerow([f"{v:.17g}" for v in row])
    finally:
        if own:
            f.close()
