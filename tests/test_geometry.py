import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import geometry as geo


def test_empty_cloud():
    cloud = geo.sample_uniform(0, 1.0, 2, 123)
    assert cloud.n == 0
    assert cloud.points.shape == (0, 2)


def test_sample_rejects_bad_domain():
    with pytest.raises(ValueError):
        geo.sample_uniform(10, 1.0, 0, 1)
    with pytest.raises(ValueError):
        geo.sample_uniform(10, 0.0, 2, 1)
    with pytest.raises(ValueError):
        geo.sample_uniform(10, -1.0, 2, 1)
    with pytest.raises(ValueError):
        geo.sample_uniform(-1, 1.0, 2, 1)


def test_sample_mean_matches_uniform_law():
    # mean of U(0,1) is 1/2 with sigma^2 = 1/12
    n = 10**5
    cloud = geo.sample_uniform(n, 1.0, 1, 2024)
    se = math.sqrt(1.0 / 12.0 / n)
    assert abs(cloud.points.mean() - 0.5) <= 4 * se


def test_sample_quadrant_fraction():
    # fraction of points of [0,2]^2 landing in [0,1]^2 is Binomial(n, 1/4)
    n = 10**5
    cloud = geo.sample_uniform(n, 2.0, 2, 99)
    inside = np.all(cloud.points < 1.0, axis=1).mean()
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(inside - 0.25) <= 4 * se


def test_reproducibility_and_seed_sensitivity():
    a = geo.sample_uniform(50, 1.5, 3, 7)
    b = geo.sample_uniform(50, 1.5, 3, 7)
    c = geo.sample_uniform(50, 1.5, 3, 8)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_scaling_equivariance_in_moments():
    # sampling at side L then scaling by c matches sampling at side c*L in law
    n = 200_000
    scaled = geo.sample_uniform(n, 1.0, 2, 31).points * 3.0
    direct = geo.sample_uniform(n, 3.0, 2, 32).points
    for moment in (1, 2):
        a = (scaled**moment).mean(axis=0)
        b = (direct**moment).mean(axis=0)
        sd = (direct**moment).std(axis=0)
        tol = 4 * sd * math.sqrt(2.0 / n)
        assert np.all(np.abs(a - b) <= tol)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_coordinates_in_box(seed):
    cloud = geo.sample_uniform(64, 2.5, 2, seed)
    assert np.all(cloud.points >= 0.0)
    assert np.all(cloud.points <= 2.5)


@pytest.mark.parametrize(
    "side,n,dim,expected",
    [(1.0, 100, 2, 0.1), (2.0, 16, 1, 0.125), (1.0, 8, 3, 0.5)],
)
def test_micro_scale_values(side, n, dim, expected):
    cloud = geo.sample_uniform(n, side, dim, 0)
    assert geo.micro_scale(cloud) == pytest.approx(expected, rel=1e-14)


def test_micro_scale_empty_cloud_rejected():
    with pytest.raises(ValueError):
        geo.micro_scale(geo.sample_uniform(0, 1.0, 2, 0))


@given(
    n=st.integers(min_value=1, max_value=10**6),
    dim=st.integers(min_value=1, max_value=4),
    side=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_micro_scale_volume_identity(n, dim, side):
    # r^d * N = L^d up to floating tolerance
    cloud = geo.PointCloud(dim=dim, side=side, points=np.zeros((n, dim)))
    r = geo.micro_scale(cloud)
    assert r**dim * n == pytest.approx(side**dim, rel=1e-12)


def _csv_text(cloud):
    buf = io.StringIO()
    geo.cloud_to_csv(cloud, buf)
    return buf.getvalue()


def test_csv_round_trip_exact():
    cloud = geo.sample_uniform(37, 1.0, 3, 555)
    text = _csv_text(cloud)
    assert text.splitlines()[0] == "x1,x2,x3"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, cloud.points)


def test_csv_header_only_for_empty():
    assert _csv_text(geo.sample_uniform(0, 1.0, 2, 0)).strip() == "x1,x2"


def test_substream_seeds_distinct():
    seeds = {geo.substream_seed(5, t) for t in range(100)}
    assert len(seeds) == 100
    assert geo.substream_seed(5, 3) == geo.substream_seed(5, 3)
    assert geo.substream_seed(5, 3, 0) != geo.substream_seed(5, 3, 1)


@pytest.mark.parametrize("side", [0.0, -1.0, math.inf, math.nan])
def test_sample_uniform_rejects_bad_side(side):
    with pytest.raises(ValueError, match="side"):
        geo.sample_uniform(4, side, 2, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_uniform_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        geo.sample_uniform(4, 1.0, 2, seed)
    geo.sample_uniform(4, 1.0, 2, 2**64 - 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dim, n", [(3, 64), (12, 1024)])
def test_point_cloud_rejects_non_finite_coordinates(dim, n, bad):
    # such a point used to fail deep inside the exact solve: in the Poisson
    # dual's grid lookup at d = 3, N = 64, in the solver's own check at d = 12
    pts = geo.sample_uniform(n, 1.0, dim, 7).points.copy()
    pts[n // 2, dim - 1] = bad
    with pytest.raises(ValueError, match="finite"):
        geo.PointCloud(dim=dim, side=1.0, points=pts)
    pts[n // 2, dim - 1] = 1e200  # finite, however far outside the box
    assert geo.PointCloud(dim=dim, side=1.0, points=pts).n == n
