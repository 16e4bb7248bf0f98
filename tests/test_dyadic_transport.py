import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import assignment as asg
from pointmatch import dyadic_transport as dy
from pointmatch import experiments as xp
from pointmatch import geometry as geo
from pointmatch.stats import trial_seeds


def _cloud_from(points, side=1.0):
    pts = np.asarray(points, dtype=float)
    return geo.PointCloud(dim=pts.shape[1], side=side, points=pts)


# --- tree construction -------------------------------------------------------


def test_single_point_tree_stops_at_root():
    # r = L forces the stopping scale at level 0
    for dim in (1, 2, 3):
        tree = dy.build_tree(geo.sample_uniform(1, 1.0, dim, 5))
        assert tree.k_star == 0
        assert tree.counts[0].tolist() == [1]


def test_scale_sequence_and_stopping_level_d2_n64():
    # L_k halves every d levels; the first scale in [r, 2r) = [1/8, 1/4) is level 5
    scales = [dy.level_scale(k, 2, 1.0) for k in range(7)]
    assert scales == [1.0, 0.5, 0.5, 0.25, 0.25, 0.125, 0.125]
    assert dy.stopping_level(64, 2) == 5
    tree = dy.build_tree(geo.sample_uniform(64, 1.0, 2, 9))
    r = geo.micro_scale(tree.cloud)
    assert r <= tree.scale(tree.k_star) < 2 * r


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    dim=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_tree_counts_are_consistent(seed, n, dim):
    tree = dy.build_tree(geo.sample_uniform(n, 1.0, dim, seed))
    for k, counts in enumerate(tree.counts):
        assert counts.size == 2**k
        assert counts.sum() == n
    for k in range(tree.k_star):
        assert np.array_equal(tree.counts[k], tree.counts[k + 1].reshape(-1, 2).sum(axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("side", [1.0, 0.3, 0.7, 2.5])
def test_tree_bins_points_as_the_level_walk_places_them(dim, side):
    # points on the faces of a 1/16 lattice: at a non-dyadic side a floored
    # cell index and the walk's running corner disagree on many of them
    rng = np.random.default_rng(dim)
    pts = np.floor(rng.random((300, dim)) * 16) / 16 * side
    tree = dy.build_tree(_cloud_from(pts, side))
    lo, b = np.zeros_like(pts), np.zeros(len(pts), dtype=np.int64)
    for k in range(1, tree.k_star + 1):
        c = dy.split_coordinate(k, dim)
        right = pts[:, c] >= lo[:, c] + dy.level_scale(k, dim, side)
        lo[:, c] += right * dy.level_scale(k, dim, side)
        b = 2 * b + right
    assert np.array_equal(tree.point_box, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tree_bins_in_slices_as_in_one(dim, monkeypatch):
    cloud = geo.sample_uniform(1000, 0.7, dim, dim)
    assert cloud.n <= dy.EVAL_SLICE_POINTS
    want = dy.build_tree(cloud)
    monkeypatch.setattr(dy, "EVAL_SLICE_POINTS", 7)
    tree = dy.build_tree(cloud)
    assert np.array_equal(tree.point_box, want.point_box)
    assert all(np.array_equal(a, b) for a, b in zip(tree.counts, want.counts))


def test_stopping_scale_brackets_r():
    for n, dim in [(2, 1), (17, 2), (1000, 3), (4096, 2), (5, 3)]:
        k = dy.stopping_level(n, dim)
        lk = dy.level_scale(k, dim, 1.0)
        r = n ** (-1.0 / dim)
        assert 2 * r > lk >= r * (1 - 1e-12)


@pytest.mark.parametrize("n, dim", [(0, 2), (4, 0)])
def test_stopping_level_rejects_empty_or_dimensionless(n, dim):
    with pytest.raises(ValueError):
        dy.stopping_level(n, dim)


def test_build_tree_rejects_empty_cloud():
    with pytest.raises(ValueError, match="nonempty"):
        dy.build_tree(geo.sample_uniform(0, 1.0, 2, 0))


def test_preimage_volume_product_identity():
    for seed, (n, dim) in enumerate([(3, 1), (17, 2), (200, 3), (256, 2)]):
        tree = dy.build_tree(geo.sample_uniform(n, 1.0, dim, seed))
        prods = dy.preimage_volume_products(tree)
        assert np.allclose(prods, 1.0 / n, rtol=1e-12)


# --- block map ---------------------------------------------------------------


def test_block_map_identity_at_balanced_density():
    for x in np.linspace(0, 2, 9):
        assert dy.block_map(1.0, x) == pytest.approx(x, abs=1e-15)
    assert dy.block_map_displacement_cost(1.0) == pytest.approx(0.0, abs=1e-15)


def test_block_map_degenerate_endpoints():
    assert dy.block_map(2.0, 1.5) == pytest.approx(0.75)
    assert dy.block_map(0.0, 0.0) == 1.0
    assert dy.block_map(0.0, 0.8) == pytest.approx(1.4)
    with pytest.raises(ValueError):
        dy.block_map(1.0, 2.5)
    with pytest.raises(ValueError):
        dy.block_map(-0.1, 1.0)
    for closed_form in (dy.block_map_displacement_cost, dy.block_map_symmetrized_defect):
        for rho in (-0.1, 2.1, math.nan):
            with pytest.raises(ValueError, match="rho_minus must lie in"):
                closed_form(rho)


def test_block_map_quadrature_matches_closed_form():
    # trapezoid rule on the block map itself, on a grid holding the breakpoints
    # rho and 2 - rho, against the closed forms of both integrals
    block_map = np.vectorize(dy.block_map)
    for rho in np.linspace(0.0, 2.0, 21):
        u = np.union1d(np.linspace(0.0, 2.0, 1001), [rho, 2.0 - rho])
        da = block_map(rho, u) - u
        db = block_map(2.0 - rho, u) - u
        cost = dy.block_map_displacement_cost(rho)
        assert cost == pytest.approx(np.trapezoid(da**2, u), rel=1e-4, abs=1e-15)
        assert dy.block_map_symmetrized_defect(rho) == pytest.approx(
            np.trapezoid((0.5 * da + 0.5 * db) ** 2, u), rel=1e-4, abs=1e-15
        )
        assert cost <= 4.0 * (rho - 1.0) ** 2 + 1e-15


@given(
    rho=st.floats(0.0, 2.0),
    x1=st.floats(0.0, 2.0),
    x2=st.floats(0.0, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_block_map_monotone(rho, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert dy.block_map(rho, lo) <= dy.block_map(rho, hi) + 1e-14


def test_symmetrized_defect_vanishes_at_balance():
    assert dy.block_map_symmetrized_defect(1.0) == pytest.approx(0.0, abs=1e-15)


def test_symmetrized_defect_is_quartically_small():
    eps = np.array([0.05, 0.1, 0.2])
    vals = np.array([dy.block_map_symmetrized_defect(1.0 + e) for e in eps])
    # values follow c * eps^4 within a factor 2 across the grid
    c = vals / eps**4
    assert c.max() / c.min() <= 2.0
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert 3.5 <= slope <= 4.5


def test_symmetrized_defect_extreme_density_bounded():
    assert dy.block_map_symmetrized_defect(0.0) <= 16.0


# --- hierarchical map --------------------------------------------------------


def test_map_single_point_absorbs_everything():
    cloud = geo.sample_uniform(1, 1.0, 2, 12)
    h = dy.build_map(cloud)
    images, _, _ = dy._descend(h, np.random.default_rng(0).random((20, 2)))
    assert np.allclose(images, cloud.points[0])


def test_balanced_cloud_reduces_to_last_mile():
    # counts perfectly balanced at every split: every block map is the identity,
    # so T only moves points within their stopping cell
    pts = np.array([[0.125], [0.375], [0.625], [0.875]])
    cloud = _cloud_from(pts)
    h = dy.build_map(cloud)
    tree = h.tree
    assert tree.k_star == 2
    assert all(rho == 1.0 for rho in tree.rho_left(1))
    probes = np.random.default_rng(1).random((200, 1))
    images, idx, _ = dy._descend(h, probes)
    # each probe lands on the unique point of its own stopping box
    expected = pts[(probes[:, 0] * 4).astype(int), 0]
    assert np.allclose(images[:, 0], expected)
    assert np.all(np.abs(images - probes) <= math.sqrt(1) * tree.scale(2))


def test_map_preimages_have_equal_volume():
    # Monte Carlo volume of each preimage cell vs the exact L^d / N
    n, probes = 32, 1_000_000
    cloud = geo.sample_uniform(n, 1.0, 2, 21)
    h = dy.build_map(cloud)
    rng = np.random.default_rng(42)
    xs = rng.random((probes, 2))
    _, idx, _ = dy._descend(h, xs)
    assert np.all(idx >= 0)
    frac = np.bincount(idx, minlength=n) / probes
    se = math.sqrt((1.0 / n) * (1.0 - 1.0 / n) / probes)
    assert np.abs(frac - 1.0 / n).max() <= 4 * se


def test_composed_map_respects_box_boundaries():
    # mass never crosses a level-k box boundary after level k is applied
    cloud = geo.sample_uniform(100, 1.0, 2, 33)
    h = dy.build_map(cloud)
    rng = np.random.default_rng(3)
    xs = rng.random((500, 2))
    _, _, history = dy._descend(h, xs, record_levels=True)
    for k in range(1, h.tree.k_star + 1):
        before = dy.box_index_of_points(history[k - 1], 1.0, k - 1)[0]
        after = dy.box_index_of_points(history[k], 1.0, k - 1)[0]
        assert np.array_equal(before, after)


def test_map_cost_centered_lattice_is_last_mile_only():
    pts = np.array([[0.125], [0.375], [0.625], [0.875]])
    h = dy.build_map(_cloud_from(pts))
    cost, _ = dy.map_cost(h, probes=20_000, seed=4)
    assert cost <= 1 * dy.level_scale(h.tree.k_star, 1, 1.0) ** 2


def test_map_cost_probe_floor():
    h = dy.build_map(geo.sample_uniform(4, 1.0, 1, 0))
    with pytest.raises(ValueError):
        dy.map_cost(h, probes=10)
    with pytest.raises(ValueError, match="probes must be >="):
        dy.couple_two_clouds(h, h, probes=dy.MIN_COST_PROBES - 1)


def _mean_map_cost(n, dim, trials, master_seed):
    total = 0.0
    for t in range(trials):
        cloud = geo.sample_uniform(n, 1.0, dim, geo.substream_seed(master_seed, t))
        total += dy.map_cost_exact(dy.build_map(cloud))
    return total / trials


def test_map_cost_d2_log_shape():
    # E int |T - id|^2 tracks r^2 ln N in the critical dimension
    constants = []
    for n, trials in [(2**6, 60), (2**8, 60), (2**10, 40)]:
        mean = _mean_map_cost(n, 2, trials, master_seed=700 + n)
        constants.append(mean / ((1.0 / n) * math.log(n)))
    ratio = max(constants) / min(constants)
    assert ratio <= 4.0, constants


def test_map_cost_d3_bounded():
    # above the critical dimension the normalized cost has no ln N trend
    ns = [2**6, 2**9, 2**12]
    trials = [50, 30, 12]
    constants = []
    for n, t in zip(ns, trials):
        mean = _mean_map_cost(n, 3, t, master_seed=800 + n)
        constants.append(mean / n ** (-2.0 / 3.0))
    slope = np.polyfit(np.log(ns), constants, 1)[0]
    assert abs(slope) <= 0.1, (constants, slope)


# --- coupling two clouds ------------------------------------------------------


def test_coupling_identical_clouds_is_diagonal():
    x = geo.sample_uniform(16, 1.0, 2, 50)
    t = dy.build_map(x)
    s = dy.build_map(x)
    cost, stderr = dy.couple_two_clouds(t, s, probes=20_000, seed=1)
    assert cost <= 4 * max(stderr, 1e-15)


def test_coupling_dominates_optimal_cost_handmade():
    x = _cloud_from([[0.1], [0.3], [0.6], [0.9]])
    y = _cloud_from([[0.2], [0.4], [0.5], [0.8]])
    cost, _ = dy.couple_two_clouds(dy.build_map(x), dy.build_map(y), probes=50_000, seed=2)
    c = asg.cost_matrix(x, y)
    assert cost >= asg.perm_cost(c, asg.match_solver(c))


@pytest.mark.parametrize("seed", range(5))
def test_coupling_dominates_optimal_cost_random(seed):
    x = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(seed, 0))
    y = geo.sample_uniform(64, 1.0, 2, geo.substream_seed(seed, 1))
    cost, _ = dy.couple_two_clouds(dy.build_map(x), dy.build_map(y), probes=50_000, seed=seed)
    c = asg.cost_matrix(x, y)
    assert cost >= asg.perm_cost(c, asg.match_solver(c))


# --- exact costs from preimage boxes -------------------------------------------


def _map_pair(n, dim, seed, side=1.0):
    x = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 0))
    y = geo.sample_uniform(n, side, dim, geo.substream_seed(seed, 1))
    return dy.build_map(x), dy.build_map(y)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 256), (3, 512), (2, 5), (3, 1)])
def test_preimage_boxes_map_onto_their_points(dim, n):
    h = dy.build_map(geo.sample_uniform(n, 2.5, dim, 70 + n))
    lower, upper = h.point_preimages
    np.testing.assert_allclose((upper - lower).prod(axis=1), 2.5**dim / n, rtol=1e-12)
    # random points strictly inside each box are sent to that box's own point
    inside = lower + np.random.default_rng(n).uniform(0.01, 0.99, lower.shape) * (upper - lower)
    _, idx, _ = dy._descend(h, inside)
    assert np.array_equal(idx, np.arange(n))


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 256), (3, 512)])
@pytest.mark.parametrize("seed", range(5))
def test_exact_costs_match_monte_carlo_oracles(dim, n, seed):
    t, s = _map_pair(n, dim, 80 + seed)
    mc, mc_err = dy.map_cost(t, probes=200_000, seed=seed)
    coupled, coupled_err = dy.couple_two_clouds(t, s, probes=200_000, seed=seed)
    assert abs(dy.map_cost_exact(t) - mc) <= 4 * mc_err
    assert abs(dy.coupling_cost_exact(t, s) - coupled) <= 4 * coupled_err


@pytest.mark.parametrize("n", [1, 2, 64, 1000])
def test_coupling_exact_d1_is_monotone_optimum(n):
    # both maps are monotone in d = 1, so their coupling is the sorted matching
    t, s = _map_pair(n, 1, 90 + n, side=2.5)
    opt = asg.optimal_cost(t.tree.cloud, s.tree.cloud)
    assert dy.coupling_cost_exact(t, s) == pytest.approx(opt, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 256), (3, 512), (2, 3), (3, 100)])
def test_coupling_exact_marginals_are_uniform(dim, n):
    t, s = _map_pair(n, dim, 100 + n, side=2.5)
    n_idx, m_idx, mass = dy.coupling_exact(t, s)
    assert np.all(mass > 0.0)
    np.testing.assert_allclose(np.bincount(n_idx, mass, minlength=n), 1.0 / n, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.bincount(m_idx, mass, minlength=n), 1.0 / n, rtol=1e-12, atol=0.0)


def test_coupling_exact_identical_clouds_is_diagonal():
    t = dy.build_map(geo.sample_uniform(64, 1.0, 2, 50))
    n_idx, m_idx, _ = dy.coupling_exact(t, t)
    assert np.array_equal(n_idx, m_idx)
    assert dy.coupling_cost_exact(t, t) == 0.0


def test_preimage_boxes_are_the_level_walk_cached_read_only():
    h = dy.build_map(geo.sample_uniform(300, 2.5, 3, 71))
    tree = h.tree
    walks = {"boxes": lambda level: 0.5, "preimages": lambda level: tree.rho_left(level) / 2.0}
    for name, frac in walks.items():
        levels = getattr(tree, name)
        assert getattr(tree, name) is levels
        assert len(levels) == tree.k_star + 1
        lo, hi = np.zeros((1, 3)), np.full((1, 3), 2.5)
        for level, (got_lo, got_hi) in enumerate(levels):
            if level > 0:
                lo, hi = dy._split(level, lo, hi, frac(level))
            assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)
            assert not got_lo.flags.writeable and not got_hi.flags.writeable
        with pytest.raises(ValueError):
            levels[-1][0][0, 0] = 0.0
    lower, upper = h.point_preimages
    want_lower, want_upper = dy._point_preimages(h)
    assert np.array_equal(lower, want_lower) and np.array_equal(upper, want_upper)
    assert h.point_preimages[0] is lower
    with pytest.raises(ValueError):
        lower[0, 0] = 0.0


@pytest.mark.parametrize("side", [1.0, 2.5, 0.3])
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 256), (3, 512), (2, 5), (3, 1), (4, 300)])
def test_tree_boxes_and_preimages_tile_the_domain(dim, n, side):
    tree = dy.build_tree(geo.sample_uniform(n, side, dim, 140 + n))
    lo, hi = tree.boxes[tree.k_star]
    pts = tree.cloud.points
    assert np.all(lo[tree.point_box] <= pts) and np.all(pts <= hi[tree.point_box])
    for level in range(tree.k_star + 1):
        (lo_b, hi_b), (lo_p, hi_p) = tree.boxes[level], tree.preimages[level]
        widths = hi_b - lo_b
        np.testing.assert_allclose(widths, np.tile(dy.level_sides(level, dim, side), (2**level, 1)), rtol=1e-12)
        assert widths.prod(axis=1).sum() == pytest.approx(side**dim, rel=1e-12)
        want = side**dim * tree.counts[level] / n
        np.testing.assert_allclose((hi_p - lo_p).prod(axis=1), want, rtol=1e-12, atol=1e-15 * side**dim)


def _sorted_triples(n_idx, m_idx, mass):
    order = np.lexsort((m_idx, n_idx))
    return n_idx[order], m_idx[order], mass[order]


@pytest.mark.parametrize("dim, n", [(2, 256), (3, 512)])
def test_coupling_exact_in_tiny_chunks_equals_one_chunk(dim, n, monkeypatch):
    t, s = _map_pair(n, dim, 115 + n)
    x, y = t.tree.cloud.points, s.tree.cloud.points

    def fsum_of_terms(n_idx, m_idx, mass):
        return math.fsum((mass * ((y[m_idx] - x[n_idx]) ** 2).sum(axis=1)).tolist())

    assert len(list(dy._coupling_chunks(t, s))) == 1
    whole, whole_cost = dy.coupling_exact(t, s), dy.coupling_cost_exact(t, s)
    assert whole_cost == fsum_of_terms(*whole)
    monkeypatch.setattr(dy, "COUPLING_CHUNK_PAIRS", 7)
    assert len(list(dy._coupling_chunks(t, s))) > 1
    n_idx, m_idx, mass = dy.coupling_exact(t, s)
    for got, want in zip(_sorted_triples(n_idx, m_idx, mass), _sorted_triples(*whole)):
        assert np.array_equal(got, want)
    assert dy.coupling_cost_exact(t, s) == whole_cost == fsum_of_terms(n_idx, m_idx, mass)
    np.testing.assert_allclose(np.bincount(n_idx, mass, minlength=n), 1.0 / n, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.bincount(m_idx, mass, minlength=n), 1.0 / n, rtol=1e-12, atol=0.0)
    n_idx, m_idx, _ = dy.coupling_exact(t, t)
    assert np.array_equal(n_idx, m_idx)
    assert dy.coupling_cost_exact(t, t) == 0.0


def _all_pairs_coupling(t, s):
    """Every point pair of each overlapping stopping-box pair, kept where the
    preimages overlap: the coupling without the slab-edge merge, in one chunk."""
    a, b = dy._overlapping_boxes(t, s)
    (lo_r, hi_r), (lo_q, hi_q) = dy._point_preimages(t), dy._point_preimages(s)
    na, nb = t.tree.counts[t.tree.k_star][a], s.tree.counts[s.tree.k_star][b]
    reps = na * nb
    pair = np.repeat(np.arange(a.size), reps)
    local = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    n_idx = t.cell_order[t.box_offsets[a][pair] + local // nb[pair]]
    m_idx = s.cell_order[s.box_offsets[b][pair] + local % nb[pair]]
    sides = np.minimum(hi_r[n_idx], hi_q[m_idx]) - np.maximum(lo_r[n_idx], lo_q[m_idx])
    vol = sides.clip(min=0.0).prod(axis=1)
    keep = vol > 0.0
    return n_idx[keep], m_idx[keep], vol[keep] / t.tree.side**t.tree.dim


def _assert_merge_equals_all_pairs(t, s):
    want = _all_pairs_coupling(t, s)
    for got, expected in zip(dy.coupling_exact(t, s), want):
        assert np.array_equal(got, expected)
    assert len(list(dy._coupling_chunks(t, s))) == 1
    n_idx, m_idx, mass = want
    x, y = t.tree.cloud.points, s.tree.cloud.points
    assert dy.coupling_cost_exact(t, s) == math.fsum(mass * ((y[m_idx] - x[n_idx]) ** 2).sum(axis=1))


@pytest.mark.parametrize("side", [1.0, 2.5])
@pytest.mark.parametrize("dim, n", [(1, 1), (1, 1000), (1, 4096), (2, 3), (2, 256), (2, 4096), (3, 7), (3, 512), (3, 4096)])
def test_merged_slab_pairs_equal_all_pairs(dim, n, side):
    _assert_merge_equals_all_pairs(*_map_pair(n, dim, 130 + n, side))


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16), (3, 8)])
def test_merged_slab_pairs_equal_all_pairs_on_coinciding_edges(dim, m):
    # two lattices with equal box counts have equal preimages, so every slab
    # edge of one cloud coincides with one of the other
    cells = np.stack(np.meshgrid(*[np.arange(m)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    jitter = np.random.default_rng(dim).uniform(0.1, 0.9, cells.shape)
    x, y = _cloud_from((cells + 0.5) / m), _cloud_from((cells + jitter) / m)
    t, s = dy.build_map(x), dy.build_map(y)
    assert np.array_equal(t.tree.counts[-1], s.tree.counts[-1])
    _assert_merge_equals_all_pairs(t, s)
    _assert_merge_equals_all_pairs(t, t)


_COUPLING_RSS_PROBE = """
from pointmatch import dyadic_transport as dy, geometry as geo
x, y = (geo.sample_uniform(1 << 16, 1.0, 3, geo.substream_seed(7, 0, i)) for i in (0, 1))
t, s = dy.build_map(x), dy.build_map(y)
before = peak_kib()
dy.coupling_cost_exact(t, s)
print(peak_kib() - before)
"""


def test_coupling_cost_exact_peak_memory_is_bounded(peak_growth_mb):
    # d = 3, N = 2^16: expanding every candidate point pair at once grew the peak by about 560 MB
    assert peak_growth_mb(_COUPLING_RSS_PROBE) < 150


def test_coupling_exact_rejects_mismatched_clouds():
    t, _ = _map_pair(16, 2, 110)
    s, _ = _map_pair(17, 2, 111)
    with pytest.raises(ValueError):
        dy.coupling_exact(t, s)


# --- recursion audit ----------------------------------------------------------


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 1024), (3, 512)])
def test_level_costs_exact_match_monte_carlo_oracle(dim, n):
    h = dy.build_map(geo.sample_uniform(n, 2.5, dim, 120 + dim))
    sq, cross = dy.level_costs_exact(h.tree)
    xs = np.random.default_rng(dim).random((200_000, dim)) * 2.5
    _, _, history = dy._descend(h, xs, record_levels=True)
    assert len(history) == sq.size == cross.size == h.tree.k_star + 1
    for k in range(1, h.tree.k_star + 1):
        disp_sq = ((history[k] - xs) ** 2).sum(axis=1)
        mixed = ((history[k - 1] - xs) * (history[k] - history[k - 1])).sum(axis=1)
        for exact, samples in ((sq[k], disp_sq), (cross[k], mixed)):
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(exact - samples.mean()) <= 4 * se


def test_audit_needs_two_trials():
    with pytest.raises(ValueError, match="at least 2 trials"):
        xp.recursion_audit(16, 1, trials=1)


def test_audit_level_zero_is_identity():
    rows = xp.recursion_audit(16, 1, trials=5, master_seed=0)
    assert rows[0].mean_sq == 0.0
    assert rows[0].increment == 0.0


def test_audit_d1_increments_grow_with_scale():
    # d = 1: per-level increments scale like L_k, so coarse levels dominate
    rows = xp.recursion_audit(64, 1, trials=120, master_seed=5)
    inc = np.array([row.increment for row in rows[1:]])
    scales = np.array([row.scale for row in rows[1:]])
    assert inc[0] > inc[-1]
    slope = np.polyfit(np.log(scales), np.log(inc), 1)[0]
    assert 0.5 <= slope <= 1.5


def test_audit_d2_increments_level_independent():
    # critical dimension: every level contributes comparably
    rows = xp.recursion_audit(1024, 2, trials=80, master_seed=6)
    inc = np.array([row.increment for row in rows[1:]])
    assert inc.max() / inc.min() <= 4.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 256)])
def test_recursion_audit_rows_equal_per_cloud_terms(dim, n, workers):
    # every field, bit for bit, against each cloud's exact terms reduced by separate per-term passes
    side, trials, master_seed = 0.7, 6, 3
    terms = np.array([
        dy.level_costs_exact(dy.build_tree(geo.sample_uniform(n, side, dim, seed)))
        for seed in trial_seeds(master_seed, trials)
    ])
    sq_sums, cross_sums = terms[:, 0], terms[:, 1]
    means = sq_sums.mean(axis=0)
    errs = sq_sums.std(axis=0, ddof=1) / np.sqrt(trials)
    cross_means = cross_sums.mean(axis=0)
    cross_errs = cross_sums.std(axis=0, ddof=1) / np.sqrt(trials)
    r = side * n ** (-1.0 / dim)
    rows = xp.recursion_audit(n, dim, side=side, trials=trials, master_seed=master_seed, workers=workers)
    assert len(rows) == dy.stopping_level(n, dim) + 1 == means.size
    for k, row in enumerate(rows):
        lk = dy.level_scale(k, dim, side)
        want = (k, lk, means[k], errs[k], 0.0, 0.0, 0.0, 0.0)
        if k > 0:
            a_k = (lk / r) ** (2 - dim) * r**2
            b_k = (r / lk) ** dim
            increment = means[k] - means[k - 1]
            c_k = max(0.0, increment / (a_k + b_k * means[k - 1]))
            want = (k, lk, means[k], errs[k], increment, cross_means[k], cross_errs[k], c_k)
        assert astuple(row) == want
