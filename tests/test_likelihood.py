"""Contact likelihood channels against closed-form Gaussian values.

Oracle values are frozen decimal literals, independently recomputed here with
math.exp so a regression in the vectorized code cannot hide behind its own
formula.
"""

import math
import re
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hapticloc.geometry import Pose, quat_from_euler, quat_rotate, tilt_matrix
from hapticloc.likelihood import (
    MODES,
    ContactBuffers,
    ContactMeasurement,
    LikelihoodConfig,
    class_log_likelihood_points,
    class_scores,
    cloud_field,
    cloud_log_likelihood_points,
    contact_layout,
    contact_log_likelihood,
    contacts_log_likelihood,
    elevation_log_likelihood_points,
    gaussian_density,
    gaussian_log_density,
)
import hapticloc.maps as maps_module
from hapticloc.maps import GATHER_ROWS, ClassGrid, ElevationGrid, MapSet, PointCloudMap, field_distances
from hapticloc.sim import CourseSpec, generate_course
from per_pose import quat_from_yaw
from test_maps import assert_cut_at, class_maps, distance_fields, edt_fields

# N(k*sigma; 0, sigma) for sigma_z = 0.01 and sigma_c = 0.05.
PEAK_Z = 39.894228040143275
PEAK_C = 7.978845608028654
FLOOR_Z = 0.44318484119380075  # density at 3 sigma, the default floor
FLOOR_C = 0.08863696823876
DENS_Z = (PEAK_Z, 24.197072451914337, 5.399096651318806, FLOOR_Z)
DENS_C = (PEAK_C, 4.839414490382867, 1.079819330263761, FLOOR_C)


def closed_form(x, sigma):
    return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def test_gaussian_density_matches_closed_form_at_sigma_multiples():
    for sigma, frozen in ((0.01, DENS_Z), (0.05, DENS_C)):
        for k, want in enumerate(frozen):
            got = float(gaussian_density(k * sigma, sigma))
            assert abs(got - want) < 1e-12
            assert abs(got - closed_form(k * sigma, sigma)) < 1e-12
            assert abs(float(gaussian_log_density(k * sigma, sigma)) - math.log(want)) < 1e-12


def test_default_config_floors():
    cfg = LikelihoodConfig()
    assert cfg.sigma_z == 0.01 and cfg.sigma_c == 0.05
    assert abs(cfg.rho - FLOOR_Z) < 1e-12
    assert abs(cfg.class_rho - FLOOR_C) < 1e-12
    assert abs(cfg.log_rho - math.log(FLOOR_Z)) < 1e-12
    assert abs(cfg.log_class_rho - math.log(FLOOR_C)) < 1e-12
    assert abs(float(gaussian_log_density(0.0, cfg.sigma_c)) - math.log(PEAK_C)) < 1e-12


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LikelihoodConfig(sigma_z=0.0)
    with pytest.raises(ValueError):
        LikelihoodConfig(sigma_c=-0.1)
    # the floors derive from the sigmas and cannot be set
    with pytest.raises(TypeError):
        LikelihoodConfig(rho=0.1)
    with pytest.raises(ValueError):
        replace(LikelihoodConfig(), class_rho=0.1)


# a sigma whose floor density is 0, inf or nan: each once ran a whole
# experiment with every weight underflowed, or died after the walk
@pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e-320, 1e308])
@pytest.mark.parametrize("name", ["sigma_z", "sigma_c"])
def test_config_rejects_a_sigma_without_a_finite_positive_floor(name, sigma):
    # the check itself warns of no overflow: tier-1 makes a RuntimeWarning an error
    match = re.escape(f"[filter] {name} must be finite and positive with a finite, positive floor density, got {sigma}")
    with pytest.raises(ValueError, match=match):
        LikelihoodConfig(**{name: sigma})
    with pytest.raises(ValueError, match=match):
        replace(LikelihoodConfig(), **{name: sigma})


def test_config_keeps_the_extreme_sigmas_that_have_a_floor():
    for sigma in (1e-300, 1e300):
        cfg = LikelihoodConfig(sigma_z=sigma, sigma_c=sigma)
        assert 0.0 < cfg.rho == cfg.class_rho < math.inf


def test_replaced_sigmas_derive_their_floors_anew():
    assert replace(LikelihoodConfig(), sigma_z=0.02) == LikelihoodConfig(sigma_z=0.02)
    assert replace(LikelihoodConfig(), sigma_c=0.1) == LikelihoodConfig(sigma_c=0.1)
    # the density at 3 sigma scales as 1 / sigma
    assert replace(LikelihoodConfig(), sigma_z=0.02).rho == pytest.approx(FLOOR_Z / 2, rel=1e-12)
    # and each floor reach as 3 sigma
    assert replace(LikelihoodConfig(), sigma_z=0.02).floor_reach == pytest.approx(0.06, rel=2e-6)
    assert replace(LikelihoodConfig(), sigma_c=0.1).class_reach == pytest.approx(0.3, rel=2e-6)


def flat_maps(height=0.0, with_class=True, with_cloud=False):
    n = 8
    heights = np.full((n, n), height)
    ev = ElevationGrid(0.5, (0.0, 0.0), heights)
    cg = None
    if with_class:
        ids = np.zeros((n, n), dtype=np.uint8)
        ids[:, 4:] = 1
        ids[0, 0] = 255  # unlabeled corner cell
        cg = ClassGrid(0.5, (0.0, 0.0), ids, 3)
    cloud = None
    if with_cloud:
        xs, ys = np.meshgrid(np.arange(n) * 0.5 + 0.25, np.arange(n) * 0.5 + 0.25)
        cloud = PointCloudMap(np.column_stack([xs.ravel(), ys.ravel(), np.full(n * n, height)]))
    return MapSet(ev, class_grid=cg, cloud=cloud)


def test_elevation_channel_values_and_floor():
    cfg = LikelihoodConfig()
    maps = flat_maps()
    pts = np.array(
        [
            [1.0, 1.0, 0.0],  # exact -> peak
            [1.0, 1.0, 0.01],  # one sigma above
            [1.0, 1.0, -0.02],  # two sigma below
            [1.0, 1.0, 0.5],  # far off -> floor
            [-5.0, 1.0, 0.0],  # off the map -> neutral
        ]
    )
    ll = elevation_log_likelihood_points(pts.T, maps.elevation, cfg)
    assert abs(ll[0] - math.log(PEAK_Z)) < 1e-12
    assert abs(ll[1] - math.log(DENS_Z[1])) < 1e-12
    assert abs(ll[2] - math.log(DENS_Z[2])) < 1e-12
    assert ll[3] == pytest.approx(cfg.log_rho)
    assert ll[4] == 0.0


def test_elevation_nodata_cell_is_neutral():
    heights = np.zeros((4, 4))
    heights[2, 2] = np.nan
    ev = ElevationGrid(0.5, (0.0, 0.0), heights)
    cfg = LikelihoodConfig()
    ll = elevation_log_likelihood_points(np.array([[1.25], [1.25], [7.0]]), ev, cfg)
    assert ll[0] == 0.0


def test_class_channel_match_mismatch_floor_neutral():
    cfg = LikelihoodConfig()
    maps = flat_maps()
    g = maps.class_grid
    # (0.25, 1.25) sits in column 0 (class 0); nearest class-1 column is 4.
    pts = np.array(
        [
            [0.25, 1.25],
            [2.25, 1.25],  # column 4 -> class 1 under the estimate class 1
            [0.25, 0.25],  # unlabeled cell -> neutral
            [9.0, 9.0],  # off the map -> neutral
        ]
    )
    ll1 = class_log_likelihood_points(pts.T, 1, g, cfg)
    d = 0.5 * 4.0  # four columns to the nearest class-1 cell
    want_mismatch = max(float(gaussian_log_density(d, cfg.sigma_c)), cfg.log_class_rho)
    assert ll1[0] == pytest.approx(want_mismatch)
    assert ll1[0] == pytest.approx(cfg.log_class_rho)  # 2 m >> 3 sigma_c
    assert abs(ll1[1] - math.log(PEAK_C)) < 1e-12
    assert ll1[2] == 0.0
    assert ll1[3] == 0.0
    # Class 2 is declared but absent from the grid: every labeled cell floors.
    ll2 = class_log_likelihood_points(pts.T, 2, g, cfg)
    assert ll2[0] == pytest.approx(cfg.log_class_rho)
    assert ll2[1] == pytest.approx(cfg.log_class_rho)
    assert ll2[2] == 0.0


def test_class_channel_near_mismatch_uses_lattice_distance():
    ids = np.zeros((1, 4), dtype=np.uint8)
    ids[0, 3] = 1
    g = ClassGrid(0.05, (0.0, 0.0), ids, 2)
    cfg = LikelihoodConfig()
    # Column 2, one cell from the class-1 column: distance 0.05 = one sigma_c.
    ll = class_log_likelihood_points(np.array([[0.125], [0.025]]), 1, g, cfg)
    assert abs(ll[0] - math.log(DENS_C[1])) < 1e-12


def test_class_channel_rejects_out_of_range_id():
    maps = flat_maps()
    with pytest.raises(ValueError):
        class_log_likelihood_points(np.array([[0.2], [0.2]]), 7, maps.class_grid, LikelihoodConfig())


def test_class_channel_checks_a_float_class_column_as_given():
    # the int64 cast first scored the 1.7 of a (K, 1) column as class 1
    ids = np.zeros((1, 4), dtype=np.uint8)
    ids[0, 3] = 1
    g = ClassGrid(0.05, (0.0, 0.0), ids, 3)
    pts = np.array([[0.025, 0.125, 0.175], [0.025, 0.025, 0.025]])
    column = np.array([[0.0], [1.7]])
    with pytest.raises(ValueError, match=r"^class id 1\.7 at index \(1, 0\) is not an integer in \[0, 3\)$"):
        class_log_likelihood_points(pts, column, g, LikelihoodConfig())
    column[1] = 1.0
    got = class_log_likelihood_points(pts, column, g, LikelihoodConfig())
    assert np.array_equal(got, class_log_likelihood_points(pts, np.array([[0], [1]]), g, LikelihoodConfig()))


def test_floor_reach_is_where_the_density_meets_the_floor():
    cfg = LikelihoodConfig()
    for reach, sigma, log_rho in (
        (cfg.floor_reach, cfg.sigma_z, cfg.log_rho),
        (cfg.class_reach, cfg.sigma_c, cfg.log_class_rho),
    ):
        assert reach == pytest.approx(3.0 * sigma, rel=2e-6)
        assert gaussian_log_density(reach, sigma) < log_rho
        assert gaussian_log_density(reach / (1.0 + 2e-6), sigma) > log_rho


# The class channel reads squared offsets cut at its floor reach: their
# distance fields and scores against those of scipy's exact transform.


@settings(max_examples=100, deadline=None)
@given(
    class_map=class_maps(),
    resolution=st.one_of(st.floats(0.002, 0.5), st.sampled_from([0.01, 0.05])),
    sigma_c=st.floats(1e-3, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_channel_at_its_reach_matches_the_exact_transform_bit_for_bit(class_map, resolution, sigma_c, seed):
    ids, n_classes = class_map
    g = ClassGrid(resolution, (0.0, 0.0), ids, n_classes)
    cfg = LikelihoodConfig(sigma_c=sigma_c)
    want = edt_fields(ids, n_classes, resolution)
    assert_cut_at(distance_fields(g, cfg.class_reach), want, cfg.class_reach)
    # every class at points on the lattice and around it, each scored from
    # the oracle's field by the channel's own arithmetic
    rng = np.random.default_rng(seed)
    span = resolution * np.array([[ids.shape[1]], [ids.shape[0]]])
    xy = rng.uniform(-0.2 * span - resolution, 1.2 * span + resolution, (2, 300))
    cells = maps_module.padded_cells(g, xy)
    neutral = maps_module.class_at_many(g, xy, cells=cells) == maps_module.UNKNOWN_CLASS
    for c in range(n_classes):
        oracle = np.maximum(gaussian_log_density(want[c].reshape(-1)[cells], sigma_c), cfg.log_class_rho)
        oracle[neutral] = 0.0
        got = class_log_likelihood_points(xy, c, g, cfg)
        assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64))


def class_term_with_the_mask(xy, class_id, g, cfg):
    """The class term as the channel computed it on every grid: the offsets
    gather, the score gather, then 0 wherever class_at_many reads the
    unknown class, off the lattice or on an unlabeled cell."""
    offsets, scores = class_scores(g, cfg)
    cells = maps_module.padded_cells(g, xy)
    k = offsets.offsets.take(np.asarray(class_id) * (g.n_rows + 2) * (g.n_cols + 2) + cells)
    ll = scores.take(k)
    ll[maps_module.class_at_many(g, xy, cells=cells) == maps_module.UNKNOWN_CLASS] = 0.0
    return ll


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    n_classes=st.integers(1, 6),
    unlabeled=st.sampled_from([0.0, 0.05, 0.5]),
    resolution=st.sampled_from([0.01, 0.05, 0.3]),
    sigma_c=st.floats(1e-3, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_term_without_the_mask_matches_it_bit_for_bit(shape, n_classes, unlabeled, resolution, sigma_c, seed):
    # a grid without unlabeled cells reads its off-lattice points from the
    # border code's score, 0, and skips the class-id lookup; a grid with
    # them keeps it
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, n_classes, shape).astype(np.uint8)
    ids[rng.random(shape) < unlabeled] = maps_module.UNKNOWN_CLASS
    g = ClassGrid(resolution, tuple(rng.uniform(-1.0, 1.0, 2)), ids, n_classes)
    assert g.has_unlabeled_cells == (ids == maps_module.UNKNOWN_CLASS).any()
    cfg = LikelihoodConfig(sigma_c=sigma_c)
    span = resolution * np.array([shape[1], shape[0]])[:, None, None]
    xy = g.origin[:, None, None] + rng.uniform(-0.3, 1.3, (2, 4, 50)) * span
    xy[rng.random(xy.shape) < 0.05] = np.nan
    xy[:, 0, :3] = [[np.inf, -np.inf, 1e300], [0.0, np.nan, -1e300]]
    classes = rng.integers(0, n_classes, (4, 1))
    got = class_log_likelihood_points(xy, classes, g, cfg)
    want = class_term_with_the_mask(xy, classes, g, cfg)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_class_scores_read_the_border_code_as_neutral():
    # the Gaussian over the k_max + 2 distances, then 0 at the border code
    g = flat_maps().class_grid
    cfg = LikelihoodConfig()
    offsets, scores = class_scores(g, cfg)
    border = offsets.border
    assert offsets.offsets[0, 0, 0] == border == offsets.k_max + 2
    assert scores.shape == (border + 1,) and scores[border] == 0.0
    assert scores[border - 1] == cfg.log_class_rho == scores.min()
    assert np.array_equal(scores[:border], np.maximum(gaussian_log_density(offsets.distances[:border], cfg.sigma_c),
                                                      cfg.log_class_rho))


# The cloud channel reads a distance field: its scores against the exact
# nearest distances of a kd-tree over the same points.


def field_score_bounds(d, field, cfg):
    """The lowest and highest score of a distance within the field's error
    bound of d, the bound widened by the interpolation's rounding."""
    slack = field.error_bound + 1e-9 * field.cap
    low = np.maximum(gaussian_log_density(d + slack, cfg.sigma_z), cfg.log_rho)
    high = np.maximum(gaussian_log_density(np.maximum(d - slack, 0.0), cfg.sigma_z), cfg.log_rho)
    return low, high


def random_cloud(seed, n_cloud, reach):
    rng = np.random.default_rng(seed)
    return rng, PointCloudMap(rng.uniform(-10.0, 10.0, (n_cloud, 3)) * reach)


def around(rng, points, n, outer, inner=0.0):
    """n points between inner and outer from points drawn from points, in
    random directions."""
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return points[rng.integers(0, len(points), n)] + direction * rng.uniform(inner, outer, (n, 1))


cloud_cases = dict(seed=st.integers(0, 2**32 - 1), n_cloud=st.integers(1, 30), sigma_z=st.floats(1e-3, 0.5))


@settings(max_examples=40, deadline=None)
@given(**cloud_cases)
def test_cloud_field_scores_a_distance_within_its_bound_inside_the_reach(seed, n_cloud, sigma_z):
    cfg = LikelihoodConfig(sigma_z=sigma_z)
    reach = cfg.floor_reach
    rng, cloud = random_cloud(seed, n_cloud, reach)
    pts = np.concatenate([cloud.points, around(rng, cloud.points, 200, reach)])
    d = cKDTree(cloud.points).query(pts)[0]
    inside = d <= reach
    field = cloud_field(cloud, cfg)
    # nodes 0.75 sigma_z apart, quantized over [0, reach plus a cell diagonal]
    assert field is not None and field.spacing == 0.75 * sigma_z
    assert field.cap == pytest.approx(reach + math.sqrt(3.0) * field.spacing)
    assert field.error_bound == pytest.approx(math.sqrt(3.0) / 2.0 * field.spacing + field.cap / 508.0)
    got = cloud_log_likelihood_points(pts.T, cloud, cfg)
    fd = field_distances(field, pts.T)
    assert np.all(np.abs(fd[inside] - d[inside]) <= field.error_bound + 1e-9 * field.cap)
    # the score is the channel's Gaussian of the field distance
    want = np.maximum(gaussian_log_density(fd, sigma_z), cfg.log_rho)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    low, high = field_score_bounds(d, field, cfg)
    assert np.all((low[inside] <= got[inside]) & (got[inside] <= high[inside]))


@settings(max_examples=40, deadline=None)
@given(**cloud_cases)
def test_cloud_field_scores_the_floor_beyond_the_reach_and_off_the_band(seed, n_cloud, sigma_z):
    cfg = LikelihoodConfig(sigma_z=sigma_z)
    reach = cfg.floor_reach
    rng, cloud = random_cloud(seed, n_cloud, reach)
    field = cloud_field(cloud, cfg)
    # anywhere in and around the cloud's box, just beyond the reach of a map
    # point, and far off every brick
    pts = np.concatenate(
        [
            rng.uniform(-15.0 * reach, 15.0 * reach, (300, 3)),
            around(rng, cloud.points, 300, reach + 2.0 * field.error_bound, reach + field.error_bound),
            cloud.points.max(axis=0) + reach * rng.uniform(30.0, 1e4, (20, 3)),
            cloud.points.min(axis=0) - reach * rng.uniform(30.0, 1e4, (20, 3)),
        ]
    )
    d = cKDTree(cloud.points).query(pts)[0]
    beyond = d > reach + field.error_bound + 1e-9 * field.cap
    assert beyond[-40:].all()
    got = cloud_log_likelihood_points(pts.T, cloud, cfg)
    assert np.all(got[beyond] == cfg.log_rho)
    low, high = field_score_bounds(d, field, cfg)
    assert np.all((low <= got) & (got <= high))


def field_bytes(field) -> int:
    """What a field holds: its keys, its bricks and its row index."""
    return field.keys.nbytes + field.bricks.nbytes + field.rows.nbytes


@settings(max_examples=30, deadline=None)
@given(sigma_z=st.floats(1e-3, 0.5), direction=st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 1)]))
def test_cloud_field_of_two_far_points_stores_a_few_bricks(sigma_z, direction):
    # 100 m apart, the two points need at most 27 bricks each, but the row
    # index spans the box between them: a field, when one is made, fits the
    # budget, and a fine lattice along the diagonal makes none
    far = 100.0 * np.array(direction) / np.linalg.norm(direction)
    cloud = PointCloudMap(np.array([[0.3, -0.2, 0.1], [0.3, -0.2, 0.1] + far]))
    cfg = LikelihoodConfig(sigma_z=sigma_z)
    field = cloud_field(cloud, cfg)
    if field is not None:
        assert len(field.keys) <= 2 * 27
        assert field_bytes(field) <= maps_module.FIELD_BUDGET_BYTES
    # either way both points are found: within the field's error bound, or
    # at distance 0 by the exact search
    bound = 0.0 if field is None else field.error_bound * (1.0 + 1e-9)
    got = cloud_log_likelihood_points(cloud.points.T, cloud, cfg)
    assert np.all(got >= gaussian_log_density(bound, sigma_z))


def test_cloud_field_of_two_far_points_on_a_fine_lattice_is_none():
    # 100 m apart along the diagonal, at sigma_z 0.05 (bricks 0.3 m a side),
    # the box's row index would take about 60 MB, whatever the two points'
    # few bricks hold; at 0.5 it takes 97 KB
    far = 100.0 * np.ones(3) / np.sqrt(3.0)
    cloud = PointCloudMap(np.array([[0.3, -0.2, 0.1], [0.3, -0.2, 0.1] + far]))
    assert cloud_field(cloud, LikelihoodConfig(sigma_z=0.05)) is None
    field = cloud_field(cloud, LikelihoodConfig(sigma_z=0.5))
    assert field is not None and field.rows.nbytes <= 2**17


@settings(max_examples=40, deadline=None)
@given(**cloud_cases)
def test_cloud_over_the_budget_keeps_the_bounded_kd_tree_query(seed, n_cloud, sigma_z):
    cfg = LikelihoodConfig(sigma_z=sigma_z)
    reach = cfg.floor_reach
    rng, cloud = random_cloud(seed, n_cloud, reach)
    # on cloud points, just inside and just outside the reach of one, far away
    base = cloud.points[rng.integers(0, n_cloud, 30)]
    direction = rng.normal(size=(30, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    scale = reach * np.array([1.0 - 1e-9, 1.0 + 1e-9])[rng.integers(0, 2, 30)]
    pts = np.concatenate(
        [
            cloud.points,
            base + direction * scale[:, None],
            cloud.points.max(axis=0) + reach * rng.uniform(1.0, 100.0, (10, 3)),
        ]
    )
    with mock.patch.object(maps_module, "FIELD_BUDGET_BYTES", 9**3 - 1):
        assert cloud_field(cloud, cfg) is None
        got = cloud_log_likelihood_points(pts.T, cloud, cfg)
    d = cKDTree(cloud.points).query(pts)[0]
    want = np.maximum(gaussian_log_density(d, sigma_z), cfg.log_rho)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_wall_room_field_at_a_few_mm_exceeds_the_budget():
    cloud = generate_course(CourseSpec("wall-room")).cloud
    for sigma_z in (0.002, 0.006):
        assert cloud_field(PointCloudMap(cloud.points), LikelihoodConfig(sigma_z=sigma_z)) is None
    # the finest sigma_z of a field, and the default
    fine = cloud_field(PointCloudMap(cloud.points), LikelihoodConfig(sigma_z=0.007))
    assert fine is not None and field_bytes(fine) <= maps_module.FIELD_BUDGET_BYTES
    field = cloud_field(cloud, LikelihoodConfig())
    assert field is not None
    assert field_bytes(field) <= maps_module.FIELD_BUDGET_BYTES


LEVEL = tilt_matrix(0.0, 0.0)


def heading_of(yaw):
    """The (2, N) cos and sin rows contacts_log_likelihood turns contacts by."""
    yaw = np.asarray(yaw, dtype=float)
    return np.stack([np.cos(yaw), np.sin(yaw)])


# one particle at the origin, yaw 0, level
ORIGIN = (np.zeros((3, 1)), heading_of([0.0]), LEVEL)


def test_contact_measurement_validation():
    maps, cfg = flat_maps(), LikelihoodConfig()
    c = ContactMeasurement((1.0, 1.0, 0.0))
    assert c.class_probs is None and c.in_contact
    assert c.offset.dtype == float and not c.offset.flags.writeable
    # a contact no classifier labeled adds no class term: HL-C scores it
    # neutral, and HL-GC as HL-G
    got = {mode: contact_log_likelihood(*ORIGIN, c, MODES[mode], maps, cfg) for mode in ("HL-G", "HL-GC", "HL-C")}
    assert got["HL-C"][0] == 0.0
    assert np.array_equal(got["HL-GC"], got["HL-G"]) and got["HL-G"][0] == pytest.approx(math.log(PEAK_Z))
    c = ContactMeasurement((1.0, 1.0, 0.0), class_probs=[0.1, 0.7, 0.2])
    assert c.class_probs.dtype == float and not c.class_probs.flags.writeable
    # (1, 1) lies in column 2, class 0: a class-1 estimate scores the floor
    got = contact_log_likelihood(*ORIGIN, c, MODES["HL-C"], maps, cfg)
    assert got[0] == pytest.approx(cfg.log_class_rho)


# entries that tie, signed zeros among them, beside any probability
TYING_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(TYING_ENTRIES, min_size=1, max_size=10))
def test_a_contact_keeps_the_argmax_of_its_class_probs(probs):
    # the class the class channel queries, found once, when the contact is
    # built: numpy's argmax, the first of tied entries, -0.0 equal to 0.0
    assert ContactMeasurement((0.0, 0.0, -0.3), class_probs=probs).estimated_class == int(np.argmax(probs))
    assert ContactMeasurement((0.0, 0.0, -0.3)).estimated_class is None
    with pytest.raises(TypeError):
        ContactMeasurement((0.0, 0.0, -0.3), class_probs=probs, estimated_class=0)


def test_contact_fields_cannot_be_assigned():
    c = ContactMeasurement((0.0, 0.0, -0.3), class_probs=[0.2, 0.8])
    for name, value in (("offset", np.zeros(3)), ("class_probs", None), ("in_contact", False)):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, value)
    # the checked arrays are read-only too
    for values in (c.offset, c.class_probs):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = np.nan


def test_a_contact_copies_every_offset_and_checks_it():
    # another contact's offset is copied too, as are views and other dtypes
    c = ContactMeasurement((0.2, -0.15, -0.3))
    base = np.array([0.2, -0.15, -0.3, 0.0])
    view = base[:3]
    view.flags.writeable = False
    for offset in (c.offset, np.array([0.2, -0.15, -0.3]), view, c.offset.astype(np.float32)):
        kept = ContactMeasurement(offset).offset
        assert kept is not offset and kept.dtype == float and not kept.flags.writeable
    # a read-only array is checked
    bad = np.array([0.2, np.nan, -0.3])
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="offset must be a finite 3-vector"):
        ContactMeasurement(bad)


def test_a_layout_holds_one_class_probs_length():
    # the class channel compares one length with the class layer
    layout = contact_layout(
        [ContactMeasurement((0.0, 0.0, -0.3), class_probs=[0.1, 0.9]), ContactMeasurement((0.1, 0.0, -0.3))], LEVEL
    )
    assert layout.n_probs == 2 and layout.unlabeled == (1,) and layout.classes.tolist() == [[1], [0]]
    assert contact_layout([ContactMeasurement((0.0, 0.0, -0.3))], LEVEL).n_probs is None
    with pytest.raises(ValueError, match=r"class_probs differ in length: \[2, 3\] entries"):
        contact_layout(
            [ContactMeasurement((0.0, 0.0, -0.3), class_probs=p) for p in ([0.1, 0.9], [0.2, 0.3, 0.5])], LEVEL
        )


BAD_ENTRIES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(max_value=-1e-300, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    st.data(),
)
def test_contact_construction_rejects_non_finite_or_negative_input(offset, probs, data):
    c = ContactMeasurement(offset, class_probs=probs)
    assert np.array_equal(c.offset, offset) and np.array_equal(c.class_probs, probs)
    bad_offset = list(offset)
    bad_offset[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match="offset must be a finite 3-vector"):
        ContactMeasurement(bad_offset, class_probs=probs)
    slot = data.draw(st.integers(0, len(probs) - 1))
    bad_probs = list(probs)
    bad_probs[slot] = data.draw(BAD_ENTRIES)
    with pytest.raises(ValueError, match="class_probs must be finite and non-negative"):
        ContactMeasurement(offset, class_probs=bad_probs)
    # -0.0 is non-negative, and kept as it is
    bad_probs[slot] = -0.0
    assert np.signbit(ContactMeasurement(offset, class_probs=bad_probs).class_probs[slot])


def test_contact_requires_matching_layers():
    maps = flat_maps(with_class=False)
    c = ContactMeasurement((0.0, 0.0, -0.3), class_probs=np.array([1.0, 0.0]))
    for mode, layer in (("HL-3D", "cloud layer"), ("HL-GC", "class layer"), ("HL-C", "class layer")):
        with pytest.raises(ValueError, match=layer):
            contact_log_likelihood(*ORIGIN, c, MODES[mode], maps, LikelihoodConfig())


def test_class_probs_length_must_match_the_class_layer():
    maps = flat_maps()  # 3 classes
    foot = (0.0, 0.0, -0.3)
    particle = (np.array([[1.0], [1.0], [0.3]]), heading_of([0.0]), LEVEL)
    for mode in ("HL-C", "HL-GC"):
        for probs in ([0.9, 0.1], [0.1] * 8):
            c = ContactMeasurement(foot, class_probs=np.array(probs))
            with pytest.raises(ValueError, match=f"{len(probs)} entries .* 3 classes"):
                contact_log_likelihood(*particle, c, MODES[mode], maps, LikelihoodConfig())
        c = ContactMeasurement(foot, class_probs=np.array([0.1, 0.2, 0.7]))
        assert np.isfinite(contact_log_likelihood(*particle, c, MODES[mode], maps, LikelihoodConfig())).all()


@pytest.mark.parametrize("mode", ["HL-C", "HL-GC"])
@pytest.mark.parametrize(
    "probs, match",
    [
        ([0.05, np.nan, 0.9], "finite"),
        ([0.05, np.inf, 0.9], "finite"),
        ([0.05, -np.inf, 0.9], "finite"),
        ([0.6, -0.1, 0.5], "non-negative"),
        ([[0.1, 0.2, 0.7]], "1-D"),
        (0.7, "1-D"),
        ([], r"^class_probs must be a non-empty 1-D vector, got shape \(0,\)$"),
    ],
    ids=["nan", "inf", "minus-inf", "negative", "2-d", "scalar", "empty"],
)
def test_class_probs_must_be_a_finite_non_negative_vector(probs, match, mode):
    # the contact is rejected when it is built, before any class mode can score it
    with pytest.raises(ValueError, match=match):
        c = ContactMeasurement((1.0, 1.0, 0.0), class_probs=probs)
        contact_log_likelihood(*ORIGIN, c, MODES[mode], flat_maps(), LikelihoodConfig())


def test_batched_contacts_match_one_contact_at_a_time():
    rng = np.random.default_rng(8)
    cfg = LikelihoodConfig()
    maps = flat_maps(with_cloud=True)
    n = 30
    positions = np.stack([rng.uniform(-0.5, 4.5, n), rng.uniform(-0.5, 4.5, n), rng.normal(0.3, 0.02, n)])
    heading = heading_of(rng.uniform(-np.pi, np.pi, n))
    cs = [
        ContactMeasurement(rng.normal(0.0, 0.3, 3), class_probs=None if k == 2 else rng.dirichlet(np.ones(3)))
        for k in range(5)
    ]
    layout = contact_layout(cs, tilt_matrix(0.05, -0.1))
    for channels in MODES.values():
        rows = contacts_log_likelihood(positions, heading, layout, channels, maps, cfg)
        assert rows.shape == (len(cs), n)
        for row, c in zip(rows, cs):
            assert np.array_equal(
                row, contact_log_likelihood(positions, heading, tilt_matrix(0.05, -0.1), c, channels, maps, cfg)
            )


def test_contact_world_points_match_the_6dof_rotation():
    # a tilted base at many yaws: tilting each offset once and turning it in
    # the plane puts the foot where the full 6-DoF pose puts it
    rng = np.random.default_rng(5)
    n, tilt = 25, (0.21, -0.14)
    positions = rng.normal(2.0, 0.5, (3, n))
    yaw = rng.uniform(-np.pi, np.pi, n)
    cs = [ContactMeasurement(rng.normal(0.0, 0.3, 3)) for _ in range(4)]
    buffers = ContactBuffers(n)
    contacts_log_likelihood(
        positions, heading_of(yaw), contact_layout(cs, tilt_matrix(*tilt)), MODES["HL-G"], flat_maps(), LikelihoodConfig(),
        buffers,
    )
    world = buffers.views(len(cs), n)[0]
    for k, c in enumerate(cs):
        turned = np.column_stack([quat_rotate(quat_from_euler(*tilt, y), c.offset) for y in yaw])
        assert np.allclose(world[:, k], positions + turned, rtol=0.0, atol=1e-12)


def test_reused_buffers_give_the_cloud_channel_the_rows_of_new_ones():
    # the cloud channel's scratch is remade as the other buffers grow with
    # the contact count
    maps, cfg = flat_maps(with_cloud=True), LikelihoodConfig()
    rng = np.random.default_rng(8)
    buffers = ContactBuffers(50)
    for k, n in ((1, 50), (3, 20), (2, 50), (4, 35)):
        positions = maps.cloud.points[rng.integers(0, 64, n)].T + rng.normal(0.0, 0.02, (3, n))
        heading = heading_of(rng.uniform(-np.pi, np.pi, n))
        layout = contact_layout([ContactMeasurement(rng.normal(0.0, 0.03, 3)) for _ in range(k)], tilt_matrix(0.0, 0.0))
        got = contacts_log_likelihood(positions, heading, layout, MODES["HL-3D"], maps, cfg, buffers)
        assert np.array_equal(got, contacts_log_likelihood(positions, heading, layout, MODES["HL-3D"], maps, cfg))
    assert buffers.cloud_scratch.size == GATHER_ROWS * 4 * 50


def test_class_channel_takes_one_class_per_row():
    maps = flat_maps()
    cfg = LikelihoodConfig()
    xy = np.random.default_rng(9).uniform(-0.5, 4.5, (2, 3, 20))
    ids = np.array([[0], [1], [2]])
    rows = class_log_likelihood_points(xy, ids, maps.class_grid, cfg)
    for row, pts, cid in zip(rows, xy.transpose(1, 0, 2), ids[:, 0]):
        assert np.array_equal(row, class_log_likelihood_points(pts, cid, maps.class_grid, cfg))
    with pytest.raises(ValueError, match="class id 7"):
        class_log_likelihood_points(xy, np.array([[0], [7], [1]]), maps.class_grid, cfg)


def test_joint_channel_is_sum_of_parts():
    cfg = LikelihoodConfig()
    maps = flat_maps()
    foot = np.array([-0.2, -0.15, -0.29])
    pose = Pose(np.array([2.1, 1.3, 0.29]), quat_from_yaw(0.4))
    c = ContactMeasurement(foot, class_probs=np.array([0.6, 0.3, 0.1]))
    world = pose.position + quat_rotate(pose.quat, foot)
    elevation = elevation_log_likelihood_points(world.reshape(3, 1), maps.elevation, cfg)[0]
    klass = class_log_likelihood_points(world[:2].reshape(2, 1), 0, maps.class_grid, cfg)[0]
    at_pose = (pose.position.reshape(3, 1), heading_of([0.4]), contact_layout([c], LEVEL))
    for mode, want in (("HL-G", elevation), ("HL-C", klass), ("HL-GC", elevation + klass)):
        got = contacts_log_likelihood(*at_pose, MODES[mode], maps, cfg)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(want, abs=1e-12)


def test_vectorized_contact_matches_scalar_loop():
    rng = np.random.default_rng(7)
    cfg = LikelihoodConfig()
    maps = flat_maps(with_cloud=True)
    foot = (0.2, -0.15, -0.3)
    n = 40
    positions = np.stack([rng.uniform(0.5, 3.5, n), rng.uniform(0.5, 3.5, n), rng.normal(0.3, 0.02, n)])
    heading = heading_of(rng.uniform(-np.pi, np.pi, n))
    c = ContactMeasurement(foot, class_probs=np.array([0.2, 0.5, 0.3]))
    for channels in MODES.values():
        vec = contact_log_likelihood(positions, heading, LEVEL, c, channels, maps, cfg)
        scal = np.array(
            [contact_log_likelihood(p.reshape(3, 1), h.reshape(2, 1), LEVEL, c, channels, maps, cfg)[0]
             for p, h in zip(positions.T, heading.T)]
        )
        assert np.allclose(vec, scal, atol=1e-12, rtol=0.0)
        assert np.all(np.isfinite(vec))


def test_cloud_loglik_single_pose():
    # the single-pose route puts the foot where quat_rotate does, and the
    # channel scores it within the field's bound of the closed form
    cfg = LikelihoodConfig()
    cloud = PointCloudMap(np.array([[1.0, 2.0, 0.0]]))
    pose = Pose(np.array([1.0, 2.0, 0.3]), np.array([0.0, 0.0, 0.0, 1.0]))
    foot = np.array([0.0, 0.0, -0.29])
    got = cloud_log_likelihood_points((pose.position + quat_rotate(pose.quat, foot)).reshape(3, 1), cloud, cfg)[0]
    bound = cloud_field(cloud, cfg).error_bound
    assert math.log(closed_form(0.01 + bound, 0.01)) <= got <= math.log(closed_form(0.01 - bound, 0.01))
    maps = MapSet(ElevationGrid(0.5, (0.0, 0.0), np.zeros((8, 8))), cloud=cloud)
    c = ContactMeasurement(foot)
    layout = contact_layout([c], LEVEL)
    row = contacts_log_likelihood(pose.position.reshape(3, 1), heading_of([0.0]), layout, MODES["HL-3D"], maps, cfg)
    assert row[0, 0] == got
