"""Contact likelihood channels against closed-form Gaussian values.

Oracle values are frozen decimal literals, independently recomputed here with
math.exp so a regression in the vectorized code cannot hide behind its own
formula.
"""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hapticloc.geometry import Pose, quat_from_euler, quat_from_yaw, quat_rotate
from hapticloc.likelihood import (
    MODES,
    ContactBuffers,
    ContactMeasurement,
    LikelihoodConfig,
    class_log_likelihood_points,
    cloud_log_likelihood_points,
    contact_log_likelihood,
    contacts_log_likelihood,
    elevation_log_likelihood_points,
    gaussian_density,
    gaussian_log_density,
)
from hapticloc.maps import ClassGrid, ElevationGrid, MapSet, PointCloudMap

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


def test_replaced_sigmas_derive_their_floors_anew():
    assert replace(LikelihoodConfig(), sigma_z=0.02) == LikelihoodConfig(sigma_z=0.02)
    assert replace(LikelihoodConfig(), sigma_c=0.1) == LikelihoodConfig(sigma_c=0.1)
    # the density at 3 sigma scales as 1 / sigma
    assert replace(LikelihoodConfig(), sigma_z=0.02).rho == pytest.approx(FLOOR_Z / 2, rel=1e-12)


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


def test_cloud_channel_distance_and_floor():
    cfg = LikelihoodConfig()
    cloud = PointCloudMap(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    pts = np.array([[0.0, 0.0, 0.01], [0.0, 0.0, 5.0]])
    ll = cloud_log_likelihood_points(pts.T, cloud, cfg)
    assert abs(ll[0] - math.log(DENS_Z[1])) < 1e-12
    assert ll[1] == pytest.approx(cfg.log_rho)


def test_floor_reach_is_where_the_density_meets_the_floor():
    cfg = LikelihoodConfig()
    assert cfg.floor_reach == pytest.approx(3.0 * cfg.sigma_z, rel=2e-6)
    assert gaussian_log_density(cfg.floor_reach, cfg.sigma_z) < cfg.log_rho
    assert gaussian_log_density(cfg.floor_reach / (1.0 + 2e-6), cfg.sigma_z) > cfg.log_rho


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cloud=st.integers(1, 60),
    sigma_z=st.floats(1e-3, 0.5),
)
def test_bounded_cloud_channel_matches_unbounded_query(seed, n_cloud, sigma_z):
    cfg = LikelihoodConfig(sigma_z=sigma_z)
    reach = cfg.floor_reach
    rng = np.random.default_rng(seed)
    cloud = PointCloudMap(rng.uniform(-10.0, 10.0, (n_cloud, 3)) * reach)
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
    got = cloud_log_likelihood_points(pts.T, cloud, cfg)
    d = cKDTree(cloud.points).query(pts)[0]
    want = np.maximum(gaussian_log_density(d, sigma_z), cfg.log_rho)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


LEVEL = (0.0, 0.0)


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


def test_contact_fields_cannot_be_assigned():
    c = ContactMeasurement((0.0, 0.0, -0.3), class_probs=[0.2, 0.8])
    for name, value in (("offset", np.zeros(3)), ("class_probs", None), ("in_contact", False)):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, value)
    # the checked arrays are read-only too
    for values in (c.offset, c.class_probs):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = np.nan


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
    bad_probs = list(probs)
    bad_probs[data.draw(st.integers(0, len(probs) - 1))] = data.draw(BAD_ENTRIES)
    with pytest.raises(ValueError, match="class_probs must be finite and non-negative"):
        ContactMeasurement(offset, class_probs=bad_probs)


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
    ],
    ids=["nan", "inf", "minus-inf", "negative", "2-d", "scalar"],
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
    for channels in MODES.values():
        rows = contacts_log_likelihood(positions, heading, (0.05, -0.1), cs, channels, maps, cfg)
        assert rows.shape == (len(cs), n)
        for row, c in zip(rows, cs):
            assert np.array_equal(row, contact_log_likelihood(positions, heading, (0.05, -0.1), c, channels, maps, cfg))


def test_contact_world_points_match_the_6dof_rotation():
    # a tilted base at many yaws: tilting each offset once and turning it in
    # the plane puts the foot where the full 6-DoF pose puts it
    rng = np.random.default_rng(5)
    n, tilt = 25, (0.21, -0.14)
    positions = rng.normal(2.0, 0.5, (3, n))
    yaw = rng.uniform(-np.pi, np.pi, n)
    cs = [ContactMeasurement(rng.normal(0.0, 0.3, 3)) for _ in range(4)]
    buffers = ContactBuffers(n)
    contacts_log_likelihood(positions, heading_of(yaw), tilt, cs, MODES["HL-G"], flat_maps(), LikelihoodConfig(), buffers)
    world = buffers.views(len(cs), n)[0]
    for k, c in enumerate(cs):
        turned = np.column_stack([quat_rotate(quat_from_euler(*tilt, y), c.offset) for y in yaw])
        assert np.allclose(world[:, k], positions + turned, rtol=0.0, atol=1e-12)


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
    at_pose = (pose.position.reshape(3, 1), heading_of([0.4]), LEVEL)
    for mode, want in (("HL-G", elevation), ("HL-C", klass), ("HL-GC", elevation + klass)):
        got = contacts_log_likelihood(*at_pose, [c], MODES[mode], maps, cfg)
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
    cfg = LikelihoodConfig()
    cloud = PointCloudMap(np.array([[1.0, 2.0, 0.0]]))
    pose = Pose(np.array([1.0, 2.0, 0.3]), np.array([0.0, 0.0, 0.0, 1.0]))
    foot = np.array([0.0, 0.0, -0.29])
    got = cloud_log_likelihood_points((pose.position + quat_rotate(pose.quat, foot)).reshape(3, 1), cloud, cfg)[0]
    assert abs(got - math.log(DENS_Z[1])) < 1e-12
    maps = MapSet(ElevationGrid(0.5, (0.0, 0.0), np.zeros((8, 8))), cloud=cloud)
    c = ContactMeasurement(foot)
    row = contacts_log_likelihood(pose.position.reshape(3, 1), heading_of([0.0]), LEVEL, [c], MODES["HL-3D"], maps, cfg)
    assert abs(row[0, 0] - math.log(DENS_Z[1])) < 1e-12
