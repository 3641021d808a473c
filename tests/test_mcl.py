"""Particle filter mechanics: resampling, normalization, branches, determinism."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import hapticloc.likelihood as likelihood_module
import hapticloc.maps as maps_module
from hapticloc.geometry import (
    Pose,
    compose,
    covariance_factor,
    quat_from_euler,
    quat_from_rotvec,
    quat_from_yaw,
    quat_matrix,
    quat_to_euler,
    wrap_angle,
)
from hapticloc.likelihood import (
    MODES,
    ContactMeasurement,
    LikelihoodConfig,
    cloud_log_likelihood_points,
    elevation_log_likelihood_points,
    gaussian_log_density,
)
from hapticloc.maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    class_at_many,
    class_distance_many,
)
from hapticloc.mcl import (
    KLD_DELTA,
    KLD_EPSILON,
    KLD_MIN_PARTICLES,
    FilterState,
    StepInput,
    _logsumexp,
    estimate_detail,
    init_filter,
    kld_sample_size,
    occupied_bins,
    run_filter,
    step,
    systematic_resample_indices,
    write_diagnostics_csv,
)

STAND_Z = 0.3
# base-frame foot offsets, in FOOT_LABELS order (LF, RF, LH, RH)
FEET = tuple(np.array([sx * 0.2, sy * 0.15, -STAND_Z]) for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)))


def flat_maps(n=20, res=0.5):
    return MapSet(ElevationGrid(res, (-n * res / 2, -n * res / 2), np.zeros((n, n))))


def stand_pose(x=0.0, y=0.0, yaw=0.0):
    return Pose(np.array([x, y, STAND_Z]), quat_from_yaw(yaw))


def contacts():
    return [ContactMeasurement(f) for f in FEET]


def new_filter(prior_mean, prior_cov, maps=None, likelihood=LikelihoodConfig(), **settings):
    """init_filter on flat_maps() with the settings given, the others fixed here."""
    fixed = dict(mode="HL-G", n_particles=500, seed=0, resample_frac=0.5, xy_std_threshold=0.10)
    maps = flat_maps() if maps is None else maps
    return init_filter(prior_mean, prior_cov, maps, likelihood, **{**fixed, **settings})


STILL = Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))


def forward_input(dx=0.05, cov_scale=1.0):
    cov = np.diag([4e-4, 4e-4, 1e-4, 1e-6, 1e-6, 4e-5]) * cov_scale
    return StepInput(Pose(np.array([dx, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])), cov, contacts())


def test_systematic_resample_equal_weights_is_identity_permutation():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        idx = systematic_resample_indices(np.full(4, 0.25), rng)
        assert np.array_equal(idx, np.arange(4))


def test_systematic_resample_zero_weight_never_drawn():
    rng = np.random.default_rng(0)
    for _ in range(200):
        idx = systematic_resample_indices(np.array([0.0, 1.0, 0.0]), rng)
        assert np.all(idx == 1)


def test_systematic_resample_unbiased_within_multinomial_3_sigma():
    rng = np.random.default_rng(42)
    n = 16
    weights = rng.dirichlet(np.ones(n))
    trials = 10_000
    counts = np.zeros(n)
    for _ in range(trials):
        counts += np.bincount(systematic_resample_indices(weights, rng), minlength=n)
    expected = trials * n * weights
    sigma = np.sqrt(trials * n * weights * (1.0 - weights))
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma)


def test_systematic_resample_deterministic_under_seed():
    w = np.random.default_rng(1).dirichlet(np.ones(30))
    a = systematic_resample_indices(w, np.random.default_rng(9))
    b = systematic_resample_indices(w, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_effective_sample_size_bounds():
    # a step without contacts keeps the weights, so StepDiagnostics.ess is theirs
    n = 64
    still = StepInput(Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0])), np.zeros((6, 6)), [])
    st = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=n, seed=0)
    step(st, still)
    assert st.diagnostics[-1].ess == pytest.approx(n)
    lw = np.full(n, -1e3)
    lw[3] = 0.0
    st.log_weights = lw
    step(st, still)
    assert st.diagnostics[-1].ess == pytest.approx(1.0)


def test_init_filter_validation_and_prior():
    with pytest.raises(ValueError):
        new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=0)
    with pytest.raises(ValueError):
        new_filter(stand_pose(), np.eye(6) * 1e-4, resample_frac=1.5)
    # dead reckoning is reported beside the filter, never run as a filter mode
    for mode in ("odom-only", "HL-X"):
        with pytest.raises(ValueError, match="unknown mode"):
            new_filter(stand_pose(), np.eye(6) * 1e-4, mode=mode)
    # a mode whose layer the maps lack fails before the first step, not at it
    for mode, layer in (("HL-3D", "cloud"), ("HL-GC", "class"), ("HL-C", "class")):
        with pytest.raises(ValueError, match=f"requires a {layer} layer"):
            new_filter(stand_pose(), np.eye(6) * 1e-4, mode=mode)
    assert new_filter(stand_pose(), np.eye(6) * 1e-4, ORACLE_MAPS, mode="HL-3D").channels == ("cloud",)
    prior = stand_pose(1.0, 2.0)
    st = new_filter(prior, np.eye(6) * 1e-4, n_particles=300, seed=3)
    assert st.channels == MODES["HL-G"]
    assert st.n_particles == 300
    assert len(st.trajectory) == 1 and st.trajectory[0] is prior and st.diagnostics == []
    assert np.allclose(st.positions.mean(axis=1), [1.0, 2.0, STAND_Z], atol=0.01)
    assert np.sum(np.exp(st.log_weights)) == pytest.approx(1.0, abs=1e-12)


def assert_component_rows(st):
    n = st.n_particles
    assert st.positions.shape == (3, n) and st.positions.flags.c_contiguous
    assert st.yaw.shape == (n,) and st.yaw.flags.c_contiguous


@pytest.mark.parametrize("resample", [False, True], ids=["kept", "resampled"])
def test_particles_stay_contiguous_component_rows(resample):
    # a return to strided (N, 3) columns would slow every particle pass
    st = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=90, seed=0, resample_frac=float(resample))
    assert_component_rows(st)
    step(st, forward_input())
    assert_component_rows(st)
    # frac 1.0 resamples the uneven weights the contacts leave, frac 0.0 never
    assert np.all(st.log_weights == -np.log(90)) == resample


def test_step_normalizes_weights_within_tolerance():
    maps = flat_maps()
    st = new_filter(stand_pose(), np.eye(6) * 2.5e-3, n_particles=200, seed=0)
    for _ in range(10):
        step(st, forward_input())
        assert abs(np.sum(np.exp(st.log_weights)) - 1.0) < 1e-9


def test_step_counts_and_trajectory_growth():
    maps = flat_maps()
    st = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=100, seed=0)
    for k in range(5):
        step(st, forward_input())
        assert len(st.diagnostics) == k + 1
        assert len(st.trajectory) == k + 2


def test_resample_resets_weights_uniform():
    maps = flat_maps()
    st = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=150, seed=1, resample_frac=1.0)
    # frac 1.0 forces a resample every step
    step(st, forward_input())
    assert np.allclose(st.log_weights, -np.log(150))


def test_underflow_resets_to_uniform_and_counts():
    st = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=50, seed=0)
    st.log_weights = np.full(50, -np.inf)
    step(st, forward_input())
    assert st.divergence_count == 1
    assert np.sum(np.exp(st.log_weights)) == pytest.approx(1.0, abs=1e-9)


def test_out_of_contact_feet_are_skipped():
    maps = flat_maps()
    cfg = LikelihoodConfig()
    lifted = [
        ContactMeasurement((0.2, 0.15, 5.0), in_contact=False)
    ]
    st = new_filter(stand_pose(), np.diag([0.01, 0.01, 0.01, 0, 0, 0]) ** 1, n_particles=80, seed=2)
    inp = StepInput(Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0])), np.zeros((6, 6)), lifted)
    step(st, inp)
    # no active contact: weights stay exactly uniform after normalization
    assert np.allclose(st.log_weights, -np.log(80))


def test_stepinput_covariance_shapes():
    inc = Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
    cov = np.diag(np.arange(1, 7, dtype=float))
    assert StepInput(inc, cov, []).odom_cov is cov
    # a covariance is a full 6x6 matrix, never its diagonal alone
    for shape in ((6,), (3, 3)):
        with pytest.raises(ValueError, match="must be 6x6"):
            StepInput(inc, np.ones(shape), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stepinput_rejects_non_finite_increment_position(bad):
    with pytest.raises(ValueError, match="odom_increment.position must be finite"):
        StepInput(Pose(np.array([0.05, bad, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])), np.eye(6), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stepinput_rejects_non_finite_increment_quat(bad):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="odom_increment.quat must be finite"):
        StepInput(Pose(np.zeros(3), np.array([0.0, 0.0, bad, 1.0])), np.eye(6), [])


@pytest.mark.parametrize("tilt", [(np.nan, 0.0), (0.0, np.inf), (0.1,), (0.1, 0.2, 0.3)])
def test_stepinput_rejects_a_tilt_that_is_not_two_finite_angles(tilt):
    with pytest.raises(ValueError, match="tilt"):
        StepInput(STILL, np.eye(6), [], tilt)


def test_stepinput_rejects_non_finite_covariance():
    # the finiteness check comes before, and instead of, the symmetry check
    cov = np.eye(6)
    cov[2, 2] = np.nan
    inc = Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="odom_cov must be finite"):
        StepInput(inc, cov, [])


def test_estimate_full_branch_on_tight_cluster():
    st = new_filter(stand_pose(0.5, -0.25), np.eye(6) * 1e-6, n_particles=400, seed=5)
    pose, xy_std, branch = estimate_detail(st, STILL)
    assert branch == "full"
    assert np.all(xy_std < 0.01)
    assert np.allclose(pose.position[:2], [0.5, -0.25], atol=0.005)


def test_estimate_z_only_branch_on_bimodal_cluster():
    st = new_filter(stand_pose(), np.eye(6) * 1e-6, n_particles=200, seed=7)
    half = 100
    st.positions[1, :half] -= 0.5
    st.positions[1, half:] += 0.5
    st.positions[2] = 0.41
    pose, xy_std, branch = estimate_detail(st, STILL)
    assert branch == "z-only"
    assert xy_std[1] > st.xy_std_threshold
    # x, y, heading held at the last estimate; z follows the particles
    assert np.allclose(pose.position[:2], st.trajectory[-1].position[:2])
    assert pose.position[2] == pytest.approx(0.41, abs=1e-6)
    assert np.array_equal(pose.quat, st.trajectory[-1].quat)


def test_z_only_branch_dead_reckons_with_last_increment():
    st = new_filter(stand_pose(), np.eye(6) * 1e-6, n_particles=200, seed=7)
    st.positions[1, :100] -= 0.5
    st.positions[1, 100:] += 0.5
    pose, _, branch = estimate_detail(st, Pose(np.array([0.07, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])))
    assert branch == "z-only"
    assert pose.position[0] == pytest.approx(0.07)


def test_run_filter_bit_exact_determinism():
    maps = flat_maps()
    inputs = [forward_input() for _ in range(8)]
    a = run_filter(new_filter(stand_pose(), np.eye(6) * 1e-4, maps, n_particles=120, seed=11), inputs)
    b = run_filter(new_filter(stand_pose(), np.eye(6) * 1e-4, maps, n_particles=120, seed=11), inputs)
    ta = np.stack([p.to_array() for p in a.trajectory])
    tb = np.stack([p.to_array() for p in b.trajectory])
    assert np.array_equal(ta, tb)
    c = run_filter(new_filter(stand_pose(), np.eye(6) * 1e-4, maps, n_particles=120, seed=12), inputs)
    tc = np.stack([p.to_array() for p in c.trajectory])
    assert not np.array_equal(ta, tc)


def test_run_filter_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        run_filter(new_filter(stand_pose(), np.eye(6) * 1e-4, mode="nope"), [forward_input()])


def test_diagnostics_csv_layout(tmp_path):
    maps = flat_maps()
    st = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=60, seed=0)
    for _ in range(3):
        step(st, forward_input())
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(st, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,ess,xy_std_x,xy_std_y,branch,x,y,z,qx,qy,qz,qw"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] in ("full", "z-only")
    assert len(first) == 12


def test_filter_tracks_through_height_feature():
    """Alternating slopes give the filter gradient to pull back injected x drift.

    The tent period (0.8 m) puts front and hind feet (0.4 m apart) on opposite
    slopes, so no common z shift can explain an x offset away.
    """
    from hapticloc.maps import elevation_at

    res = 0.1
    nx = ny = 60
    xc = (np.arange(nx) + 0.5) * res
    u = np.mod(xc, 0.8) / 0.8
    heights = np.tile(0.12 * (1.0 - np.abs(2.0 * u - 1.0)), (ny, 1))
    maps = MapSet(ElevationGrid(res, (0.0, 0.0), heights))
    g = maps.elevation

    rng = np.random.default_rng(0)
    truth = stand_pose(1.0, 3.0)
    inputs = []
    truths = []
    n_steps = 70
    for k in range(n_steps):
        old_z = truth.position[2]
        x_new = truth.position[0] + 0.05
        gz = float(elevation_at(g, (x_new, 3.0)))
        truth = Pose(np.array([x_new, 3.0, gz + STAND_Z]), truth.quat)
        truths.append(truth)
        cs = []
        for f in FEET:
            fw = truth.position + f
            vec = f.copy()
            vec[2] = float(elevation_at(g, fw[:2])) - truth.position[2]
            cs.append(ContactMeasurement(vec))
        inc_true = np.array([0.05, 0.0, truth.position[2] - old_z])
        noisy = inc_true + rng.normal(0.0, [3e-3, 3e-3, 1e-3])
        noisy[0] += 0.004  # systematic forward drift the map must correct
        inputs.append(
            StepInput(Pose(noisy, np.array([0.0, 0.0, 0.0, 1.0])),
                      # inflated x variance: exploration must outrun the bias
                      np.diag([6e-5, 2e-5, 4e-6, 1e-8, 1e-8, 1e-8]), cs)
        )
    # y carries no information here, so its prior must start under the spread
    # threshold or the estimate never leaves the dead-reckoning branch
    prior = np.diag([0.01, 4e-4, 1e-4, 1e-6, 1e-6, 1e-4])
    st = run_filter(new_filter(stand_pose(1.0, 3.0), prior, maps, n_particles=400, seed=1), inputs)
    assert st.diagnostics[-1].branch == "full"
    final_err = abs(st.trajectory[-1].position[0] - truths[-1].position[0])
    dead_reckon = 0.004 * n_steps  # error if the drift were never corrected
    assert final_err < dead_reckon / 2


# the batched step against the per-contact step it replaced


def reference_contact_log_likelihood(positions, yaw, tilt, contact, channels, maps, cfg):
    """One contact's joint log-likelihood under a channel set, evaluated on its own."""
    o = quat_matrix(quat_from_euler(*tilt, 0.0)) @ contact.offset
    c, s = np.cos(yaw), np.sin(yaw)
    world = np.stack([c * o[0] - s * o[1] + positions[0], s * o[0] + c * o[1] + positions[1], positions[2] + o[2]])
    if channels == ("cloud",):
        return cloud_log_likelihood_points(world, maps.cloud, cfg)
    ll = np.zeros(world.shape[1])
    if "elevation" in channels:
        ll = ll + elevation_log_likelihood_points(world, maps.elevation, cfg)
    if "class" in channels and contact.class_probs is not None:
        grid, class_id, xy = maps.class_grid, int(np.argmax(contact.class_probs)), world[:2]
        ids = class_at_many(grid, xy)
        cl = np.full(xy.shape[1], cfg.log_class_rho)
        neutral = ids == UNKNOWN_CLASS
        match = ids == class_id
        if (grid.class_ids == class_id).any():
            mismatch = ~neutral & ~match
            if mismatch.any():
                d = class_distance_many(grid, xy[:, mismatch], class_id)
                cl[mismatch] = np.maximum(gaussian_log_density(d, cfg.sigma_c), cfg.log_class_rho)
        cl[match] = float(gaussian_log_density(0.0, cfg.sigma_c))
        cl[neutral] = 0.0
        ll = ll + cl
    return ll


def reference_step(state, inp):
    """The particle update of step written plainly: the covariance factored on
    every step, new arrays for every result, and the contacts weighed one at a
    time with the filter's channels."""
    n = state.n_particles
    inc = inp.odom_increment
    factor = covariance_factor(inp.odom_cov[np.ix_([0, 1, 2, 5], [0, 1, 2, 5])])
    start = quat_matrix(quat_from_euler(*state.tilt, 0.0))
    m = start @ quat_matrix(inc.quat)
    turn = math.atan2(m[1, 0], m[0, 0])
    undo = quat_matrix(quat_from_euler(0.0, 0.0, -turn))
    g = factor.copy()
    g[:3] = undo @ m @ factor[:3]
    d = g @ state.rng.standard_normal((4, n))
    state.yaw = (state.yaw + d[3]) + turn
    c, s = np.cos(state.yaw), np.sin(state.yaw)
    v = d[:3] + (undo @ (start @ inc.position))[:, None]
    p = state.positions
    state.positions = np.stack([c * v[0] - s * v[1] + p[0], s * v[0] + c * v[1] + p[1], p[2] + v[2]])
    state.tilt = inp.tilt
    for contact in inp.contacts:
        if contact.in_contact:
            state.log_weights = state.log_weights + reference_contact_log_likelihood(
                state.positions, state.yaw, state.tilt, contact, state.channels, state.maps, state.likelihood
            )
    total = _logsumexp(state.log_weights)
    if np.isfinite(total):
        state.log_weights = state.log_weights - total
    else:
        state.log_weights = np.full(n, -np.log(n))
    w = np.exp(state.log_weights)
    if 1.0 / np.sum(w * w) < state.resample_frac * n:
        idx = systematic_resample_indices(w, state.rng)
        state.positions = state.positions[:, idx]
        state.yaw = state.yaw[idx]
        state.log_weights = np.full(n, -np.log(n))


def assert_same_particles(a, b):
    for name in ("log_weights", "positions", "yaw"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
    assert a.tilt == b.tilt


N_ORACLE_CLASSES = 5  # class 3 is declared but absent from the grid


def oracle_maps():
    """4 x 3 m layers at 0.25 m with no-data heights, unlabeled cells and an
    absent class, plus a point cloud."""
    rng = np.random.default_rng(0)
    rows, cols = 12, 16
    heights = rng.uniform(0.0, 0.1, (rows, cols))
    heights[rng.random((rows, cols)) < 0.15] = np.nan
    ids = rng.choice(np.array([0, 1, 2, 4], dtype=np.uint8), (rows, cols))
    ids[rng.random((rows, cols)) < 0.15] = UNKNOWN_CLASS
    cloud = np.column_stack([rng.uniform(0, 4, 300), rng.uniform(0, 3, 300), rng.uniform(0, 0.1, 300)])
    return MapSet(
        ElevationGrid(0.25, (0.0, 0.0), heights),
        ClassGrid(0.25, (0.0, 0.0), ids, N_ORACLE_CLASSES),
        PointCloudMap(cloud),
    )


ORACLE_MAPS = oracle_maps()


@st.composite
def oracle_contacts(draw):
    """Lifted feet, feet reaching off the map or onto no-data and unlabeled
    cells, class estimates anywhere in [0, n_classes), the absent class
    included, and contacts no classifier labeled."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        vec = (draw(st.floats(-2.5, 2.5)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.4, 0.0)))
        probs = np.full(N_ORACLE_CLASSES, 0.1)
        probs[draw(st.integers(0, N_ORACLE_CLASSES - 1))] = 0.6
        out.append(
            ContactMeasurement(
                vec,
                class_probs=probs if draw(st.integers(0, 3)) else None,
                in_contact=draw(st.booleans()),
            )
        )
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(oracle_contacts(), min_size=1, max_size=5), st.integers(0, 2**16), st.sampled_from(list(MODES)))
def test_batched_step_bit_identical_to_per_contact_step(contact_sets, seed, mode):
    maps, cfg = ORACLE_MAPS, LikelihoodConfig(sigma_z=0.02, sigma_c=0.2)
    start, prior = Pose(np.array([2.0, 1.5, 0.3]), quat_from_yaw(0.3)), np.diag([0.25, 0.25, 1e-4, 1e-4, 1e-4, 0.1])
    new, ref = (new_filter(start, prior, maps, cfg, mode=mode, n_particles=64, seed=seed) for _ in range(2))
    cov = np.diag([4e-4, 4e-4, 1e-4, 1e-6, 1e-6, 4e-5])
    for k, cs in enumerate(contact_sets):
        tilt = (0.03 * k, -0.02 * k)
        inp = StepInput(Pose(np.array([0.05, 0.0, 0.0]), quat_from_rotvec([0.002, -0.001, 0.01])), cov, cs, tilt)
        step(new, inp)
        reference_step(ref, inp)
        assert_same_particles(new, ref)


# the cached odometry covariance factor


ODOM_COV = np.diag([4e-4, 4e-4, 1e-4, 1e-6, 1e-6, 4e-5])


def turning_input(cov):
    return StepInput(Pose(np.array([0.05, 0.0, 0.0]), quat_from_yaw(0.02)), cov, contacts())


def cache_filters():
    """Two identical filters: one for step, one for reference_step."""
    return [new_filter(stand_pose(), np.eye(6) * 1e-3, n_particles=150, seed=4) for _ in range(2)]


def test_covariance_cache_follows_a_changing_covariance():
    new, ref = cache_filters()
    for cov in [ODOM_COV] * 3 + [2.0 * ODOM_COV] * 3 + [ODOM_COV, ODOM_COV.copy()]:
        inp = turning_input(cov)
        step(new, inp)
        reference_step(ref, inp)
        assert_same_particles(new, ref)


def test_covariance_cache_sees_in_place_mutation():
    new, ref = cache_filters()
    cov = ODOM_COV.copy()
    inp = turning_input(cov)
    assert inp.odom_cov is cov  # the step input holds the caller's array
    for k in range(6):
        cov[0, 0] = 4e-4 * (1 + k % 3)
        step(new, inp)
        reference_step(ref, inp)
        assert_same_particles(new, ref)


@pytest.mark.parametrize("in_place", [False, True], ids=["new-array", "in-place"])
@pytest.mark.parametrize(
    "cell, value, match",
    [((0, 1), 1e-5, "symmetric"), ((5, 5), -1e-3, "PSD")],
    ids=["asymmetric", "not-psd"],
)
def test_covariance_cache_still_rejects_bad_covariance_on_its_step(cell, value, match, in_place):
    state = cache_filters()[0]
    cov = ODOM_COV.copy()
    inp = turning_input(cov)
    for _ in range(3):
        step(state, inp)
    if not in_place:
        cov = cov.copy()
        inp = turning_input(cov)
    cov[cell] = value
    with pytest.raises(ValueError, match=match):
        step(state, inp)
    assert len(state.diagnostics) == 3


# the workspace: each state writes its steps into arrays of its own


def walk_inputs(k):
    """k turning steps whose active contacts go 4, 3, 0, 4, ...: one foot
    lifted, then all four, so the contact buffers change shape."""
    out = []
    for i in range(k):
        lifted = {0: (), 1: (2,), 2: (0, 1, 2, 3)}[i % 3]
        cs = [ContactMeasurement(f, in_contact=j not in lifted) for j, f in enumerate(FEET)]
        out.append(StepInput(Pose(np.array([0.04, 0.01, 0.0]), quat_from_yaw(0.02)), ODOM_COV, cs))
    return out


def height_maps():
    heights = np.random.default_rng(1).uniform(0.0, 0.05, (20, 20))
    return MapSet(ElevationGrid(0.1, (-1.0, -1.0), heights))


def test_changing_contact_count_matches_reference_step():
    maps = height_maps()
    new, ref = (new_filter(stand_pose(), np.eye(6) * 1e-3, maps, n_particles=120, seed=9) for _ in range(2))
    for inp in walk_inputs(9):
        step(new, inp)
        reference_step(ref, inp)
        assert_same_particles(new, ref)


def test_interleaved_filters_match_filters_run_alone():
    # a workspace shared between states would mix their particles
    maps, inputs = height_maps(), walk_inputs(6)
    filters = lambda: [new_filter(stand_pose(), np.eye(6) * 1e-3, maps, n_particles=90, seed=s) for s in (1, 2)]
    alone = [run_filter(st, inputs) for st in filters()]
    together = filters()
    for inp in inputs:
        for st in together:
            step(st, inp)
    for a, b in zip(alone, together):
        assert_same_particles(a, b)
        assert np.array_equal(
            np.stack([p.to_array() for p in a.trajectory]), np.stack([p.to_array() for p in b.trajectory])
        )


def test_step_overwrites_the_arrays_the_state_held():
    st = new_filter(stand_pose(), np.eye(6) * 1e-3, height_maps(), n_particles=60, seed=3, resample_frac=0.0)
    step(st, forward_input())
    held = {name: getattr(st, name) for name in ("positions", "yaw", "log_weights")}
    snapshot = {name: value.copy() for name, value in held.items()}
    # positions and yaw alternate between two buffers, so the step after next
    # writes the ones held now
    step(st, forward_input())
    step(st, forward_input())
    # the documented contract: later steps reuse the arrays, so a snapshot is a copy
    for name, value in held.items():
        assert not np.array_equal(value, snapshot[name]), name


def test_replaced_arrays_keep_stepping_and_are_not_written():
    maps, inputs = height_maps(), walk_inputs(4)
    new, ref = (new_filter(stand_pose(), np.eye(6) * 1e-3, maps, n_particles=80, seed=5) for _ in range(2))
    for inp in inputs[:2]:
        step(new, inp)
        reference_step(ref, inp)
    rng = np.random.default_rng(6)
    mine = {
        "positions": new.positions + rng.normal(0.0, 0.01, new.positions.shape),
        # a strided view: the step reads any layout
        "yaw": np.repeat(new.yaw, 2)[::2],
        "log_weights": np.log(rng.dirichlet(np.ones(80))),
    }
    for name, value in mine.items():
        value.flags.writeable = False
        setattr(new, name, value)
        setattr(ref, name, value.copy())
    kept = {name: value.copy() for name, value in mine.items()}
    for inp in inputs[2:]:
        step(new, inp)
        reference_step(ref, inp)
        assert_same_particles(new, ref)
    for name, value in mine.items():
        assert np.array_equal(value, kept[name]), name


def test_warm_step_allocates_few_particle_sized_arrays():
    # the step writes into the state's workspace: once warmed up, an HL-G step
    # at 10k particles with four contacts and the full estimate allocates
    # transient arrays peaking near 8 particle-sized ones (0.66 MB), against
    # 38.5 when every kernel returned new stacked arrays
    n = 10_000
    st = new_filter(stand_pose(), np.diag([1e-2, 1e-2, 1e-4, 1e-4, 1e-4, 1e-2]), height_maps(), n_particles=n,
                    seed=0, xy_std_threshold=10.0)
    inp = StepInput(Pose(np.array([0.02, 0.0, 0.0]), quat_from_yaw(0.0)), ODOM_COV, contacts())
    for _ in range(3):
        step(st, inp)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(st, inp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert st.diagnostics[-1].branch == "full"
    assert peak < 12 * 8 * n, f"transient peak {peak / (8 * n):.1f} particle-sized arrays"


def test_grid_channels_share_one_cell_index_per_step(monkeypatch):
    # elevation, class and class-distance lookups all read the padded cells
    # contacts_log_likelihood computes once for every contact
    calls = []
    real = maps_module.padded_cells

    def counting(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(maps_module, "padded_cells", counting)
    monkeypatch.setattr(likelihood_module, "padded_cells", counting)
    start = Pose(np.array([2.0, 1.5, 0.3]), quat_from_yaw(0.3))
    st = new_filter(start, np.diag([0.25, 0.25, 1e-4, 1e-4, 1e-4, 0.1]), ORACLE_MAPS, mode="HL-GC", n_particles=64)
    probs = np.eye(N_ORACLE_CLASSES)
    cs = [ContactMeasurement(f, class_probs=probs[k % 3]) for k, f in enumerate(FEET)]
    step(st, StepInput(Pose(np.array([0.05, 0.0, 0.0]), quat_from_yaw(0.01)), ODOM_COV, cs))
    assert calls == [(2, 4, 64)]


def class_height_maps():
    """A 200 x 200 three-class tile field with random heights at 1 cm."""
    rng = np.random.default_rng(2)
    heights = rng.uniform(0.0, 0.05, (200, 200))
    ids = rng.integers(0, 3, (200, 200)).astype(np.uint8)
    return MapSet(ElevationGrid(0.01, (-1.0, -1.0), heights), ClassGrid(0.01, (-1.0, -1.0), ids, 3))


def test_warm_class_step_allocates_few_particle_sized_arrays():
    # the class channel writes its rows into the contact buffers too: a warm
    # HL-GC step with four labeled contacts stays under the HL-G bound,
    # against 36.7 particle-sized arrays when it gathered fancy-indexed copies
    n = 10_000
    st = new_filter(stand_pose(), np.diag([1e-2, 1e-2, 1e-4, 1e-4, 1e-4, 1e-2]), class_height_maps(), n_particles=n,
                    seed=0, xy_std_threshold=10.0, mode="HL-GC")
    probs = np.eye(3)
    cs = [ContactMeasurement(f, class_probs=probs[k % 3]) for k, f in enumerate(FEET)]
    inp = StepInput(Pose(np.array([0.02, 0.0, 0.0]), quat_from_yaw(0.0)), ODOM_COV, cs)
    for _ in range(3):
        step(st, inp)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(st, inp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert st.diagnostics[-1].branch == "full"
    assert peak < 12 * 8 * n, f"transient peak {peak / (8 * n):.1f} particle-sized arrays"


# the 4-DoF particle: x, y, z and yaw, with roll and pitch shared


def test_noise_free_step_moves_each_particle_as_compose_does():
    # a tilted, turning increment: each particle's new position and yaw are
    # those of its 6-DoF pose composed with the increment
    st = new_filter(stand_pose(), np.eye(6) * 1e-2, n_particles=40, seed=3, resample_frac=0.0)
    st.tilt = (0.12, -0.2)
    before = [Pose(p, quat_from_euler(*st.tilt, y)) for p, y in zip(st.positions.T.copy(), st.yaw.copy())]
    inc = Pose(np.array([0.05, -0.01, 0.02]), quat_from_rotvec([0.03, -0.02, 0.4]))
    step(st, StepInput(inc, np.zeros((6, 6)), [], (0.1, -0.18)))
    for pose, p, y in zip(before, st.positions.T, st.yaw):
        after = compose(pose, inc)
        assert np.allclose(p, after.position, rtol=0.0, atol=1e-12)
        assert abs(wrap_angle(y - quat_to_euler(after.quat)[2])) < 1e-12


def test_estimate_yaw_averages_across_plus_minus_pi():
    st = new_filter(stand_pose(), np.eye(6) * 1e-6, n_particles=200, seed=5)
    jitter = np.random.default_rng(1).normal(0.0, 0.005, 200)
    st.yaw = np.where(np.arange(200) % 2 == 0, np.pi - 0.01, -np.pi + 0.01) + jitter
    pose, _, branch = estimate_detail(st, STILL)
    assert branch == "full"
    yaw = quat_to_euler(pose.quat)[2]
    assert abs(wrap_angle(yaw - np.pi)) < 0.01, yaw


finite_vectors = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)


@st.composite
def finite_step_inputs(draw):
    """Any finite increment, a PSD covariance, a tilt and contacts."""
    position = draw(finite_vectors)
    rotvec = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    a = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=36, max_size=36))).reshape(6, 6)
    cov = a @ a.T
    tilt = (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
    return StepInput(Pose(position, quat_from_rotvec(rotvec)), 0.5 * (cov + cov.T), draw(oracle_contacts()), tilt)


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_step_inputs(), min_size=1, max_size=4), st.integers(0, 2**16), st.sampled_from(list(MODES)))
def test_any_finite_input_keeps_the_filter_finite_and_normalized(inputs, seed, mode):
    start = Pose(np.array([2.0, 1.5, 0.3]), quat_from_yaw(0.3))
    st_ = new_filter(start, np.diag([0.25, 0.25, 1e-4, 1e-4, 1e-4, 0.1]), ORACLE_MAPS, mode=mode, n_particles=32,
                     seed=seed)
    for inp in inputs:
        step(st_, inp)
        assert abs(np.sum(np.exp(st_.log_weights)) - 1.0) < 1e-9
        assert np.isfinite(st_.positions).all() and np.isfinite(st_.yaw).all()
        assert np.isfinite(st_.trajectory[-1].to_array()).all()


# KLD-sampling: the particle count adapts above KLD_MIN_PARTICLES


def test_kld_sample_size_matches_the_chi_square_quantile():
    k = np.arange(2, 10_001)
    want = chi2.ppf(1.0 - KLD_DELTA, k - 1) / (2.0 * KLD_EPSILON)
    got = np.array([kld_sample_size(int(i)) for i in k])
    assert np.all(np.abs(got / want - 1.0) < 0.01)


def test_occupied_bins_count_each_drawn_particle_once():
    # (x, y, yaw) bins of 2 cm and 2 degrees; a yaw and that yaw plus 2 pi share one
    positions = np.array([[0.001, 0.005, 0.03, 0.001], [0.0, 0.0, 0.0, 0.0], [0.3, 0.3, 0.3, 0.3]])
    yaw = np.array([0.001, 0.001 + 2.0 * np.pi, 0.001, 0.2])
    assert occupied_bins(positions, yaw, np.array([0, 0, 1, 1, 1])) == 1
    assert occupied_bins(positions, yaw, np.array([0, 1, 2, 3])) == 3
    # spans too wide for one exact key fall back to a sort of the bin rows
    far = np.array([[-1e150, 1e150, 1e150], [0.0, 1e150, 1e150], [0.0, 0.0, 0.0]])
    assert occupied_bins(far, np.zeros(3), np.arange(3)) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 40, 500, 501, 1200]),
    st.integers(0, 2**16),
    st.floats(-1e150, 1e150),
    st.floats(0.0, 1e150),
    st.floats(0.0, 1e6),
    st.floats(1e-3, 50.0),
)
def test_any_finite_state_resamples_to_a_count_in_range(n_max, seed, centre, spread, yaw_spread, weight_spread):
    st_ = new_filter(stand_pose(), np.eye(6) * 1e-4, n_particles=n_max, seed=seed, resample_frac=1.0)
    rng = np.random.default_rng(seed)
    st_.positions = centre + spread * rng.uniform(-1.0, 1.0, (3, n_max))
    st_.yaw = yaw_spread * rng.uniform(-1.0, 1.0, n_max)
    st_.log_weights = weight_spread * rng.standard_normal(n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        step(st_, StepInput(STILL, np.zeros((6, 6)), []))
    n, ws = st_.n_particles, st_.workspace
    assert st_.diagnostics[-1].n_particles == n_max
    assert min(KLD_MIN_PARTICLES, n_max) <= n <= n_max
    if n_max <= KLD_MIN_PARTICLES:
        assert n == n_max
    assert np.all(st_.log_weights == -np.log(n))
    assert abs(np.sum(np.exp(st_.log_weights)) - 1.0) < 1e-9
    # the state holds the workspace's C-contiguous views for its count
    assert ws.n == n and st_.log_weights is ws.log_weights
    assert any(st_.positions is view for view in ws.positions) and any(st_.yaw is view for view in ws.yaw)
    for name, shape in (("positions", (3, n)), ("yaw", (n,)), ("log_weights", (n,))):
        assert getattr(st_, name).shape == shape and getattr(st_, name).flags.c_contiguous, name
    for view in (ws.draws, ws.delta, ws.heading, ws.weights, ws.scratch):
        assert view.shape[-1] == n and view.flags.c_contiguous


def converged_filter(n_max):
    """A filter whose particles sit within a millimetre of the stand pose on a
    flat map, after one resample of its uneven contact weights."""
    st_ = new_filter(stand_pose(), np.eye(6) * 1e-6, n_particles=n_max, seed=4, resample_frac=1.0)
    step(st_, forward_input(cov_scale=1e-4))
    return st_


def test_converged_set_shrinks_below_its_maximum():
    st_ = converged_filter(10_000)
    assert st_.diagnostics[-1].n_particles == 10_000
    assert KLD_MIN_PARTICLES <= st_.n_particles < 10_000
    # the next step carries the smaller set
    step(st_, forward_input(cov_scale=1e-4))
    assert st_.diagnostics[-1].n_particles < 10_000
    assert np.isfinite(st_.positions).all() and st_.positions.shape[1] == st_.n_particles


def test_widened_set_grows_back_to_its_maximum():
    # from 500 distinct particles the bound reaches about 9.6k, so a 5k set
    # grows back in one resample
    st_ = converged_filter(5_000)
    assert st_.n_particles < 5_000
    rng = np.random.default_rng(8)
    st_.positions = st_.positions + np.array([[0.5], [0.5], [0.0]]) * rng.standard_normal((3, st_.n_particles))
    step(st_, forward_input(cov_scale=1e-4))
    assert st_.n_particles == 5_000


def test_replaced_arrays_of_another_count_step_in_views_of_that_count():
    st_ = converged_filter(2_000)
    rng = np.random.default_rng(3)
    st_.positions = st_.positions[:, rng.integers(0, st_.n_particles, 1_500)]
    st_.yaw = np.zeros(1_500)
    st_.log_weights = np.full(1_500, -np.log(1_500))
    step(st_, forward_input(cov_scale=1e-4))
    assert st_.diagnostics[-1].n_particles == 1_500
    assert st_.positions.shape[1] == st_.n_particles == st_.workspace.n
