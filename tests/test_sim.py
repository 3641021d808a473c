"""Course generation, gait simulation, walk log round trips."""

import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hapticloc.classifier import StepSignal
from hapticloc.evaluate import default_experiment, train_contact_classifier, walk
from hapticloc.geometry import FOOT_LABELS, Pose, quat_rotate
from hapticloc.likelihood import ContactMeasurement
from hapticloc.maps import UNKNOWN_CLASS, ClassGrid, ElevationGrid, MapSet
from hapticloc.sim import (
    CHEVRON_HEIGHT,
    CHEVRON_RAMP_DEG,
    CHEVRON_STRIP_Y,
    CLASS_SIGNAL_PARAMS,
    COURSES,
    N_TERRAIN_CLASSES,
    PHASE_DT,
    SIGNAL_LENGTH_RANGE,
    TILES_PLATFORM_H,
    WALL_ROOM_WALL_HEIGHT,
    WALL_ROOM_WALL_X,
    WALL_ROOM_WALL_Y,
    WALKLOG_VERSION,
    CourseSpec,
    NoiseSpec,
    StepRecord,
    WalkLog,
    classify_log,
    generate_course,
    load_signal,
    load_walklog,
    nominal_offset,
    probe_scenario,
    sample_signal_length,
    save_signal,
    save_walklog,
    simulate_walk,
    _signal_template,
    synth_force_signal,
    walklog_hash,
)
import per_pose
from per_pose import elevation_at
from test_geometry import same_bits
from test_maps import traced_peak

QUIET = NoiseSpec()


def straight(length, start=(1.0, 0.7)):
    """A straight walk along +x whose step count is length / 0.05."""
    return (start, (start[0] + length, start[1]))


def test_course_spec_validation():
    with pytest.raises(ValueError):
        CourseSpec("mystery-maze")
    with pytest.raises(ValueError):
        CourseSpec("chevron-ramp", resolution=0.0)
    # an infinite cell once failed deep in the course builder; a negative
    # seed built a course that no experiment seed can name
    for resolution in (np.inf, np.nan, -0.05):
        with pytest.raises(ValueError, match=f"course resolution must be finite and positive, got {resolution}"):
            CourseSpec("chevron-ramp", resolution=resolution)
    with pytest.raises(ValueError, match="course seed must be a non-negative integer, got -1"):
        CourseSpec("wall-room", seed=-1)


def test_courses_deterministic_in_seed():
    for kind in ("chevron-ramp", "class-tiles"):
        a = generate_course(CourseSpec(kind, seed=4))
        b = generate_course(CourseSpec(kind, seed=4))
        c = generate_course(CourseSpec(kind, seed=5))
        assert np.array_equal(a.elevation.heights, b.elevation.heights)
        if kind == "class-tiles":
            assert np.array_equal(a.class_grid.class_ids, b.class_grid.class_ids)
            assert not np.array_equal(a.class_grid.class_ids, c.class_grid.class_ids)
        else:
            assert not np.array_equal(a.elevation.heights, c.elevation.heights)


def test_chevron_course_geometry():
    maps = generate_course(CourseSpec("chevron-ramp", seed=0))
    h = maps.elevation.heights
    assert maps.class_grid is None and maps.cloud is None
    assert np.all(np.isfinite(h))
    assert h.min() == 0.0
    plateau = np.tan(np.radians(CHEVRON_RAMP_DEG))
    tilt_max = 0.025 * (CHEVRON_STRIP_Y[1] - CHEVRON_STRIP_Y[0])
    assert h.max() <= plateau + tilt_max + CHEVRON_HEIGHT + 0.10 + 1e-9
    # approach corridor in front of the strip stays flat
    ys = int(0.7 / 0.05)
    assert np.all(h[:, : int(1.5 / 0.05)][ys] == 0.0)


def test_tiles_course_uses_every_class_and_exact_platform_height():
    maps = generate_course(CourseSpec("class-tiles", seed=3))
    ids = maps.class_grid.class_ids
    assert set(np.unique(ids)) == set(range(N_TERRAIN_CLASSES))
    assert maps.elevation.heights.max() == TILES_PLATFORM_H  # exact, not approx
    assert maps.class_grid.n_classes == N_TERRAIN_CLASSES


FULL_GRID_BUILDERS = {"chevron-ramp": per_pose.chevron_course, "class-tiles": per_pose.tiles_course}


@pytest.mark.parametrize("resolution", [0.01, 0.02, 0.03, 0.05, 0.07])
@pytest.mark.parametrize("kind", sorted(FULL_GRID_BUILDERS))
def test_the_builders_match_the_full_grid_builders_bit_for_bit(kind, resolution):
    # 0.03 and 0.07 do not divide the extents, so the lattice's last cell
    # does not end on the extent's edge
    for seed in range(5):
        spec = CourseSpec(kind, resolution=resolution, seed=seed)
        got, want = generate_course(spec), FULL_GRID_BUILDERS[kind](spec)
        assert same_bits(got.elevation.heights, want.elevation.heights)
        if want.class_grid is None:
            assert got.class_grid is None
        else:
            assert got.class_grid.class_ids.dtype == want.class_grid.class_ids.dtype
            assert np.array_equal(got.class_grid.class_ids, want.class_grid.class_ids)


@pytest.mark.parametrize("kind", sorted(FULL_GRID_BUILDERS))
def test_a_1_cm_build_holds_few_bytes_a_cell(kind):
    # the builders compute on the lattice's axes. A 1 cm build peaks at 18.1
    # (chevron) and 19.2 (class-tiles) traced bytes a cell, nearly all of it
    # the heights, held twice while the elevation layer pads them, and the
    # class ids. The full-grid builders peak at 85 and 55. The bound leaves
    # 25% over 19.2
    spec = CourseSpec(kind, resolution=0.01, seed=1)
    _, peak = traced_peak(lambda: generate_course(spec))
    n_cells = np.prod([round(size / spec.resolution) for size in COURSES[kind].extent])
    assert peak / n_cells < 24.0, f"{peak / n_cells:.1f} bytes a cell"


def test_wall_room_cloud_geometry():
    maps = generate_course(CourseSpec("wall-room", seed=0))
    assert np.all(maps.elevation.heights == 0.0)
    pts = maps.cloud.points
    floor = pts[pts[:, 2] == 0.0]
    front = pts[pts[:, 0] == WALL_ROOM_WALL_X]
    side = pts[pts[:, 1] == WALL_ROOM_WALL_Y]
    assert len(floor) and len(front) and len(side)
    assert len(floor) + len(front) + len(side) >= len(pts)
    assert front[:, 2].max() == pytest.approx(WALL_ROOM_WALL_HEIGHT)
    assert front[:, 2].min() > 0.0
    assert side[:, 2].max() == pytest.approx(WALL_ROOM_WALL_HEIGHT)


def test_signal_length_range_and_synthesis():
    rng = np.random.default_rng(0)
    lo, hi = SIGNAL_LENGTH_RANGE
    lengths = {sample_signal_length(rng) for _ in range(500)}
    assert min(lengths) >= lo and max(lengths) <= hi
    assert lo in lengths and hi in lengths
    a = synth_force_signal(3, 50, np.random.default_rng(9))
    b = synth_force_signal(3, 50, np.random.default_rng(9))
    assert np.array_equal(a.samples, b.samples)
    with pytest.raises(ValueError):
        synth_force_signal(8, 50, rng)
    with pytest.raises(ValueError):
        synth_force_signal(0, 0, rng)


@pytest.mark.parametrize("bad", [1.7, -0.5], ids=["1.7", "minus-0.5"])
def test_synth_force_signal_checks_its_class_id_as_given(bad):
    # int() first made 1.7 a class-1 signal and -0.5 a class-0 one
    with pytest.raises(ValueError) as err:
        synth_force_signal(bad, 40, np.random.default_rng(0))
    assert str(err.value) == f"class id {bad!r} is not an integer in [0, {N_TERRAIN_CLASSES})"
    # an integral float or a numpy integer keeps its class
    want = synth_force_signal(3, 40, np.random.default_rng(0)).samples
    for same in (3.0, np.int64(3), np.uint8(3)):
        assert np.array_equal(synth_force_signal(same, 40, np.random.default_rng(0)).samples, want)


def uncached_signal(class_id, n_samples, rng):
    """The signal formula with its template built inline on every call."""
    amp, freq, damp, offset, torque = CLASS_SIGNAL_PARAMS[class_id]
    t = np.arange(n_samples) / max(n_samples - 1, 1)
    env = np.exp(-damp * t)
    w = 2.0 * np.pi * freq * t
    cols = np.column_stack(
        [
            0.3 * amp * env * np.sin(w + 0.7),
            0.3 * amp * env * np.cos(w + 1.3),
            offset * (1.0 - np.exp(-8.0 * t)) + amp * env * np.sin(w),
            torque * env * np.sin(w + 0.4),
            torque * env * np.cos(w + 2.1),
            0.5 * torque * env * np.sin(0.5 * w),
        ]
    )
    sigma = 0.06 * np.array([0.3 * amp, 0.3 * amp, amp, torque, torque, 0.5 * torque])
    return cols + rng.standard_normal((n_samples, 6)) * sigma


@settings(max_examples=150, deadline=None)
@given(st.integers(0, N_TERRAIN_CLASSES - 1), st.integers(1, 200), st.integers(0, 2**63), st.booleans())
def test_signal_matches_the_uncached_formula_bit_for_bit(class_id, n_samples, seed, cold):
    # a cold template (just built) and a warm one (shared) give the same bits
    # and draw the same noise as the formula built inline
    if cold:
        _signal_template.cache_clear()
    want = uncached_signal(class_id, n_samples, np.random.default_rng(seed)).view(np.uint64)
    for _ in range(2):
        got = synth_force_signal(class_id, n_samples, np.random.default_rng(seed)).samples
        assert np.array_equal(got.view(np.uint64), want)


def test_cached_templates_are_shared_read_only():
    template, sigma = _signal_template(2, 50)
    assert _signal_template(2, 50)[0] is template
    with pytest.raises(ValueError, match="read-only"):
        template[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sigma[0] = 1.0
    # a signal owns its samples, read-only: a write into them raises, and
    # the template they were made from stays as it was
    kept = template.copy()
    signal = synth_force_signal(2, 50, np.random.default_rng(0))
    assert not np.shares_memory(signal.samples, template)
    with pytest.raises(ValueError, match="read-only"):
        signal.samples[:] = 0.0
    assert np.array_equal(_signal_template(2, 50)[0], kept)
    lo, hi = SIGNAL_LENGTH_RANGE
    assert _signal_template.cache_info().maxsize == N_TERRAIN_CLASSES * (hi - lo + 1)


def test_signal_file_round_trip(tmp_path):
    sig = synth_force_signal(5, 33, np.random.default_rng(4))
    p = tmp_path / "s.csv"
    save_signal(sig, p)
    loaded = load_signal(p)
    assert np.array_equal(loaded.samples, sig.samples)
    p.write_text("fx,fy,fz,tx,ty,tz\n1,2,3\n")
    with pytest.raises(ValueError, match=":2"):
        load_signal(p)


def test_walk_foot_placement_matches_map_exactly():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    log = simulate_walk(maps, straight(2.0), QUIET, 0)
    assert log.n_steps == 40
    for r in log.records:
        for w in r.true_foot_world:
            assert w[2] == elevation_at(maps.elevation, w[:2])  # exact lookup
        # body-frame offsets reconstruct the same world points
        for contact, w in zip(r.contacts, r.true_foot_world):
            back = r.true_pose.position + quat_rotate(r.true_pose.quat, contact.offset)
            assert np.allclose(back, w, atol=1e-12)


def test_noise_free_odometry_reproduces_truth():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    log = simulate_walk(maps, straight(1.5), NoiseSpec(), 0)
    odo = log.odometry_poses()
    for a, b in zip(odo, log.true_poses()):
        assert np.allclose(a.to_array(), b.to_array(), atol=1e-10)


def test_z_bias_accumulates_in_odometry():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    n = 30
    log = simulate_walk(maps, straight(1.5), NoiseSpec(z_bias=0.01), 0)
    assert log.n_steps == n
    odo = log.odometry_poses()
    drift = odo[-1].position[2] - log.true_poses()[-1].position[2]
    assert drift == pytest.approx(0.01 * n, abs=1e-6)


def test_walk_step_metadata():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    noise = NoiseSpec(white_std=(0.003,) * 6)
    log = simulate_walk(maps, straight(0.6), noise, 2)
    assert log.n_steps == 12
    for i, r in enumerate(log.records):
        assert r.k == i + 1
        assert r.timestamp == r.k * PHASE_DT
        assert np.array_equal(r.odom_cov_diag, np.full(6, 0.003**2))
        assert all(c.in_contact for c in r.contacts)
        assert np.all(r.true_class_ids == UNKNOWN_CLASS)  # no class layer here
        # every course is walked level, and the IMU tilt is logged exactly
        assert r.tilt == (0.0, 0.0)


def test_walk_path_errors():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    with pytest.raises(ValueError, match="leaves the map"):
        simulate_walk(maps, ((1.0, 0.7), (50.0, 0.7)), QUIET, 0)
    with pytest.raises(ValueError):
        simulate_walk(maps, ((1.0, 0.7),), QUIET, 0)
    with pytest.raises(ValueError, match="duplicate"):
        simulate_walk(maps, ((1.0, 0.7), (1.0, 0.7), (2.0, 0.7)), QUIET, 0)
    with pytest.raises(ValueError, match="foot LH starts off the map"):
        simulate_walk(maps, ((0.1, 0.7), (2.0, 0.7)), QUIET, 0)
    with pytest.raises(ValueError, match="waypoints span 0.03 m, shorter than one 0.05 m step"):
        simulate_walk(maps, ((1.0, 0.7), (1.03, 0.7)), QUIET, 0)


def assert_same_walk(got, want):
    """Two walk logs with the same hash, every force signal's samples and every
    foot's true world position, bit for bit."""
    assert walklog_hash(got) == walklog_hash(want)
    assert got.n_steps == want.n_steps
    for rg, rw in zip(got.records, want.records):
        assert same_bits(rg.true_foot_world, rw.true_foot_world)
        for sg, sw in zip(rg.signals, rw.signals):
            assert (sg is None) == (sw is None)
            assert sg is None or same_bits(sg.samples, sw.samples)


def reference_walk(cfg, course, seed):
    """evaluate.walk with the pose-by-pose walker."""
    if cfg.waypoints is None:
        return per_pose.probe_scenario(course, cfg.noise, seed)
    return per_pose.simulate_walk(course, cfg.waypoints, cfg.noise, seed)


# every default walk, class-tiles also at 1 cm, and each with outliers, which
# no config sets, so the golden digests never run their interleaved draws
WALKS = [(kind, 0.05) for kind in COURSES] + [("class-tiles", 0.01)]


@pytest.mark.parametrize("outlier_prob", [0.0, 0.3])
@pytest.mark.parametrize("kind, resolution", WALKS, ids=[f"{kind}-{res}" for kind, res in WALKS])
def test_the_walker_matches_the_pose_by_pose_walker_bit_for_bit(kind, resolution, outlier_prob):
    cfg = default_experiment(kind)
    spec, noise = replace(cfg.course, resolution=resolution), replace(cfg.noise, outlier_prob=outlier_prob)
    cfg = replace(cfg, course=spec, noise=noise)
    outliers = 0
    for seed in range(1, 6):
        course = generate_course(replace(cfg.course, seed=seed))
        log = walk(cfg, course, seed)
        assert_same_walk(log, reference_walk(cfg, course, seed))
        for r in log.records:
            for c, w in zip(r.contacts, r.true_foot_world):
                outliers += abs((r.true_pose.position + quat_rotate(r.true_pose.quat, c.offset))[2] - w[2]) > 0.1
    # the outlier draws ran and shifted contacts, and no contact shifts without them
    assert (outliers > 0) == (outlier_prob > 0.0)


def unsignalled_class_course():
    """A flat 5 x 1 m course whose class layer names, from x = 2 m on, a
    class no force signal is made for."""
    ids = np.zeros((20, 100), dtype=np.uint8)
    ids[:, 40:] = N_TERRAIN_CLASSES
    return MapSet(ElevationGrid(0.05, (0.0, 0.0), np.zeros((20, 100))),
                  ClassGrid(0.05, (0.0, 0.0), ids, N_TERRAIN_CLASSES + 1))


@pytest.mark.parametrize(
    "course, waypoints, match",
    [
        ("chevron", ((1.0, 0.7), (50.0, 0.7)), r"walk path leaves the map at xy=\(7.0, 0.7\)"),
        ("chevron", ((0.1, 0.7), (2.0, 0.7)), "foot LH starts off the map"),
        ("chevron", ((0.1, 0.7), (50.0, 0.7)), "foot LH starts off the map"),
        # the front feet reach the unsignalled class before the base leaves
        ("classes", ((0.5, 0.5), (9.0, 0.5)),
         rf"class id {N_TERRAIN_CLASSES} is not an integer in \[0, {N_TERRAIN_CLASSES}\)"),
    ],
    ids=["base-leaves-mid-walk", "start-foot-off", "both", "class-before-base"],
)
def test_the_walker_raises_the_pose_by_pose_walker_s_first_error(course, waypoints, match):
    maps = generate_course(CourseSpec("chevron-ramp", seed=1)) if course == "chevron" else unsignalled_class_course()
    noise = NoiseSpec(white_std=(0.004,) * 6, outlier_prob=0.3)
    errors = []
    for simulate in (simulate_walk, per_pose.simulate_walk):
        with pytest.raises(ValueError, match=match) as err:
            simulate(maps, waypoints, noise, 0)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_walklog_hash_depends_on_seed_and_noise():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    noise = NoiseSpec(white_std=(0.004,) * 6)
    a = simulate_walk(maps, straight(0.75), noise, 1)
    b = simulate_walk(maps, straight(0.75), noise, 1)
    c = simulate_walk(maps, straight(0.75), noise, 2)
    assert walklog_hash(a) == walklog_hash(b)
    assert walklog_hash(a) != walklog_hash(c)


def test_walklog_round_trip_with_signals(tmp_path):
    maps = generate_course(CourseSpec("class-tiles", seed=2))
    noise = NoiseSpec(white_std=(0.004, 0.004, 0.003, 0.0004, 0.0004, 0.002), z_bias=0.0015)
    log = simulate_walk(maps, straight(1.0, start=(0.6, 0.6)), noise, 3)
    assert log.n_steps == 20
    path = tmp_path / "walk.log"
    save_walklog(log, path, signals_dir="signals")
    loaded = load_walklog(path, load_signals=True)
    assert loaded.n_steps == log.n_steps
    assert np.array_equal(loaded.start_pose.to_array(), log.start_pose.to_array())
    assert np.array_equal(loaded.init_prior.to_array(), log.init_prior.to_array())
    for ro, rl in zip(log.records, loaded.records):
        assert rl.k == ro.k and rl.timestamp == ro.timestamp
        assert np.array_equal(rl.true_pose.to_array(), ro.true_pose.to_array())
        assert np.array_equal(rl.odom_increment.to_array(), ro.odom_increment.to_array())
        assert np.array_equal(rl.odom_cov_diag, ro.odom_cov_diag)
        assert rl.tilt == ro.tilt
        assert np.array_equal(rl.true_class_ids, ro.true_class_ids)
        for co, cl, so, sl in zip(ro.contacts, rl.contacts, ro.signals, rl.signals):
            assert np.array_equal(cl.offset, co.offset)
            assert cl.in_contact == co.in_contact
            assert (so is None) == (sl is None)
            if so is not None:
                assert np.array_equal(sl.samples, so.samples)
    assert walklog_hash(loaded) == walklog_hash(log)


def test_load_walklog_errors(tmp_path):
    p = tmp_path / "bad.log"
    p.write_text("# walklog 2\nnot,a,header\n")
    with pytest.raises(ValueError, match="header"):
        load_walklog(p)
    p.write_text("")
    with pytest.raises(ValueError, match="missing"):
        load_walklog(p)


def test_load_walklog_reads_only_its_version(tmp_path):
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    p = tmp_path / "walk.log"
    save_walklog(simulate_walk(maps, straight(0.25), QUIET, 1), p)
    text = p.read_text()
    assert text.startswith(f"# walklog {WALKLOG_VERSION}\n")
    # a version 1 log, without the tilt columns, is rejected by name
    p.write_text(text.replace("# walklog 2\n", "# walklog 1\n", 1))
    with pytest.raises(ValueError, match="walk log version 1, this reader reads version 2") as err:
        load_walklog(p)
    assert str(err.value).startswith(f"{p}: ")
    p.write_text(text.split("\n", 1)[1])
    with pytest.raises(ValueError, match="walk log version line missing") as err:
        load_walklog(p)
    assert str(err.value).startswith(f"{p}: ")


def corrupt_walklog(tmp_path, column, text, **others):
    """A saved walk log with one field of its first row replaced, and any
    others given as column=text; returns the path and the line number of
    that row."""
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    p = tmp_path / "walk.log"
    save_walklog(simulate_walk(maps, straight(0.25), NoiseSpec(white_std=(0.004,) * 6), 1), p)
    lines = p.read_text().split("\n")
    header = lines.index(next(l for l in lines if l.startswith("k,")))
    row = lines[header + 1].split(",")
    for name, value in {column: text, **others}.items():
        row[lines[header].split(",").index(name)] = value
    lines[header + 1] = ",".join(row)
    p.write_text("\n".join(lines))
    return p, header + 2


@pytest.mark.parametrize(
    "column, text, match",
    [
        ("k", "abc", "column k: cannot parse 'abc'"),
        ("true_x", "abc", "column true_x: cannot parse 'abc'"),
        ("true_qw", "nan", "column true_qw: nan is not finite"),
        ("odo_y", "inf", "column odo_y: inf is not finite"),
        ("cov_yaw", "-inf", "column cov_yaw: -inf is not finite"),
        ("tilt_pitch", "nan", "column tilt_pitch: nan is not finite"),
        ("RF_off_z", "1e400", "column RF_off_z: 1e400 is not finite"),
        ("LH_contact", "yes", "column LH_contact: cannot parse 'yes'"),
        ("RH_class", "2.5", "column RH_class: cannot parse '2.5'"),
        ("LF_class", "256", "column LF_class: cannot parse '256'"),
    ],
    ids=["k", "true_x", "true_qw", "odo_y", "cov_yaw", "tilt_pitch", "RF_off_z", "LH_contact", "RH_class", "LF_class"],
)
def test_load_walklog_names_the_bad_field(column, text, match, tmp_path):
    p, ln = corrupt_walklog(tmp_path, column, text)
    with pytest.raises(ValueError, match=match) as err:
        load_walklog(p)
    assert str(err.value).startswith(f"{p}:{ln}: column {column}: ")


@pytest.mark.parametrize("foot", FOOT_LABELS)
def test_load_walklog_refuses_a_foot_it_cannot_rebuild(foot, tmp_path):
    # a foot's world x is rebuilt as the true x plus the turned offset; this
    # sum overflowed with only a floating-point warning, and the log held inf
    p, ln = corrupt_walklog(tmp_path, "true_x", "1.7e308", **{f"{foot}_off_x": "1e308"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            load_walklog(p)
    assert str(err.value).startswith(f"{p}:{ln}: foot {foot}: its world x and y, rebuilt from the true pose ")
    assert "are not finite (inf, " in str(err.value)


def test_load_walklog_checks_the_start_and_prior_lines(tmp_path):
    p, _ = corrupt_walklog(tmp_path, "k", "1")
    text = p.read_text()
    prior = next(l for l in text.split("\n") if l.startswith("# init_prior"))
    ln = text.split("\n").index(prior) + 1
    for bad, match in (
        (prior.rsplit(" ", 1)[0] + " abc", "column init_prior_qw: cannot parse 'abc'"),
        (prior.rsplit(" ", 1)[0] + " nan", "column init_prior_qw: nan is not finite"),
        (prior.rsplit(" ", 1)[0], "expected 7 fields 'init_prior_x init_prior_y .* init_prior_qw', got 6"),
    ):
        p.write_text(text.replace(prior, bad))
        with pytest.raises(ValueError, match=match) as err:
            load_walklog(p)
        assert str(err.value).startswith(f"{p}:{ln}: ")


@pytest.mark.parametrize("key", ["start_pose", "init_prior"])
def test_load_walklog_refuses_a_repeated_pose_line(key, tmp_path):
    # the loader once kept the last of two such lines, even one after the rows
    p, _ = corrupt_walklog(tmp_path, "k", "1")
    lines = p.read_text().split("\n")
    first = lines.index(next(l for l in lines if l.startswith(f"# {key}")))
    for at in (first + 1, len(lines)):
        p.write_text("\n".join(lines[:at] + [f"# {key} 5 5 5 0 0 0 1"] + lines[at:]))
        with pytest.raises(ValueError) as err:
            load_walklog(p)
        assert str(err.value) == f"{p}:{at + 1}: repeated '# {key}' line"


# a float up to 1e300 in magnitude, with a signed zero, the subnormals and
# 1e300 drawn often; beyond that a foot's world position, which the loader
# rebuilds from the pose and the offset, may overflow
finite = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300]), st.floats(-1e300, 1e300))
# a quaternion's components lie in [-1, 1]; squares that all underflow make
# no rotation
quat_parts = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: max(map(abs, q)) > 1e-100)
poses = st.builds(Pose, st.lists(finite, min_size=3, max_size=3), quat_parts)
signals = st.integers(1, 3).flatmap(lambda n: arrays(np.float64, (n, 6), elements=finite)).map(StepSignal)


@st.composite
def walk_logs(draw):
    def floats(n):
        return draw(st.lists(finite, min_size=n, max_size=n))

    ks = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=3, unique=True))
    records = [
        StepRecord(
            k,
            draw(finite),
            draw(poses),
            draw(poses),
            np.array(floats(6)),
            tuple(floats(2)),
            [ContactMeasurement(floats(3), in_contact=draw(st.booleans())) for _ in FOOT_LABELS],
            np.array([floats(3) for _ in FOOT_LABELS]),
            np.array(draw(st.lists(st.integers(0, 255), min_size=4, max_size=4)), dtype=np.uint8),
            [draw(st.none() | signals) for _ in FOOT_LABELS],
        )
        for k in ks
    ]
    return WalkLog(draw(poses), draw(poses), records)


@settings(max_examples=60, deadline=None)
@given(walk_logs())
def test_walklog_round_trip_gives_back_every_field_the_file_holds(log):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "walk.log")
        save_walklog(log, path, signals_dir="signals")
        loaded = load_walklog(path, load_signals=True)
    saved_poses, loaded_poses = [log.start_pose, log.init_prior], [loaded.start_pose, loaded.init_prior]
    assert loaded.n_steps == log.n_steps
    for ro, rl in zip(log.records, loaded.records):
        saved_poses += [ro.true_pose, ro.odom_increment]
        loaded_poses += [rl.true_pose, rl.odom_increment]
        assert rl.k == ro.k and same_bits(rl.timestamp, ro.timestamp)
        assert same_bits(rl.odom_cov_diag, ro.odom_cov_diag) and same_bits(rl.tilt, ro.tilt)
        # of a foot's world position the file holds only z
        assert same_bits(rl.true_foot_world[:, 2], ro.true_foot_world[:, 2])
        assert np.array_equal(rl.true_class_ids, ro.true_class_ids)
        for co, cl, so, sl in zip(ro.contacts, rl.contacts, ro.signals, rl.signals):
            assert same_bits(cl.offset, co.offset) and cl.in_contact == co.in_contact
            assert (sl is None) == (so is None)
            assert so is None or same_bits(sl.samples, so.samples)
    for saved, got in zip(saved_poses, loaded_poses):
        # a Pose keeps a unit quaternion as given, the one it reads too
        assert same_bits(got.position, saved.position) and same_bits(got.quat, saved.quat)
    assert walklog_hash(loaded) == walklog_hash(log)


@pytest.mark.parametrize("kind", list(COURSES))
def test_each_default_experiment_s_seed_1_log_round_trips_to_its_hash(kind, tmp_path):
    cfg = default_experiment(kind)
    log = walk(cfg, generate_course(replace(cfg.course, seed=1)), 1)
    save_walklog(log, tmp_path / "walk.log", signals_dir="signals" if log.has_signals else None)
    loaded = load_walklog(tmp_path / "walk.log", load_signals=True)
    assert walklog_hash(loaded) == walklog_hash(log)
    for ro, rl in zip(log.records, loaded.records):
        # x and y are rebuilt from the true pose and the offset, z is read
        assert np.abs(rl.true_foot_world - ro.true_foot_world).max() <= 2e-16
        for so, sl in zip(ro.signals, rl.signals):
            assert (sl is None) == (so is None)
            assert so is None or same_bits(sl.samples, so.samples)


def test_probe_scenario_prior_offset_and_probes():
    maps = generate_course(CourseSpec("wall-room", seed=0))
    log = probe_scenario(maps, NoiseSpec(white_std=(0.005,) * 6), 1)
    assert log.n_steps == 40
    shift = log.init_prior.position - log.start_pose.position
    assert np.allclose(shift, [0.10, 0.10, 0.0])
    assert np.array_equal(log.init_prior.quat, log.start_pose.quat)

    rf = FOOT_LABELS.index("RF")
    front_probes = side_probes = 0
    for r in log.records:
        w = r.true_foot_world[rf]
        if w[2] > 0.0:  # probing in the air, not standing on the floor
            assert w[2] == pytest.approx(0.3)
            if r.k % 2 == 1:
                assert w[0] == pytest.approx(WALL_ROOM_WALL_X)
                front_probes += 1
            else:
                assert w[1] == pytest.approx(WALL_ROOM_WALL_Y)
                side_probes += 1
        others = [j for j in range(4) if j != rf]
        assert np.all(r.true_foot_world[others, 2] == 0.0)
    assert front_probes > 5
    assert side_probes > 0  # the side wall comes into reach late in the walk


def test_classify_log_fills_each_signal_s_prediction():
    maps = generate_course(CourseSpec("class-tiles", seed=2))
    log = simulate_walk(maps, straight(0.5, start=(0.6, 0.6)), QUIET, 3)
    model = train_contact_classifier(seed=0)
    classify_log(log, model)
    for r in log.records:
        for contact, sig in zip(r.contacts, r.signals):
            assert sig is not None  # every tile is classed, so every contact has a signal
            assert np.array_equal(contact.class_probs, model.predict([sig])[0])
            assert contact.class_probs.sum() == pytest.approx(1.0, abs=1e-9)

    # a walk on a course without a class layer logs no force signals, and
    # leaves a class mode nothing to fuse
    bare = simulate_walk(generate_course(CourseSpec("chevron-ramp", seed=1)), straight(0.5), QUIET, 3)
    assert not bare.has_signals
    with pytest.raises(ValueError, match="no force signals"):
        classify_log(bare, model)


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-row-short", "one-row-over"])
def test_classify_log_refuses_a_model_that_returns_other_than_one_row_per_signal(extra):
    # a short answer once raised a bare StopIteration, and a long one lost
    # its extra rows without a word
    log = simulate_walk(generate_course(CourseSpec("class-tiles", seed=2)), straight(0.2, start=(0.6, 0.6)), QUIET, 3)
    n = sum(s is not None for r in log.records for s in r.signals)

    class Stub:
        def predict(self, signals):
            return np.full((len(signals) + extra, 8), 1.0 / 8.0)

    with pytest.raises(ValueError) as err:
        classify_log(log, Stub())
    assert str(err.value) == f"the classifier returned {n + extra} rows of class probabilities for {n} signals"


def test_gait_nominal_offsets():
    assert np.array_equal(nominal_offset("LF"), [0.3, 0.2, 0.0])
    assert np.array_equal(nominal_offset("RF"), [0.3, -0.2, 0.0])
    assert np.array_equal(nominal_offset("LH"), [-0.3, 0.2, 0.0])
    assert np.array_equal(nominal_offset("RH"), [-0.3, -0.2, 0.0])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(white_std=(0.1, 0.1))
    assert np.array_equal(NoiseSpec(z_bias=0.2, yaw_bias=0.3).bias_vector(), [0, 0, 0.2, 0, 0, 0.3])


def test_noise_spec_keeps_the_floats_it_checked():
    # not the container it was given, which its caller could still change
    given = np.array([0.1, 0.2, 0.3, 0.0, 0.0, 1])
    noise = NoiseSpec(white_std=given)
    given[0] = np.nan
    assert noise.white_std == (0.1, 0.2, 0.3, 0.0, 0.0, 1.0)
    assert all(type(v) is float for v in noise.white_std)
    assert noise == NoiseSpec(white_std=[0.1, 0.2, 0.3, 0, 0, 1])


# settings no walk can use fail at construction (the INI loader's side:
# tests/test_evaluate.py)
UNUSABLE = [
    (NoiseSpec, "white_std", (0.1, 0.1), "white_std must hold 6 finite values that are not negative"),
    (NoiseSpec, "white_std", (0.1,) * 5 + (-0.1,), "white_std must hold 6 finite"),
    (NoiseSpec, "white_std", (0.1,) * 5 + (float("nan"),), "white_std must hold 6 finite"),
    (NoiseSpec, "z_bias", float("inf"), "z_bias must be finite"),
    (NoiseSpec, "yaw_bias", float("nan"), "yaw_bias must be finite"),
    (NoiseSpec, "outlier_prob", 7.0, r"outlier_prob must lie in \[0, 1\], got 7.0"),
    (NoiseSpec, "outlier_prob", -0.1, r"outlier_prob must lie in \[0, 1\]"),
    (NoiseSpec, "outlier_prob", float("nan"), r"outlier_prob must lie in \[0, 1\]"),
]


@pytest.mark.parametrize("cls, name, value, match", UNUSABLE, ids=[f"{n}={v}" for _, n, v, _ in UNUSABLE])
def test_gait_and_noise_reject_settings_no_walk_can_use(cls, name, value, match):
    with pytest.raises(ValueError, match=match):
        cls(**{name: value})
