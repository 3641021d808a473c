"""Per-pose forms the package no longer runs, kept for the tests.

The scalar map lookups (elevation_at, class_at), the single-pose helpers
of the pose algebra (quat_from_yaw, quat_conjugate, inverse,
relative_increment, pose_exp), and the walker that used them: a walk built
one pose at a time, record by record, with its draws made inside the step
loop, each step's Poses and ContactMeasurements built as the walk goes, and
the records stacked into the log's columns at the end. The tests hold the
package's batched walker (sim._walk) to this one, bit for bit.

Also the full-grid course builders (chevron_course, tiles_course): each
computes on meshgrids of every cell centre and full-grid masks. The tests
hold the package's builders, which compute on the lattice's axes, to them,
bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from hapticloc.geometry import FOOT_LABELS, Pose, compose, quat_from_rotvec, quat_rotate, quat_to_euler
from hapticloc.likelihood import ContactMeasurement
from hapticloc.maps import UNKNOWN_CLASS, ClassGrid, ElevationGrid, MapSet
from hapticloc.sim import (
    CHEVRON_BLOCK,
    CHEVRON_BLOCK_HMAX,
    CHEVRON_HEIGHT,
    CHEVRON_PERIOD,
    CHEVRON_RAMP_DEG,
    CHEVRON_SIZE,
    CHEVRON_STRIP_X,
    CHEVRON_STRIP_Y,
    CHEVRON_TILT,
    FOOT_DX,
    FOOT_DY,
    GAIT_ORDER,
    N_TERRAIN_CLASSES,
    OUTLIER_SHIFT,
    PHASE_DT,
    PROBE_HEIGHT,
    PROBE_PRIOR_OFFSET,
    PROBE_REACH,
    PROBE_START_XY,
    PROBE_STEPS,
    STANDING_HEIGHT,
    STEP_LENGTH,
    TILES_PLATFORM_H,
    TILES_PLATFORM_X,
    TILES_PLATFORM_Y,
    TILES_RAMP_LEN,
    TILES_SIZE,
    WALL_ROOM_WALL_X,
    WALL_ROOM_WALL_Y,
    WalkLog,
    check_waypoints,
    nominal_offset,
    sample_signal_length,
    synth_force_signal,
)

# scalar map lookups


def _padded_index(coord, origin, resolution, n) -> int:
    """One coordinate's index into a padded axis, by padded_cells' rule in
    plain floats: (coord - origin) / resolution, floored, plus one for the
    border; 0, a border cell, off the lattice or for nan."""
    i = (float(coord) - float(origin)) / resolution
    return math.floor(i) + 1 if 0.0 <= i < n else 0


def _padded_value(grid, xy):
    """The padded layer's value at one point (x, y)."""
    row = _padded_index(xy[1], grid.origin[1], grid.resolution, grid.n_rows)
    return grid._padded[row, _padded_index(xy[0], grid.origin[0], grid.resolution, grid.n_cols)]


def elevation_at(grid: ElevationGrid, xy) -> float:
    """Height of the cell containing xy; nan outside the grid or on no-data cells."""
    return float(_padded_value(grid, xy))


def class_at(grid: ClassGrid, xy) -> int:
    """Class id of the cell containing xy; the unknown sentinel outside the grid."""
    return int(_padded_value(grid, xy))


# single-pose helpers


def quat_from_yaw(yaw):
    half = float(yaw) / 2.0
    return np.array([0.0, 0.0, math.sin(half), math.cos(half)])


def quat_conjugate(q):
    x, y, z, w = np.asarray(q, dtype=float).tolist()
    return np.array([-x, -y, -z, w])


def inverse(p: Pose) -> Pose:
    qi = quat_conjugate(p.quat)
    return Pose(-quat_rotate(qi, p.position), qi)


def relative_increment(prev: Pose, curr: Pose) -> Pose:
    """Increment d with compose(prev, d) == curr."""
    return compose(inverse(prev), curr)


def pose_exp(delta) -> Pose:
    """Tangent vector [dx dy dz droll dpitch dyaw] to a small pose."""
    delta = np.asarray(delta, dtype=float).reshape(6)
    return Pose(delta[:3], quat_from_rotvec(delta[3:]))


# the pose-by-pose walker


def path_samples(waypoints):
    """Positions and headings every STEP_LENGTH metres along a polyline."""
    wp = check_waypoints(waypoints)
    seg = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    n = int(np.floor(total / STEP_LENGTH + 1e-9))
    pts, yaws = [], []
    for k in range(n + 1):
        s = min(k * STEP_LENGTH, total)
        i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
        f = (s - cum[i]) / seg_len[i]
        pts.append(wp[i] + f * seg[i])
        yaws.append(np.arctan2(seg[i, 1], seg[i, 0]))
    return np.array(pts), np.array(yaws)


def _base_pose(maps, xy, yaw) -> Pose:
    z = elevation_at(maps.elevation, xy)
    if np.isnan(z):
        raise ValueError(f"walk path leaves the map at xy=({round(float(xy[0]), 3)}, {round(float(xy[1]), 3)})")
    return Pose([xy[0], xy[1], z + STANDING_HEIGHT], quat_from_yaw(yaw))


def _place_foot(maps, pose: Pose, label: str) -> np.ndarray | None:
    world = pose.position + quat_rotate(pose.quat, nominal_offset(label))
    z = elevation_at(maps.elevation, world[:2])
    if np.isnan(z):
        return None
    return np.array([world[0], world[1], z])


def _record_step(maps, k, pose, prev_pose, feet, noise, rng):
    """One step's record: the dict of its fields, and its signal per foot."""
    incr_true = relative_increment(prev_pose, pose)
    delta = np.array(noise.white_std) * rng.standard_normal(6) + noise.bias_vector()
    odom = compose(incr_true, pose_exp(delta))

    contacts, worlds, classes, signals = [], [], [], []
    for label in FOOT_LABELS:
        world = feet[label].copy()
        offset = quat_rotate(quat_conjugate(pose.quat), world - pose.position)
        if noise.outlier_prob > 0.0 and rng.random() < noise.outlier_prob:
            offset = offset.copy()
            offset[2] += OUTLIER_SHIFT * (1.0 if rng.random() < 0.5 else -1.0)
        class_id = UNKNOWN_CLASS
        signal = None
        if maps.class_grid is not None:
            class_id = class_at(maps.class_grid, world[:2])
            if class_id != UNKNOWN_CLASS:
                signal = synth_force_signal(class_id, sample_signal_length(rng), rng)
        contacts.append(ContactMeasurement(offset))
        worlds.append(world)
        classes.append(class_id)
        signals.append(signal)

    record = dict(
        k=k,
        t=k * PHASE_DT,
        true_pose=pose.to_array(),
        odometry=odom.to_array(),
        cov_diag=np.array(noise.white_std) ** 2,
        tilt=quat_to_euler(pose.quat)[:2],
        offsets=[c.offset for c in contacts],
        in_contact=[c.in_contact for c in contacts],
        foot_world=np.array(worlds),
        class_ids=np.array(classes, dtype=np.uint8),
    )
    return record, signals


def walk_log(start, init_prior, records):
    """The WalkLog of (record, signals) pairs, one per step, in step order."""
    columns = {name: [record[name] for record, _ in records] for name in records[0][0]}
    signals = {(j, i): s for j, (_, feet) in enumerate(records) for i, s in enumerate(feet) if s is not None}
    return WalkLog(start, init_prior, **columns, signals=signals)


def walk(maps, xys, yaws, noise, seed, probe=None):
    """Stand at base position 0, then log a four-support phase at each later
    base position, one pose at a time. probe(k, pose) returns (label, world),
    a foot touching a point off the floor on phase k, or None."""
    rng = np.random.default_rng(seed)
    start = _base_pose(maps, xys[0], yaws[0])
    feet = {}
    for label in FOOT_LABELS:
        placed = _place_foot(maps, start, label)
        if placed is None:
            raise ValueError(f"foot {label} starts off the map")
        feet[label] = placed

    records = []
    prev = start
    for k in range(1, len(xys)):
        pose = _base_pose(maps, xys[k], yaws[k])
        swing = GAIT_ORDER[(k - 1) % 4]
        placed = _place_foot(maps, pose, swing)
        if placed is not None:
            feet[swing] = placed
        touch = None if probe is None else probe(k, pose)
        touching = feet if touch is None else {**feet, touch[0]: touch[1]}
        records.append(_record_step(maps, k, pose, prev, touching, noise, rng))
        prev = pose
    return walk_log(start, start, records)


def simulate_walk(maps, waypoints, noise, seed) -> WalkLog:
    return walk(maps, *path_samples(waypoints), noise, seed)


def probe_scenario(maps, noise, seed) -> WalkLog:
    x0, y0 = PROBE_START_XY
    xys = np.column_stack([np.full(PROBE_STEPS + 1, x0), y0 - np.arange(PROBE_STEPS + 1) * STEP_LENGTH])

    def probe(k, pose):
        if k % 2 == 1:
            target = np.array([WALL_ROOM_WALL_X, pose.position[1] - FOOT_DY, PROBE_HEIGHT])
        else:
            target = np.array([pose.position[0] + FOOT_DX, WALL_ROOM_WALL_Y, PROBE_HEIGHT])
        return ("RF", target) if np.linalg.norm(target - pose.position) <= PROBE_REACH else None

    log = walk(maps, xys, np.zeros(PROBE_STEPS + 1), noise, seed, probe)
    start = log.start_pose
    return replace(log, init_prior=Pose(start.position + np.asarray(PROBE_PRIOR_OFFSET, dtype=float), start.quat))


# the full-grid course builders


def _cell_centers(n_cols, n_rows, res, origin):
    xs = origin[0] + (np.arange(n_cols) + 0.5) * res
    ys = origin[1] + (np.arange(n_rows) + 0.5) * res
    return np.meshgrid(xs, ys)


def chevron_course(spec) -> MapSet:
    size_x, size_y = CHEVRON_SIZE
    res = spec.resolution
    n_cols, n_rows = round(size_x / res), round(size_y / res)
    x, y = _cell_centers(n_cols, n_rows, res, (0.0, 0.0))
    h = np.zeros((n_rows, n_cols))

    slope = np.tan(np.radians(CHEVRON_RAMP_DEG))
    plateau = slope * 1.0
    x0 = CHEVRON_STRIP_X
    y_lo, y_hi = CHEVRON_STRIP_Y
    yc = 0.5 * (y_lo + y_hi)
    strip = (y >= y_lo) & (y < y_hi)
    tilt = CHEVRON_TILT * (y - y_lo)

    up = strip & (x >= x0) & (x < x0 + 1.0)
    h[up] = slope * (x[up] - x0) + tilt[up]

    rng = np.random.default_rng(spec.seed)
    blocks = strip & (x >= x0 + 1.0) & (x < x0 + 2.0)
    bi = np.floor((x - (x0 + 1.0)) / CHEVRON_BLOCK).astype(int)
    bj = np.floor((y - y_lo) / CHEVRON_BLOCK).astype(int)
    block_h = rng.uniform(0.0, CHEVRON_BLOCK_HMAX, size=(int(bj.max()) + 1, int(bi.max()) + 1))
    h[blocks] = plateau + tilt[blocks] + block_h[bj[blocks], bi[blocks]]

    chev = strip & (x >= x0 + 2.0) & (x < x0 + 3.2)
    u = (x - (x0 + 2.0)) + np.abs(y - yc)
    m = np.mod(u, CHEVRON_PERIOD)
    tent = CHEVRON_HEIGHT * (1.0 - np.abs(2.0 * m / CHEVRON_PERIOD - 1.0))
    h[chev] = plateau + tilt[chev] + tent[chev]

    down = strip & (x >= x0 + 3.2) & (x < x0 + 4.2)
    h[down] = (plateau + tilt[down]) * (1.0 - (x[down] - (x0 + 3.2)) / 1.0)

    return MapSet(elevation=ElevationGrid(res, (0.0, 0.0), h))


def tiles_course(spec) -> MapSet:
    size_x, size_y = TILES_SIZE
    res = spec.resolution
    n_cols, n_rows = round(size_x / res), round(size_y / res)
    x, y = _cell_centers(n_cols, n_rows, res, (0.0, 0.0))

    h = np.zeros((n_rows, n_cols))
    px0, px1 = TILES_PLATFORM_X
    py0, py1 = TILES_PLATFORM_Y
    on_y = (y >= py0) & (y < py1)
    up = on_y & (x >= px0) & (x < px0 + TILES_RAMP_LEN)
    top = on_y & (x >= px0 + TILES_RAMP_LEN) & (x < px1 - TILES_RAMP_LEN)
    down = on_y & (x >= px1 - TILES_RAMP_LEN) & (x < px1)
    h[up] = TILES_PLATFORM_H * (x[up] - px0) / TILES_RAMP_LEN
    h[top] = TILES_PLATFORM_H
    h[down] = TILES_PLATFORM_H * (px1 - x[down]) / TILES_RAMP_LEN

    n_tx, n_ty = int(np.ceil(size_x)), int(np.ceil(size_y))
    rng = np.random.default_rng(spec.seed)
    tile_class = rng.integers(0, N_TERRAIN_CLASSES, size=(n_ty, n_tx))
    order = rng.permutation(n_tx * n_ty)[:N_TERRAIN_CLASSES]
    tile_class.flat[order] = np.arange(N_TERRAIN_CLASSES)
    ti = np.clip(np.floor(x).astype(int), 0, n_tx - 1)
    tj = np.clip(np.floor(y).astype(int), 0, n_ty - 1)
    ids = tile_class[tj, ti].astype(np.uint8)

    return MapSet(
        elevation=ElevationGrid(res, (0.0, 0.0), h),
        class_grid=ClassGrid(res, (0.0, 0.0), ids, N_TERRAIN_CLASSES),
    )
