"""Synthetic courses, a crawl-gait walker, contact signal synthesis, walk logs.

The walker advances the base a fixed distance per four-support phase and
repositions one leg per phase in crawl order LF -> RH -> RF -> LH. Every phase
logs the true pose, a noisy odometry increment (white noise plus an unreported
deterministic z/yaw bias, so raw odometry drifts), and one contact per foot
with its base-frame offset. True foot heights come from the elevation layer, so
a logged contact's world z equals the map height under it exactly. On a course
with a class layer, every foot on a labeled cell also logs a force signal of
its cell's class; a foot on an unlabeled cell logs none.

Every phase also logs the base's roll and pitch, the attitude an IMU observes
against gravity, which the filter takes as given. The IMU tilt is modelled as
exact: the simulator logs the true base attitude, with no noise. Every course
here is walked level, so both are 0.

Walk log format (save_walklog, load_walklog): a text file whose first line is
the version line "# walklog 2"; a log with another version, or with none, is
rejected. Two lines follow, "# start_pose" and "# init_prior" (the filter
prior), each with 7 values x y z qx qy qz qw. Then a CSV header line and one
row per step:

  k, t                     step index and timestamp (k * PHASE_DT seconds)
  true_x ... true_qw       true base pose in the world
  odo_x ... odo_qw         odometry increment from the previous step's base
  cov_x ... cov_yaw        diagonal of the reported odometry covariance, in
                           the tangent order x y z roll pitch yaw
  tilt_roll, tilt_pitch    the base's roll and pitch at this step, radians
  then per foot F in FOOT_LABELS order (LF, RF, LH, RH), 7 columns:
  F_off_x, F_off_y, F_off_z   contact point in the base frame
  F_contact                1 for a foot in contact, 0 for a lifted one
  F_world_z                true world z of the contact
  F_class                  true class id of the cell, 255 for none (no class
                           layer, or an unlabeled cell)
  F_signal                 the force signal file, relative to the log's
                           directory, or empty

Floats are written with 17 significant digits, so they load back exactly.
A signal file is a CSV with the header "fx,fy,fz,tx,ty,tz" and one sample
per row. Both are read with fields.parse_field: a field that does not parse,
or is not finite, raises an error naming the file, the line and the field.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

from .classifier import StepSignal
from .fields import data_lines, parse_field, parse_fields
from .geometry import (
    FOOT_LABELS,
    Pose,
    compose,
    pose_exp,
    quat_conjugate,
    quat_from_yaw,
    quat_rotate,
    quat_to_euler,
    relative_increment,
)
from .likelihood import ContactMeasurement
from .maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    class_at,
    elevation_at,
    parse_class_id,
)

GAIT_ORDER = ("LF", "RH", "RF", "LH")

N_TERRAIN_CLASSES = 8

# per-class signal template parameters: amplitude, frequency, damping,
# vertical-force offset, torque scale; rows are distinct so the summary
# features separate the classes
CLASS_SIGNAL_PARAMS = np.array(
    [
        [0.6, 1.5, 1.2, 4.0, 0.20],
        [1.2, 2.6, 2.4, 5.2, 0.32],
        [1.8, 3.7, 1.6, 6.4, 0.44],
        [2.4, 4.8, 2.8, 7.6, 0.56],
        [3.0, 2.0, 2.0, 8.8, 0.68],
        [3.6, 3.1, 3.2, 10.0, 0.80],
        [4.2, 4.2, 1.4, 11.2, 0.92],
        [4.8, 5.3, 2.6, 12.4, 1.04],
    ]
)

SIGNAL_LENGTH_RANGE = (40, 120)

FOOT_DX = 0.3  # half the 0.6 m foot rectangle, along the body
FOOT_DY = 0.2  # half the 0.4 m rectangle, across the body
PHASE_DT = 1.0  # seconds per four-support phase, the walk log's timestamps


def nominal_offset(label: str) -> np.ndarray:
    """A foot's standing offset from the base, in the base frame."""
    sx = 1.0 if label in ("LF", "RF") else -1.0
    sy = 1.0 if label in ("LF", "LH") else -1.0
    return np.array([sx * FOOT_DX, sy * FOOT_DY, 0.0])


@dataclass(frozen=True)
class GaitParams:
    step_length: float = 0.05
    standing_height: float = 0.5

    def __post_init__(self):
        for name in ("step_length", "standing_height"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class NoiseSpec:
    """Odometry corruption: reported white noise plus unreported per-step bias."""

    white_std: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    z_bias: float = 0.0
    yaw_bias: float = 0.0
    outlier_prob: float = 0.0

    def __post_init__(self):
        white = np.asarray(self.white_std, dtype=float)
        if not (white.shape == (6,) and np.isfinite(white).all() and (white >= 0.0).all()):
            raise ValueError(f"white_std must hold 6 finite values that are not negative, got {self.white_std}")
        for name in ("z_bias", "yaw_bias"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError(f"outlier_prob must lie in [0, 1], got {self.outlier_prob}")

    def white_array(self) -> np.ndarray:
        return np.asarray(self.white_std, dtype=float)

    def bias_vector(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.z_bias, 0.0, 0.0, self.yaw_bias])


# an outlier contact's offset is shifted this far up or down
OUTLIER_SHIFT = 0.15


@dataclass(frozen=True)
class CourseSpec:
    kind: str
    resolution: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.kind not in COURSE_KINDS:
            raise ValueError(f"unknown course kind {self.kind!r}, expected one of {COURSE_KINDS}")
        if not self.resolution > 0.0:
            raise ValueError("course resolution must be positive")


def _cell_centers(n_cols, n_rows, res, origin):
    xs = origin[0] + (np.arange(n_cols) + 0.5) * res
    ys = origin[1] + (np.arange(n_rows) + 0.5) * res
    return np.meshgrid(xs, ys)


CHEVRON_RAMP_DEG = 12.0
CHEVRON_HEIGHT = 0.13
CHEVRON_PERIOD = 0.26
CHEVRON_STRIP_X = 1.5  # strip segments: ramp 1.0, blocks 1.0, chevrons 1.2, ramp 1.0
CHEVRON_STRIP_Y = (0.2, 1.6)
CHEVRON_BLOCK = 0.25
CHEVRON_BLOCK_HMAX = 0.10
CHEVRON_TILT = 0.025  # gentle cross slope so lateral position is observable early


def _chevron_course(spec: CourseSpec) -> MapSet:
    size_x, size_y = 7.0, 3.0
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

    # random block field first: non-repeating, so the filter can lock on
    # before it meets the periodic chevron section
    rng = np.random.default_rng(spec.seed)
    blocks = strip & (x >= x0 + 1.0) & (x < x0 + 2.0)
    bi = np.floor((x - (x0 + 1.0)) / CHEVRON_BLOCK).astype(int)
    bj = np.floor((y - y_lo) / CHEVRON_BLOCK).astype(int)
    block_h = rng.uniform(0.0, CHEVRON_BLOCK_HMAX, size=(int(bj.max()) + 1, int(bi.max()) + 1))
    h[blocks] = plateau + tilt[blocks] + block_h[bj[blocks], bi[blocks]]

    # chevron ridges: triangular profile along u, folded about the strip axis
    chev = strip & (x >= x0 + 2.0) & (x < x0 + 3.2)
    u = (x - (x0 + 2.0)) + np.abs(y - yc)
    m = np.mod(u, CHEVRON_PERIOD)
    tent = CHEVRON_HEIGHT * (1.0 - np.abs(2.0 * m / CHEVRON_PERIOD - 1.0))
    h[chev] = plateau + tilt[chev] + tent[chev]

    down = strip & (x >= x0 + 3.2) & (x < x0 + 4.2)
    h[down] = (plateau + tilt[down]) * (1.0 - (x[down] - (x0 + 3.2)) / 1.0)

    return MapSet(elevation=ElevationGrid(res, (0.0, 0.0), h))


TILES_PLATFORM_X = (3.0, 5.0)  # ramp up, 1 m top, ramp down
TILES_PLATFORM_Y = (1.25, 2.25)
TILES_PLATFORM_H = 0.20
TILES_RAMP_LEN = 0.5


def _tiles_course(spec: CourseSpec) -> MapSet:
    size_x, size_y = 7.0, 3.5
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

    # 1 x 1 m material tiles; a seeded assignment that uses every class
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


# the wall-room course's scripted walk (probe_scenario): base start, lateral
# walk length, the probing leg's reach from the base and its probe height,
# and the offset of the filter prior from the true start pose
PROBE_START_XY = (1.4, 0.2)
PROBE_WALK_LENGTH = 2.0
PROBE_REACH = 0.8
PROBE_HEIGHT = 0.3
PROBE_PRIOR_OFFSET = (0.10, 0.10, 0.0)

# the wall-room course: floor extent, the two wall planes, wall height,
# cloud point spacing, and the flat grid border around the floor
WALL_ROOM_FLOOR_X = (-0.5, 2.0)
WALL_ROOM_FLOOR_Y = (-2.0, 1.0)
WALL_ROOM_WALL_X = 2.0  # probing wall plane, faces the robot
WALL_ROOM_WALL_Y = -2.0  # side wall reached late in the lateral walk
WALL_ROOM_WALL_HEIGHT = 0.8
WALL_ROOM_SPACING = 0.02
WALL_ROOM_MARGIN = 0.5


def _wall_room_course(spec: CourseSpec) -> MapSet:
    res = spec.resolution
    (x0, x1), (y0, y1), m = WALL_ROOM_FLOOR_X, WALL_ROOM_FLOOR_Y, WALL_ROOM_MARGIN
    n_cols = round((x1 - x0 + 2 * m) / res)
    n_rows = round((y1 - y0 + 2 * m) / res)
    elevation = ElevationGrid(res, (x0 - m, y0 - m), np.zeros((n_rows, n_cols)))

    s = WALL_ROOM_SPACING
    xs = np.arange(x0, x1 + s / 2, s)
    ys = np.arange(y0, y1 + s / 2, s)
    zs = np.arange(s, WALL_ROOM_WALL_HEIGHT + s / 2, s)
    fx, fy = np.meshgrid(xs, ys)
    floor = np.column_stack([fx.ravel(), fy.ravel(), np.zeros(fx.size)])
    wy, wz = np.meshgrid(ys, zs)
    front = np.column_stack([np.full(wy.size, WALL_ROOM_WALL_X), wy.ravel(), wz.ravel()])
    sx, sz = np.meshgrid(xs, zs)
    side = np.column_stack([sx.ravel(), np.full(sx.size, WALL_ROOM_WALL_Y), sz.ravel()])

    cloud = PointCloudMap(np.vstack([floor, front, side]))
    return MapSet(elevation=elevation, cloud=cloud)


# course kind -> (its builder, the map layers the builder makes)
_COURSES = {
    "chevron-ramp": (_chevron_course, ("elevation",)),
    "class-tiles": (_tiles_course, ("elevation", "class")),
    "wall-room": (_wall_room_course, ("elevation", "cloud")),
}
COURSE_LAYERS = {kind: layers for kind, (_, layers) in _COURSES.items()}
COURSE_KINDS = tuple(_COURSES)


def generate_course(spec: CourseSpec) -> MapSet:
    """Build the named course's map layers, deterministic in the seed."""
    return _COURSES[spec.kind][0](spec)


def sample_signal_length(rng: np.random.Generator) -> int:
    lo, hi = SIGNAL_LENGTH_RANGE
    return int(rng.integers(lo, hi + 1))


def synth_force_signal(class_id: int, n_samples: int, rng: np.random.Generator) -> StepSignal:
    """Class-conditioned damped-oscillation force/torque signal: the class
    template plus white noise at 6% of each channel's amplitude."""
    class_id = int(class_id)
    if not 0 <= class_id < len(CLASS_SIGNAL_PARAMS):
        raise ValueError(f"class id {class_id} outside [0, {len(CLASS_SIGNAL_PARAMS)})")
    if n_samples < 1:
        raise ValueError("signal needs at least one sample")
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
    cols = cols + rng.standard_normal((n_samples, 6)) * sigma
    return StepSignal(cols)


@dataclass
class StepRecord:
    k: int
    timestamp: float
    true_pose: Pose
    odom_increment: Pose
    odom_cov_diag: np.ndarray
    tilt: tuple  # (roll, pitch) of the base, as an IMU observes it against gravity
    contacts: list  # ContactMeasurement, one per foot in FOOT_LABELS order
    true_foot_world: np.ndarray  # (4, 3)
    true_class_ids: np.ndarray  # (4,), UNKNOWN_CLASS where no class layer
    signals: list  # StepSignal or None, per foot


@dataclass
class WalkLog:
    start_pose: Pose
    init_prior: Pose
    records: list

    @property
    def n_steps(self) -> int:
        return len(self.records)

    @property
    def has_signals(self) -> bool:
        return any(s is not None for r in self.records for s in r.signals)

    def true_poses(self) -> list:
        return [self.start_pose] + [r.true_pose for r in self.records]

    def timestamps(self) -> np.ndarray:
        return np.array([0.0] + [r.timestamp for r in self.records])

    def odometry_poses(self) -> list:
        """Dead-reckoned trajectory: composed increments from the prior mean."""
        pose = self.init_prior
        out = [pose]
        for r in self.records:
            pose = compose(pose, r.odom_increment)
            out.append(pose)
        return out


def check_waypoints(waypoints, step_length: float) -> np.ndarray:
    """The waypoints as an (n >= 2, 2) float array of finite values, no
    waypoint equal to the one before it, spanning at least one step_length
    (0 checks no length); the map is checked when walked."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim != 2 or wp.shape[1] != 2 or len(wp) < 2:
        raise ValueError(f"waypoints must be an (n>=2, 2) array, got shape {wp.shape}")
    if not np.isfinite(wp).all():
        raise ValueError("waypoints must be finite")
    seg_len = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    if np.any(seg_len == 0.0):
        raise ValueError("duplicate consecutive waypoints")
    total = seg_len.sum()
    if total < (1.0 - 1e-9) * step_length:  # _path_samples counts steps to 1e-9 of a step
        raise ValueError(f"waypoints span {total:.6g} m, shorter than one {step_length} m step")
    return wp


def _path_samples(waypoints, step_length):
    """Positions and headings every step_length metres along a polyline."""
    wp = check_waypoints(waypoints, step_length)
    seg = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    n = int(np.floor(total / step_length + 1e-9))
    pts, yaws = [], []
    for k in range(n + 1):
        s = min(k * step_length, total)
        i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
        f = (s - cum[i]) / seg_len[i]
        pts.append(wp[i] + f * seg[i])
        yaws.append(np.arctan2(seg[i, 1], seg[i, 0]))
    return np.array(pts), np.array(yaws)


def _base_pose(maps, xy, yaw, gait) -> Pose:
    z = elevation_at(maps.elevation, xy)
    if np.isnan(z):
        raise ValueError(f"walk path leaves the map at xy=({round(float(xy[0]), 3)}, {round(float(xy[1]), 3)})")
    return Pose([xy[0], xy[1], z + gait.standing_height], quat_from_yaw(yaw))


def _place_foot(maps, pose: Pose, label: str) -> np.ndarray | None:
    world = pose.position + quat_rotate(pose.quat, nominal_offset(label))
    z = elevation_at(maps.elevation, world[:2])
    if np.isnan(z):
        return None
    return np.array([world[0], world[1], z])


def _record_step(maps, k, pose, prev_pose, feet, noise, rng):
    incr_true = relative_increment(prev_pose, pose)
    delta = noise.white_array() * rng.standard_normal(6) + noise.bias_vector()
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

    return StepRecord(
        k=k,
        timestamp=k * PHASE_DT,
        true_pose=pose,
        odom_increment=odom,
        odom_cov_diag=noise.white_array() ** 2,
        tilt=quat_to_euler(pose.quat)[:2],
        contacts=contacts,
        true_foot_world=np.array(worlds),
        true_class_ids=np.array(classes, dtype=np.uint8),
        signals=signals,
    )


def _walk(maps, xys, yaws, gait, noise, seed, probe=None):
    """The one step loop: stand at base position 0, then log a four-support
    phase at each later base position, swinging one leg per phase in crawl
    order. probe(k, pose) returns (label, world), a foot touching a point off
    the floor on phase k, or None. The log's prior is the true start pose."""
    rng = np.random.default_rng(seed)
    start = _base_pose(maps, xys[0], yaws[0], gait)
    feet = {}
    for label in FOOT_LABELS:
        placed = _place_foot(maps, start, label)
        if placed is None:
            raise ValueError(f"foot {label} starts off the map")
        feet[label] = placed

    records = []
    prev = start
    for k in range(1, len(xys)):
        pose = _base_pose(maps, xys[k], yaws[k], gait)
        swing = GAIT_ORDER[(k - 1) % 4]
        placed = _place_foot(maps, pose, swing)
        if placed is not None:
            feet[swing] = placed
        touch = None if probe is None else probe(k, pose)
        touching = feet if touch is None else {**feet, touch[0]: touch[1]}
        records.append(_record_step(maps, k, pose, prev, touching, noise, rng))
        prev = pose
    return WalkLog(start_pose=start, init_prior=start, records=records)


def simulate_walk(maps: MapSet, waypoints, gait: GaitParams, noise: NoiseSpec, seed: int) -> WalkLog:
    """Walk the waypoint polyline and log every four-support phase."""
    return _walk(maps, *_path_samples(waypoints, gait.step_length), gait, noise, seed)


def probe_steps(step_length: float) -> int:
    """Steps of the wall probe's PROBE_WALK_LENGTH lateral walk; a step too
    long to leave one raises."""
    n = int(round(PROBE_WALK_LENGTH / step_length))
    if n < 1:
        raise ValueError(f"step_length {step_length} m leaves the {PROBE_WALK_LENGTH} m wall probe without a step")
    return n


def probe_scenario(maps: MapSet, gait: GaitParams, noise: NoiseSpec, seed: int) -> WalkLog:
    """Lateral wall-probing walk: side-steps toward the side wall, facing the
    front wall, with the RF leg alternating front and side probes.

    The filter prior is the true start pose shifted by PROBE_PRIOR_OFFSET in
    world coordinates, so the scripted contacts must pull the estimate back.
    """
    n = probe_steps(gait.step_length)
    x0, y0 = PROBE_START_XY
    xys = np.column_stack([np.full(n + 1, x0), y0 - np.arange(n + 1) * gait.step_length])

    def probe(k, pose):
        if k % 2 == 1:
            target = np.array([WALL_ROOM_WALL_X, pose.position[1] - FOOT_DY, PROBE_HEIGHT])
        else:
            target = np.array([pose.position[0] + FOOT_DX, WALL_ROOM_WALL_Y, PROBE_HEIGHT])
        return ("RF", target) if np.linalg.norm(target - pose.position) <= PROBE_REACH else None

    log = _walk(maps, xys, np.zeros(n + 1), gait, noise, seed, probe)
    log.init_prior = Pose(log.start_pose.position + np.asarray(PROBE_PRIOR_OFFSET, dtype=float), log.start_pose.quat)
    return log


def classify_log(log: WalkLog, model) -> WalkLog:
    """Label, in place, every contact that has a force signal with a terrain
    classifier's class probabilities: model is anything with predict(signal)
    -> probs. A contact without a signal, a foot on an unlabeled cell, stays
    unlabeled. A log without force signals raises."""
    if not log.has_signals:
        raise ValueError("the walk log holds no force signals to classify")
    for rec in log.records:
        rec.contacts = [
            c if signal is None else ContactMeasurement(c.offset, model.predict(signal), c.in_contact)
            for c, signal in zip(rec.contacts, rec.signals)
        ]
    return log


WALKLOG_VERSION = "2"

_POSE_COLS = ("x", "y", "z", "qx", "qy", "qz", "qw")


def _walklog_header() -> str:
    cols = ["k", "t"]
    cols += [f"true_{c}" for c in _POSE_COLS]
    cols += [f"odo_{c}" for c in _POSE_COLS]
    cols += ["cov_x", "cov_y", "cov_z", "cov_roll", "cov_pitch", "cov_yaw"]
    cols += ["tilt_roll", "tilt_pitch"]
    for label in FOOT_LABELS:
        cols += [
            f"{label}_off_x",
            f"{label}_off_y",
            f"{label}_off_z",
            f"{label}_contact",
            f"{label}_world_z",
            f"{label}_class",
            f"{label}_signal",
        ]
    return ",".join(cols)


def _write_walklog(log: WalkLog, f, signal_refs=None) -> None:
    g = lambda v: format(v, ".17g")
    f.write(f"# walklog {WALKLOG_VERSION}\n")
    f.write("# start_pose " + " ".join(g(v) for v in log.start_pose.to_array()) + "\n")
    f.write("# init_prior " + " ".join(g(v) for v in log.init_prior.to_array()) + "\n")
    f.write(_walklog_header() + "\n")
    for i, r in enumerate(log.records):
        row = [str(r.k), g(r.timestamp)]
        row += [g(v) for v in r.true_pose.to_array()]
        row += [g(v) for v in r.odom_increment.to_array()]
        row += [g(v) for v in r.odom_cov_diag]
        row += [g(v) for v in r.tilt]
        for j, contact in enumerate(r.contacts):
            row += [g(v) for v in contact.offset]
            row.append("1" if contact.in_contact else "0")
            row.append(g(r.true_foot_world[j, 2]))
            row.append(str(int(r.true_class_ids[j])))
            row.append(signal_refs[i][j] if signal_refs else "")
        f.write(",".join(row) + "\n")


def save_walklog(log: WalkLog, path, signals_dir: str | None = None) -> None:
    """Write the walk log CSV; signals go to companion per-step CSV files when
    signals_dir is given (stored relative to the log)."""
    refs = None
    base = os.path.dirname(os.path.abspath(path))
    if signals_dir is not None:
        os.makedirs(os.path.join(base, signals_dir), exist_ok=True)
        refs = []
        for r in log.records:
            row = []
            for label, signal in zip(FOOT_LABELS, r.signals):
                if signal is None:
                    row.append("")
                    continue
                rel = os.path.join(signals_dir, f"sig_{r.k:05d}_{label}.csv")
                save_signal(signal, os.path.join(base, rel))
                row.append(rel)
            refs.append(row)
    with open(path, "w") as f:
        _write_walklog(log, f, refs)


def walklog_hash(log: WalkLog) -> str:
    """Content hash of the canonical CSV serialization, signal files excluded."""
    buf = io.StringIO()
    _write_walklog(log, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


_SIGNAL_HEADER = "fx,fy,fz,tx,ty,tz"


def save_signal(signal: StepSignal, path) -> None:
    with open(path, "w") as f:
        f.write(_SIGNAL_HEADER + "\n")
        for row in signal.samples:
            f.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_signal(path) -> StepSignal:
    columns = _SIGNAL_HEADER.split(",")
    rows = [parse_fields(line.split(","), columns, where) for where, line in data_lines(path) if line != _SIGNAL_HEADER]
    if not rows:
        raise ValueError(f"{path}: signal file has no samples")
    return StepSignal(np.array(rows))


_CONTACT_FLAGS = {"1": True, "0": False}


def load_walklog(path, load_signals: bool = False) -> WalkLog:
    base = os.path.dirname(os.path.abspath(path))
    columns = _walklog_header().split(",")
    poses = {}
    records = []
    with open(path) as f:
        lines = f.readlines()
    first = lines[0].split() if lines else []
    version = first[2] if len(first) == 3 and first[:2] == ["#", "walklog"] else None
    if version is None:
        raise ValueError(f"{path}: walk log version line missing, expected '# walklog {WALKLOG_VERSION}' first")
    if version != WALKLOG_VERSION:
        raise ValueError(f"{path}: walk log version {version}, this reader reads version {WALKLOG_VERSION}")
    header_seen = False
    for ln, line in enumerate(lines, start=1):
        s = line.strip()
        where = f"{path}:{ln}"
        if not s:
            continue
        if s.startswith(("# start_pose", "# init_prior")):
            name, *values = s.split()[1:]
            if len(values) != 7:
                raise ValueError(f"{where}: {name} needs 7 values, got {len(values)}")
            poses[name] = Pose.from_array([parse_field(v, float, where, f"{name}[{i}]") for i, v in enumerate(values)])
            continue
        if s.startswith("#"):
            continue
        if not header_seen:
            if s != ",".join(columns):
                raise ValueError(f"{where}: unexpected walk log header")
            header_seen = True
            continue
        parts = s.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"{where}: expected {len(columns)} fields, got {len(parts)}")

        def field(i, parse=float):
            return parse_field(parts[i], parse, where, columns[i])

        k, t = field(0, int), field(1)
        true_pose = Pose.from_array([field(i) for i in range(2, 9)])
        odom = Pose.from_array([field(i) for i in range(9, 16)])
        cov = np.array([field(i) for i in range(16, 22)])
        tilt = (field(22), field(23))
        contacts, worlds, classes, signals = [], [], [], []
        for j in range(len(FOOT_LABELS)):
            o = 24 + 7 * j
            vec = np.array([field(i) for i in range(o, o + 3)])
            in_contact = field(o + 3, _CONTACT_FLAGS.__getitem__)
            world_z = field(o + 4)
            cid = field(o + 5, parse_class_id)
            ref = parts[o + 6]
            contacts.append(ContactMeasurement(vec, in_contact=in_contact))
            world = true_pose.position + quat_rotate(true_pose.quat, vec)
            worlds.append([world[0], world[1], world_z])
            classes.append(cid)
            signals.append(load_signal(os.path.join(base, ref)) if load_signals and ref else None)
        records.append(
            StepRecord(
                k, t, true_pose, odom, cov, tilt, contacts, np.array(worlds), np.array(classes, dtype=np.uint8), signals
            )
        )
    if set(poses) != {"start_pose", "init_prior"} or not header_seen:
        raise ValueError(f"{path}: missing walk log header lines")
    if not records:
        raise ValueError(f"{path}: walk log has no step rows")
    return WalkLog(start_pose=poses["start_pose"], init_prior=poses["init_prior"], records=records)
