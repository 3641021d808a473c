"""Synthetic courses, a crawl-gait walker, contact signal synthesis, walk logs.

The walker advances the base STEP_LENGTH per four-support phase and
repositions one leg per phase in crawl order LF -> RH -> RF -> LH. Every phase
logs the true pose, a noisy odometry increment (white noise plus an unreported
deterministic z/yaw bias, so raw odometry drifts), and one contact per foot
with its base-frame offset. True foot heights come from the elevation layer, so
a logged contact's world z equals the map height under it exactly. On a course
with a class layer, every foot on a labeled cell also logs a force signal of
its cell's class; a foot on an unlabeled cell logs none. A signal is its
class's noise-free template plus fresh white noise; the template of each
(class, length) is built once and shared read-only (_signal_template).
A walk's layers, signals and log (WalkLog, of columns) are read-only once
built: classify_log returns a new log.

The walker (_walk) computes a walk's geometry over arrays: the base poses,
the foot placements, the contact offsets and the true increments of every
phase at once, with geometry.py's row forms and one map lookup per layer.
Then one loop makes each phase's draws from the walk's generator in phase
order, and the odometry increments are computed last, so a walk draws what
a pose-by-pose walk would draw, in the same order, into the log's columns.

Every phase also logs the base's roll and pitch, the attitude an IMU observes
against gravity, which the filter takes as given. The IMU tilt is modelled as
exact: the simulator logs the true base attitude, with no noise. Every course
here is walked level, so both are 0.

Walk log format (save_walklog, load_walklog): the version line "# walklog 2",
a "# start_pose" and an "# init_prior" (the filter prior) line, each with a
pose's geometry.POSE_COLUMNS, then a CSV header line and one row per step.
_COLUMNS, beside save_walklog, is the one definition of the rows' columns: the
header, the row format and the reader all follow it.
A signal file is a CSV with the header "fx,fy,fz,tx,ty,tz" and one sample
per row. Both are read with fields.parse_field: a field that does not parse,
or is not finite, raises an error naming the file, the line and the field.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from .classifier import StepSignal
from .fields import build, data_lines, parse_field, parse_fields
from .geometry import (
    FOOT_LABELS,
    POSE_COLUMNS,
    Pose,
    compose,
    quat_conjugate_rows,
    quat_from_rotvec_rows,
    quat_mul_rows,
    quat_rotate_rows,
    quat_to_euler,
    unit_quat_rows,
)
from .maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    class_at_many,
    check_class_ids,
    elevation_at_many,
    parse_class_id,
)

GAIT_ORDER = ("LF", "RH", "RF", "LH")

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
N_TERRAIN_CLASSES = len(CLASS_SIGNAL_PARAMS)

SIGNAL_LENGTH_RANGE = (40, 120)

FOOT_DX = 0.3  # half the 0.6 m foot rectangle, along the body
FOOT_DY = 0.2  # half the 0.4 m rectangle, across the body
PHASE_DT = 1.0  # seconds per four-support phase, the walk log's timestamps
STEP_LENGTH = 0.05  # metres the base advances per phase
STANDING_HEIGHT = 0.5  # the base's height above the map under it


def nominal_offset(label: str) -> np.ndarray:
    """A foot's standing offset from the base, in the base frame."""
    sx = 1.0 if label in ("LF", "RF") else -1.0
    sy = 1.0 if label in ("LF", "LH") else -1.0
    return np.array([sx * FOOT_DX, sy * FOOT_DY, 0.0])


@dataclass(frozen=True)
class NoiseSpec:
    """Odometry corruption: reported white noise, kept as 6 floats, plus unreported per-step bias."""

    white_std: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    z_bias: float = 0.0
    yaw_bias: float = 0.0
    outlier_prob: float = 0.0

    def __post_init__(self):
        white = np.asarray(self.white_std, dtype=float)
        if not (white.shape == (6,) and np.isfinite(white).all() and (white >= 0.0).all()):
            raise ValueError(f"white_std must hold 6 finite values that are not negative, got {self.white_std}")
        object.__setattr__(self, "white_std", tuple(white.tolist()))
        for name in ("z_bias", "yaw_bias"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError(f"outlier_prob must lie in [0, 1], got {self.outlier_prob}")

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
        if self.kind not in COURSES:
            raise ValueError(f"unknown course kind {self.kind!r}, expected one of {tuple(COURSES)}")
        if not 0.0 < self.resolution < np.inf:
            raise ValueError(f"course resolution must be finite and positive, got {self.resolution}")
        for axis, size in zip("xy", COURSES[self.kind].extent):
            if round(size / self.resolution) < 1:
                raise ValueError(
                    f"course resolution {self.resolution} leaves the {size} m {axis} extent "
                    f"of a {self.kind} course without a cell"
                )
        if not self.seed >= 0:
            raise ValueError(f"course seed must be a non-negative integer, got {self.seed}")


def _cell_axes(extent, res):
    """The x and the y of a lattice's cell centres, from the origin (0, 0):
    round(size / res) cells along each axis of extent. A builder computes on
    these axes, and makes a full-grid array only for the layers it returns
    and for a feature that varies along both axes."""
    return tuple((np.arange(round(size / res)) + 0.5) * res for size in extent)


CHEVRON_SIZE = (7.0, 3.0)
CHEVRON_RAMP_DEG = 12.0
CHEVRON_HEIGHT = 0.13
CHEVRON_PERIOD = 0.26
CHEVRON_STRIP_X = 1.5  # strip segments: ramp 1.0, blocks 1.0, chevrons 1.2, ramp 1.0
CHEVRON_STRIP_Y = (0.2, 1.6)
CHEVRON_BLOCK = 0.25
CHEVRON_BLOCK_HMAX = 0.10
CHEVRON_TILT = 0.025  # gentle cross slope so lateral position is observable early

# the chevron experiment's loop, walked twice: both long legs cross the
# feature strip so drift never builds for long
CHEVRON_WAYPOINTS = ((1.0, 0.7), (6.2, 0.7), (6.2, 1.3), (1.0, 1.3)) * 2


def _chevron_course(spec: CourseSpec) -> MapSet:
    res = spec.resolution
    xs, ys = _cell_axes(CHEVRON_SIZE, res)
    h = np.zeros((len(ys), len(xs)))

    slope = np.tan(np.radians(CHEVRON_RAMP_DEG))
    plateau = slope * 1.0
    x0 = CHEVRON_STRIP_X
    y_lo, y_hi = CHEVRON_STRIP_Y
    yc = 0.5 * (y_lo + y_hi)
    # every feature spans the strip's rows: one column over them, and a
    # rectangle of h per feature
    strip = (ys >= y_lo) & (ys < y_hi)
    tilt = CHEVRON_TILT * (ys[strip] - y_lo)[:, None]
    level = plateau + tilt

    up = (xs >= x0) & (xs < x0 + 1.0)
    h[np.ix_(strip, up)] = slope * (xs[up] - x0) + tilt

    # random block field first: non-repeating, so the filter can lock on
    # before it meets the periodic chevron section. block_h spans the
    # lattice's largest block indices, which set how many heights are drawn
    rng = np.random.default_rng(spec.seed)
    blocks = (xs >= x0 + 1.0) & (xs < x0 + 2.0)
    bi = np.floor((xs - (x0 + 1.0)) / CHEVRON_BLOCK).astype(int)
    bj = np.floor((ys - y_lo) / CHEVRON_BLOCK).astype(int)
    block_h = rng.uniform(0.0, CHEVRON_BLOCK_HMAX, size=(int(bj.max()) + 1, int(bi.max()) + 1))
    h[np.ix_(strip, blocks)] = level + block_h[np.ix_(bj[strip], bi[blocks])]

    # chevron ridges: triangular profile along u, folded about the strip axis
    chev = (xs >= x0 + 2.0) & (xs < x0 + 3.2)
    u = (xs[chev] - (x0 + 2.0)) + np.abs(ys[strip] - yc)[:, None]
    m = np.mod(u, CHEVRON_PERIOD)
    tent = CHEVRON_HEIGHT * (1.0 - np.abs(2.0 * m / CHEVRON_PERIOD - 1.0))
    h[np.ix_(strip, chev)] = level + tent

    down = (xs >= x0 + 3.2) & (xs < x0 + 4.2)
    h[np.ix_(strip, down)] = level * (1.0 - (xs[down] - (x0 + 3.2)) / 1.0)

    return MapSet(elevation=ElevationGrid(res, (0.0, 0.0), h))


TILES_SIZE = (7.0, 3.5)
TILES_PLATFORM_X = (3.0, 5.0)  # ramp up, 1 m top, ramp down
TILES_PLATFORM_Y = (1.25, 2.25)
TILES_PLATFORM_H = 0.20
TILES_RAMP_LEN = 0.5

# the tiles experiment's walk: four legs along x, two over the platform
TILES_WAYPOINTS = ((0.6, 0.6), (6.4, 0.6), (6.4, 1.75), (0.6, 1.75), (0.6, 2.9), (6.4, 2.9), (6.4, 1.75), (0.6, 1.75))


def _tiles_course(spec: CourseSpec) -> MapSet:
    size_x, size_y = TILES_SIZE
    res = spec.resolution
    xs, ys = _cell_axes(TILES_SIZE, res)

    h = np.zeros((len(ys), len(xs)))
    px0, px1 = TILES_PLATFORM_X
    py0, py1 = TILES_PLATFORM_Y
    on_y = (ys >= py0) & (ys < py1)
    up = (xs >= px0) & (xs < px0 + TILES_RAMP_LEN)
    top = (xs >= px0 + TILES_RAMP_LEN) & (xs < px1 - TILES_RAMP_LEN)
    down = (xs >= px1 - TILES_RAMP_LEN) & (xs < px1)
    h[np.ix_(on_y, up)] = TILES_PLATFORM_H * (xs[up] - px0) / TILES_RAMP_LEN
    h[np.ix_(on_y, top)] = TILES_PLATFORM_H
    h[np.ix_(on_y, down)] = TILES_PLATFORM_H * (px1 - xs[down]) / TILES_RAMP_LEN

    # 1 x 1 m material tiles; a seeded assignment that uses every class
    n_tx, n_ty = int(np.ceil(size_x)), int(np.ceil(size_y))
    rng = np.random.default_rng(spec.seed)
    tile_class = rng.integers(0, N_TERRAIN_CLASSES, size=(n_ty, n_tx))
    order = rng.permutation(n_tx * n_ty)[:N_TERRAIN_CLASSES]
    tile_class.flat[order] = np.arange(N_TERRAIN_CLASSES)
    ti = np.clip(np.floor(xs).astype(int), 0, n_tx - 1)
    tj = np.clip(np.floor(ys).astype(int), 0, n_ty - 1)
    ids = tile_class.astype(np.uint8)[np.ix_(tj, ti)]

    return MapSet(
        elevation=ElevationGrid(res, (0.0, 0.0), h),
        class_grid=ClassGrid(res, (0.0, 0.0), ids, N_TERRAIN_CLASSES),
    )


# the wall room's scripted walk (probe_scenario): base start, lateral
# walk length and its count of steps, the probing leg's reach from the base
# and its probe height, and the offset of the filter prior from the true
# start pose
PROBE_START_XY = (1.4, 0.2)
PROBE_WALK_LENGTH = 2.0
PROBE_STEPS = round(PROBE_WALK_LENGTH / STEP_LENGTH)  # 40
PROBE_REACH = 0.8
PROBE_HEIGHT = 0.3
PROBE_PRIOR_OFFSET = (0.10, 0.10, 0.0)

# the wall room: floor extent, the two wall planes, wall height,
# cloud point spacing, and the flat grid border around the floor
WALL_ROOM_FLOOR_X = (-0.5, 2.0)
WALL_ROOM_FLOOR_Y = (-2.0, 1.0)
WALL_ROOM_WALL_X = 2.0  # probing wall plane, faces the robot
WALL_ROOM_WALL_Y = -2.0  # side wall reached late in the lateral walk
WALL_ROOM_WALL_HEIGHT = 0.8
WALL_ROOM_SPACING = 0.02
WALL_ROOM_MARGIN = 0.5
WALL_ROOM_SIZE = tuple(hi - lo + 2 * WALL_ROOM_MARGIN for lo, hi in (WALL_ROOM_FLOOR_X, WALL_ROOM_FLOOR_Y))


def _wall_room_course(spec: CourseSpec) -> MapSet:
    """The wall room does not depend on the seed, so its layers are built
    once per resolution and shared by every seed (_wall_room_maps)."""
    return _wall_room_maps(spec.resolution)


@functools.lru_cache(maxsize=4)
def _wall_room_maps(res: float) -> MapSet:
    """The wall room at one resolution. Every caller shares its layers, and
    with them the nodes of the cloud's distance field that earlier filters
    filled; the layers are read-only, as every map layer is."""
    (x0, x1), (y0, y1), m = WALL_ROOM_FLOOR_X, WALL_ROOM_FLOOR_Y, WALL_ROOM_MARGIN
    n_cols, n_rows = (round(size / res) for size in WALL_ROOM_SIZE)
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

    return MapSet(elevation=elevation, cloud=PointCloudMap(np.vstack([floor, front, side])))


@dataclass(frozen=True)
class CourseKind:
    """Everything that makes a course kind: the builder of its map layers,
    the layers it makes, the x and y extent in metres of its lattice
    (round(extent / resolution) cells each), and its default experiment's
    plain settings (evaluate.default_experiment). Waypoints None make its
    default walk the wall room's probe walk (probe_scenario), whose PROBE_*
    constants fit the wall room's geometry only: a kind with a scripted
    walk of its own needs a new field here that names its walker."""

    builder: Callable[[CourseSpec], MapSet]
    layers: tuple
    extent: tuple
    experiment: str
    waypoints: tuple | None
    noise: NoiseSpec
    modes: tuple


# one entry per course kind. A course directory names its kind, so two
# kinds may share a builder and layers.
COURSES = {
    # uneven-terrain loop with drifting odometry; geometry-only localization
    "chevron-ramp": CourseKind(
        _chevron_course, ("elevation",), CHEVRON_SIZE,
        experiment="chevron", waypoints=CHEVRON_WAYPOINTS, modes=("HL-G",),
        noise=NoiseSpec(white_std=(0.004, 0.004, 0.003, 0.0004, 0.0004, 0.002), z_bias=0.0015, yaw_bias=0.0003),
    ),
    # material-tile field: geometry, geometry+class, and class-only modes
    "class-tiles": CourseKind(
        _tiles_course, ("elevation", "class"), TILES_SIZE,
        experiment="class-tiles", waypoints=TILES_WAYPOINTS, modes=("HL-G", "HL-GC", "HL-C"),
        noise=NoiseSpec(white_std=(0.004, 0.004, 0.003, 0.0004, 0.0004, 0.002), z_bias=0.0015, yaw_bias=0.0006),
    ),
    # flat room with two walls, offset prior, scripted probing; 3D cloud mode
    "wall-room": CourseKind(
        _wall_room_course, ("elevation", "cloud"), WALL_ROOM_SIZE,
        experiment="wall-room", waypoints=None, modes=("HL-3D",),
        noise=NoiseSpec(white_std=(0.005, 0.005, 0.002, 0.0003, 0.0003, 0.001)),
    ),
}


def generate_course(spec: CourseSpec) -> MapSet:
    """Build the named course's map layers, deterministic in the seed."""
    return COURSES[spec.kind].builder(spec)


def sample_signal_length(rng: np.random.Generator) -> int:
    lo, hi = SIGNAL_LENGTH_RANGE
    return int(rng.integers(lo, hi + 1))


@functools.lru_cache(maxsize=N_TERRAIN_CLASSES * (SIGNAL_LENGTH_RANGE[1] - SIGNAL_LENGTH_RANGE[0] + 1))
def _signal_template(class_id: int, n_samples: int):
    """(template (n_samples, 6), sigma (6,)) of a class: the noise-free signal
    and the per-channel noise std, both read-only since callers share them."""
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
    cols.flags.writeable = False
    sigma.flags.writeable = False
    return cols, sigma


def synth_force_signal(class_id: int, n_samples: int, rng: np.random.Generator) -> StepSignal:
    """Class-conditioned damped-oscillation force/torque signal: the class
    template plus white noise at 6% of each channel's amplitude, for a class
    id of N_TERRAIN_CLASSES checked by maps.check_class_ids (1.7 raises)."""
    class_id = check_class_ids(class_id, N_TERRAIN_CLASSES)
    if n_samples < 1:
        raise ValueError("signal needs at least one sample")
    template, sigma = _signal_template(class_id, int(n_samples))
    return StepSignal(template + rng.standard_normal((n_samples, 6)) * sigma)


@dataclass(frozen=True, eq=False)
class WalkLog:
    """A walk: its start pose, the filter prior, one column per field of a
    step (README), the steps on the leading axis, made read-only in place;
    once labeled, class_probs (m, feet, C), nan where a contact had no force
    signal; signals, a read-only map of (row, foot) to the StepSignal of each
    contact that has one."""

    start_pose: Pose
    init_prior: Pose
    k: np.ndarray
    t: np.ndarray
    true_pose: np.ndarray
    odometry: np.ndarray
    cov_diag: np.ndarray
    tilt: np.ndarray
    offsets: np.ndarray
    in_contact: np.ndarray
    foot_world: np.ndarray
    class_ids: np.ndarray
    class_probs: np.ndarray | None = None
    signals: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self)[2:-1]:  # the columns, class_probs last
            if getattr(self, f.name) is not None:
                column = np.asarray(getattr(self, f.name))
                column.flags.writeable = False
                object.__setattr__(self, f.name, column)
        object.__setattr__(self, "signals", MappingProxyType(dict(self.signals)))

    @property
    def n_steps(self) -> int:
        return len(self.k)

    def true_poses(self) -> list:
        return [self.start_pose] + [Pose(p[:3], p[3:]) for p in self.true_pose]

    def timestamps(self) -> np.ndarray:
        return np.concatenate([[0.0], self.t])

    def odometry_poses(self) -> list:
        """Dead-reckoned trajectory: composed increments from the prior mean."""
        pose = self.init_prior
        out = [pose]
        for row in self.odometry:
            pose = compose(pose, Pose(row[:3], row[3:]))
            out.append(pose)
        return out


def check_waypoints(waypoints) -> np.ndarray:
    """The waypoints as an (n >= 2, 2) float array of finite values, no
    waypoint equal to the one before it, spanning at least one STEP_LENGTH;
    the map is checked when walked."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim != 2 or wp.shape[1] != 2 or len(wp) < 2:
        raise ValueError(f"waypoints must be an (n>=2, 2) array, got shape {wp.shape}")
    if not np.isfinite(wp).all():
        raise ValueError("waypoints must be finite")
    seg_len = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    if np.any(seg_len == 0.0):
        raise ValueError("duplicate consecutive waypoints")
    total = seg_len.sum()
    if total < (1.0 - 1e-9) * STEP_LENGTH:  # _path_samples counts steps to 1e-9 of a step
        raise ValueError(f"waypoints span {total:.6g} m, shorter than one {STEP_LENGTH} m step")
    return wp


def _path_samples(waypoints):
    """Positions and headings every STEP_LENGTH metres along a polyline."""
    wp = check_waypoints(waypoints)
    seg = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    n = int(np.floor(total / STEP_LENGTH + 1e-9))
    s = np.minimum(np.arange(n + 1) * STEP_LENGTH, total)
    i = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
    f = (s - cum[i]) / seg_len[i]
    # each segment's heading by a scalar np.arctan2, as the path has always
    # been sampled: an array arctan2 may round differently in the last bit
    headings = np.array([np.arctan2(dy, dx) for dx, dy in seg])
    return wp[i] + f[:, None] * seg[i], headings[i]


# the standing offset of each foot, in FOOT_LABELS order, and the foot that
# swings on each phase, as indices into it
_NOMINAL = np.array([nominal_offset(label) for label in FOOT_LABELS])
_SWING = np.array([FOOT_LABELS.index(label) for label in GAIT_ORDER])


def _walk(maps, xys, yaws, noise, seed, probe=None):
    """The one walker: stand at base position 0, then log a four-support
    phase at each later base position, swinging one leg per phase in crawl
    order; a swing foot that would land off the map stays where it stood.
    probe(base) takes every base position (n, 3) and returns (label, world,
    touching): on each phase k with touching[k], foot label touches world[k],
    a point off the floor, and stands where it stood again on the next phase.
    The log's prior is the true start pose.

    The geometry is computed over the whole walk, and checked, before the
    walk's generator makes its first draw: every base, of which the first
    off the map raises, then the start feet in FOOT_LABELS order. Only a
    force signal's class raises within the draws (synth_force_signal).
    """
    base_z = elevation_at_many(maps.elevation, xys.T)
    off = np.isnan(base_z)
    if off.any():
        x, y = xys[off.argmax()].tolist()
        raise ValueError(f"walk path leaves the map at xy=({round(x, 3)}, {round(y, 3)})")
    n = len(xys)
    base = np.column_stack([xys, base_z + STANDING_HEIGHT])
    half = (yaws / 2.0).tolist()
    quat = np.zeros((n, 4))
    quat[:, 2] = [math.sin(h) for h in half]
    quat[:, 3] = [math.cos(h) for h in half]

    # every foot placement: the four feet of the start, then the swing foot
    # of each later phase; a phase's foot stands on its latest placement
    at = np.concatenate([np.zeros(4, dtype=np.intp), np.arange(1, n)])
    foot = np.concatenate([np.arange(4), _SWING[np.arange(n - 1) % 4]])
    placed = base[at] + quat_rotate_rows(quat[at], _NOMINAL[foot])
    placed[:, 2] = elevation_at_many(maps.elevation, placed[:, :2].T)
    for label, z in zip(FOOT_LABELS, placed[:4, 2].tolist()):
        if math.isnan(z):
            raise ValueError(f"foot {label} starts off the map")
    latest = np.full((n, 4), -1)
    landed = np.flatnonzero(~np.isnan(placed[:, 2]))
    latest[at[landed], foot[landed]] = landed
    np.maximum.accumulate(latest, axis=0, out=latest)
    world = placed[latest[1:]]
    if probe is not None:
        label, target, touching = probe(base)
        touched = np.flatnonzero(touching[1:])
        world[touched, FOOT_LABELS.index(label)] = target[touched + 1]

    # each phase's contact offsets and true increment from the phase before
    m = n - 1
    to_base = np.repeat(quat_conjugate_rows(quat[1:]), 4, axis=0)
    offsets = quat_rotate_rows(to_base, (world - base[1:, None]).reshape(-1, 3)).reshape(m, 4, 3)
    class_ids = np.full((m, 4), UNKNOWN_CLASS, dtype=np.uint8)
    if maps.class_grid is not None:
        class_ids = class_at_many(maps.class_grid, np.moveaxis(world[..., :2], -1, 0))
    # the true increment is compose(inverse(prev), pose)
    back = quat_conjugate_rows(quat[:-1])
    incr_pos = -quat_rotate_rows(back, base[:-1]) + quat_rotate_rows(back, base[1:])
    incr_quat = quat_mul_rows(back, quat[1:])

    rng = np.random.default_rng(seed)
    draws = np.empty((m, 6))
    signals = {}
    classes = class_ids.tolist()
    for j in range(m):
        draws[j] = rng.standard_normal(6)
        for i, class_id in enumerate(classes[j]):
            if noise.outlier_prob > 0.0 and rng.random() < noise.outlier_prob:
                offsets[j, i, 2] += OUTLIER_SHIFT * (1.0 if rng.random() < 0.5 else -1.0)
            if class_id != UNKNOWN_CLASS:
                signals[j, i] = synth_force_signal(class_id, sample_signal_length(rng), rng)

    # the odometry increments: each true increment composed with the small
    # pose of its noise and bias
    white = np.array(noise.white_std)
    delta = white * draws + noise.bias_vector()
    odom_pos = incr_pos + quat_rotate_rows(incr_quat, delta[:, :3])
    odom_quat = quat_mul_rows(incr_quat, quat_from_rotvec_rows(delta[:, 3:]))

    true = np.column_stack([base, unit_quat_rows(quat)])
    start = Pose(true[0, :3], true[0, 3:])
    k = np.arange(1, n)
    return WalkLog(start, start, k, k * PHASE_DT, true[1:], np.column_stack([odom_pos, unit_quat_rows(odom_quat)]),
                   np.broadcast_to(white**2, (m, 6)), np.array([quat_to_euler(q)[:2] for q in true[1:, 3:]]),
                   offsets, np.ones((m, len(FOOT_LABELS)), dtype=bool), world, class_ids, signals=signals)


def simulate_walk(maps: MapSet, waypoints, noise: NoiseSpec, seed: int) -> WalkLog:
    """Walk the waypoint polyline and log every four-support phase."""
    return _walk(maps, *_path_samples(waypoints), noise, seed)


def probe_scenario(maps: MapSet, noise: NoiseSpec, seed: int) -> WalkLog:
    """Lateral wall-probing walk: side-steps toward the side wall, facing the
    front wall, with the RF leg alternating front and side probes.

    The filter prior is the true start pose shifted by PROBE_PRIOR_OFFSET in
    world coordinates, so the scripted contacts must pull the estimate back.
    """
    x0, y0 = PROBE_START_XY
    xys = np.column_stack([np.full(PROBE_STEPS + 1, x0), y0 - np.arange(PROBE_STEPS + 1) * STEP_LENGTH])

    def probe(base):
        # the front wall on odd phases, the side wall on even ones
        front = np.column_stack([np.full(len(base), WALL_ROOM_WALL_X), base[:, 1] - FOOT_DY])
        side = np.column_stack([base[:, 0] + FOOT_DX, np.full(len(base), WALL_ROOM_WALL_Y)])
        odd = (np.arange(len(base)) % 2 == 1)[:, None]
        target = np.column_stack([np.where(odd, front, side), np.full(len(base), PROBE_HEIGHT)])
        return "RF", target, np.linalg.norm(target - base, axis=1) <= PROBE_REACH

    log = _walk(maps, xys, np.zeros(PROBE_STEPS + 1), noise, seed, probe)
    start = log.start_pose
    return replace(log, init_prior=Pose(start.position + np.asarray(PROBE_PRIOR_OFFSET, dtype=float), start.quat))


def classify_log(log: WalkLog, model) -> WalkLog:
    """A new log: log with every contact that has a force signal labeled with
    a terrain classifier's class probabilities, and without the signals,
    which nothing reads after labeling; log itself is left as it was. model
    is anything with predict(signals) -> (K, C) probs, called once with the
    walk's signals. A log without signals raises, as does a model that
    returns other than one row per signal, or a row a ContactMeasurement
    refuses."""
    if not log.signals:
        raise ValueError("the walk log holds no force signals to classify")
    probs, n = np.array(model.predict(list(log.signals.values())), dtype=float), len(log.signals)
    if len(probs) != n:
        raise ValueError(f"the classifier returned {len(probs)} rows of class probabilities for {n} signals")
    if probs.ndim != 2 or not probs.shape[1]:
        raise ValueError(f"class_probs must be a non-empty 1-D vector, got shape {probs.shape[1:]}")
    refused = ~((0.0 <= probs) & (probs < math.inf)).all(axis=1)  # nan fails both compares
    if refused.any():
        raise ValueError(f"class_probs must be finite and non-negative, got {probs[refused.argmax()]}")
    column = np.full((*log.in_contact.shape, probs.shape[1]), np.nan)
    column[tuple(np.transpose(list(log.signals)))] = probs
    return replace(log, class_probs=column, signals={})


WALKLOG_VERSION = "2"

# a step's columns: k, the step index, and t, its timestamp (k * PHASE_DT
# seconds); then, in groups named "<group>_<column>", the true base pose in the
# world, the odometry increment from the previous step's base, the diagonal of
# the reported odometry covariance, and the base's roll and pitch in radians
_STEP_GROUPS = {"true": POSE_COLUMNS, "odo": POSE_COLUMNS, "cov": ("x", "y", "z", "roll", "pitch", "yaw"),
                "tilt": ("roll", "pitch")}
_STEP_COLUMNS = ("k", "t", *(f"{group}_{c}" for group, names in _STEP_GROUPS.items() for c in names))
# each foot's columns, named "<foot>_<column>": the contact point in the base
# frame; 1 for a foot in contact, 0 for a lifted one; the contact's true world
# z; the true class id of its cell, 255 for none (no class layer, or an
# unlabeled cell); its force signal file, relative to the log, or empty
_FOOT_COLUMNS = ("off_x", "off_y", "off_z", "contact", "world_z", "class", "signal")
_COLUMNS = _STEP_COLUMNS + tuple(f"{label}_{c}" for label in FOOT_LABELS for c in _FOOT_COLUMNS)

# each field's format and parser: a float to 17 digits, exact on reload, but for these
_KINDS = {"k": ("%d", lambda text: np.int64(int(text))), "contact": ("%d", {"1": True, "0": False}.__getitem__),
          "class": ("%d", parse_class_id), "signal": ("%s", str)}
_FIELDS = [_KINDS.get(c, ("%.17g", float)) for c in _STEP_COLUMNS + _FOOT_COLUMNS * len(FOOT_LABELS)]
_WALKLOG_ROW = ",".join(fmt for fmt, _ in _FIELDS) + "\n"


def _signal_ref(signals_dir, k, label) -> str:
    """The signal file of foot label at step k, relative to the log."""
    return os.path.join(signals_dir, f"sig_{k:05d}_{label}.csv")


def _write_walklog(log: WalkLog, f, signals_dir: str | None = None) -> None:
    """The log's text; each signal named under signals_dir, or none without it."""
    f.write(f"# walklog {WALKLOG_VERSION}\n")
    for name in ("start_pose", "init_prior"):
        f.write(" ".join([f"# {name}", *(format(v, ".17g") for v in getattr(log, name).to_array())]) + "\n")
    f.write(",".join(_COLUMNS) + "\n")
    steps = np.column_stack([log.t, log.true_pose, log.odometry, log.cov_diag, log.tilt])
    feet = zip(log.offsets, log.in_contact, log.foot_world[..., 2], log.class_ids)
    for j, (k, step, foot) in enumerate(zip(log.k.tolist(), steps, feet)):
        offsets, touching, world_z, class_ids = (a.tolist() for a in foot)
        row = [k, *step.tolist()]
        for i, label in enumerate(FOOT_LABELS):
            ref = "" if signals_dir is None or (j, i) not in log.signals else _signal_ref(signals_dir, k, label)
            row += (*offsets[i], touching[i], world_z[i], class_ids[i], ref)
        f.write(_WALKLOG_ROW % tuple(row))


def save_walklog(log: WalkLog, path, signals_dir: str | None = None) -> None:
    """Write the walk log CSV; signals go to companion per-step CSV files when
    signals_dir is given (stored relative to the log)."""
    base = os.path.dirname(os.path.abspath(path))
    if signals_dir is not None:
        os.makedirs(os.path.join(base, signals_dir), exist_ok=True)
        for (j, i), signal in log.signals.items():
            save_signal(signal, os.path.join(base, _signal_ref(signals_dir, int(log.k[j]), FOOT_LABELS[i])))
    with open(path, "w") as f:
        _write_walklog(log, f, signals_dir)


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


def load_walklog(path, load_signals: bool = False) -> WalkLog:
    """Read a walk log, and its signal files when load_signals is set.

    It checks the version line; that one "# start_pose" and one "# init_prior"
    line each hold a pose's 7 values, kept as a Pose keeps them; that the
    header lists _COLUMNS; each row's fields, parsed as their columns'
    kinds; and that no two rows share a step index k, or signal file names.
    An error names the file, and the line and the column at fault. Of each
    foot's world point the file holds z: x and y are rebuilt from the true
    pose and the offset (quat_rotate_rows), so they may differ from the
    simulated ones in the last bit; one not finite raises, naming the foot.
    """
    base = os.path.dirname(os.path.abspath(path))
    # the poses; each row's numbers; the line of each row's step index; the
    # signals loaded, by (row, foot)
    poses, rows, lines_of, signals = {}, [], {}, {}
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
            if name in poses:
                raise ValueError(f"{where}: repeated '# {name}' line")
            values = parse_fields(values, [f"{name}_{c}" for c in POSE_COLUMNS], where)
            poses[name] = build(where, Pose, values[:3], values[3:])
            continue
        if s.startswith("#"):
            continue
        if not header_seen:
            if s != ",".join(_COLUMNS):
                raise ValueError(f"{where}: unexpected walk log header")
            header_seen = True
            continue
        parts = s.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"{where}: expected {len(_COLUMNS)} fields, got {len(parts)}")
        v = [parse_field(text, parse, where, c) for text, (_, parse), c in zip(parts, _FIELDS, _COLUMNS)]
        if v[0] in lines_of:
            raise ValueError(f"{where}: column k: step {v[0]} repeats the step of line {lines_of[v[0]]}")
        lines_of[v[0]] = ln
        # the true pose and the odometry increment, each as a Pose keeps it
        for o in (2, 2 + len(POSE_COLUMNS)):
            v[o : o + 7] = build(where, Pose, v[o : o + 3], v[o + 3 : o + 7]).to_array().tolist()
        feet = v[len(_STEP_COLUMNS) :]
        for i, ref in enumerate(feet[len(_FOOT_COLUMNS) - 1 :: len(_FOOT_COLUMNS)]):
            if load_signals and ref:
                signals[len(rows), i] = load_signal(os.path.join(base, ref))
        rows.append(v[1 : len(_STEP_COLUMNS)] + [x for x in feet if not isinstance(x, str)])
    if set(poses) != {"start_pose", "init_prior"} or not header_seen:
        raise ValueError(f"{path}: missing walk log header lines")
    if not rows:
        raise ValueError(f"{path}: walk log has no step rows")

    groups = np.cumsum([1, *map(len, _STEP_GROUPS.values())])
    t, true, odometry, cov_diag, tilt, feet = np.hsplit(np.array(rows), groups)
    feet = feet.reshape(len(rows), len(FOOT_LABELS), -1)  # offset, in contact (1 or 0), world z, class id
    offsets, world = feet[..., :3], np.empty((len(rows), len(FOOT_LABELS), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        turned = quat_rotate_rows(np.repeat(true[:, 3:], len(FOOT_LABELS), axis=0), offsets.reshape(-1, 3))
        world[..., :2] = true[:, None, :2] + turned.reshape(world.shape)[..., :2]
    world[..., 2] = feet[..., 4]
    unbuilt = np.argwhere(~np.isfinite(world).all(axis=2))
    if len(unbuilt):
        j, i = unbuilt[0].tolist()
        x, y = world[j, i, :2].tolist()
        raise ValueError(f"{path}:{list(lines_of.values())[j]}: foot {FOOT_LABELS[i]}: its world x and y, rebuilt "
                         f"from the true pose and its offset, are not finite ({x}, {y})")
    return WalkLog(poses["start_pose"], poses["init_prior"], list(lines_of), t[:, 0], true, odometry, cov_diag, tilt,
                   offsets, feet[..., 3] == 1, world, feet[..., 5].astype(np.uint8), signals=signals)
