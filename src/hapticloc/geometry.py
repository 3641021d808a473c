"""Rigid-body poses as position plus scalar-last unit quaternion.

Quaternions are [qx, qy, qz, qw] everywhere in this package. Tangent vectors
are ordered [dx, dy, dz, droll, dpitch, dyaw] and perturb a pose on the right:
compose(mean, exp(delta)), i.e. noise lives in the body frame of the pose.

Quaternion kernels come in two forms. A single-pose kernel (quat_mul,
quat_rotate, ...) takes one pose and computes in plain floats; the filter's
per-step poses and Pose itself run on them. Each argument is converted
once, by np.asarray(arg, dtype=float).tolist(): the same Python floats as a
float() per element, whose calls cost more than the arithmetic. A row form
(quat_mul_rows, quat_rotate_rows, ...) takes (n, 4) quaternions and (n, 3)
vectors, one pose a row, and computes over the columns; the walker
(sim._walk) runs on them, over every pose of a walk at once. Both forms
keep the operation order of np.cross, np.sum and np.linalg.norm (the tests
keep those numpy forms as oracles). The product and the rotation are each
written once, as a formula over components (_hamilton, _rotate) that the
single-pose kernel evaluates on Python floats and the row form on numpy
columns; +, - and * round alike on both, so a row form's row is
byte-identical to its single-pose kernel's output by construction.
quat_from_rotvec is its row form on one row.

Only +, -, *, / and sqrt run over arrays: they round the same in numpy and
in Python floats. Every sin, cos, atan2 and asin is a math call per pose,
since numpy's array forms of them may round differently in the last bit.
quat_to_rotvec keeps np.arctan2 and the power of an array, which round
differently from math.atan2 and a scalar's ** in the last bit.

Attitude as Euler angles: quat_from_euler and quat_to_euler use the z-y-x
convention of a legged robot's base, R = Rz(yaw) Ry(pitch) Rx(roll), so roll
and pitch are the tilt against gravity and yaw the heading. Per particle, the
filter turns vectors in the plane by each particle's yaw (planar_rotate_add),
writing into arrays it owns.

A Pose has one construction path, and is read-only after it. That path
refuses a non-finite position, keeps, as given, a quaternion whose norm
lies within UNIT_NORM_TOL of 1, and normalizes any other with
quat_normalize, which refuses a zero or non-finite norm. Normalizing is not
idempotent in the last bit, but one quat_normalize leaves a norm within
about 4e-16 of 1, as does a product of unit quaternions, so a Pose built
from another Pose's quaternion, a compose, or a file it was saved to, holds the same bits.
unit_quat_rows is that rule over rows, for the pose columns of a walk log.

Trajectory files hold one line per pose, t and then its POSE_COLUMNS, read
with fields.parse_field: a field that does not parse, or is not finite,
raises an error naming the file, the line and the field.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .fields import build, data_lines, parse_fields

# the feet in the order every step lists its contacts: a contact's foot is its index
FOOT_LABELS = ("LF", "RF", "LH", "RH")

# a quaternion whose norm lies within this of 1 is unit: Pose keeps it as given
UNIT_NORM_TOL = 1e-12


def _quat_norm(x, y, z, w):
    # squares summed in index order as np.linalg.norm sums them; squares that
    # overflow make it inf, and a nan component makes it nan
    return math.sqrt(((x * x + y * y) + z * z) + w * w)


def quat_normalize(q):
    x, y, z, w = np.asarray(q, dtype=float).tolist()
    n = _quat_norm(x, y, z, w)
    if not 0.0 < n < math.inf:
        raise ValueError(f"{'zero' if n == 0.0 else n}-norm quaternion cannot be normalized")
    return np.array([x / n, y / n, z / n, w / n])


def _hamilton(ax, ay, az, aw, bx, by, bz, bw):
    """The Hamilton product's components, over floats or columns alike."""
    return (
        aw * bx + bw * ax + (ay * bz - az * by),
        aw * by + bw * ay + (az * bx - ax * bz),
        aw * bz + bw * az + (ax * by - ay * bx),
        aw * bw - (ax * bx + 0.0 + ay * by + az * bz),
    )


def _rotate(x, y, z, w, vx, vy, vz):
    """The components of v turned by q, over floats or columns alike."""
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def quat_mul(a, b):
    """Hamilton product of scalar-last quaternions.

    The vector part is aw*bv + bw*av + av x bv with the cross product in
    np.cross's operation order, and the dot product in the scalar part sums
    from 0.0 in index order as np.sum does.
    """
    return np.array(_hamilton(*np.asarray(a, dtype=float).tolist(), *np.asarray(b, dtype=float).tolist()))


def quat_rotate(q, v):
    """Rotate the 3-vector v by the quaternion q: v + qw*t + qv x t with
    t = 2 qv x v, each cross product in np.cross's operation order."""
    return np.array(_rotate(*np.asarray(q, dtype=float).tolist(), *np.asarray(v, dtype=float).tolist()))


def quat_from_rotvec(rv):
    """Exponential map: a rotation vector (axis * angle) to its quaternion."""
    return quat_from_rotvec_rows(np.asarray(rv, dtype=float).reshape(1, 3))[0]


def quat_to_rotvec(q):
    """Logarithm map: a quaternion to its rotation vector, angle in [0, pi]."""
    x, y, z, w = np.asarray(q, dtype=float).tolist()
    # q and -q are one rotation: take the one with qw >= 0
    if w < 0.0:
        x, y, z, w = -x, -y, -z, -w
    n = math.sqrt((x * x + y * y) + z * z)
    angle = 2.0 * np.arctan2(n, w)
    if n < 1e-9:
        # angle/n by its series expansion, which also replaces the 0/0 of
        # n = 0; on a length-1 array for the array power, and because a float
        # raises at w = 0 where numpy gives inf or nan
        qw = np.array([w])
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = (2.0 / qw - 2.0 * n * n / (3.0 * qw**3))[0]
    else:
        scale = angle / n
    return np.array([x * scale, y * scale, z * scale])


def quat_conjugate_rows(q):
    """The conjugate of each row of the quaternions q (n, 4)."""
    return np.column_stack([-q[:, :3], q[:, 3]])


def quat_mul_rows(a, b):
    """quat_mul of each row of a (n, 4) with the same row of b (n, 4)."""
    return np.column_stack(_hamilton(*a.T, *b.T))


def quat_rotate_rows(q, v):
    """quat_rotate of each row of v (n, 3) by the same row of q (n, 4)."""
    return np.column_stack(_rotate(*q.T, *v.T))


def quat_from_rotvec_rows(rv):
    """The exponential map of each row of the rotation vectors rv (n, 3), its
    sin and cos taken per row with math: quat_from_rotvec's one body."""
    rx, ry, rz = rv.T
    # the norm, squares summed in index order as np.linalg.norm sums them
    angle = np.sqrt((rx * rx + ry * ry) + rz * rz)
    half = (0.5 * angle).tolist()
    sin = np.array([math.sin(h) for h in half])
    cos = np.array([math.cos(h) for h in half])
    # sin(angle/2)/angle, with the series expansion below 1e-8, where it
    # also replaces the 0/0 of angle 0
    scale = np.divide(sin, angle, out=0.5 - angle * angle / 48.0, where=~(angle < 1e-8))
    return np.column_stack([rx * scale, ry * scale, rz * scale, cos])


def unit_quat_rows(q):
    """Pose's rule on each row of the quaternions q (n, 4): as given within
    UNIT_NORM_TOL of unit norm, else quat_normalize's (which may raise)."""
    x, y, z, w = q.T
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.flatnonzero(~(np.abs(np.sqrt(((x * x + y * y) + z * z) + w * w) - 1.0) <= UNIT_NORM_TOL))
    rows = q.copy()
    rows[off] = np.reshape([quat_normalize(q[i]) for i in off], (-1, 4))
    return rows


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a, dtype=float), 2.0 * np.pi)


def planar_rotate_add(heading, v, p, out):
    """out = p + v with v's x and y turned in the plane, per particle.

    heading (2, ...) holds the cos and sin of each angle; v and p are (3, ...)
    vectors. All broadcast against out (3, ...), which must not overlap them:
    out[2] serves as the temporary of the x and y rows before it receives z.
    """
    c, s = heading
    x, y, z = out
    np.multiply(c, v[0], out=x)
    x -= np.multiply(s, v[1], out=z)
    x += p[0]
    np.multiply(s, v[0], out=y)
    y += np.multiply(c, v[1], out=z)
    y += p[1]
    np.add(p[2], v[2], out=z)
    return out


def quat_from_euler(roll, pitch, yaw) -> np.ndarray:
    """The quaternion of Rz(yaw) Ry(pitch) Rx(roll), one pose."""
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return np.array(
        [
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
            cr * cp * cy + sr * sp * sy,
        ]
    )


def quat_to_euler(q) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a unit quaternion, one pose; pitch in [-pi/2, pi/2]."""
    x, y, z, w = np.asarray(q, dtype=float).tolist()
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = math.asin(max(-1.0, min(1.0, 2.0 * (w * y - z * x))))
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def quat_matrix(q) -> np.ndarray:
    """The 3x3 rotation matrix of a unit quaternion, one pose."""
    x, y, z, w = np.asarray(q, dtype=float).tolist()
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
            [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
            [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def tilt_matrix(roll, pitch) -> np.ndarray:
    """The read-only 3x3 rotation Ry(pitch) Rx(roll) of a tilted base, one array
    per pair of float bits (0.0 and -0.0 differ) of the last 64 asked for."""
    return _tilt_matrix(struct.pack("2d", roll, pitch))


@functools.lru_cache(maxsize=64)
def _tilt_matrix(bits: bytes) -> np.ndarray:
    rotation = quat_matrix(quat_from_euler(*struct.unpack("2d", bits), 0.0))
    rotation.flags.writeable = False
    return rotation


POSE_COLUMNS = ("x", "y", "z", "qx", "qy", "qz", "qw")  # a pose's columns in every file of poses


@dataclass(frozen=True)
class Pose:
    """World pose, read-only once built. position is a finite 3-vector, quat
    a scalar-last unit quaternion: one whose norm lies within UNIT_NORM_TOL
    of 1 is kept as given, any other is normalized (quat_normalize, which
    refuses a zero or non-finite norm). Both are read-only copies."""

    position: np.ndarray = (0.0, 0.0, 0.0)
    quat: np.ndarray = (0.0, 0.0, 0.0, 1.0)

    def __post_init__(self):
        position = np.asarray(self.position, dtype=float).reshape(3).copy()
        if not all(map(math.isfinite, position.tolist())):
            raise ValueError(f"pose position must be finite, got {position.tolist()}")
        q = np.asarray(self.quat, dtype=float).reshape(4)
        # nan fails the compare; each array is a copy of its own, not a view,
        # which would keep its base alive; setflags is cheaper than .flags
        q = q.copy() if abs(_quat_norm(*q.tolist()) - 1.0) <= UNIT_NORM_TOL else quat_normalize(q)
        position.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "quat", q)

    def to_array(self) -> np.ndarray:
        """The 7-vector of POSE_COLUMNS: position, then quaternion."""
        return np.concatenate([self.position, self.quat])


def compose(a: Pose, b: Pose) -> Pose:
    """a then b: the pose of frame b expressed in a's parent frame."""
    return Pose(a.position + quat_rotate(a.quat, b.position), quat_mul(a.quat, b.quat))


def covariance_factor(cov) -> np.ndarray:
    """Factor F with F @ F.T == cov for a symmetric PSD square covariance.

    Eigenvalues may dip to -1e-12 from rounding; anything lower is rejected.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"pose covariance must be a square matrix, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError("pose covariance must be symmetric")
    w, v = np.linalg.eigh(cov)
    floor = -1e-12 * max(1.0, float(w.max(initial=0.0)))
    if w.min() < floor:
        raise ValueError(f"pose covariance is not PSD (min eigenvalue {w.min():.3e})")
    return v * np.sqrt(np.clip(w, 0.0, None))


_TRAJECTORY_FIELDS = ("t", *POSE_COLUMNS)


def save_trajectory(path, poses, times=None) -> None:
    """Write one line of t and the POSE_COLUMNS per pose, full float precision."""
    poses = list(poses)
    if times is None:
        times = np.arange(len(poses), dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) != len(poses):
        raise ValueError("times and poses length mismatch")
    line = " ".join(["%.17g"] * len(_TRAJECTORY_FIELDS)) + "\n"
    with open(path, "w") as f:
        for t, p in zip(times.tolist(), poses):
            f.write(line % (t, *p.to_array().tolist()))


def load_trajectory(path):
    """Read a trajectory file; returns (times (K,), [Pose] * K)."""
    rows = [(where, parse_fields(line.split(), _TRAJECTORY_FIELDS, where)) for where, line in data_lines(path)]
    if not rows:
        raise ValueError(f"{path}: trajectory file has no poses")
    return np.array([row[0] for _, row in rows]), [build(where, Pose, row[1:4], row[4:]) for where, row in rows]
