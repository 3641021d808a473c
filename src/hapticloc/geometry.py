"""Rigid-body poses as position plus scalar-last unit quaternion.

Quaternions are [qx, qy, qz, qw] everywhere in this package. Tangent vectors
are ordered [dx, dy, dz, droll, dpitch, dyaw] and perturb a pose on the right:
compose(mean, exp(delta)), i.e. noise lives in the body frame of the pose.

Quaternions are single poses: every quaternion function takes one pose and
computes in plain floats. The formulas keep the operation order of np.cross,
np.sum and np.linalg.norm (the tests keep those numpy forms as oracles), so
the outputs are byte-identical to them. np.arctan2 and the power of an array
round differently from math.atan2 and a scalar's ** in the last bit, so those
two stay numpy calls.

Attitude as Euler angles: quat_from_euler and quat_to_euler use the z-y-x
convention of a legged robot's base, R = Rz(yaw) Ry(pitch) Rx(roll), so roll
and pitch are the tilt against gravity and yaw the heading. Per particle, the
filter turns vectors in the plane by each particle's yaw (planar_rotate_add),
writing into arrays it owns.

Trajectory files hold one 't x y z qx qy qz qw' line per pose, read with
fields.parse_field: a field that does not parse, or is not finite, raises an
error naming the file, the line and the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import data_lines, parse_fields

# the feet in the order every step lists its contacts: a contact's foot is its index
FOOT_LABELS = ("LF", "RF", "LH", "RH")

_QUAT_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def quat_normalize(q):
    x, y, z, w = (float(c) for c in q)
    # the norm, squares summed in index order as np.linalg.norm sums them
    n = math.sqrt(((x * x + y * y) + z * z) + w * w)
    if n == 0.0:
        raise ValueError("zero-norm quaternion cannot be normalized")
    return np.array([x / n, y / n, z / n, w / n])


def quat_mul(a, b):
    """Hamilton product of scalar-last quaternions.

    The vector part is aw*bv + bw*av + av x bv with the cross product in
    np.cross's operation order, and the dot product in the scalar part sums
    from 0.0 in index order as np.sum does.
    """
    ax, ay, az, aw = (float(c) for c in a)
    bx, by, bz, bw = (float(c) for c in b)
    return np.array(
        [
            aw * bx + bw * ax + (ay * bz - az * by),
            aw * by + bw * ay + (az * bx - ax * bz),
            aw * bz + bw * az + (ax * by - ay * bx),
            aw * bw - (ax * bx + 0.0 + ay * by + az * bz),
        ]
    )


def quat_conjugate(q):
    x, y, z, w = (float(c) for c in q)
    return np.array([-x, -y, -z, w])


def quat_rotate(q, v):
    """Rotate the 3-vector v by the quaternion q: v + qw*t + qv x t with
    t = 2 qv x v, each cross product in np.cross's operation order."""
    x, y, z, w = (float(c) for c in q)
    vx, vy, vz = (float(c) for c in v)
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.array(
        [
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        ]
    )


def quat_from_rotvec(rv):
    """Exponential map: a rotation vector (axis * angle) to its quaternion."""
    rx, ry, rz = (float(c) for c in rv)
    # the norm, squares summed in index order as np.linalg.norm sums them
    angle = math.sqrt((rx * rx + ry * ry) + rz * rz)
    half = 0.5 * angle
    # sin(angle/2)/angle, with the series expansion below 1e-8, where it
    # also replaces the 0/0 of angle 0
    scale = 0.5 - angle * angle / 48.0 if angle < 1e-8 else math.sin(half) / angle
    return np.array([rx * scale, ry * scale, rz * scale, math.cos(half)])


def quat_to_rotvec(q):
    """Logarithm map: a quaternion to its rotation vector, angle in [0, pi]."""
    x, y, z, w = (float(c) for c in q)
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


def quat_yaw(q):
    """Heading angle about world z."""
    qx, qy, qz, qw = (float(c) for c in q)
    return np.arctan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))


def quat_from_yaw(yaw):
    half = float(yaw) / 2.0
    return np.array([0.0, 0.0, math.sin(half), math.cos(half)])


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
    x, y, z, w = (float(c) for c in q)
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = math.asin(max(-1.0, min(1.0, 2.0 * (w * y - z * x))))
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def quat_matrix(q) -> np.ndarray:
    """The 3x3 rotation matrix of a unit quaternion, one pose."""
    x, y, z, w = (float(c) for c in q)
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
            [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
            [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


@dataclass
class Pose:
    """World pose. position is a 3-vector, quat a scalar-last unit quaternion."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quat: np.ndarray = field(default_factory=lambda: _QUAT_IDENTITY.copy())

    def __post_init__(self):
        self.position = np.array(self.position, dtype=float).reshape(3)
        q = np.array(self.quat, dtype=float).reshape(4)
        self.quat = quat_normalize(q)

    def to_array(self) -> np.ndarray:
        """7-vector [x y z qx qy qz qw]."""
        return np.concatenate([self.position, self.quat])

    @staticmethod
    def from_array(a) -> "Pose":
        a = np.asarray(a, dtype=float).reshape(7)
        return Pose(a[:3], a[3:])


def compose(a: Pose, b: Pose) -> Pose:
    """a then b: the pose of frame b expressed in a's parent frame."""
    return Pose(a.position + quat_rotate(a.quat, b.position), quat_mul(a.quat, b.quat))


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


_TRAJECTORY_FIELDS = ("t", "x", "y", "z", "qx", "qy", "qz", "qw")


def save_trajectory(path, poses, times=None) -> None:
    """Write one 't x y z qx qy qz qw' line per pose, full float precision."""
    poses = list(poses)
    if times is None:
        times = np.arange(len(poses), dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) != len(poses):
        raise ValueError("times and poses length mismatch")
    with open(path, "w") as f:
        for t, p in zip(times, poses):
            vals = np.concatenate([[t], p.to_array()])
            f.write(" ".join(format(v, ".17g") for v in vals) + "\n")


def load_trajectory(path):
    """Read a trajectory file; returns (times (K,), [Pose] * K)."""
    rows = [parse_fields(line.split(), _TRAJECTORY_FIELDS, where) for where, line in data_lines(path)]
    if not rows:
        raise ValueError(f"{path}: trajectory file has no poses")
    return np.array([row[0] for row in rows]), [Pose.from_array(row[1:]) for row in rows]
