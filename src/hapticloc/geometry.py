"""Rigid-body poses as position plus scalar-last unit quaternion.

Quaternions are [qx, qy, qz, qw] everywhere in this package. Tangent vectors
are ordered [dx, dy, dz, droll, dpitch, dyaw] and perturb a pose on the right:
compose(mean, exp(delta)), i.e. noise lives in the body frame of the pose.

Layout rule: components sit on the leading axis. A batch of N quaternions is
a (4, N) array, N vectors a (3, N) array and N map points (2, N) or (3, N),
so each component is one contiguous row. The quaternion and vector functions
read q[0]..q[3] and write their results on axis 0, broadcasting over the
trailing axes; a single pose, (4,) or (3,), is the case with none.

The quaternion kernels evaluate each formula in its operation order (x + y as
y + x at most), with in-place operators on their temporaries, and the last
operation of each component writes straight into the result, so no result is
assembled by a copy. On a single pose the temporaries are numpy scalars,
whose arithmetic costs far less per call than a ufunc writing into a 0-d
array.

Attitude as Euler angles: quat_from_euler and quat_to_euler use the z-y-x
convention of a legged robot's base, R = Rz(yaw) Ry(pitch) Rx(roll), so roll
and pitch are the tilt against gravity and yaw the heading. They work on one
pose with plain floats, as does quat_matrix, so the filter's per-step shared
terms cost microseconds. Per particle, the filter turns vectors in the plane
by each particle's yaw (planar_rotate_add), writing into arrays it owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the feet in the order every step lists its contacts: a contact's foot is its index
FOOT_LABELS = ("LF", "RF", "LH", "RH")

_QUAT_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=0, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("zero-norm quaternion cannot be normalized")
    return q / n


def _rows(a):
    """The components of a, its leading axis, as writable views: 0-d for a
    single pose, where iterating would give scalar copies."""
    return [a[i, ...] for i in range(len(a))]


def _diff(a, b, c, d):
    """a * b - c * d, one np.cross component in its operation order; the
    difference is taken in place in a * b when that is an array."""
    r = a * b
    r -= c * d
    return r


def quat_mul(a, b):
    """Hamilton product of scalar-last quaternions (4, ...), broadcasting.

    Written out per component: the vector part is aw*bv + bw*av + av x bv with
    the cross product in np.cross's operation order, and the dot product in the
    scalar part sums from 0.0 in index order as np.sum does, so the result is
    bit-identical to those formulas at a fraction of their per-call cost.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    out = np.empty((4,) + np.broadcast(ax, bx).shape)
    ox, oy, oz, ow = _rows(out)
    for o, av, bv, cross in (
        (ox, ax, bx, (ay, bz, az, by)),
        (oy, ay, by, (az, bx, ax, bz)),
        (oz, az, bz, (ax, by, ay, bx)),
    ):
        s = aw * bv
        s += bw * av
        np.add(s, _diff(*cross), out=o)
    dot = ax * bx
    dot += 0.0
    dot += ay * by
    dot += az * bz
    np.subtract(aw * bw, dot, out=ow)
    return out


def quat_conjugate(q):
    out = np.array(q, dtype=float)
    out[:3] *= -1.0
    return out


def quat_rotate(q, v):
    """Rotate 3-vectors v (3, ...) by quaternions q (4, ...), broadcasting.

    v + qw*t + qv x t with t = 2 qv x v, written out per component with each
    cross product in np.cross's operation order (bit-identical to it).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    x, y, z, w = q
    vx, vy, vz = v
    out = np.empty((3,) + np.broadcast(x, vx).shape)
    tx = _diff(y, vz, z, vy)
    ty = _diff(z, vx, x, vz)
    tz = _diff(x, vy, y, vx)
    tx *= 2.0
    ty *= 2.0
    tz *= 2.0
    for o, vc, t, cross in zip(
        _rows(out), (vx, vy, vz), (tx, ty, tz), ((y, tz, z, ty), (z, tx, x, tz), (x, ty, y, tx))
    ):
        s = w * t
        s += vc
        np.add(s, _diff(*cross), out=o)
    return out


def quat_from_rotvec(rv):
    """Exponential map: rotation vectors (3, ...) (axis * angle) to quaternions."""
    rv = np.asarray(rv, dtype=float)
    rx, ry, rz = rv
    out = np.empty((4,) + rv.shape[1:])
    ox, oy, oz, ow = _rows(out)
    # the norm, squares summed in row order as np.linalg.norm sums them
    angle = np.sqrt((rx * rx + ry * ry) + rz * rz)
    half = 0.5 * angle
    # sin(angle/2)/angle, with the series expansion below 1e-8, where it
    # also replaces the 0/0 of angle 0
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(angle < 1e-8, 0.5 - angle * angle / 48.0, np.sin(half) / angle)
    np.multiply(rx, scale, out=ox)
    np.multiply(ry, scale, out=oy)
    np.multiply(rz, scale, out=oz)
    np.cos(half, out=ow)
    return out


def quat_to_rotvec(q):
    """Logarithm map: quaternions (4, ...) to rotation vectors with angle in [0, pi]."""
    q = np.asarray(q, dtype=float)
    out = np.empty((3,) + q.shape[1:])
    # q and -q are one rotation: take the one with qw >= 0. The scalar terms
    # keep qw's length-1 leading axis: on a single pose a numpy scalar's **
    # can round differently from the array power
    flip = q[3:4] < 0.0
    qw = np.where(flip, -q[3:4], q[3:4])
    qv = np.negative(q[:3], out=out)
    np.copyto(qv, q[:3], where=~flip)
    # the norm, squares summed in row order as np.linalg.norm sums them
    n = np.sqrt((qv[0:1] * qv[0:1] + qv[1:2] * qv[1:2]) + qv[2:3] * qv[2:3])
    angle = 2.0 * np.arctan2(n, qw)
    # angle/n, with the series expansion below 1e-9, where it also replaces
    # the 0/0 of n = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(n < 1e-9, 2.0 / qw - 2.0 * n * n / (3.0 * qw**3), angle / n)
    return np.multiply(qv, scale, out=out)


def quat_yaw(q):
    """Heading angle about world z."""
    qx, qy, qz, qw = np.asarray(q, dtype=float)
    return np.arctan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))


def quat_from_yaw(yaw):
    yaw = np.asarray(yaw, dtype=float)
    z = np.sin(yaw / 2.0)
    w = np.cos(yaw / 2.0)
    zero = np.zeros_like(z)
    return np.stack([zero, zero, z, w])


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
    times, poses = [], []
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ValueError(f"{path}:{ln}: expected 8 fields 't x y z qx qy qz qw', got {len(parts)}")
            vals = [float(p) for p in parts]
            times.append(vals[0])
            poses.append(Pose.from_array(vals[1:]))
    return np.array(times), poses
