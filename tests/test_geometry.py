from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from hapticloc.geometry import (
    UNIT_NORM_TOL,
    Pose,
    compose,
    covariance_factor,
    load_trajectory,
    planar_rotate_add,
    quat_conjugate_rows,
    quat_from_euler,
    quat_from_rotvec,
    quat_from_rotvec_rows,
    quat_matrix,
    quat_mul,
    quat_mul_rows,
    quat_normalize,
    quat_rotate,
    quat_rotate_rows,
    quat_to_euler,
    quat_to_rotvec,
    save_trajectory,
    wrap_angle,
)
from per_pose import inverse, pose_exp, quat_conjugate, quat_from_yaw, relative_increment

finite = st.floats(-10.0, 10.0, allow_nan=False)
angles = st.floats(-3.0, 3.0, allow_nan=False)


def transform_point(pose, vec):
    """A base-frame point in world coordinates."""
    return pose.position + quat_rotate(pose.quat, np.asarray(vec, dtype=float))


def pose_log(p):
    """Small pose to tangent vector [dx dy dz droll dpitch dyaw], pose_exp's inverse."""
    return np.concatenate([p.position, quat_to_rotvec(p.quat)])


def random_pose(rng):
    q = quat_normalize(rng.normal(size=4))
    return Pose(rng.normal(size=3), q)


@st.composite
def poses(draw):
    p = [draw(finite) for _ in range(3)]
    q = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    if np.linalg.norm(q) < 1e-3:
        q = np.array([0.0, 0.0, 0.0, 1.0])
    return Pose(p, quat_normalize(q))


# quaternion layer against an independent implementation


def test_quat_mul_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = quat_normalize(rng.normal(size=4))
        b = quat_normalize(rng.normal(size=4))
        got = quat_mul(a, b)
        want = (Rotation.from_quat(a) * Rotation.from_quat(b)).as_quat()
        assert np.allclose(got, want, atol=1e-12) or np.allclose(got, -want, atol=1e-12)


def test_quat_rotate_matches_rotation_matrix():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = quat_normalize(rng.normal(size=4))
        v = rng.normal(size=3)
        assert np.allclose(quat_rotate(q, v), Rotation.from_quat(q).as_matrix() @ v, atol=1e-12)


# bit-exact oracle: the np.cross formulas, on trailing-axis arrays


def cross_quat_rotate(q, v):
    qv, qw = q[..., :3], q[..., 3:4]
    t = 2.0 * np.cross(qv, v)
    return v + qw * t + np.cross(qv, t)


def cross_quat_mul(a, b):
    av, aw = a[..., :3], a[..., 3:4]
    bv, bw = b[..., :3], b[..., 3:4]
    v = aw * bv + bw * av + np.cross(av, bv)
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    return np.concatenate([v, w], axis=-1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


signed_zero = st.sampled_from([0.0, -0.0])
components = st.one_of(signed_zero, st.floats(-2.0, 2.0, allow_nan=False), st.floats(-1e-9, 1e-9))


# the trailing-axis numpy formulas of every geometry function, kept as the
# oracle of its single-pose arithmetic


def trailing_normalize(q):
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def trailing_conjugate(q):
    out = q.copy()
    out[..., :3] *= -1.0
    return out


def trailing_from_rotvec(rv):
    angle = np.linalg.norm(rv, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(angle == 0.0, 1.0, angle))
    return np.concatenate([rv * scale, np.cos(half)], axis=-1)


def trailing_to_rotvec(q):
    q = np.where(q[..., 3:4] < 0.0, -q, q)
    qv, qw = q[..., :3], q[..., 3:4]
    n = np.linalg.norm(qv, axis=-1, keepdims=True)
    angle = 2.0 * np.arctan2(n, qw)
    small = n < 1e-9
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 2.0 / qw - 2.0 * n * n / (3.0 * qw**3), angle / np.where(n == 0.0, 1.0, n))
    return qv * scale


def trailing_from_yaw(yaw):
    z, w = np.sin(yaw / 2.0), np.cos(yaw / 2.0)
    zero = np.zeros_like(z)
    return np.stack([zero, zero, z, w], axis=-1)


wide = st.one_of(components, st.floats(-1e3, 1e3, allow_nan=False))
# any nonzero components, or a vector part below quat_to_rotvec's 1e-9
# series threshold beside any scalar part
single_quats = st.one_of(
    arrays(np.float64, (4,), elements=wide),
    st.tuples(arrays(np.float64, (3,), elements=st.floats(-5e-10, 5e-10)), wide).map(
        lambda vw: np.append(*vw)
    ),
).filter(lambda q: np.linalg.norm(q) > 0.0)


# the forms a kernel takes an argument in (a float64 array, a float32 array,
# a list, a tuple), each as (argument, the float64 array of the values it
# holds): a kernel converts each argument once, and must compute what a
# float() per element would give it
ARGUMENT_FORMS = (
    lambda a: (a, a),
    lambda a: (a.astype(np.float32), a.astype(np.float32).astype(float)),
    lambda a: (a.tolist(), a),
    lambda a: (tuple(a.tolist()), a),
)


@settings(max_examples=200, deadline=None)
@given(single_quats, single_quats, arrays(np.float64, (3,), elements=wide), st.floats(-10.0, 10.0))
def test_single_pose_bit_identical_to_trailing_axis_formulas(q, p, v, yaw):
    yaw = np.float64(yaw)
    assert same_bits(quat_from_yaw(yaw), trailing_from_yaw(yaw))
    for form in ARGUMENT_FORMS:
        (qa, qf), (pa, pf), (va, vf) = form(q), form(p), form(v)
        # a float32 cast can flush every component of a tiny quaternion to 0
        if np.linalg.norm(qf) > 0.0:
            assert same_bits(quat_normalize(qa), trailing_normalize(qf))
        assert same_bits(quat_conjugate(qa), trailing_conjugate(qf))
        assert same_bits(quat_mul(qa, pa), cross_quat_mul(qf, pf))
        assert same_bits(quat_rotate(qa, va), cross_quat_rotate(qf, vf))
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(quat_to_rotvec(qa), trailing_to_rotvec(qf))
        for rv in (v, 1e-12 * v, q[:3]):
            rva, rvf = form(rv)
            assert same_bits(quat_from_rotvec(rva), trailing_from_rotvec(rvf))
        # the kernels without a trailing-axis oracle: every form as its values
        assert same_bits(quat_matrix(qa), quat_matrix(qf))
        assert quat_to_euler(qa) == quat_to_euler(qf)


@st.composite
def pose_rows(draw):
    """(q, p, v): two (n, 4) arrays of quaternions and an (n, 3) array of vectors."""
    n = draw(st.integers(1, 6))
    q, p = (np.array(draw(st.lists(single_quats, min_size=n, max_size=n))) for _ in range(2))
    return q, p, draw(arrays(np.float64, (n, 3), elements=wide))


def per_row(kernel, *args):
    return np.array([kernel(*row) for row in zip(*args)])


@settings(max_examples=200, deadline=None)
@given(pose_rows())
def test_row_forms_bit_identical_to_single_pose_kernels_and_trailing_axis_formulas(rows):
    q, p, v = rows
    for row_form, kernel, oracle, args in (
        (quat_conjugate_rows, quat_conjugate, trailing_conjugate, (q,)),
        (quat_mul_rows, quat_mul, cross_quat_mul, (q, p)),
        (quat_rotate_rows, quat_rotate, cross_quat_rotate, (q, v)),
        *((quat_from_rotvec_rows, quat_from_rotvec, trailing_from_rotvec, (rv,)) for rv in (v, 1e-12 * v, q[:, :3])),
    ):
        got = row_form(*args)
        assert same_bits(got, per_row(kernel, *args)), row_form.__name__
        assert same_bits(got, oracle(*args)), row_form.__name__


# Euler attitude, rotation matrices and the planar rotation of the particles


@settings(max_examples=100, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-1.5, 1.5), st.floats(-3.0, 3.0))
def test_euler_attitude_matches_scipy_and_round_trips(roll, pitch, yaw):
    q = quat_from_euler(roll, pitch, yaw)
    want = Rotation.from_euler("ZYX", [yaw, pitch, roll])
    assert np.allclose(quat_matrix(q), want.as_matrix(), atol=1e-12)
    assert np.allclose(np.column_stack([quat_rotate(q, e) for e in np.eye(3)]), want.as_matrix(), atol=1e-12)
    assert np.allclose(quat_to_euler(q), (roll, pitch, yaw), atol=1e-9)
    # a level attitude reads exactly 0 roll and pitch, as the simulator logs it
    assert quat_to_euler(quat_from_yaw(yaw))[:2] == (0.0, 0.0)


def test_planar_rotate_add_turns_x_and_y_per_angle():
    rng = np.random.default_rng(4)
    yaw, v, p = rng.uniform(-np.pi, np.pi, 7), rng.normal(size=(3, 7)), rng.normal(size=(3, 7))
    out = np.empty((3, 7))
    assert planar_rotate_add(np.stack([np.cos(yaw), np.sin(yaw)]), v, p, out) is out
    turned = np.column_stack([quat_rotate(quat_from_yaw(a), u) for a, u in zip(yaw, v.T)])
    assert np.allclose(out, p + turned, atol=1e-12)


def test_quat_from_rotvec_matches_scipy():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e-3, 1e-7, 1e-10, 0.0):
        rv = rng.normal(size=3) * scale
        got = quat_from_rotvec(rv)
        want = Rotation.from_rotvec(rv).as_quat()
        assert np.allclose(got, want, atol=1e-14) or np.allclose(got, -want, atol=1e-14)


def test_rotvec_round_trip_small_angles():
    for scale in (1.0, 1e-2, 1e-6, 1e-9):
        rv = np.array([0.3, -0.2, 0.45]) * scale
        back = quat_to_rotvec(quat_from_rotvec(rv))
        assert np.allclose(back, rv, rtol=1e-12, atol=1e-15)


def test_wrap_angle():
    assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)
    assert wrap_angle(0.3) == pytest.approx(0.3)


# pose algebra


@settings(max_examples=100, deadline=None)
@given(poses(), poses())
def test_relative_increment_recomposes(a, b):
    inc = relative_increment(a, b)
    back = compose(a, inc)
    assert np.allclose(back.position, b.position, atol=1e-9)
    assert np.allclose(back.quat, b.quat, atol=1e-9) or np.allclose(back.quat, -b.quat, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(poses())
def test_inverse_composes_to_identity(p):
    ident = compose(p, inverse(p))
    assert np.allclose(ident.position, 0.0, atol=1e-9)
    assert abs(abs(ident.quat[3]) - 1.0) < 1e-9


def test_compose_is_associative():
    rng = np.random.default_rng(3)
    a, b, c = (random_pose(rng) for _ in range(3))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.allclose(left.position, right.position, atol=1e-12)


def test_transform_point_hand_case():
    # 90 degree yaw: body +x maps to world +y
    p = Pose([1.0, 2.0, 3.0], quat_from_yaw(np.pi / 2))
    w = transform_point(p, [0.5, 0.0, 0.0])
    assert np.allclose(w, [1.0, 2.5, 3.0], atol=1e-12)


def test_pose_exp_log_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        delta = rng.normal(size=6) * 0.5
        assert np.allclose(pose_log(pose_exp(delta)), delta, atol=1e-10)


def test_pose_exp_zero_is_identity():
    p = pose_exp(np.zeros(6))
    assert np.allclose(p.position, 0.0)
    assert np.allclose(p.quat, [0, 0, 0, 1])


# sampling


def test_covariance_factor_reproduces_cov():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    cov = a @ a.T
    f = covariance_factor(cov)
    assert np.allclose(f @ f.T, cov, atol=1e-10)


def test_covariance_factor_rejects_asymmetric():
    cov = np.eye(6)
    cov[0, 1] = 0.5
    with pytest.raises(ValueError):
        covariance_factor(cov)


# trajectory files


def test_trajectory_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    poses_in = [random_pose(rng) for _ in range(9)]
    times_in = np.cumsum(rng.uniform(0.1, 2.0, size=9))
    path = tmp_path / "a.traj"
    save_trajectory(path, poses_in, times_in)
    times, poses_out = load_trajectory(path)
    assert np.array_equal(times, times_in)
    for a, b in zip(poses_in, poses_out):
        assert np.array_equal(a.to_array(), b.to_array())


def scaled_quats(rng, n):
    """n quaternions of components uniform in [-1, 1], each row scaled by
    10**e for e uniform in [-3, 3]: about a third of them move in the last
    bit when normalized a second time."""
    return rng.uniform(-1.0, 1.0, (n, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))


def test_trajectory_round_trip_gives_back_every_quaternion_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    poses_in = [Pose(rng.normal(size=3), q) for q in scaled_quats(rng, 1_000)]
    path = tmp_path / "a.traj"
    save_trajectory(path, poses_in)
    _, poses_out = load_trajectory(path)
    for a, b in zip(poses_in, poses_out):
        assert same_bits(b.to_array(), a.to_array())


def test_trajectory_bad_line_reports_location(tmp_path):
    path = tmp_path / "bad.traj"
    path.write_text("0 1 2 3 0 0 0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="bad.traj:2"):
        load_trajectory(path)
    for line, name, why in (
        ("0 nan 2 3 0 0 0 1", "x", "nan is not finite"),
        ("0 1 2 3 nan 0 0 1", "qx", "nan is not finite"),
        ("-inf 1 2 3 0 0 0 1", "t", "-inf is not finite"),
        ("0 1 2 3 0 0 0 one", "qw", "cannot parse 'one'"),
    ):
        path.write_text(f"0 1 2 3 0 0 0 1\n{line}\n")
        with pytest.raises(ValueError) as err:
            load_trajectory(path)
        assert str(err.value) == f"{path}:2: column {name}: {why}"


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose([0, 0], [0, 0, 0, 1])
    with pytest.raises(ValueError):
        Pose([0, 0, 0], [0, 0, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_a_pose_refuses_a_non_finite_position(bad):
    # as it refuses a quaternion whose norm is not finite: a filter fed one
    # would carry nan through every later estimate
    for i in range(3):
        position = [1.0, 2.0, 3.0]
        position[i] = bad
        with pytest.raises(ValueError, match=r"^pose position must be finite, got \["):
            Pose(position)


def test_a_pose_is_read_only_once_built():
    # checked once, when built: a write into either array, or another array
    # in its place, would get round the checks
    given = np.array([[1.0, 2.0, 3.0]])
    pose = Pose(given, [0.0, 0.0, 0.0, 1.0])
    given[0, 0] = np.nan
    assert pose.position.tolist() == [1.0, 2.0, 3.0] and pose.position.base is None
    for name in ("position", "quat"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(pose, name)[0] = np.nan
        with pytest.raises(FrozenInstanceError):
            setattr(pose, name, getattr(pose, name).copy())
    assert pose.to_array().tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 1.0]
    assert Pose().to_array().tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_pose_keeps_a_unit_quaternion_so_a_second_pose_moves_nothing(seed):
    # normalizing is not idempotent in the last bit, so a Pose that
    # normalized every quaternion changed one it had made itself
    for q in scaled_quats(np.random.default_rng(seed), 20):
        once = Pose(np.zeros(3), q).quat
        assert same_bits(Pose(np.zeros(3), once).quat, once)
        unit = quat_normalize(q)
        assert same_bits(Pose(np.zeros(3), unit).quat, unit)


def test_a_pose_keeps_a_unit_quaternion_in_an_array_of_its_own():
    # neither the caller's array nor a view of it: a later write to the
    # caller's array leaves the pose as it was, and no base is kept alive
    q = np.array([[0.0, 0.0, 0.0, 1.0]])
    pose = Pose(np.zeros(3), q)
    q[0, 0] = 5.0
    assert pose.quat.tolist() == [0.0, 0.0, 0.0, 1.0] and pose.quat.base is None


def test_a_pose_normalizes_a_quaternion_off_unit_and_refuses_a_zero_or_non_finite_norm():
    near, off = 1.0 + 0.5 * UNIT_NORM_TOL, 1.0 + 2.0 * UNIT_NORM_TOL
    assert Pose(np.zeros(3), [0.0, 0.0, 0.0, near]).quat.tolist() == [0.0, 0.0, 0.0, near]
    assert Pose(np.zeros(3), [0.0, 0.0, 0.0, off]).quat.tolist() == [0.0, 0.0, 0.0, 1.0]
    for q, norm in (([0.0] * 4, "zero"), ([0.0, 0.0, np.inf, 1.0], "inf"), ([np.nan, 0.0, 0.0, 1.0], "nan")):
        with pytest.raises(ValueError, match=f"^{norm}-norm quaternion cannot be normalized$"):
            Pose(np.zeros(3), q)


@pytest.mark.parametrize(
    "quat, norm",
    [([1e300, 0.0, 0.0, 1.0], "inf"), ([0.0, -np.inf, 0.0, 1.0], "inf"), ([0.0, 0.0, np.nan, 1.0], "nan")],
    ids=["overflowing-squares", "inf-component", "nan-component"],
)
def test_a_quaternion_whose_norm_is_not_finite_is_refused(quat, norm):
    # the overflow once normalized to [0, 0, 0, 0], and a nan component to
    # an all-nan quaternion, without an error
    for make in (quat_normalize, lambda q: Pose(np.zeros(3), q)):
        with pytest.raises(ValueError, match=f"^{norm}-norm quaternion cannot be normalized$"):
            make(np.array(quat))
