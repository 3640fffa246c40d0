"""Rotations, rigid transforms, and pinhole projection."""

import numpy as np
import pytest

from trajex.errors import DenormalizedQuaternion, FrameMismatch, PointBehindCamera
from trajex.geometry import (
    CAMERA,
    WORLD,
    CameraIntrinsics,
    Point3,
    RigidTransform,
    Rotation,
    invert,
    project_points,
    skew,
    transform_point,
)


def test_skew_reproduces_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)


def test_rotation_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.001)


def test_rotation_rejects_reflection():
    m = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Rotation(m)


def test_axis_angle_quarter_turn_about_z():
    r = Rotation.from_axis_angle([0.0, 0.0, 1.0], np.pi / 2)
    np.testing.assert_allclose(r.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(r.apply([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-15)


def test_rotvec_small_angle_stays_finite():
    r = Rotation.from_rotvec([1e-12, 0.0, 0.0])
    assert r.angle_to(Rotation.identity()) < 1e-9


def test_rotvec_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = rng.uniform(1e-6, np.pi - 1e-6)
        r = Rotation.from_rotvec(axis * ang)
        np.testing.assert_allclose(
            r.matrix, Rotation.from_axis_angle(axis, ang).matrix, atol=1e-13
        )


def test_quaternion_quarter_turn_oracle():
    # (x, y, z, w) = (0, 0, sqrt(2)/2, sqrt(2)/2) is a +90 deg yaw
    s = np.sqrt(0.5)
    r = Rotation.from_quaternion([0.0, 0.0, s, s])
    np.testing.assert_allclose(r.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_quaternion_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        r = Rotation.from_quaternion(q)
        r2 = Rotation.from_quaternion(r.to_quaternion())
        assert r.angle_to(r2) < 1e-7


def test_quaternion_round_trip_near_pi():
    # largest-pivot extraction must survive w ~ 0
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = Rotation.from_axis_angle(axis, np.pi - 1e-9)
        r2 = Rotation.from_quaternion(r.to_quaternion())
        np.testing.assert_allclose(r2.matrix, r.matrix, atol=1e-7)


def test_to_quaternion_nonnegative_w():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert Rotation.from_quaternion(q).to_quaternion()[3] >= 0.0


def test_denormalized_quaternion_rejected():
    with pytest.raises(DenormalizedQuaternion):
        Rotation.from_quaternion([0.0, 0.0, 0.0, 1.01])


def test_rotation_inverse_and_matmul():
    rng = np.random.default_rng(17)
    for _ in range(30):
        r = Rotation.from_rotvec(rng.normal(size=3))
        np.testing.assert_allclose(
            (r @ r.inverse()).matrix, np.eye(3), atol=1e-14
        )


def test_point3_requires_finite():
    with pytest.raises(ValueError):
        Point3(np.array([1.0, np.nan, 0.0]))


def test_invert_round_trip():
    # t^-1 (t (p)) = p, and the inverse's rotation is R' with translation -R't
    rng = np.random.default_rng(19)
    for _ in range(30):
        t = RigidTransform(Rotation.from_rotvec(rng.normal(size=3)), rng.normal(size=3))
        inv = invert(t)
        np.testing.assert_allclose(inv.rotation.matrix @ t.rotation.matrix, np.eye(3), atol=1e-13)
        np.testing.assert_allclose(inv.rotation.apply(t.translation) + inv.translation, 0.0, atol=1e-13)
        p = Point3(rng.normal(size=3))
        np.testing.assert_allclose(transform_point(inv, transform_point(t, p)).xyz, p.xyz, atol=1e-13)


def test_transform_point_checks_frames():
    t = RigidTransform(
        Rotation.identity(), np.zeros(3), frame_from=CAMERA, frame_to=WORLD
    )
    p = Point3(np.array([1.0, 2.0, 3.0]), frame=WORLD)
    with pytest.raises(FrameMismatch):
        transform_point(t, p)
    out = transform_point(t, Point3(np.array([1.0, 2.0, 3.0]), frame=CAMERA))
    assert out.frame == WORLD
    np.testing.assert_allclose(out.xyz, [1.0, 2.0, 3.0])


def test_transform_point_untagged_passes():
    t = RigidTransform(Rotation.identity(), np.array([0.0, 0.0, 1.0]))
    out = transform_point(t, Point3(np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(out.xyz, [1.0, 0.0, 1.0])


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=500.0, cx=320.0, cy=240.0)


def test_projection_oracle():
    # fx=500, cx=320: X=(0.5, 0, 1) lands at u = 320 + 500*0.5 = 570
    k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
    uv = project_points(k, np.array([[0.5, 0.0, 1.0]]))
    assert uv.shape == (1, 2)
    np.testing.assert_allclose(uv[0], [570.0, 240.0], atol=1e-12)


def test_projection_rejects_points_behind_camera():
    k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
    with pytest.raises(PointBehindCamera, match="point 1 has depth -1"):
        project_points(k, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    with pytest.raises(PointBehindCamera, match="point 0 has depth 0"):
        project_points(k, np.array([[0.0, 0.0, 0.0]]))


def test_project_points_matches_scalar_projection():
    # each row is the pinhole formula u = fx x/z + cx, v = fy y/z + cy on its own
    k = CameraIntrinsics(fx=430.0, fy=415.0, cx=311.0, cy=243.5)
    rng = np.random.default_rng(23)
    pts = rng.uniform([-1, -1, 0.5], [1, 1, 5.0], size=(40, 3))
    uv = project_points(k, pts)
    for i, (x, y, z) in enumerate(pts):
        np.testing.assert_allclose(uv[i], [430.0 * x / z + 311.0, 415.0 * y / z + 243.5], atol=1e-12)


def test_invert_identity_and_translation():
    ident = invert(RigidTransform(Rotation.identity(), np.zeros(3)))
    np.testing.assert_allclose(ident.translation, 0.0, atol=1e-15)
    np.testing.assert_allclose(ident.rotation.matrix, np.eye(3), atol=1e-15)
    t = invert(RigidTransform(Rotation.identity(), np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(t.translation, [-1.0, -2.0, -3.0], atol=1e-15)


def test_invert_is_involutive():
    rng = np.random.default_rng(31)
    for _ in range(30):
        t = RigidTransform(Rotation.from_rotvec(rng.normal(size=3)), rng.normal(size=3))
        back = invert(invert(t))
        np.testing.assert_allclose(back.rotation.matrix, t.rotation.matrix, atol=1e-12)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-12)


def test_compose_then_transform_matches_chained():
    # the product transform (Ra Rb, Ra tb + ta) maps a point as b then a do
    rng = np.random.default_rng(37)
    for _ in range(30):
        a = RigidTransform(Rotation.from_rotvec(rng.normal(size=3)), rng.normal(size=3))
        b = RigidTransform(Rotation.from_rotvec(rng.normal(size=3)), rng.normal(size=3))
        ab = RigidTransform(a.rotation @ b.rotation, a.rotation.apply(b.translation) + a.translation)
        p = Point3(rng.normal(size=3))
        joint = transform_point(ab, p)
        chained = transform_point(a, transform_point(b, p))
        np.testing.assert_allclose(joint.xyz, chained.xyz, atol=1e-12)


def test_transform_point_special_cases():
    p = Point3(np.array([1.0, 0.0, 0.0]))
    ident = transform_point(RigidTransform(Rotation.identity(), np.zeros(3)), p)
    np.testing.assert_allclose(ident.xyz, [1.0, 0.0, 0.0], atol=1e-15)
    shift = RigidTransform(Rotation.identity(), np.array([0.0, 0.0, 5.0]))
    np.testing.assert_allclose(
        transform_point(shift, p).xyz, [1.0, 0.0, 5.0], atol=1e-15
    )
    yaw = RigidTransform(
        Rotation.from_axis_angle([0.0, 0.0, 1.0], np.pi / 2), np.zeros(3)
    )
    np.testing.assert_allclose(
        transform_point(yaw, p).xyz, [0.0, 1.0, 0.0], atol=1e-15
    )


def test_unit_intrinsics_project_to_normalized_coords():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    uv = project_points(k, np.array([[0.0, 0.0, 1.0], [2.0, -1.0, 4.0]]))
    np.testing.assert_allclose(uv, [[0.0, 0.0], [0.5, -0.25]], atol=1e-15)


def test_projection_depth_oracle():
    k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
    uv = project_points(k, np.array([[1.0, 0.0, 2.0]]))
    np.testing.assert_allclose(uv[0], [570.0, 240.0], atol=1e-12)


def test_projection_scales_with_intrinsics():
    k1 = CameraIntrinsics(fx=400.0, fy=350.0, cx=320.0, cy=240.0)
    k2 = CameraIntrinsics(fx=800.0, fy=700.0, cx=640.0, cy=480.0)
    rng = np.random.default_rng(41)
    pts = rng.uniform([-1, -1, 0.5], [1, 1, 5.0], size=(20, 3))
    np.testing.assert_allclose(project_points(k2, pts), 2.0 * project_points(k1, pts), atol=1e-9)
