"""World-frame assembly and navigation metrics."""

import numpy as np
import pytest

from trajex.errors import EmptySequence, FrameMismatch, LengthMismatch, TooFewPoints
from trajex.geometry import CAMERA, WORLD, Point3, RigidTransform, Rotation
from trajex.kalman import FilteredSample
from trajex.trajectory import (
    GroundTrack,
    NavMetrics,
    Trajectory,
    build_trajectory,
    compute_metrics,
    final_goal_error,
    judge_success,
    path_length,
    project_ground,
    to_world,
    tracking_error,
)


def overhead_camera(height=5.0):
    # camera looking straight down from (0, 0, height):
    # x_cam = x_world, y_cam = -y_world, z_cam = -z_world
    rot = Rotation(np.diag([1.0, -1.0, -1.0]))
    return RigidTransform(
        rot, np.array([0.0, 0.0, height]), frame_from=CAMERA, frame_to=WORLD
    )


def test_to_world_overhead_oracle():
    # a point 2 m in front of a downward camera at height 5 sits at z=3
    p = to_world(Point3(np.array([0.0, 0.0, 2.0]), frame=CAMERA), overhead_camera())
    assert p.frame == WORLD
    np.testing.assert_allclose(p.xyz, [0.0, 0.0, 3.0], atol=1e-15)


def test_to_world_flips_lateral_axes():
    p = to_world(Point3(np.array([1.0, 1.0, 2.0]), frame=CAMERA), overhead_camera())
    np.testing.assert_allclose(p.xyz, [1.0, -1.0, 3.0], atol=1e-15)


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.1]), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), np.zeros((2, 3)))


def test_trajectory_arrays_read_only():
    tr = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        tr.times[0] = 5.0
    with pytest.raises(ValueError):
        tr.positions[0, 0] = 5.0


def test_build_trajectory_length_mismatch():
    s = FilteredSample(0.0, Point3(np.zeros(3), frame=CAMERA), np.zeros(3), True)
    with pytest.raises(LengthMismatch):
        build_trajectory([s], [overhead_camera(), overhead_camera()])


def test_build_trajectory_drops_empty_frames():
    cam = overhead_camera()
    samples = [
        FilteredSample(0.0, None, None, False),
        FilteredSample(0.1, Point3(np.array([0.0, 0.0, 2.0]), frame=CAMERA), np.zeros(3), True),
        FilteredSample(0.2, Point3(np.array([1.0, 0.0, 2.0]), frame=CAMERA), np.zeros(3), True),
    ]
    traj = build_trajectory(samples, [cam] * 3)
    assert len(traj) == 2
    np.testing.assert_allclose(traj.times, [0.1, 0.2])
    np.testing.assert_allclose(traj.positions[0], [0.0, 0.0, 3.0], atol=1e-15)
    np.testing.assert_allclose(traj.positions[1], [1.0, 0.0, 3.0], atol=1e-15)


def test_build_trajectory_matches_to_world_per_frame():
    # random poses and points, with gaps: each row is to_world, bit for bit
    rng = np.random.default_rng(8)
    samples, poses = [], []
    for k in range(300):
        rot = Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(0.0, np.pi))
        poses.append(RigidTransform(rot, rng.normal(scale=10.0, size=3), CAMERA, WORLD))
        pos = None if rng.uniform() < 0.2 else Point3(rng.normal(scale=5.0, size=3), CAMERA)
        samples.append(FilteredSample(0.1 * k, pos, None, pos is not None))
    traj = build_trajectory(samples, poses)
    kept = [(s, pose) for s, pose in zip(samples, poses) if s.position is not None]
    assert len(traj) == len(kept)
    np.testing.assert_array_equal(traj.times, [s.timestamp for s, _ in kept])
    np.testing.assert_array_equal(
        traj.positions, [to_world(s.position, pose).xyz for s, pose in kept]
    )
    # the frame tags are checked per pose, as to_world checks them
    poses[-1] = RigidTransform(Rotation.identity(), np.zeros(3), WORLD, WORLD)
    samples[-1] = FilteredSample(0.0, Point3(np.zeros(3), CAMERA), None, True)
    with pytest.raises(FrameMismatch):
        build_trajectory(samples, poses)


def test_build_trajectory_all_empty_raises():
    with pytest.raises(EmptySequence):
        build_trajectory([FilteredSample(0.0, None, None, False)], [overhead_camera()])


def test_project_ground_drops_height():
    traj = Trajectory(
        np.array([0.0, 1.0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    )
    track = project_ground(traj)
    assert isinstance(track, GroundTrack)
    np.testing.assert_allclose(track.xy, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_allclose(track.times, traj.times)


def test_path_length_unit_square():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    assert path_length(xy) == pytest.approx(4.0)


def test_path_length_needs_two_points():
    with pytest.raises(TooFewPoints):
        path_length(np.array([[0.0, 0.0]]))


def test_final_goal_error_345():
    track = GroundTrack(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert final_goal_error(track, np.array([4.0, 5.0])) == pytest.approx(5.0)


def test_tracking_error_constant_offset():
    # points 0.1 m to the side of a straight reference line
    ref = np.array([[0.0, 0.0], [2.0, 0.0]])
    xy = np.column_stack([np.linspace(0.2, 1.8, 9), np.full(9, 0.1)])
    track = GroundTrack(np.linspace(0.0, 1.0, 9), xy)
    rmse, worst = tracking_error(track, ref)
    assert rmse == pytest.approx(0.1)
    assert worst == pytest.approx(0.1)


def test_tracking_error_beyond_segment_uses_endpoint():
    ref = np.array([[0.0, 0.0], [1.0, 0.0]])
    track = GroundTrack(np.array([0.0]), np.array([[2.0, 0.0]]))
    rmse, worst = tracking_error(track, ref)
    assert rmse == pytest.approx(1.0)
    assert worst == pytest.approx(1.0)


def test_tracking_error_picks_nearest_segment():
    # L-shaped reference; the point is nearest the second leg
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    track = GroundTrack(np.array([0.0]), np.array([[1.2, 0.5]]))
    rmse, _ = tracking_error(track, ref)
    assert rmse == pytest.approx(0.2)


def test_tracking_error_matches_per_point_loop():
    # several chunks of point-segment pairs, one zero-length segment;
    # the reference loop does the same float arithmetic one pair at a time
    rng = np.random.default_rng(12)
    ref = np.cumsum(rng.normal(scale=0.3, size=(40, 2)), axis=0)
    ref[17] = ref[16]
    xy = ref[rng.integers(0, 40, size=500)] + rng.normal(scale=0.2, size=(500, 2))
    track = GroundTrack(np.arange(500.0), xy)

    def brute(p):
        best = np.inf
        for a, b in zip(ref[:-1], ref[1:]):
            ab = b - a
            denom = ab[0] * ab[0] + ab[1] * ab[1]
            denom = denom if denom > 0.0 else 1.0
            t = min(max(((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / denom, 0.0), 1.0)
            dx, dy = a[0] + t * ab[0] - p[0], a[1] + t * ab[1] - p[1]
            best = min(best, np.sqrt(dx * dx + dy * dy))
        return best

    d = np.array([brute(p) for p in xy])
    np.testing.assert_array_equal(
        tracking_error(track, ref), (np.sqrt(np.mean(d**2)), np.max(d))
    )


def test_judge_success_strict_threshold():
    assert judge_success(0.249)
    assert not judge_success(0.25)
    assert judge_success(0.4, threshold=0.5)


def test_compute_metrics_fields():
    ref = np.array([[0.0, 0.0], [1.0, 0.0]])
    track = GroundTrack(
        np.array([0.0, 0.5, 1.0]),
        np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]),
    )
    m = compute_metrics(track, ref, goal_xy=np.array([1.0, 0.0]))
    assert isinstance(m, NavMetrics)
    assert m.path_length_m == pytest.approx(1.0)
    assert m.final_goal_error_m == pytest.approx(0.0)
    assert m.tracking_rmse_m == pytest.approx(0.0)
    assert m.tracking_max_m == pytest.approx(0.0)
    assert m.success


def test_compute_metrics_failure_case():
    ref = np.array([[0.0, 0.0], [1.0, 0.0]])
    track = GroundTrack(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [0.5, 0.0]]))
    m = compute_metrics(track, ref, goal_xy=np.array([1.0, 0.0]))
    assert m.final_goal_error_m == pytest.approx(0.5)
    assert not m.success


def test_to_world_identity_pose_passes_through():
    cam = RigidTransform(Rotation.identity(), np.zeros(3), frame_from=CAMERA, frame_to=WORLD)
    p = to_world(Point3(np.array([0.3, -0.1, 2.0]), frame=CAMERA), cam)
    np.testing.assert_allclose(p.xyz, [0.3, -0.1, 2.0], atol=1e-15)


def test_to_world_pure_translation():
    cam = RigidTransform(
        Rotation.identity(), np.array([0.0, 1.9, 0.0]), frame_from=CAMERA, frame_to=WORLD
    )
    p = to_world(Point3(np.zeros(3), frame=CAMERA), cam)
    np.testing.assert_allclose(p.xyz, [0.0, 1.9, 0.0], atol=1e-15)


def test_to_world_yaw_quarter_turn():
    cam = RigidTransform(
        Rotation.from_axis_angle([0.0, 0.0, 1.0], np.pi / 2),
        np.zeros(3),
        frame_from=CAMERA,
        frame_to=WORLD,
    )
    p = to_world(Point3(np.array([1.0, 0.0, 0.0]), frame=CAMERA), cam)
    np.testing.assert_allclose(p.xyz, [0.0, 1.0, 0.0], atol=1e-15)


def test_build_trajectory_single_sample():
    cam = overhead_camera()
    s = FilteredSample(0.7, Point3(np.array([0.0, 0.0, 2.0]), frame=CAMERA), np.zeros(3), True)
    traj = build_trajectory([s], [cam])
    assert len(traj) == 1
    np.testing.assert_allclose(traj.times, [0.7])


def test_build_trajectory_identity_poses_is_identity():
    ident = RigidTransform(
        Rotation.identity(), np.zeros(3), frame_from=CAMERA, frame_to=WORLD
    )
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(5, 3)) + [0.0, 0.0, 3.0]
    samples = [
        FilteredSample(0.1 * k, Point3(p, frame=CAMERA), np.zeros(3), True)
        for k, p in enumerate(pts)
    ]
    traj = build_trajectory(samples, [ident] * 5)
    np.testing.assert_allclose(traj.positions, pts, atol=1e-15)


def test_project_ground_vertical_motion_is_stationary():
    traj = Trajectory(
        np.array([0.0, 1.0, 2.0]),
        np.array([[0.5, -0.5, 1.0], [0.5, -0.5, 2.0], [0.5, -0.5, 3.0]]),
    )
    track = project_ground(traj)
    np.testing.assert_allclose(track.xy, [[0.5, -0.5]] * 3)


def test_path_length_two_points():
    assert path_length(np.array([[0.0, 0.0], [0.6, 0.8]])) == pytest.approx(1.0)


def test_path_length_rigid_motion_invariant():
    rng = np.random.default_rng(44)
    xy = rng.normal(size=(12, 2))
    base = path_length(xy)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    moved = xy @ rot.T + rng.normal(size=2)
    assert abs(path_length(moved) - base) < 1e-9


def test_final_goal_error_at_goal_is_zero():
    track = GroundTrack(np.array([0.0]), np.array([[0.25, -0.3]]))
    assert final_goal_error(track, np.array([0.25, -0.3])) == 0.0


def test_final_goal_error_blue_endpoint():
    # endpoint (-0.8, -0.8) against goal (-0.85, -0.73):
    # sqrt(0.05^2 + 0.07^2) = 0.08602...
    track = GroundTrack(np.array([0.0]), np.array([[-0.8, -0.8]]))
    err = final_goal_error(track, np.array([-0.85, -0.73]))
    assert err == pytest.approx(np.hypot(0.05, 0.07), abs=1e-12)
    assert err == pytest.approx(0.086, abs=5e-4)


def test_tracking_error_of_track_against_itself_is_zero():
    rng = np.random.default_rng(50)
    xy = np.cumsum(rng.uniform(0.01, 0.1, size=(20, 2)), axis=0)
    track = GroundTrack(np.linspace(0.0, 1.0, 20), xy)
    rmse, worst = tracking_error(track, xy)
    assert rmse == 0.0
    assert worst == 0.0


def test_judge_success_spec_examples():
    assert judge_success(0.05, threshold=0.25)
    assert not judge_success(0.30, threshold=0.25)
