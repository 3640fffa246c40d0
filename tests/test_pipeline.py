"""Framewise observations in, world trajectory out."""

import numpy as np
import pytest

from trajex.errors import FrameMismatch, GeometryError, PipelineError
from trajex.geometry import CAMERA, WORLD, RigidTransform, Rotation
from trajex.io import FrameObservation, default_config
from trajex.kalman import Measurement, run_filter
from trajex.pipeline import ExtractionResult, _camera_positions, extract_trajectory
from trajex.pnp import BoundingBox, estimate_robot_position
from trajex.trajectory import build_trajectory, project_ground


def overhead_pose(height=4.0):
    return RigidTransform(
        Rotation(np.diag([1.0, -1.0, -1.0])),
        np.array([0.0, 0.0, height]),
        frame_from=CAMERA,
        frame_to=WORLD,
    )


def make_obs(frame, t, bbox):
    return FrameObservation(
        frame_index=frame, timestamp=t, bbox=bbox, camera_pose=overhead_pose()
    )


def box_for_depth(depth, cfg):
    # frontoparallel face straight below the camera
    cam = cfg.camera()
    robot = cfg.robot()
    return BoundingBox(
        cam.cx, cam.cy, cam.fx * robot.width / depth, cam.fy * robot.height / depth
    )


def test_extract_static_target():
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, box_for_depth(2.0, cfg)) for k in range(30)]
    out = extract_trajectory(obs, cfg)
    assert isinstance(out, ExtractionResult)
    assert out.frames_total == 30
    assert out.frames_detected == 30
    assert out.frames_solved == 30
    assert len(out.trajectory) == 30
    # depth 2 below a camera at height 4 puts the target at z=2
    np.testing.assert_allclose(out.trajectory.positions[-1], [0.0, 0.0, 2.0], atol=1e-6)
    np.testing.assert_allclose(out.ground_track.xy[-1], [0.0, 0.0], atol=1e-6)


def test_extract_tolerates_missing_frames():
    cfg = default_config()
    obs = []
    for k in range(30):
        box = None if k % 3 == 1 else box_for_depth(2.0, cfg)
        obs.append(make_obs(k, k / 30.0, box))
    out = extract_trajectory(obs, cfg)
    assert out.frames_detected == 20
    assert out.frames_solved == 20
    # frames before the first detection carry no estimate and are dropped,
    # later gaps are bridged by prediction
    assert len(out.trajectory) == 30
    np.testing.assert_array_equal(out.trajectory.times, [o.timestamp for o in obs])


def test_extract_bridges_frame_whose_solve_fails():
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, box_for_depth(2.0, cfg)) for k in range(30)]
    obs[10] = make_obs(10, 10 / 30.0, BoundingBox(320.0, 240.0, 1e-300, 1e-300))
    out = extract_trajectory(obs, cfg)
    assert out.frames_detected == 30
    assert out.frames_solved == 29
    assert len(out.trajectory) == 30
    # the frame is bridged: its row of the stacked solve is NaN, as a dropout's
    z = _camera_positions(obs, cfg)
    assert np.isnan(z[10]).all() and np.isfinite(np.delete(z, 10, axis=0)).all()


def test_extract_drops_frames_before_first_detection():
    cfg = default_config()
    obs = [make_obs(0, 0.0, None), make_obs(1, 0.1, None)]
    obs += [make_obs(2 + k, 0.2 + k / 10.0, box_for_depth(3.0, cfg)) for k in range(5)]
    out = extract_trajectory(obs, cfg)
    assert len(out.trajectory) == 5
    assert out.trajectory.times[0] == pytest.approx(0.2)


def test_extract_all_missing_fails():
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, None) for k in range(10)]
    with pytest.raises(PipelineError, match="10 frames"):
        extract_trajectory(obs, cfg)


def test_extract_respects_refine_toggle():
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, box_for_depth(2.0, cfg)) for k in range(5)]
    fast = extract_trajectory(obs, cfg.with_overrides(["pnp.refine=false"]))
    assert fast.frames_solved == 5
    np.testing.assert_allclose(fast.trajectory.positions[-1], [0.0, 0.0, 2.0], atol=1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extract_rejects_non_finite_timestamp(bad):
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, box_for_depth(2.0, cfg)) for k in range(5)]
    obs[3] = make_obs(3, bad, None)
    with pytest.raises(ValueError, match="^timestamp must be finite$"):
        extract_trajectory(obs, cfg)


def test_extract_records_are_read_only():
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, box_for_depth(2.0, cfg) if k % 4 else None) for k in range(12)]
    z = _camera_positions(obs, cfg)
    measurements = [Measurement(o.timestamp, None if np.isnan(p).any() else p) for o, p in zip(obs, z)]
    samples = run_filter(measurements, cfg.filter_params())
    arrays = [m.position for m in measurements if m.position is not None]
    arrays += [a for s in samples if s.position is not None for a in (s.position.xyz, s.velocity)]
    assert len(arrays) == 9 + 2 * 11
    for a in arrays:
        assert a.shape == (3,) and np.isfinite(a).all() and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_extract_equals_its_public_parts():
    # extract_trajectory must equal, bit for bit, the composition of public parts
    # that perfbench's traced run rebuilds it from: per-frame solve, Measurement,
    # run_filter and build_trajectory
    cfg = default_config()
    rng = np.random.default_rng(24)
    obs = []
    for k in range(700):
        rot = Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(0.0, np.pi))
        pose = RigidTransform(rot, rng.normal(scale=5.0, size=3), frame_from=CAMERA, frame_to=WORLD)
        box = box_for_depth(rng.uniform(1.5, 6.0), cfg)
        # off-centre, with a noisy size, so that the polish moves every solve
        box = BoundingBox(box.cx + rng.normal(scale=20.0), box.cy + rng.normal(scale=20.0),
                          box.w * rng.uniform(0.9, 1.1), box.h * rng.uniform(0.9, 1.1))
        if k < 4 or k % 50 == 7:  # leading missing frames, then dropouts
            box = None
        if k == 300:  # coincident corners: the solve fails, the frame is bridged
            box = BoundingBox(320.0, 240.0, 1e-300, 1e-300)
        obs.append(FrameObservation(k, k / 30.0, box, pose))
    model, intrinsics, refine = cfg.robot(), cfg.camera(), bool(cfg["pnp.refine"])
    measurements = []
    for o in obs:
        z = None
        if o.bbox is not None:
            try:
                z = estimate_robot_position(o.bbox, model, intrinsics, refine=refine).xyz
            except GeometryError:
                pass
        measurements.append(Measurement(o.timestamp, z))
    ref = build_trajectory(run_filter(measurements, cfg.filter_params()), [o.camera_pose for o in obs])
    out = extract_trajectory(obs, cfg)
    assert out.frames_detected > 512
    assert out.frames_solved == sum(m.position is not None for m in measurements) == out.frames_detected - 1
    for a, b in [(out.trajectory.times, ref.times), (out.trajectory.positions, ref.positions),
                 (out.ground_track.xy, project_ground(ref).xy)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # a pose tagged with another frame fails as it fails in build_trajectory
    o = obs[-1]
    obs[-1] = FrameObservation(o.frame_index, o.timestamp, o.bbox, RigidTransform(
        o.camera_pose.rotation, o.camera_pose.translation, frame_from=WORLD, frame_to=WORLD))
    with pytest.raises(FrameMismatch, match="^transform_point: expected frame 'world', got 'camera'$"):
        extract_trajectory(obs, cfg)
