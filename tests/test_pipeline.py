"""Framewise observations in, world trajectory out."""

import numpy as np
import pytest

from trajex.errors import PipelineError
from trajex.geometry import CAMERA, WORLD, RigidTransform, Rotation
from trajex.io import FrameObservation, default_config
from trajex.pipeline import ExtractionResult, extract_trajectory
from trajex.pnp import BoundingBox


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
    assert sum(1 for s in out.samples if s.position is None) == 0


def test_extract_bridges_frame_whose_solve_fails():
    cfg = default_config()
    obs = [make_obs(k, k / 30.0, box_for_depth(2.0, cfg)) for k in range(30)]
    obs[10] = make_obs(10, 10 / 30.0, BoundingBox(320.0, 240.0, 1e-300, 1e-300))
    out = extract_trajectory(obs, cfg)
    assert out.frames_detected == 30
    assert out.frames_solved == 29
    assert len(out.trajectory) == 30
    assert out.samples[10].from_measurement is False


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
