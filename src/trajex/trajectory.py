"""World-frame trajectories, ground tracks, and navigation metrics.

The filter produces camera-frame positions. These are carried into the
world frame with the per-frame camera pose, stacked into a Trajectory,
and flattened onto the ground plane (z = 0, world z-up) for scoring
against a reference path and a goal point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequence, LengthMismatch, TooFewPoints
from .geometry import Point3, RigidTransform, _check_frames, transform_point
from .kalman import FilteredSample

_PAIRS = 4096  # point-segment pairs per chunk in tracking_error


def _freeze_track(track, what: str, field: str, dim: int):
    """Validate times and the (N, dim) point field, then store read-only arrays."""
    t = np.asarray(track.times, dtype=float)
    p = np.asarray(getattr(track, field), dtype=float)
    if t.ndim != 1 or p.shape != (t.shape[0], dim):
        raise ValueError(f"shape mismatch: times {t.shape}, {field} {p.shape}")
    if t.shape[0] == 0:
        raise EmptySequence(f"{what} has no points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise ValueError(f"{what} must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError(f"{what} times must strictly increase")
    t.flags.writeable = False
    p.flags.writeable = False
    object.__setattr__(track, "times", t)
    object.__setattr__(track, field, p)


@dataclass(frozen=True)
class Trajectory:
    """Timestamped world-frame positions; times strictly increasing."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        _freeze_track(self, "trajectory", "positions", 3)

    def __len__(self) -> int:
        return int(self.times.shape[0])


@dataclass(frozen=True)
class GroundTrack:
    """Planar track: timestamped (x, y) in the world frame."""

    times: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        _freeze_track(self, "ground track", "xy", 2)

    def __len__(self) -> int:
        return int(self.times.shape[0])


@dataclass(frozen=True)
class NavMetrics:
    """Scalar summary of one navigation trial, distances in meters."""

    path_length_m: float
    final_goal_error_m: float
    tracking_rmse_m: float
    tracking_max_m: float
    success: bool


def to_world(p_cam: Point3, camera_pose: RigidTransform) -> Point3:
    """Carry a camera-frame point into the world frame.

    camera_pose maps camera coordinates to world coordinates (i.e. it
    is the camera's pose in the world).
    """
    return transform_point(camera_pose, p_cam)


def _world_track(times, p: np.ndarray, poses: list[RigidTransform], frames) -> Trajectory:
    """Camera-frame points p (N, 3) at times (N,) carried into the world as to_world carries
    them: each frame tag (frames) is checked against its pose's, and p becomes R p + t."""
    for pose, frame in zip(poses, frames):
        _check_frames(pose.frame_from, frame, "transform_point")
    r = np.array([pose.rotation.matrix for pose in poses])
    t = np.array([pose.translation for pose in poses])
    return Trajectory(times, (r @ p[:, :, None])[:, :, 0] + t)


def build_trajectory(
    samples: list[FilteredSample],
    camera_poses: list[RigidTransform],
) -> Trajectory:
    """Assemble a world-frame trajectory from filter output.

    samples and camera_poses are per-frame and must have equal length.
    Frames where the filter had no estimate yet are dropped.
    """
    if len(samples) != len(camera_poses):
        raise LengthMismatch(
            f"{len(samples)} samples but {len(camera_poses)} camera poses"
        )
    kept = [(s, pose) for s, pose in zip(samples, camera_poses) if s.position is not None]
    if not kept:
        raise EmptySequence("no frame produced a position estimate")
    p = np.array([s.position.xyz for s, _ in kept])
    frames = [s.position.frame for s, _ in kept]
    return _world_track([s.timestamp for s, _ in kept], p, [pose for _, pose in kept], frames)


def project_ground(traj: Trajectory) -> GroundTrack:
    """Drop the vertical coordinate (world z) from a trajectory."""
    return GroundTrack(traj.times, traj.positions[:, :2])


def path_length(xy: np.ndarray) -> float:
    """Total polyline length of an (N, 2) point sequence, N >= 2."""
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got {xy.shape}")
    if xy.shape[0] < 2:
        raise TooFewPoints("path length needs at least 2 points")
    return float(np.sum(np.linalg.norm(np.diff(xy, axis=0), axis=1)))


def final_goal_error(track: GroundTrack, goal_xy: np.ndarray) -> float:
    """Distance from the last track point to the goal."""
    goal = np.asarray(goal_xy, dtype=float)
    return float(np.linalg.norm(track.xy[-1] - goal))


def tracking_error(track: GroundTrack, reference_xy: np.ndarray) -> tuple[float, float]:
    """(rmse, max) of track-point distances to a reference polyline.

    Each track point is scored against its nearest point anywhere on
    the reference, so the measure is lateral deviation and does not
    punish speed differences along the path.
    """
    ref = np.asarray(reference_xy, dtype=float)
    if ref.ndim != 2 or ref.shape[1] != 2:
        raise ValueError(f"expected (N, 2) reference, got {ref.shape}")
    if ref.shape[0] < 2:
        raise TooFewPoints("reference polyline needs at least 2 points")
    a = ref[:-1]
    ab = ref[1:] - a
    denom = np.sum(ab**2, axis=1)
    denom = np.where(denom > 0.0, denom, 1.0)  # degenerate segment -> endpoint
    step = max(1, _PAIRS // len(a))  # points per chunk; one if its segments alone exceed _PAIRS
    d = np.empty(len(track))
    for i in range(0, len(track), step):
        p = track.xy[i : i + step, None, :]
        t = np.clip(np.sum((p - a) * ab, axis=2) / denom, 0.0, 1.0)
        proj = a + t[:, :, None] * ab
        d[i : i + step] = np.min(np.linalg.norm(proj - p, axis=2), axis=1)
    return float(np.sqrt(np.mean(d**2))), float(np.max(d))


def judge_success(final_goal_error_m: float, threshold: float = 0.25) -> bool:
    """A trial succeeds when the final goal error is under the threshold."""
    return float(final_goal_error_m) < threshold


def compute_metrics(
    track: GroundTrack,
    reference_xy: np.ndarray,
    goal_xy: np.ndarray,
    threshold: float = 0.25,
) -> NavMetrics:
    """Score an extracted ground track against a reference path and goal."""
    rmse, worst = tracking_error(track, reference_xy)
    err = final_goal_error(track, goal_xy)
    return NavMetrics(
        path_length_m=path_length(track.xy) if len(track) >= 2 else 0.0,
        final_goal_error_m=err,
        tracking_rmse_m=rmse,
        tracking_max_m=worst,
        success=judge_success(err, threshold),
    )
