"""End-to-end extraction: observations in, world trajectory out.

Shared by the command-line front end and the synthetic-scene runner.
Per-frame solver failures are tolerated (the frame is treated like a
dropped detection); only a trial with no usable frame at all fails.
It runs on arrays from pose solve to world track, through the filter and
world map that run_filter and build_trajectory adapt to per-frame lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequence, PipelineError
from .geometry import CAMERA
from .io import FrameObservation, PipelineConfig
from .kalman import _filter
from .pnp import _positions
from .trajectory import GroundTrack, Trajectory, _world_track, project_ground


_CHUNK = 512  # frames per stacked pose solve


def _camera_positions(observations: list[FrameObservation], config: PipelineConfig) -> np.ndarray:
    """Camera-frame positions (N, 3) of the robot, NaN where a frame has no box or its solve
    fails with a GeometryError (it is then bridged like a dropout). The detected frames are
    solved as one stack, in chunks that bound its memory."""
    model, intrinsics, refine = config.robot(), config.camera(), bool(config["pnp.refine"])
    found = [i for i, obs in enumerate(observations) if obs.bbox is not None]
    boxes = np.array([(b.cx, b.cy, b.w, b.h) for b in (observations[i].bbox for i in found)])
    z = np.full((len(observations), 3), np.nan)
    for i in range(0, len(found), _CHUNK):
        z[found[i : i + _CHUNK]] = _positions(boxes[i : i + _CHUNK], model, intrinsics, refine)
    return z


@dataclass(frozen=True)
class ExtractionResult:
    """The world trajectory and ground track of one extraction, with its frame counts."""

    trajectory: Trajectory
    ground_track: GroundTrack
    frames_total: int
    frames_detected: int
    frames_solved: int


def extract_trajectory(
    observations: list[FrameObservation],
    config: PipelineConfig,
) -> ExtractionResult:
    """Recover the robot's world-frame trajectory from framewise input.

    Each observation carries an optional detection box and the camera
    pose for that frame. Boxes are lifted to camera-frame positions by
    the planar pose solver, smoothed by the constant-velocity filter,
    and mapped through the camera poses into the world.

    Raises PipelineError when not a single frame yields a usable
    position measurement.
    """
    times = np.array([obs.timestamp for obs in observations], dtype=float)
    if not np.isfinite(times).all():  # as a Measurement checks it, before the solve
        raise ValueError("timestamp must be finite")
    z = _camera_positions(observations, config)
    try:
        first, rows = _filter(times, z, config.filter_params())
    except EmptySequence as e:
        raise PipelineError(
            f"no usable position measurement in {len(observations)} frames"
        ) from e
    poses = [obs.camera_pose for obs in observations[first:]]
    traj = _world_track(times[first:], rows[:, :3], poses, [CAMERA] * len(poses))
    return ExtractionResult(
        trajectory=traj,
        ground_track=project_ground(traj),
        frames_total=len(observations),
        frames_detected=sum(obs.bbox is not None for obs in observations),
        frames_solved=int((~np.isnan(z[:, 0])).sum()),
    )
