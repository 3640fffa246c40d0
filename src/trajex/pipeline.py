"""End-to-end extraction: observations in, world trajectory out.

Shared by the command-line front end and the synthetic-scene runner.
Per-frame solver failures are tolerated (the frame is treated like a
dropped detection); only a trial with no usable frame at all fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequence, PipelineError
from .geometry import _unchecked
from .io import FrameObservation, PipelineConfig
from .kalman import FilteredSample, Measurement, run_filter
from .pnp import _positions
from .trajectory import GroundTrack, Trajectory, build_trajectory, project_ground


_CHUNK = 512  # frames per stacked pose solve


def _measurements(observations: list[FrameObservation], config: PipelineConfig) -> list[Measurement]:
    """A Measurement per observation, from one stacked pose solve of the detected frames, in
    chunks that bound its memory; a frame it cannot solve is bridged like a dropout."""
    if not np.isfinite([obs.timestamp for obs in observations]).all():  # Measurement's check, once
        raise ValueError("timestamp must be finite")
    model, intrinsics, refine = config.robot(), config.camera(), bool(config["pnp.refine"])
    boxes = [obs.bbox for obs in observations if obs.bbox is not None]
    starts = range(0, len(boxes), _CHUNK)
    found = (z for i in starts for z in _positions(boxes[i : i + _CHUNK], model, intrinsics, refine))
    return [  # a solved row is finite
        _unchecked(Measurement, timestamp=obs.timestamp, position=None if obs.bbox is None else next(found))
        for obs in observations
    ]


@dataclass(frozen=True)
class ExtractionResult:
    """Everything one extraction produced, including per-frame detail."""

    trajectory: Trajectory
    ground_track: GroundTrack
    measurements: list[Measurement]
    samples: list[FilteredSample]
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
    measurements = _measurements(observations, config)
    poses = [obs.camera_pose for obs in observations]

    try:
        samples = run_filter(measurements, config.filter_params())
    except EmptySequence as e:
        raise PipelineError(
            f"no usable position measurement in {len(observations)} frames"
        ) from e
    traj = build_trajectory(samples, poses)
    return ExtractionResult(
        trajectory=traj,
        ground_track=project_ground(traj),
        measurements=measurements,
        samples=samples,
        frames_total=len(observations),
        frames_detected=sum(obs.bbox is not None for obs in observations),
        frames_solved=sum(m.position is not None for m in measurements),
    )
