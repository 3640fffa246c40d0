"""Metric robot trajectory recovery from detections and camera poses.

The pipeline: per-frame bounding boxes are lifted to camera-frame 3D
positions by a planar pose solver, smoothed by a constant-velocity
Kalman filter, carried into the world frame with the camera poses, and
projected onto the ground plane for scoring against a reference path.
A synthetic-scene generator with exactly known truth supports testing
the whole chain end to end.
"""

from .errors import (
    DegenerateConfiguration,
    DivergedRefinement,
    FrameMismatch,
    GeometryError,
    InputError,
    NoOverlap,
    NoValidPose,
    ParseError,
    PipelineError,
    PointBehindCamera,
    RobotOutsideFrustum,
    TrajexError,
    UnknownScenario,
)
from .geometry import (
    CAMERA,
    WORLD,
    CameraIntrinsics,
    Point3,
    RigidTransform,
    Rotation,
    invert,
    transform_point,
)
from .io import (
    CameraPoseRecord,
    DetectionRecord,
    FrameObservation,
    PipelineConfig,
    associate,
    default_config,
    read_camera_poses,
    read_config,
    read_detections,
    read_ground_track,
    read_metrics,
    read_trajectory,
    write_camera_poses,
    write_detections,
    write_ground_track,
    write_metrics,
    write_trajectory,
)
from .kalman import FilteredSample, FilterParams, Measurement, predict, run_filter, update
from .pipeline import ExtractionResult, extract_trajectory
from .pnp import (
    BoundingBox,
    PnpSolution,
    RobotModel,
    bbox_to_image_points,
    estimate_robot_pose,
    estimate_robot_position,
    refine_pose,
    solve_ippe,
)
from .synth import (
    NoiseSpec,
    Scenario,
    SimulatedScene,
    TrialResult,
    builtin_scenarios,
    execute,
    get_scenario,
    planned_path,
    run_pipeline,
    simulate,
)
from .trajectory import (
    GroundTrack,
    NavMetrics,
    Trajectory,
    build_trajectory,
    compute_metrics,
    final_goal_error,
    judge_success,
    path_length,
    project_ground,
    tracking_error,
)

__version__ = "0.1.0"
