"""File formats, configuration, and stream association.

All formats are whitespace-separated text with '#' comments and blank
lines ignored. Floats are written with repr() so a write/read cycle
reproduces values bit for bit.

  detections:   frame_index timestamp cx cy w h [confidence]
                frame_index timestamp missing
  camera poses: timestamp tx ty tz qx qy qz qw      (camera-in-world)
  trajectory:   timestamp x y z
  ground track: timestamp x y
  metrics:      name value, one per line
  config:       dotted.key = value

Readers accept a filesystem path or any iterable file-like object;
writers accept a path (written atomically via a temp file and rename)
or an open file-like object. The detection and pose readers check a file
as a whole, each check once over all rows, and report the first faulty
line with the error that line gives on its own.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DenormalizedQuaternion,
    NonMonotonicFrames,
    NonMonotonicTimestamps,
    NoOverlap,
    ParseError,
)
from .geometry import CAMERA, WORLD, CameraIntrinsics, RigidTransform, Rotation
from .geometry import _quat_rotations, _rotation_faults, _unchecked
from .geometry import invert as _invert
from .kalman import FilterParams
from .pnp import _BOX_FAULTS, BoundingBox, RobotModel, _box_faults
from .trajectory import GroundTrack, NavMetrics, Trajectory


@dataclass(frozen=True)
class DetectionRecord:
    """One detector frame; bbox None means the robot was not detected."""

    frame_index: int
    timestamp: float
    bbox: BoundingBox | None = None
    confidence: float | None = None

    @property
    def present(self) -> bool:
        return self.bbox is not None


@dataclass(frozen=True)
class CameraPoseRecord:
    """Camera pose at a timestamp, mapping camera coordinates to world."""

    timestamp: float
    pose: RigidTransform


@dataclass(frozen=True)
class FrameObservation:
    """A detection frame paired with the camera pose valid for it."""

    frame_index: int
    timestamp: float
    bbox: BoundingBox | None
    camera_pose: RigidTransform
    confidence: float | None = None


# ---------------------------------------------------------------------------
# low-level source/target plumbing


def _iter_lines(source):
    """Yield (name, lineno, content) for non-blank, non-comment lines."""
    name = _source_name(source)
    try:
        if isinstance(source, (str, Path)):
            with open(source) as f:
                lines = f.read().splitlines()
        else:
            lines = source.read().splitlines() if hasattr(source, "read") else list(source)
    except UnicodeDecodeError as e:
        msg = f"not {e.encoding} text: {e.reason} at byte {e.start}"
        raise ParseError(msg, source=name) from None
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield name, i, line


def write_text(target, text: str):
    """Write text to a path atomically, or straight to a file object.

    Path targets go through a temp file in the same directory and a
    rename, so readers never see a half-written file.
    """
    if hasattr(target, "write"):
        target.write(text)
        return
    path = Path(target)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _parse_float(token: str, name: str, lineno: int, what: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"bad {what} '{token}'", source=name, line=lineno) from None
    if not math.isfinite(v):
        raise ParseError(f"{what} must be finite, got '{token}'", source=name, line=lineno)
    return v


# ---------------------------------------------------------------------------
# detections


def read_detections(source) -> list[DetectionRecord]:
    """Parse a detection stream.

    Frame indices must strictly increase; gaps are filled in as missing
    frames with linearly interpolated timestamps so downstream code
    sees one record per frame.
    """
    return _read_rows(source, 6, _detection_row, _detections)


def _read_rows(source, width: int, parse, check):
    """check(linenos, keys, values (N, width), name) of the (key, values) that
    parse(tokens, name, lineno) gives each line of source. A line that parse rejects
    is reported only if check finds no fault on an earlier line."""
    linenos, keys, vals, name = [], [], array("d"), _source_name(source)
    try:
        for name, lineno, line in _iter_lines(source):
            key, row = parse(line.split(), name, lineno)
            linenos.append(lineno)
            keys.append(key)
            vals.extend(row)
    except ParseError:
        check(linenos, keys, np.array(vals).reshape(-1, width), name)
        raise
    return check(linenos, keys, np.array(vals).reshape(-1, width), name)


def _detection_row(tok: list, name: str, lineno: int) -> tuple:
    """The frame index and (t, cx, cy, w, h, confidence) of a detection line, NaN where absent."""
    if len(tok) < 3:
        raise ParseError("expected at least 3 fields", source=name, line=lineno)
    try:
        idx = int(tok[0])
    except ValueError:
        raise ParseError(f"bad frame index '{tok[0]}'", source=name, line=lineno) from None
    t = _parse_float(tok[1], name, lineno, "timestamp")
    if tok[2] == "missing":
        if len(tok) != 3:
            raise ParseError("'missing' takes no further fields", source=name, line=lineno)
        return idx, (t, math.nan, math.nan, math.nan, math.nan, math.nan)
    if len(tok) not in (6, 7):
        msg = f"expected 'idx t cx cy w h [conf]' or 'idx t missing', got {len(tok)} fields"
        raise ParseError(msg, source=name, line=lineno)
    box = [_parse_float(v, name, lineno, "box field") for v in tok[2:6]]
    return idx, [t, *box, _parse_float(tok[6], name, lineno, "confidence") if len(tok) == 7 else math.nan]


def _detections(linenos: list, idx: list, vals: np.ndarray, name: str) -> list[DetectionRecord]:
    """Records of parsed detection rows, one per frame, checked as one stack; raises the
    error of the first faulty row."""
    t, boxes, present = vals[:, 0], vals[:, 1:5], ~np.isnan(vals[:, 1])
    box_fault = np.where(present, _box_faults(np.where(present[:, None], boxes, 1.0)), 0)
    frame_late = np.array([False] + [b <= a for a, b in zip(idx, idx[1:])])
    for k in np.flatnonzero(box_fault | frame_late | np.append(False, t[1:] <= t[:-1]))[:1]:
        if box_fault[k]:
            msg = _BOX_FAULTS[box_fault[k]].format(*boxes[k, 2:].tolist())
            raise ParseError(msg, source=name, line=linenos[k])
        if frame_late[k]:
            raise NonMonotonicFrames(f"frame index {idx[k]} after {idx[k - 1]} (line {linenos[k]})")
        raise NonMonotonicTimestamps(f"timestamp {float(t[k])} after {float(t[k - 1])} (line {linenos[k]})")
    out: list[DetectionRecord] = []
    for i, (ti, cx, cy, w, h, c) in zip(idx, vals.tolist()):
        if out:  # a gap is filled with missing frames at interpolated times
            i0, t0 = out[-1].frame_index, out[-1].timestamp
            out += (DetectionRecord(i0 + k, t0 + k / (i - i0) * (ti - t0)) for k in range(1, i - i0))
        box = None if math.isnan(cx) else _unchecked(BoundingBox, cx=cx, cy=cy, w=w, h=h)
        out.append(DetectionRecord(i, ti, box, None if math.isnan(c) else c))
    return out


def _fmt(v) -> str:
    # repr of a builtin float is the shortest exact decimal form
    return repr(float(v))


def write_detections(records, target):
    lines = []
    for r in records:
        if r.bbox is None:
            lines.append(f"{r.frame_index} {_fmt(r.timestamp)} missing")
        else:
            b = r.bbox
            fields = " ".join(_fmt(v) for v in (b.cx, b.cy, b.w, b.h))
            line = f"{r.frame_index} {_fmt(r.timestamp)} {fields}"
            if r.confidence is not None:
                line += f" {_fmt(r.confidence)}"
            lines.append(line)
    write_text(target, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# camera poses


def read_camera_poses(source) -> list[CameraPoseRecord]:
    """Parse a pose stream: timestamp, translation, quaternion (x y z w).

    Each row is the camera's pose in the world frame. Timestamps must
    strictly increase and quaternions must be unit length within 1e-6.
    """
    return _read_rows(source, 8, _pose_row, _poses)


def _pose_row(tok: list, name: str, lineno: int) -> tuple:
    if len(tok) != 8:
        raise ParseError(f"expected 8 fields, got {len(tok)}", source=name, line=lineno)
    return None, [_parse_float(v, name, lineno, "pose field") for v in tok]


def _poses(linenos: list, _, vals: np.ndarray, name: str) -> list[CameraPoseRecord]:
    """Records of parsed pose rows, checked as one stack; raises the error of the first
    faulty row."""
    t = vals[:, 0]
    _, bad, rot = _quat_rotations(vals[:, 4:])
    bad |= _rotation_faults(rot) != 0
    for k in np.flatnonzero(bad | np.append(False, t[1:] <= t[:-1]))[:1]:
        try:  # a row that fails a check fails it again alone
            Rotation.from_quaternion(vals[k, 4:])
        except DenormalizedQuaternion as e:
            raise DenormalizedQuaternion(f"{name}:{linenos[k]}: {e}") from None
        raise NonMonotonicTimestamps(f"timestamp {float(t[k])} after {float(t[k - 1])} (line {linenos[k]})")
    block = np.empty((len(vals), 12))  # R and t in one long-lived allocation per file
    block[:, :9], block[:, 9:] = rot.reshape(-1, 9), vals[:, 1:4]
    block.flags.writeable = False
    rot, trans = block[:, :9].reshape(-1, 3, 3), block[:, 9:]
    return [
        CameraPoseRecord(ti, _unchecked(RigidTransform, rotation=_unchecked(Rotation, matrix=r),
                                        translation=x, frame_from=CAMERA, frame_to=WORLD))
        for ti, r, x in zip(t.tolist(), rot, trans)
    ]


def write_camera_poses(records, target):
    _write_rows(
        ((r.timestamp, *r.pose.translation, *r.pose.rotation.to_quaternion()) for r in records),
        target,
    )


def adapt_poses(
    records: list[CameraPoseRecord],
    invert: bool = False,
    scale: float = 1.0,
    axes: str = "x,y,z",
) -> list[CameraPoseRecord]:
    """Convert poses from a foreign convention into camera-in-world, z-up.

    scale multiplies stored translations (unit conversion), invert flips
    rows that store world-in-camera instead, and axes remaps the source
    world axes onto ours, e.g. 'x,-z,y' for a y-up source.
    """
    remap = _axes_rotation(axes)
    tagged = all(r.pose.frame_from == CAMERA and r.pose.frame_to == WORLD for r in records)
    if tagged and not invert and scale == 1.0 and np.array_equal(remap.matrix, np.eye(3)):
        return list(records)
    out = []
    with np.errstate(over="ignore"):  # a pose that overflows fails its own check
        for r in records:
            try:
                t = r.pose.translation * scale
                pose = RigidTransform(r.pose.rotation, t, r.pose.frame_from, r.pose.frame_to)
                if invert:
                    pose = _invert(pose)
            except ValueError as e:
                raise ParseError(f"pose at time {r.timestamp!r} scaled by {scale!r}: {e}") from None
            pose = RigidTransform(
                remap @ pose.rotation,
                remap.apply(pose.translation),
                frame_from=CAMERA,
                frame_to=WORLD,
            )
            out.append(CameraPoseRecord(r.timestamp, pose))
    return out


def _axes_rotation(spec: str) -> Rotation:
    """Signed axis permutation like 'x,-z,y' as a rotation matrix."""
    if spec.strip() in ("none", ""):
        return Rotation.identity()
    tokens = [s.strip() for s in spec.split(",")]
    if len(tokens) != 3:
        raise ParseError(f"axis spec needs 3 entries, got '{spec}'")
    axis_of = {"x": 0, "y": 1, "z": 2}
    m = np.zeros((3, 3))
    used = set()
    for row, tok in enumerate(tokens):
        sign = 1.0
        if tok.startswith("-"):
            sign, tok = -1.0, tok[1:]
        if tok not in axis_of or tok in used:
            raise ParseError(f"bad axis spec '{spec}'")
        used.add(tok)
        m[row, axis_of[tok]] = sign
    if np.linalg.det(m) < 0.0:
        raise ParseError(f"axis spec '{spec}' is left-handed")
    return Rotation(m)


# ---------------------------------------------------------------------------
# trajectories, tracks, metrics


def _read_track(cls, source, ncols: int, what: str):
    """A cls(times, points) track from rows of ncols finite floats."""
    times, pts = [], []
    for name, lineno, line in _iter_lines(source):
        tok = line.split()
        if len(tok) != ncols:
            raise ParseError(f"expected {ncols} fields, got {len(tok)}", source=name, line=lineno)
        vals = [_parse_float(v, name, lineno, f"{what} field") for v in tok]
        times.append(vals[0])
        pts.append(vals[1:])
    if not times:
        raise ParseError(f"{what} file is empty", source=_source_name(source))
    try:
        return cls(np.array(times), np.array(pts))
    except ValueError as e:
        raise ParseError(str(e), source=_source_name(source)) from None


def _write_rows(rows, target):
    write_text(target, "\n".join(" ".join(_fmt(v) for v in row) for row in rows) + "\n")


def read_trajectory(source) -> Trajectory:
    return _read_track(Trajectory, source, 4, "trajectory")


def write_trajectory(traj: Trajectory, target):
    _write_rows(np.column_stack([traj.times, traj.positions]), target)


def read_ground_track(source) -> GroundTrack:
    return _read_track(GroundTrack, source, 3, "ground track")


def write_ground_track(track: GroundTrack, target):
    _write_rows(np.column_stack([track.times, track.xy]), target)


_METRIC_KEYS = (
    "path_length_m",
    "final_goal_error_m",
    "tracking_rmse_m",
    "tracking_max_m",
    "success",
)


def read_metrics(source) -> NavMetrics:
    vals = {}
    for name, lineno, line in _iter_lines(source):
        tok = line.split()
        if len(tok) != 2:
            raise ParseError(f"expected 'name value', got {len(tok)} fields", source=name, line=lineno)
        key = tok[0]
        if key not in _METRIC_KEYS:
            raise ParseError(f"unknown metric '{key}'", source=name, line=lineno)
        if key == "success":
            if tok[1] not in ("0", "1"):
                raise ParseError(f"success must be 0 or 1, got '{tok[1]}'", source=name, line=lineno)
            vals[key] = tok[1] == "1"
        else:
            vals[key] = _parse_float(tok[1], name, lineno, key)
    missing = [k for k in _METRIC_KEYS if k not in vals]
    if missing:
        raise ParseError(f"missing metrics: {', '.join(missing)}", source=_source_name(source))
    return NavMetrics(**vals)


def write_metrics(metrics: NavMetrics, target):
    lines = [
        f"path_length_m {_fmt(metrics.path_length_m)}",
        f"final_goal_error_m {_fmt(metrics.final_goal_error_m)}",
        f"tracking_rmse_m {_fmt(metrics.tracking_rmse_m)}",
        f"tracking_max_m {_fmt(metrics.tracking_max_m)}",
        f"success {1 if metrics.success else 0}",
    ]
    write_text(target, "\n".join(lines) + "\n")


def _source_name(source) -> str:
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", "<stream>")


# ---------------------------------------------------------------------------
# association


def associate(
    detections: list[DetectionRecord],
    poses: list[CameraPoseRecord],
    max_dt: float,
) -> list[FrameObservation]:
    """Pair each detection frame with the nearest-in-time camera pose.

    Both streams must be in time order. Each pose is used for at most
    one frame; frames with no pose within max_dt are dropped. Raises
    NoOverlap when nothing pairs up at all.
    """
    out: list[FrameObservation] = []
    j = 0
    for det in detections:
        while j + 1 < len(poses) and abs(poses[j + 1].timestamp - det.timestamp) <= abs(
            poses[j].timestamp - det.timestamp
        ):
            j += 1
        if j >= len(poses):
            break
        if abs(poses[j].timestamp - det.timestamp) > max_dt:
            continue
        out.append(
            FrameObservation(
                frame_index=det.frame_index,
                timestamp=det.timestamp,
                bbox=det.bbox,
                camera_pose=poses[j].pose,
                confidence=det.confidence,
            )
        )
        j += 1
    if not out:
        raise NoOverlap("no detection frame has a camera pose within the time tolerance")
    return out


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise levels; all zero means a perfect sensor stack."""

    pixel_sigma: float = 0.0
    dropout: float = 0.0
    pose_sigma_t: float = 0.0
    pose_sigma_r: float = 0.0

    def __post_init__(self):
        if min(self.pixel_sigma, self.dropout, self.pose_sigma_t, self.pose_sigma_r) < 0.0:
            raise ValueError("noise levels must be non-negative")
        if self.dropout >= 1.0:
            raise ValueError("dropout must be below 1")

    @staticmethod
    def zero() -> "NoiseSpec":
        return NoiseSpec()

    @staticmethod
    def calibrated() -> "NoiseSpec":
        """Noise levels representative of a real detector and pose source."""
        return NoiseSpec(pixel_sigma=1.0, dropout=0.05, pose_sigma_t=0.01, pose_sigma_r=0.005)

    def suggested_meas_sigma(self) -> float:
        """Filter measurement noise consistent with these levels.

        One pixel of corner jitter moves the recovered position by a few
        centimeters at the scene's working depths, dominated by the
        depth-from-width term. The floor keeps the filter well posed on
        noise-free data.
        """
        return max(1e-6, 0.08 * self.pixel_sigma)


# key, type, default, help
_CONFIG_SPECS = [
    ("camera.fx", "float", 500.0, "focal length x, pixels"),
    ("camera.fy", "float", 500.0, "focal length y, pixels"),
    ("camera.cx", "float", 320.0, "principal point x, pixels"),
    ("camera.cy", "float", 240.0, "principal point y, pixels"),
    ("robot.width", "float", 0.4, "tracked face width, meters"),
    ("robot.height", "float", 0.3, "tracked face height, meters"),
    ("frame_rate", "float", 30.0, "detector frame rate, Hz"),
    ("filter.accel_sigma", "float", 0.5, "process noise accel density, m/s^2"),
    (
        "filter.meas_sigma",
        "float_or_auto",
        "auto",
        "measurement noise per axis, m; auto = 0.05 for file input, derived from sim noise when simulating",
    ),
    ("filter.init_pos_var", "float_or_auto", "auto", "initial position variance, m^2"),
    ("filter.init_vel_var", "float", 1.0, "initial velocity variance, (m/s)^2"),
    ("pnp.refine", "bool", True, "polish pose with iterative refinement"),
    ("pose.invert", "bool", False, "pose rows store world-in-camera"),
    ("pose.scale", "float", 1.0, "multiply pose translations (unit fix)"),
    ("pose.axes", "str", "x,y,z", "remap of source world axes, e.g. x,-z,y"),
    ("success.threshold", "float", 0.25, "goal radius counted as success, m"),
    ("sim.pixel_sigma", "float", 0.0, "corner jitter in synthetic boxes, px"),
    ("sim.dropout", "float", 0.0, "synthetic detection dropout probability"),
    ("sim.pose_sigma_t", "float", 0.0, "synthetic pose translation noise, m"),
    ("sim.pose_sigma_r", "float", 0.0, "synthetic pose rotation noise, rad"),
]

_SPEC_BY_KEY = {k: (typ, default, doc) for k, typ, default, doc in _CONFIG_SPECS}


def _parse_config_value(key: str, text: str, source=None, line=None):
    typ = _SPEC_BY_KEY[key][0]
    text = text.strip()
    try:
        if typ == "float_or_auto" and text == "auto":
            return "auto"
        if typ in ("float", "float_or_auto"):
            v = float(text)
            if not np.isfinite(v):
                raise ValueError
            return v
        if typ == "bool":
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError
        return text
    except ValueError:
        raise ParseError(f"bad value '{text}' for {key}", source=source, line=line) from None


@dataclass(frozen=True)
class PipelineConfig:
    """Flat dotted-key configuration for extraction and simulation."""

    values: dict

    def __post_init__(self):
        # an out-of-range value raises ValueError from the object it builds
        if self.values["frame_rate"] <= 0.0:
            raise ValueError("frame rate must be positive")
        self.camera(), self.robot(), self.filter_params(), self.noise()

    def __getitem__(self, key: str):
        return self.values[key]

    def camera(self) -> CameraIntrinsics:
        v = self.values
        return CameraIntrinsics(v["camera.fx"], v["camera.fy"], v["camera.cx"], v["camera.cy"])

    def robot(self) -> RobotModel:
        return RobotModel(self.values["robot.width"], self.values["robot.height"])

    def filter_params(self) -> FilterParams:
        v = self.values
        init_pos = v["filter.init_pos_var"]
        meas = v["filter.meas_sigma"]
        return FilterParams(
            accel_sigma=v["filter.accel_sigma"],
            meas_sigma=0.05 if meas == "auto" else meas,
            init_pos_var=None if init_pos == "auto" else init_pos,
            init_vel_var=v["filter.init_vel_var"],
        )

    def noise(self) -> NoiseSpec:
        v = self.values
        return NoiseSpec(
            v["sim.pixel_sigma"], v["sim.dropout"], v["sim.pose_sigma_t"], v["sim.pose_sigma_r"]
        )

    def association_tolerance(self) -> float:
        # half a frame period: a pose further away belongs to another frame
        return 0.5 / self.values["frame_rate"]

    def with_overrides(self, pairs: list[str]) -> "PipelineConfig":
        """Apply 'key=value' override strings, as given on a command line."""
        return _apply_settings(self, (("--set", None, pair) for pair in pairs))


def default_config() -> PipelineConfig:
    return PipelineConfig({k: default for k, _, default, _ in _CONFIG_SPECS})


def read_config(source) -> PipelineConfig:
    """Parse 'key = value' lines on top of the defaults."""
    return _apply_settings(default_config(), _iter_lines(source))


def _apply_settings(config: PipelineConfig, settings) -> PipelineConfig:
    """config updated by (source name, line number, 'key = value') triples."""
    for name, lineno, line in settings:
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got '{line}'", source=name, line=lineno)
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _SPEC_BY_KEY:
            raise ParseError(f"unknown config key '{key}'", source=name, line=lineno)
        value = _parse_config_value(key, text, source=name, line=lineno)
        # every other key already holds a valid value, so a failure is this key's
        try:
            config = PipelineConfig({**config.values, key: value})
        except ValueError as e:
            msg = f"bad value '{text.strip()}' for {key}: {e}"
            raise ParseError(msg, source=name, line=lineno) from None
    return config


def config_keys() -> list[tuple[str, str, str]]:
    """(key, default, description) rows for help output."""
    return [(k, str(default), doc) for k, _, default, doc in _CONFIG_SPECS]
