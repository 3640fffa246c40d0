"""Synthetic navigation scenes with exactly known ground truth.

A scene is a robot driving a planned route on the ground plane, watched
by a static elevated camera. The robot is rendered as a planar face
held parallel to the image plane (a billboard), so its projection is an
exact axis-aligned rectangle; with all noise at zero, the detection
stream is geometrically perfect and the extraction pipeline must close
on the truth to numerical precision. Noise, when requested, enters in
three calibrated places: corner jitter on the boxes, detection dropout,
and white noise on the reported camera poses (the scene is still
rendered with the true pose, as with a real rig whose pose estimate is
imperfect).

Everything is driven by one seeded generator with a fixed per-frame
draw order, so a scene is a pure function of (scenario, noise, seed).
Only the draws run per frame. Projection, pose noise, box edges and the
checks run on arrays over all frames, and the 100 Hz executor runs on
Python floats; both give the bits of a per-frame loop on numpy values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import RobotOutsideFrustum, UnknownScenario
from .geometry import (
    CAMERA,
    WORLD,
    _ROTATION_FAULTS,
    RigidTransform,
    Rotation,
    _rodrigues,
    _rotation_faults,
    _unchecked,
    invert,
    project_points,
)
from .io import (
    DetectionRecord,
    NoiseSpec,
    PipelineConfig,
    _pose_records,
    associate,
    default_config,
)
from .pipeline import ExtractionResult, extract_trajectory
from .pnp import _BOX_FAULTS, BoundingBox, _box_faults
from .trajectory import GroundTrack, NavMetrics, compute_metrics, path_length


@dataclass(frozen=True)
class Scenario:
    """A navigation trial: route waypoints, speeds, and the watching camera."""

    name: str
    waypoints: tuple
    speed: float
    duration: float
    camera_position: tuple
    camera_view: tuple
    executor: str = "diff_drive"
    blend_radius: float = 0.3
    obstacles: tuple = ()

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a scenario needs at least start and goal")
        if self.speed <= 0.0 or self.duration <= 0.0:
            raise ValueError("speed and duration must be positive")

    @property
    def start(self) -> np.ndarray:
        return np.asarray(self.waypoints[0], dtype=float)

    @property
    def goal(self) -> np.ndarray:
        return np.asarray(self.waypoints[-1], dtype=float)

    def camera_pose(self) -> RigidTransform:
        return camera_looking(np.asarray(self.camera_position, dtype=float),
                              np.asarray(self.camera_view, dtype=float))


def camera_looking(position: np.ndarray, view_dir: np.ndarray) -> RigidTransform:
    """Camera-in-world pose for a camera at position looking along view_dir.

    The image x axis is kept horizontal (camera z forward, x right,
    y down; world z up). view_dir must not be vertical.
    """
    z_c = np.asarray(view_dir, dtype=float)
    z_c = z_c / np.linalg.norm(z_c)
    up = np.array([0.0, 0.0, 1.0])
    x_c = np.cross(z_c, up)
    n = np.linalg.norm(x_c)
    if n < 1e-9:
        raise ValueError("camera view direction must not be vertical")
    x_c /= n
    y_c = np.cross(z_c, x_c)
    r = Rotation(np.column_stack([x_c, y_c, z_c]))
    return RigidTransform(r, np.asarray(position, dtype=float), frame_from=CAMERA, frame_to=WORLD)


def _pitched_view(pitch_deg: float) -> tuple:
    """Unit view direction facing world -y, pitched below the horizon."""
    p = math.radians(pitch_deg)
    return (0.0, -math.cos(p), -math.sin(p))


_UGV_CAMERA = dict(camera_position=(0.0, 4.5, 1.5), camera_view=_pitched_view(25.0))
_QUAD_CAMERA = dict(camera_position=(-0.1, 0.6, 1.5), camera_view=_pitched_view(25.0))


def builtin_scenarios() -> dict:
    """The three stock trials; waypoints and cameras are fixed."""
    return {
        "ugv_red": Scenario(
            name="ugv_red",
            waypoints=((0.0, 1.9), (0.5, 0.5), (0.9, -0.8)),
            speed=0.35,
            duration=12.0,
            executor="diff_drive",
            **_UGV_CAMERA,
        ),
        "ugv_blue": Scenario(
            name="ugv_blue",
            waypoints=((0.0, 1.9), (-0.75, 0.5), (-0.8, -0.8)),
            speed=0.35,
            duration=12.0,
            executor="diff_drive",
            **_UGV_CAMERA,
        ),
        "quadruped": Scenario(
            name="quadruped",
            waypoints=(
                (-1.1, -2.5),
                (-0.6, -2.2),
                (0.0, -2.05),
                (0.5, -2.2),
                (0.9, -2.6),
            ),
            speed=0.3,
            duration=11.0,
            executor="quadruped_proxy",
            obstacles=((-1.3, -3.4, 0.15), (-0.2, -2.5, 0.15), (1.1, -3.2, 0.15)),
            **_QUAD_CAMERA,
        ),
    }


def get_scenario(name: str) -> Scenario:
    table = builtin_scenarios()
    if name not in table:
        raise UnknownScenario(f"unknown scenario '{name}'; choose from {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# route geometry


_SPACING = 0.01  # planned path sample spacing, m


def planned_path(scenario: Scenario) -> np.ndarray:
    """Waypoint route with corners rounded off, resampled every 0.01 m of arc."""
    pts = _fillet_polyline(
        np.asarray(scenario.waypoints, dtype=float), scenario.blend_radius
    )
    return _resample(pts)


def _fillet_polyline(wps: np.ndarray, radius: float) -> np.ndarray:
    """Replace interior corners by tangent circular arcs of given radius.

    The radius is shrunk locally when a leg is too short to fit the
    tangent length.
    """
    out = [wps[0]]
    for k in range(1, len(wps) - 1):
        a, b, c = wps[k - 1], wps[k], wps[k + 1]
        u1 = b - a
        u2 = c - b
        l1, l2 = np.linalg.norm(u1), np.linalg.norm(u2)
        u1 /= l1
        u2 /= l2
        cross = u1[0] * u2[1] - u1[1] * u2[0]
        turn = math.atan2(abs(cross), float(u1 @ u2))
        if turn < 1e-9 or radius <= 0.0:
            out.append(b)
            continue
        r = radius
        d = r * math.tan(turn / 2.0)
        lim = 0.49 * min(l1, l2)
        if d > lim:
            d = lim
            r = d / math.tan(turn / 2.0)
        p1 = b - d * u1
        p2 = b + d * u2
        side = 1.0 if cross > 0.0 else -1.0
        center = p1 + r * side * np.array([-u1[1], u1[0]])
        a1 = math.atan2(p1[1] - center[1], p1[0] - center[0])
        n_arc = max(int(math.ceil(r * turn / 0.005)), 2)
        angles = a1 + side * turn * np.linspace(0.0, 1.0, n_arc + 1)
        arc = center + r * np.column_stack([np.cos(angles), np.sin(angles)])
        arc[0], arc[-1] = p1, p2  # pin the tangent points exactly
        out.extend(arc)
    out.append(wps[-1])
    return np.asarray(out)


def _resample(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    keep = np.concatenate([[True], seg > 1e-12])
    pts = pts[keep]
    s = _arc_length(pts)
    grid = np.arange(0.0, s[-1], _SPACING)
    grid = np.append(grid, s[-1])
    x = np.interp(grid, s, pts[:, 0])
    y = np.interp(grid, s, pts[:, 1])
    return np.column_stack([x, y])


def _arc_length(pts: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


# ---------------------------------------------------------------------------
# path execution


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


_RATE = 100.0  # executor control rate, Hz
_LOOKAHEAD = 0.2  # pure-pursuit lookahead along the path, m


def _interp(x: float, xp: list, fp: list) -> float:
    """np.interp(x, xp, fp) of one float on lists, by numpy's own formula and so with its bits.

    bisect finds numpy's interval when xp is sorted; a NaN in xp breaks both searches differently.
    """
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if y != y:  # NaN from one end: numpy retries from the other
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if y != y and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


def execute(path: np.ndarray, mode: str, speed: float, duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Drive a planned path at 100 Hz; returns (times, xy) of the executed motion.

    Modes:
      diff_drive       pure-pursuit unicycle (0.2 m lookahead) with slow-down at the goal
      quadruped_proxy  diff_drive plus a speed-scaled lateral gait sway

    The control loop runs on Python floats: each distance is
    sqrt(dx*dx + dy*dy) and each lookahead point np.interp's formula, so
    the track has the bits of the same loop on numpy 2-vectors.
    """
    if mode not in ("diff_drive", "quadruped_proxy"):
        raise ValueError(f"unknown executor mode '{mode}'")
    path = np.asarray(path, dtype=float)
    n = int(round(duration * _RATE)) + 1
    times = np.arange(n) / _RATE
    s = _arc_length(path).tolist()
    px, py = path[:, 0].tolist(), path[:, 1].tolist()

    gx, gy = px[-1], py[-1]
    dt = 1.0 / _RATE
    k_slow = 4.0
    omega_max = 2.5

    x, y = px[0], py[0]
    heading = math.atan2(py[1] - py[0], px[1] - px[0])
    track = []  # (x, y, heading, v) of each step
    i = 0
    for _ in range(n):
        dx, dy = gx - x, gy - y
        d_goal = math.sqrt(dx * dx + dy * dy)
        v = min(speed, k_slow * d_goal)
        # track progress along the path, never backwards
        dx, dy = px[i] - x, py[i] - y
        d_i = math.sqrt(dx * dx + dy * dy)
        while i + 1 < len(px):
            dx, dy = px[i + 1] - x, py[i + 1] - y
            d_next = math.sqrt(dx * dx + dy * dy)
            if not d_next <= d_i:
                break
            i, d_i = i + 1, d_next
        s_target = s[i] + _LOOKAHEAD
        if s_target >= s[-1]:
            dx, dy = gx - x, gy - y
        else:
            dx, dy = _interp(s_target, s, px) - x, _interp(s_target, s, py) - y
        dist_t = math.sqrt(dx * dx + dy * dy)
        bearing_err = _wrap_angle(math.atan2(dy, dx) - heading)
        if dist_t > 1e-9:
            omega = min(max(v * 2.0 * math.sin(bearing_err) / dist_t, -omega_max), omega_max)
        else:
            omega = 0.0
        if d_goal < 1e-6:
            v, omega = 0.0, 0.0
        track.append((x, y, heading, v))
        x += v * math.cos(heading) * dt
        y += v * math.sin(heading) * dt
        heading = _wrap_angle(heading + omega * dt)

    xs, ys, hs, vs = np.array(track).T
    xy = np.column_stack([xs, ys])
    if mode == "quadruped_proxy":
        # trot sway: lateral oscillation that dies out as the robot stops
        amp = 0.008
        gait_hz = 2.0
        lateral = np.column_stack([-np.sin(hs), np.cos(hs)])
        xy = xy + (amp * (vs / speed) * np.sin(2.0 * math.pi * gait_hz * times))[:, None] * lateral
    return times, xy


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True)
class SimulatedScene:
    """One rendered trial: detector stream, pose stream, and the truth."""

    scenario: Scenario
    frames: list
    poses: list
    truth: GroundTrack
    camera: RigidTransform


def simulate(
    scenario: Scenario,
    noise: NoiseSpec | None = None,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> SimulatedScene:
    """Render a scenario into detection and pose streams.

    The robot's camera-facing face is modelled as a billboard: a
    rectangle of the configured size, centered half its height above
    the robot's ground point, held parallel to the image plane. Its
    projection is therefore an exact axis-aligned box. Corner jitter,
    dropout, and pose noise are drawn per frame from one seeded
    generator with a fixed draw order, so outputs are reproducible and
    comparable across noise levels. The draws are then applied on
    arrays over all frames, and the records are built unchecked at the
    end, once every check has passed over the stack.

    Raises RobotOutsideFrustum if the true face ever comes nearer than
    0.1 m or leaves the image, and ValueError for a noisy pose or box
    that is not finite or not valid. Each frame's checks run in the order
    depth, frustum, rotation, translation, and the first faulty frame
    raises; the boxes are checked after all frames.
    """
    if noise is None:
        noise = NoiseSpec.zero()
    if config is None:
        config = default_config()
    intrinsics = config.camera()
    model = config.robot()
    frame_rate = float(config["frame_rate"])

    path = planned_path(scenario)
    exec_times, exec_xy = execute(path, scenario.executor, scenario.speed, scenario.duration)

    n_frames = int(scenario.duration * frame_rate)
    frame_times = np.arange(n_frames) / frame_rate
    truth_xy = np.column_stack(
        [
            np.interp(frame_times, exec_times, exec_xy[:, 0]),
            np.interp(frame_times, exec_times, exec_xy[:, 1]),
        ]
    )
    truth = GroundTrack(frame_times, truth_xy)

    cam_pose = scenario.camera_pose()
    cam_inv = invert(cam_pose)
    u_max, v_max = 2.0 * intrinsics.cx, 2.0 * intrinsics.cy

    rng = np.random.default_rng(seed)
    draws = np.empty((n_frames, 16))
    for row in draws:
        # fixed draw order, every frame, independent of outcomes
        rng.standard_normal(out=row[:6])
        row[6] = rng.random()
        rng.standard_normal(out=row[7:15])
        row[15] = rng.standard_normal()
    pose_g, drop_u, corner_g, conf_g = draws[:, :6], draws[:, 6], draws[:, 7:15], draws[:, 15]

    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows fails a check below
        center_w = np.column_stack([truth_xy, np.full(n_frames, model.height / 2.0)])
        center_c = center_w @ cam_inv.rotation.matrix.T + cam_inv.translation
        z = center_c[:, 2]
        too_near = z < 0.1
        first_near = int(np.argmax(too_near)) if too_near.any() else n_frames  # no frame past it is projected
        # billboard: model axes == camera axes
        corners = (center_c[:first_near, None] + model.corners()).reshape(-1, 3)
        u, v = project_points(intrinsics, corners).reshape(first_near, 4, 2).transpose(2, 0, 1)
        outside = np.zeros(n_frames, dtype=bool)
        outside[:first_near] = ((u.min(axis=1) < 0.0) | (u.max(axis=1) > u_max)
                                | (v.min(axis=1) < 0.0) | (v.max(axis=1) > v_max))

        t_noisy = cam_pose.translation + noise.pose_sigma_t * pose_g[:, :3]
        r_delta = _rodrigues(noise.pose_sigma_r * pose_g[:, 3:])
        r_noisy = r_delta @ cam_pose.rotation.matrix
        delta_fault, noisy_fault = _rotation_faults(r_delta), _rotation_faults(r_noisy)

    # each frame's first failed check, in the order the per-frame constructors ran them
    t_bad = ~np.isfinite(t_noisy).all(axis=1)
    fault = np.select([too_near, outside, delta_fault > 0, noisy_fault > 0, t_bad], [1, 2, 3, 4, 5])
    for k in np.flatnonzero(fault)[:1].tolist():
        raise [
            RobotOutsideFrustum(f"frame {k}: face depth {z[k]:.3f} m"),
            RobotOutsideFrustum(f"frame {k}: face projects outside the image"),
            ValueError(_ROTATION_FAULTS[delta_fault[k]]),
            ValueError(_ROTATION_FAULTS[noisy_fault[k]]),
            ValueError("translation has non-finite components"),
        ][fault[k] - 1]

    kept = np.flatnonzero(drop_u >= noise.dropout)
    with np.errstate(over="ignore", invalid="ignore"):
        uj = u[kept] + noise.pixel_sigma * corner_g[kept, :4]
        vj = v[kept] + noise.pixel_sigma * corner_g[kept, 4:]
        # box edges from averaged corner pairs, so jitter stays unbiased
        left = 0.5 * (uj[:, 0] + uj[:, 3])
        right = 0.5 * (uj[:, 1] + uj[:, 2])
        top = 0.5 * (vj[:, 0] + vj[:, 1])
        bottom = 0.5 * (vj[:, 2] + vj[:, 3])
        vals = np.column_stack([0.5 * (left + right), 0.5 * (top + bottom), right - left, bottom - top])
    conf = np.clip(0.9 + 0.05 * conf_g[kept], 0.0, 1.0)

    # BoundingBox's checks, run once over the detected boxes
    fault = _box_faults(vals)
    for i in np.flatnonzero(fault)[:1]:
        raise ValueError(_BOX_FAULTS[fault[i]].format(*vals[i, 2:].tolist()))

    times = frame_times.tolist()
    poses = _pose_records(times, r_noisy, t_noisy)
    frames = [DetectionRecord(k, t) for k, t in enumerate(times)]
    for k, (cx, cy, w, h), c in zip(kept.tolist(), vals.tolist(), conf.tolist()):
        frames[k] = DetectionRecord(k, times[k], _unchecked(BoundingBox, cx=cx, cy=cy, w=w, h=h), c)
    return SimulatedScene(scenario, frames, poses, truth, cam_pose)


# ---------------------------------------------------------------------------
# full pipeline on a synthetic scene


@dataclass(frozen=True)
class TrialResult:
    """Metrics plus all intermediate products of one synthetic trial."""

    scenario: Scenario
    metrics: NavMetrics
    extraction: ExtractionResult
    truth: GroundTrack
    scene: SimulatedScene


def run_pipeline(
    scenario: Scenario | str,
    noise: NoiseSpec | None = None,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> TrialResult:
    """Simulate a trial, extract the trajectory, and score it.

    The error metrics compare the extracted ground track against the
    executed truth and the scenario goal; path_length_m reports the
    length of the truth path actually driven. With the default config,
    the filter's measurement noise is chosen to match the requested
    observation noise (see NoiseSpec.suggested_meas_sigma).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if noise is None:
        noise = NoiseSpec.zero()
    if config is None:
        config = default_config()
    if config["filter.meas_sigma"] == "auto":
        values = dict(config.values)
        values["filter.meas_sigma"] = noise.suggested_meas_sigma()
        config = PipelineConfig(values)

    scene = simulate(scenario, noise, seed, config)
    observations = associate(scene.frames, scene.poses, config.association_tolerance())
    extraction = extract_trajectory(observations, config)
    metrics = compute_metrics(
        extraction.ground_track,
        scene.truth.xy,
        scenario.goal,
        threshold=float(config["success.threshold"]),
    )
    metrics = replace(metrics, path_length_m=path_length(scene.truth.xy))
    return TrialResult(scenario, metrics, extraction, scene.truth, scene)
