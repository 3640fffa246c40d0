"""Synthetic scenes: planning, execution, rendering, and the full loop."""

import math

import numpy as np
import pytest

from trajex.errors import RobotOutsideFrustum, UnknownScenario
from trajex.geometry import CAMERA, WORLD, RigidTransform, Rotation, _unchecked, invert, project_points
from trajex.io import CameraPoseRecord, DetectionRecord, PipelineConfig, default_config
from trajex.pnp import _BOX_FAULTS, BoundingBox, _box_faults
from trajex.synth import (
    _LOOKAHEAD,
    _RATE,
    NoiseSpec,
    Scenario,
    SimulatedScene,
    _arc_length,
    _interp,
    _wrap_angle,
    builtin_scenarios,
    camera_looking,
    execute,
    get_scenario,
    planned_path,
    run_pipeline,
    simulate,
)
from trajex.trajectory import GroundTrack, path_length


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(dropout=1.0)
    # min() skips a NaN, and a NaN dropout used to simulate as no dropout at all
    for field in ("pixel_sigma", "dropout", "pose_sigma_t", "pose_sigma_r"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="noise levels must be finite"):
                NoiseSpec(**{field: bad})
    assert NoiseSpec.zero().pixel_sigma == 0.0
    assert NoiseSpec.calibrated().pixel_sigma > 0.0


def test_suggested_meas_sigma_floor():
    assert NoiseSpec.zero().suggested_meas_sigma() == pytest.approx(1e-6)
    assert NoiseSpec(pixel_sigma=1.0).suggested_meas_sigma() == pytest.approx(0.08)


def test_builtin_scenarios_fixed_endpoints():
    table = builtin_scenarios()
    assert set(table) == {"ugv_red", "ugv_blue", "quadruped"}
    np.testing.assert_allclose(table["ugv_red"].start, [0.0, 1.9])
    np.testing.assert_allclose(table["ugv_red"].goal, [0.9, -0.8])
    np.testing.assert_allclose(table["ugv_blue"].start, [0.0, 1.9])
    np.testing.assert_allclose(table["ugv_blue"].goal, [-0.8, -0.8])
    np.testing.assert_allclose(table["quadruped"].start, [-1.1, -2.5])
    np.testing.assert_allclose(table["quadruped"].goal, [0.9, -2.6])
    assert len(table["quadruped"].obstacles) == 3


def test_get_scenario_unknown_name():
    with pytest.raises(UnknownScenario, match="nope"):
        get_scenario("nope")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("x", ((0.0, 0.0),), 1.0, 1.0, (0, 0, 1), (0, 1, 0))
    with pytest.raises(ValueError):
        Scenario("x", ((0.0, 0.0), (1.0, 0.0)), 0.0, 1.0, (0, 0, 1), (0, 1, 0))


def test_camera_looking_axes():
    # looking along -y: optical axis -y, image x right means world -x
    pose = camera_looking(np.array([0.0, 4.5, 1.5]), np.array([0.0, -1.0, 0.0]))
    np.testing.assert_allclose(pose.rotation.matrix[:, 2], [0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pose.translation, [0.0, 4.5, 1.5])
    # image y must point at or below the horizon (no roll)
    assert pose.rotation.matrix[2, 1] <= 0.0


def test_planned_path_hits_endpoints():
    for name in ("ugv_red", "ugv_blue", "quadruped"):
        sc = get_scenario(name)
        path = planned_path(sc)
        np.testing.assert_allclose(path[0], sc.start, atol=1e-9)
        np.testing.assert_allclose(path[-1], sc.goal, atol=1e-9)


def test_planned_path_shortcuts_corners():
    sc = get_scenario("ugv_red")
    path = planned_path(sc)
    wps = np.asarray(sc.waypoints)
    raw_len = path_length(wps)
    smooth_len = path_length(path)
    # rounding a corner shortens the route, but never below the chord
    assert smooth_len < raw_len
    assert smooth_len > np.linalg.norm(wps[-1] - wps[0])
    # the path stays near the waypoint polyline
    mid = wps[1]
    assert np.min(np.linalg.norm(path - mid, axis=1)) < sc.blend_radius


def test_execute_diff_drive_parks_at_goal():
    sc = get_scenario("ugv_red")
    path = planned_path(sc)
    times, xy = execute(path, "diff_drive", sc.speed, sc.duration)
    assert np.linalg.norm(xy[-1] - sc.goal) < 1e-5
    # speed never exceeds the commanded limit
    speeds = np.linalg.norm(np.diff(xy, axis=0), axis=1) * 100.0
    assert speeds.max() <= sc.speed + 1e-6


def test_execute_quadruped_sways():
    sc = get_scenario("quadruped")
    path = planned_path(sc)
    _, smooth = execute(path, "diff_drive", sc.speed, sc.duration)
    _, sway = execute(path, "quadruped_proxy", sc.speed, sc.duration)
    lateral = np.linalg.norm(smooth - sway, axis=1)
    assert lateral.max() > 0.003
    # the gait dies out when the platform parks
    assert np.linalg.norm(sway[-1] - sc.goal) < 1e-4


def test_execute_rejects_unknown_mode():
    sc = get_scenario("ugv_red")
    for mode in ("warp", "identity"):
        with pytest.raises(ValueError, match="unknown executor"):
            execute(planned_path(sc), mode, sc.speed, sc.duration)


def test_simulate_first_frame_box_oracle():
    # hand-computed from the pinhole model: robot face center (0, 1.9, 0.15)
    # seen from (0, 4.5, 1.5) pitched down 25 degrees with fx=fy=500
    scene = simulate(get_scenario("ugv_red"), NoiseSpec.zero(), seed=0)
    box = scene.frames[0].bbox
    assert box.cx == pytest.approx(320.0, abs=1e-9)
    assert box.cy == pytest.approx(261.3035199362949, abs=1e-9)
    assert box.w == pytest.approx(68.33086722367534, abs=1e-9)
    assert box.h == pytest.approx(51.248150417756506, abs=1e-9)
    np.testing.assert_allclose(scene.truth.xy[0], [0.0, 1.9])


def test_simulate_zero_noise_has_no_drops_or_jitter():
    scene = simulate(get_scenario("ugv_blue"), NoiseSpec.zero(), seed=3)
    assert isinstance(scene, SimulatedScene)
    assert all(f.present for f in scene.frames)
    cam = scene.camera
    for rec in scene.poses:
        np.testing.assert_allclose(rec.pose.translation, cam.translation, atol=1e-12)
        np.testing.assert_allclose(rec.pose.rotation.matrix, cam.rotation.matrix, atol=1e-12)


def test_simulate_is_deterministic_per_seed():
    noise = NoiseSpec.calibrated()
    a = simulate(get_scenario("ugv_red"), noise, seed=7)
    b = simulate(get_scenario("ugv_red"), noise, seed=7)
    c = simulate(get_scenario("ugv_red"), noise, seed=8)
    for fa, fb in zip(a.frames, b.frames):
        assert (fa.bbox is None) == (fb.bbox is None)
        if fa.bbox is not None:
            assert fa.bbox == fb.bbox
    assert any(
        fa.bbox != fc.bbox
        for fa, fc in zip(a.frames, c.frames)
        if fa.bbox is not None and fc.bbox is not None
    )


def test_simulate_dropout_rate():
    noise = NoiseSpec(dropout=0.3)
    missing = 0
    total = 0
    for seed in range(5):
        scene = simulate(get_scenario("ugv_red"), noise, seed=seed)
        missing += sum(1 for f in scene.frames if not f.present)
        total += len(scene.frames)
    assert 0.25 < missing / total < 0.35


def test_simulate_pixel_noise_perturbs_boxes():
    clean = simulate(get_scenario("ugv_red"), NoiseSpec.zero(), seed=1)
    noisy = simulate(get_scenario("ugv_red"), NoiseSpec(pixel_sigma=2.0), seed=1)
    deltas = [
        abs(a.bbox.cx - b.bbox.cx)
        for a, b in zip(clean.frames, noisy.frames)
        if a.bbox is not None and b.bbox is not None
    ]
    assert max(deltas) > 0.5
    assert np.median(deltas) < 10.0


def test_simulate_rejects_offscreen_robot():
    sc = get_scenario("ugv_red")
    behind = Scenario(
        name="behind",
        waypoints=((0.0, 8.0), (0.0, 9.0)),
        speed=0.35,
        duration=4.0,
        camera_position=sc.camera_position,
        camera_view=sc.camera_view,
    )
    with pytest.raises(RobotOutsideFrustum):
        simulate(behind, NoiseSpec.zero(), seed=0)


def test_run_pipeline_zero_noise_is_tight():
    result = run_pipeline("ugv_red", NoiseSpec.zero(), seed=0)
    assert result.metrics.final_goal_error_m < 1e-3
    assert result.metrics.tracking_rmse_m < 1e-3
    assert result.metrics.success
    # reported length is the driven route, which ends at the goal
    assert result.metrics.path_length_m == pytest.approx(
        path_length(result.truth.xy), abs=1e-12
    )


def test_run_pipeline_accepts_scenario_object():
    result = run_pipeline(get_scenario("quadruped"), NoiseSpec.zero(), seed=2)
    assert result.scenario.name == "quadruped"
    assert result.extraction.frames_total == len(result.scene.frames)


def test_truth_path_lengths_match_reported_routes():
    lengths = {
        name: path_length(simulate(get_scenario(name), NoiseSpec.zero(), seed=0).truth.xy)
        for name in ("ugv_red", "ugv_blue", "quadruped")
    }
    assert 2.2 <= lengths["quadruped"] <= 2.4
    assert round(lengths["ugv_red"], 1) == 2.8
    assert round(lengths["ugv_blue"], 1) == 2.9
    assert round(lengths["quadruped"], 1) == 2.3


def test_quadruped_path_clears_obstacles():
    sc = get_scenario("quadruped")
    truth = simulate(sc, NoiseSpec.zero(), seed=0).truth
    for ox, oy, radius in sc.obstacles:
        gap = np.min(np.linalg.norm(truth.xy - [ox, oy], axis=1))
        assert gap > radius


def test_simulate_light_dropout_within_binomial_band():
    prob = 0.1
    scene = simulate(get_scenario("ugv_red"), NoiseSpec(dropout=prob), seed=2)
    n = len(scene.frames)
    missing = sum(1 for f in scene.frames if not f.present)
    spread = 3.0 * np.sqrt(n * prob * (1.0 - prob))
    assert abs(missing - n * prob) <= spread


def test_execute_diff_drive_straight_meter():
    track = np.array([[0.0, 0.0], [1.0, 0.0]])
    _, xy = execute(track, "diff_drive", speed=0.35, duration=6.0)
    assert np.linalg.norm(xy[-1] - [1.0, 0.0]) < 0.02


def test_quadruped_proxy_bounded_sway_on_straight_track():
    track = np.array([[0.0, 0.0], [2.0, 0.0]])
    _, xy = execute(track, "quadruped_proxy", speed=0.3, duration=9.0)
    assert np.abs(xy[:, 1]).max() < 0.05


def test_quadruped_calibrated_rmse_stays_in_band():
    rmses = [
        run_pipeline("quadruped", NoiseSpec.calibrated(), seed=s).metrics.tracking_rmse_m
        for s in range(10)
    ]
    assert np.median(rmses) <= 0.08


# ---------------------------------------------------------------------------
# The per-frame simulate loop and the numpy execute loop that the array code
# replaced, kept verbatim as oracles: simulate and execute must give their
# bits, and fail with their exception types and messages at the same frame.


def _execute_numpy(
    path: np.ndarray, mode: str, speed: float, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    if mode not in ("diff_drive", "quadruped_proxy"):
        raise ValueError(f"unknown executor mode '{mode}'")
    path = np.asarray(path, dtype=float)
    n = int(round(duration * _RATE)) + 1
    times = np.arange(n) / _RATE
    s = _arc_length(path)

    goal = path[-1]
    dt = 1.0 / _RATE
    k_slow = 4.0
    omega_max = 2.5

    x, y = path[0]
    heading = math.atan2(path[1, 1] - path[0, 1], path[1, 0] - path[0, 0])
    xs = np.empty(n)
    ys = np.empty(n)
    hs = np.empty(n)
    vs = np.empty(n)
    i = 0
    for k in range(n):
        pos = np.array([x, y])
        d_goal = float(np.linalg.norm(goal - pos))
        v = min(speed, k_slow * d_goal)
        # track progress along the path, never backwards
        while i + 1 < len(path) and np.linalg.norm(path[i + 1] - pos) <= np.linalg.norm(
            path[i] - pos
        ):
            i += 1
        s_target = s[i] + _LOOKAHEAD
        if s_target >= s[-1]:
            target = goal
        else:
            target = np.array(
                [np.interp(s_target, s, path[:, 0]), np.interp(s_target, s, path[:, 1])]
            )
        to_t = target - pos
        dist_t = float(np.linalg.norm(to_t))
        bearing_err = _wrap_angle(math.atan2(to_t[1], to_t[0]) - heading)
        if dist_t > 1e-9:
            omega = np.clip(v * 2.0 * math.sin(bearing_err) / dist_t, -omega_max, omega_max)
        else:
            omega = 0.0
        if d_goal < 1e-6:
            v, omega = 0.0, 0.0
        xs[k], ys[k], hs[k], vs[k] = x, y, heading, v
        x += v * math.cos(heading) * dt
        y += v * math.sin(heading) * dt
        heading = _wrap_angle(heading + omega * dt)

    xy = np.column_stack([xs, ys])
    if mode == "quadruped_proxy":
        # trot sway: lateral oscillation that dies out as the robot stops
        amp = 0.008
        gait_hz = 2.0
        lateral = np.column_stack([-np.sin(hs), np.cos(hs)])
        xy = xy + (amp * (vs / speed) * np.sin(2.0 * math.pi * gait_hz * times))[:, None] * lateral
    return times, xy


def _simulate_per_frame(
    scenario: Scenario,
    noise: NoiseSpec | None = None,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> SimulatedScene:
    if noise is None:
        noise = NoiseSpec.zero()
    if config is None:
        config = default_config()
    intrinsics = config.camera()
    model = config.robot()
    frame_rate = float(config["frame_rate"])

    path = planned_path(scenario)
    exec_times, exec_xy = _execute_numpy(path, scenario.executor, scenario.speed, scenario.duration)

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
    face_h = model.height / 2.0
    corners_offset = model.corners()  # billboard: model axes == camera axes
    u_max, v_max = 2.0 * intrinsics.cx, 2.0 * intrinsics.cy

    rng = np.random.default_rng(seed)
    frames: list[DetectionRecord] = []
    poses: list[CameraPoseRecord] = []
    boxes = []  # (frame, cx, cy, w, h, confidence) of each detected frame
    for k in range(n_frames):
        # fixed draw order, every frame, independent of outcomes
        pose_g = rng.standard_normal(6)
        drop_u = rng.random()
        corner_g = rng.standard_normal(8)
        conf_g = rng.standard_normal()

        center_w = np.array([truth_xy[k, 0], truth_xy[k, 1], face_h])
        center_c = cam_inv.rotation.apply(center_w) + cam_inv.translation
        if center_c[2] < 0.1:
            raise RobotOutsideFrustum(f"frame {k}: face depth {center_c[2]:.3f} m")
        u, v = project_points(intrinsics, center_c + corners_offset).T
        if np.min(u) < 0.0 or np.max(u) > u_max or np.min(v) < 0.0 or np.max(v) > v_max:
            raise RobotOutsideFrustum(f"frame {k}: face projects outside the image")

        t_noisy = cam_pose.translation + noise.pose_sigma_t * pose_g[:3]
        r_noisy = Rotation.from_rotvec(noise.pose_sigma_r * pose_g[3:]) @ cam_pose.rotation
        poses.append(
            CameraPoseRecord(
                float(frame_times[k]),
                RigidTransform(r_noisy, t_noisy, frame_from=CAMERA, frame_to=WORLD),
            )
        )

        if drop_u < noise.dropout:
            frames.append(DetectionRecord(k, float(frame_times[k])))
            continue
        uj = u + noise.pixel_sigma * corner_g[:4]
        vj = v + noise.pixel_sigma * corner_g[4:]
        # box edges from averaged corner pairs, so jitter stays unbiased
        left = 0.5 * (uj[0] + uj[3])
        right = 0.5 * (uj[1] + uj[2])
        top = 0.5 * (vj[0] + vj[1])
        bottom = 0.5 * (vj[2] + vj[3])
        conf = float(np.clip(0.9 + 0.05 * conf_g, 0.0, 1.0))
        boxes.append((k, 0.5 * (left + right), 0.5 * (top + bottom), right - left, bottom - top, conf))
        frames.append(None)

    # BoundingBox's checks, run once over all boxes
    vals = np.array([b[1:5] for b in boxes]).reshape(-1, 4)
    fault = _box_faults(vals)
    for i in np.flatnonzero(fault)[:1]:
        raise ValueError(_BOX_FAULTS[fault[i]].format(*vals[i, 2:].tolist()))
    for (k, *_, conf), (cx, cy, w, h) in zip(boxes, vals.tolist()):
        box = _unchecked(BoundingBox, cx=cx, cy=cy, w=w, h=h)
        frames[k] = DetectionRecord(k, float(frame_times[k]), box, conf)
    return SimulatedScene(scenario, frames, poses, truth, cam_pose)


def _same_scene(a: SimulatedScene, b: SimulatedScene):
    assert len(a.frames) == len(b.frames) and len(a.poses) == len(b.poses)
    for fa, fb in zip(a.frames, b.frames):
        assert (fa.frame_index, fa.timestamp, fa.confidence) == (fb.frame_index, fb.timestamp, fb.confidence)
        assert type(fa.frame_index) is type(fb.frame_index) and type(fa.confidence) is type(fb.confidence)
        assert (fa.bbox is None) == (fb.bbox is None)
        if fa.bbox is not None:
            boxes = np.array([[f.bbox.cx, f.bbox.cy, f.bbox.w, f.bbox.h] for f in (fa, fb)])
            assert boxes[0].tobytes() == boxes[1].tobytes()
    for pa, pb in zip(a.poses, b.poses):
        assert pa.timestamp == pb.timestamp
        assert (pa.pose.frame_from, pa.pose.frame_to) == (pb.pose.frame_from, pb.pose.frame_to)
        assert pa.pose.rotation.matrix.tobytes() == pb.pose.rotation.matrix.tobytes()
        assert pa.pose.translation.tobytes() == pb.pose.translation.tobytes()
        assert not pb.pose.rotation.matrix.flags.writeable and not pb.pose.translation.flags.writeable
    assert a.truth.times.tobytes() == b.truth.times.tobytes()
    assert a.truth.xy.tobytes() == b.truth.xy.tobytes()


def _same_execute(path, mode, speed, duration):
    for want, got in zip(_execute_numpy(path, mode, speed, duration), execute(path, mode, speed, duration)):
        assert want.tobytes() == got.tobytes()


_HEAVY = NoiseSpec(3.0, 0.2, 0.02, 0.01)


@pytest.mark.parametrize("name", ["ugv_red", "ugv_blue", "quadruped"])
def test_simulate_and_execute_match_per_frame_loops(name):
    sc = get_scenario(name)
    path = planned_path(sc)
    for mode in ("diff_drive", "quadruped_proxy"):
        _same_execute(path, mode, sc.speed, sc.duration)
    for noise in (NoiseSpec.zero(), NoiseSpec.calibrated(), _HEAVY):
        for seed in (0, 1):
            _same_scene(_simulate_per_frame(sc, noise, seed), simulate(sc, noise, seed))


def test_execute_matches_numpy_loop_off_the_stock_routes():
    line = np.array([[0.0, 0.0], [1.0, 0.0]])
    zigzag = np.array([[0.0, 0.0], [0.3, 0.4], [0.3, 0.4], [0.6, -0.2], [1.5, 0.1]])  # a repeated vertex
    for path, speed, duration in ((line, 0.35, 6.0), (zigzag, 0.5, 5.0), (zigzag, 2.0, 0.5)):
        for mode in ("diff_drive", "quadruped_proxy"):
            _same_execute(path, mode, speed, duration)


def test_interp_has_numpy_bits():
    # the executor loop absorbs a last-bit change of its lookahead point in the heading's rounding,
    # so the formula is held to np.interp directly
    rng = np.random.default_rng(5)
    xp = np.cumsum(rng.exponential(size=300) * (rng.random(300) > 0.1))  # with repeated knots
    fp = rng.standard_normal(300) * 10.0 ** rng.integers(-3, 4, 300)
    fp[[7, 8, 40, 60, 61, 80, 81]] = np.inf, 1e308, -1e308, np.inf, -np.inf, np.inf, np.inf
    x = np.concatenate([rng.uniform(xp[0] - 1.0, xp[-1] + 1.0, 5000), xp, [np.nan, -np.inf, np.inf]])
    with np.errstate(all="ignore"):
        want = np.interp(x, xp, fp)
    got = np.array([_interp(xi, xp.tolist(), fp.tolist()) for xi in x.tolist()])
    assert want.tobytes() == got.tobytes()


def _scenario(waypoints, camera_position=(0.0, 4.5, 1.5), camera_view=(0.0, -0.9, -0.42)):
    return Scenario("hostile", waypoints, 0.35, 10.0, camera_position, camera_view)


_FACING = ((0.0, 2.5, 0.0005), (0.0, -1.0, 0.0))  # a camera at face height, looking along -y


_TINY_FACE = default_config().with_overrides(["robot.width=0.001", "robot.height=0.001"])


@pytest.mark.parametrize(
    "scenario, noise, config",
    [
        (get_scenario("ugv_red"), NoiseSpec(pose_sigma_t=1e308), None),  # the translation overflows to inf
        (get_scenario("ugv_red"), NoiseSpec(pose_sigma_r=1e300), None),  # the rotation goes non-finite
        (get_scenario("quadruped"), NoiseSpec(pose_sigma_t=1e308, pose_sigma_r=1e300), None),
        (get_scenario("ugv_blue"), NoiseSpec(pixel_sigma=1e6), None),  # a box of negative size
        (get_scenario("ugv_blue"), NoiseSpec(pixel_sigma=1e308, dropout=0.5), None),  # an infinite box
        # behind the camera from frame 0: the depth check comes before the pose checks
        (_scenario(((0.0, 8.0), (0.0, 9.0))), NoiseSpec(pose_sigma_t=1e308, pose_sigma_r=1e300), None),
        # outside the image from frame 0: the frustum check comes before the pose checks
        (_scenario(((3.0, 1.9), (3.0, 1.0))), NoiseSpec(pose_sigma_t=1e308, pose_sigma_r=1e300), None),
        # leaves the image at the bottom, and later goes behind the camera
        (_scenario(((0.0, 1.9), (0.0, 7.0))), NoiseSpec.zero(), None),
        # a face too small to leave the image, driven into a camera at its height
        (_scenario(((0.0, 2.0), (0.0, 3.0)), *_FACING), NoiseSpec.zero(), _TINY_FACE),
        (_scenario(((0.0, 2.0), (0.0, 3.0)), *_FACING), NoiseSpec(pose_sigma_t=1e308), _TINY_FACE),
    ],
)
def test_simulate_fails_as_per_frame_loop(scenario, noise, config):
    with np.errstate(all="ignore"), pytest.raises((ValueError, RobotOutsideFrustum)) as want:
        _simulate_per_frame(scenario, noise, 0, config)
    with pytest.raises(want.type) as got:  # and with no RuntimeWarning on the way
        simulate(scenario, noise, 0, config)
    assert type(got.value) is want.type and str(got.value) == str(want.value)
