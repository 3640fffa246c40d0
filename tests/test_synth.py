"""Synthetic scenes: planning, execution, rendering, and the full loop."""

import numpy as np
import pytest

from trajex.errors import RobotOutsideFrustum, UnknownScenario
from trajex.synth import (
    NoiseSpec,
    Scenario,
    SimulatedScene,
    builtin_scenarios,
    camera_looking,
    execute,
    get_scenario,
    planned_path,
    run_pipeline,
    simulate,
)
from trajex.trajectory import path_length


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(dropout=1.0)
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
