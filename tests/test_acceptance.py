"""End-to-end acceptance checks for the whole extraction stack.

Each test prints one [PASS]/[FAIL] line with the measured numbers so a
full run reads as a checklist. Tolerances are part of the contract and
must not be loosened to make a failing build green.
"""

import time

import numpy as np

from trajex.cli import main
from trajex.geometry import (
    CAMERA,
    WORLD,
    CameraIntrinsics,
    RigidTransform,
    Rotation,
    project_points,
)
from trajex.io import (
    CameraPoseRecord,
    DetectionRecord,
    read_camera_poses,
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
from trajex.kalman import FilterParams, Measurement, init_state, predict, run_filter, update
from trajex.pnp import (
    BoundingBox,
    RobotModel,
    reprojection_jacobian,
    reprojection_residual,
    solve_ippe,
)
from trajex.synth import NoiseSpec, builtin_scenarios, run_pipeline
from trajex.trajectory import GroundTrack, NavMetrics, Trajectory

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
MODEL = RobotModel(width=0.4, height=0.3)


def _random_pose(rng, max_tilt_deg=60.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = Rotation.from_axis_angle(axis, rng.uniform(0.0, np.radians(max_tilt_deg)))
    depth = rng.uniform(0.5, 10.0)
    t = np.array(
        [rng.uniform(-0.3, 0.3) * depth, rng.uniform(-0.3, 0.3) * depth, depth]
    )
    return rot, t


def test_solver_closes_loop_on_random_poses(checklist):
    """1000 noise-free poses, depth 0.5-10 m, tilt up to 60 degrees."""
    rng = np.random.default_rng(2024)
    n = 1000
    worst_t = 0.0
    worst_r = 0.0
    start = time.perf_counter()
    for _ in range(n):
        rot, t = _random_pose(rng)
        img = project_points(K, (rot.matrix @ MODEL.corners().T).T + t)
        best = solve_ippe(img, MODEL, K)[0]
        worst_t = max(worst_t, float(np.linalg.norm(best.translation - t)))
        worst_r = max(worst_r, best.rotation.angle_to(rot))
    elapsed = time.perf_counter() - start
    ok = worst_t <= 1e-6 and worst_r <= 1e-6 and elapsed < 5.0
    checklist(
        "solver closes the loop on 1000 random poses",
        ok,
        f"worst translation {worst_t:.3e} m (tol 1e-6), "
        f"worst rotation {worst_r:.3e} rad (tol 1e-6), {elapsed:.2f} s (limit 5 s)",
    )


def test_jacobian_matches_finite_differences(checklist):
    """Analytic reprojection Jacobian vs central differences at 100 poses."""
    rng = np.random.default_rng(77)
    model_pts = MODEL.corners()
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        rot, t = _random_pose(rng)
        img = project_points(K, (rot.matrix @ model_pts.T).T + t)
        img = img + rng.normal(scale=1.0, size=img.shape)
        jac = reprojection_jacobian(rot, t, model_pts, K)
        fd = np.zeros_like(jac)
        for j in range(6):
            d = np.zeros(6)
            d[j] = eps
            rp = Rotation.from_rotvec(d[:3]) @ rot
            rm = Rotation.from_rotvec(-d[:3]) @ rot
            plus = reprojection_residual(rp, t + d[3:], model_pts, img, K)
            minus = reprojection_residual(rm, t - d[3:], model_pts, img, K)
            fd[:, j] = (plus - minus) / (2.0 * eps)
        rel = np.abs(jac - fd).max() / max(1.0, np.abs(fd).max())
        worst = max(worst, float(rel))
    ok = worst <= 1e-4
    checklist(
        "analytic Jacobian matches finite differences",
        ok,
        f"worst relative error {worst:.3e} over 100 poses (tol 1e-4)",
    )


def test_filter_invariants_and_improvement(checklist):
    """Covariance stays symmetric PSD over 10000 steps; smoothing helps."""
    params = FilterParams(accel_sigma=0.4, meas_sigma=0.05)
    rng = np.random.default_rng(11)
    x, p = init_state(np.zeros(3), params)
    worst_sym = 0.0
    worst_eig = np.inf
    for _ in range(10000):
        x, p = predict(x, p, float(rng.uniform(0.01, 0.1)), params)
        if rng.uniform() > 0.2:  # occasional dropouts
            x, p = update(x, p, rng.normal(scale=0.5, size=3), params)
        worst_sym = max(worst_sym, float(np.abs(p - p.T).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(p).min()))
    invariants_ok = worst_sym <= 1e-6 and worst_eig >= -1e-6

    wins = 0
    n_seeds = 100
    for seed in range(n_seeds):
        srng = np.random.default_rng(seed)
        dt = 0.1
        times = dt * np.arange(120)
        vel = srng.uniform(-0.5, 0.5, size=3)
        accel = srng.normal(scale=0.2, size=(119, 3))
        vels = vel + np.vstack([np.zeros(3), np.cumsum(accel * dt, axis=0)])
        truth = np.vstack([np.zeros(3), np.cumsum(vels[:-1] * dt, axis=0)])
        noisy = truth + srng.normal(scale=0.05, size=truth.shape)
        out = run_filter(
            [Measurement(t, z) for t, z in zip(times, noisy)],
            FilterParams(accel_sigma=0.3, meas_sigma=0.05),
        )
        est = np.array([s.position.xyz for s in out])
        if np.sqrt(np.mean((est - truth) ** 2)) < np.sqrt(np.mean((noisy - truth) ** 2)):
            wins += 1

    # dominated limits: near-zero measurement noise pins the posterior to
    # the measurement, near-infinite noise leaves the prior untouched
    base = FilterParams()
    x_prior, p_prior = predict(*init_state(np.array([1.0, 2.0, 3.0]), base), 0.1, base)
    z = np.array([5.0, -1.0, 2.0])
    x_small, _ = update(x_prior, p_prior, z, FilterParams(meas_sigma=1e-9))
    meas_lim = float(np.abs(x_small[:3] - z).max())
    x_big, _ = update(x_prior, p_prior, z, FilterParams(meas_sigma=1e9))
    prior_lim = float(np.linalg.norm(x_big - x_prior) / np.linalg.norm(x_prior))
    limits_ok = meas_lim <= 1e-6 and prior_lim <= 1e-6

    ok = invariants_ok and limits_ok and wins >= 95
    checklist(
        "filter keeps covariance invariants and beats raw measurements",
        ok,
        f"worst asymmetry {worst_sym:.2e} (tol 1e-6), min eigenvalue {worst_eig:.2e} "
        f"(tol -1e-6) over 10000 steps; measurement-dominated limit {meas_lim:.1e}, "
        f"prior-dominated limit {prior_lim:.1e} (tol 1e-6); "
        f"filtered < raw in {wins}/{n_seeds} seeds (need 95)",
    )


def test_zero_noise_closure(checklist):
    """Perfect observations reproduce the driven path almost exactly."""
    details = []
    ok = True
    for name in sorted(builtin_scenarios()):
        start = time.perf_counter()
        trial = run_pipeline(name, NoiseSpec.zero(), seed=0)
        elapsed = time.perf_counter() - start
        m = trial.metrics
        good = m.final_goal_error_m < 1e-3 and m.tracking_rmse_m < 1e-3 and elapsed < 1.0
        ok = ok and good
        details.append(
            f"{name} final {m.final_goal_error_m:.1e} rmse {m.tracking_rmse_m:.1e} "
            f"{elapsed:.2f}s"
        )
    checklist(
        "zero-noise closure per scenario",
        ok,
        "; ".join(details) + " (tol 1e-3 m, limit 1 s each)",
    )


def test_calibrated_noise_error_bands(checklist):
    """Realistic noise keeps errors in the expected band, 10 seeds each."""
    noise = NoiseSpec.calibrated()
    reference_path = {  # driven route lengths from the trials this mirrors
        "ugv_red": 2.8,
        "ugv_blue": 2.9,
        "quadruped": 2.3,
    }
    ok = True
    details = []
    for name in sorted(builtin_scenarios()):
        trials = [run_pipeline(name, noise, seed=s) for s in range(10)]
        med_final = float(np.median([t.metrics.final_goal_error_m for t in trials]))
        med_rmse = float(np.median([t.metrics.tracking_rmse_m for t in trials]))
        med_path = float(np.median([t.metrics.path_length_m for t in trials]))
        worst_max = max(t.metrics.tracking_max_m for t in trials)
        good = 0.02 <= med_final <= 0.15 and worst_max <= 0.20
        ok = ok and good
        details.append(
            f"{name} median final {med_final:.3f} m, rmse {med_rmse:.3f} m, "
            f"path {med_path:.2f} m (ref {reference_path[name]}), "
            f"worst max {worst_max:.3f} m"
        )
    checklist(
        "calibrated-noise error bands",
        ok,
        "; ".join(details)
        + " | need median final in [0.02, 0.15] and max <= 0.20;"
        + " reference bands: final 0.05-0.10, rmse 0.03-0.08, max < 0.15",
    )


def test_batch_of_30_trials(checklist, tmp_path, capsys):
    """A 30-trial calibrated batch completes and reports a summary table."""
    csv = tmp_path / "batch.csv"
    code = main(
        [
            "batch", "--seeds", "10", "--csv", str(csv),
            "--set", "sim.pixel_sigma=1.0", "--set", "sim.dropout=0.05",
            "--set", "sim.pose_sigma_t=0.01", "--set", "sim.pose_sigma_r=0.005",
        ]
    )
    stdout = capsys.readouterr().out
    lines = [ln for ln in stdout.strip().splitlines() if not ln.startswith("wrote ")]
    table_ok = (
        code == 0
        and lines[0].split()[0] == "scenario"
        and len(lines) == 5  # header, three scenario rows, success total
        and lines[-1].startswith("successes ")
        and lines[-1].endswith("/30")
    )
    successes = lines[-1].split()[1] if table_ok else "?"
    rows = csv.read_text().splitlines() if csv.exists() else []
    csv_ok = len(rows) == 1 + 30 + 3
    ok = table_ok and csv_ok
    checklist(
        "30-trial calibrated batch",
        ok,
        f"exit {code}, successes {successes} (reference run scored 23/30; "
        f"reported, not asserted), csv rows {len(rows)}",
    )


def test_repeated_runs_are_byte_identical(checklist, tmp_path, capsys):
    """The same command twice produces identical bytes everywhere."""
    noise = [
        "--set", "sim.pixel_sigma=1.0", "--set", "sim.dropout=0.05",
        "--set", "sim.pose_sigma_t=0.01", "--set", "sim.pose_sigma_r=0.005",
    ]

    def run_twice(label, args):
        outs = []
        stdouts = []
        for sub in ("a", "b"):
            d = tmp_path / f"{label}_{sub}"
            code = main(args + ["--out-dir", str(d)])
            assert code == 0
            stdouts.append(capsys.readouterr().out.replace(str(d), "<out>"))
            outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        return outs[0] == outs[1] and stdouts[0] == stdouts[1], len(outs[0])

    sim_same, _ = run_twice(
        "sim", ["simulate", "--scenario", "ugv_blue", "--seed", "9"] + noise
    )
    src = tmp_path / "sim_a"
    ext_same, _ = run_twice(
        "ext",
        [
            "extract",
            "--detections", str(src / "detections.txt"),
            "--poses", str(src / "poses.txt"),
        ],
    )
    eval_same, n_eval = run_twice(
        "eval", ["eval", "--scenario", "ugv_red", "--seed", "4"] + noise
    )
    ok = sim_same and ext_same and eval_same and n_eval == 4
    checklist(
        "repeated runs are byte-identical",
        ok,
        f"simulate identical: {sim_same}, extract identical: {ext_same}, "
        f"eval identical: {eval_same} ({n_eval} files)",
    )


def test_file_formats_round_trip_exactly(checklist, tmp_path):
    """1000 write-read round trips preserve every value to 1e-9."""
    rng = np.random.default_rng(404)
    worst = 0.0

    def err(written, read):
        return float(np.abs(np.asarray(written) - np.asarray(read)).max())

    for _ in range(200):
        # detections
        recs = []
        t = 0.0
        for i in range(5):
            t += rng.uniform(0.01, 0.1)
            if rng.uniform() < 0.2:
                recs.append(DetectionRecord(i, t))
            else:
                conf = float(rng.uniform()) if rng.uniform() < 0.5 else None
                recs.append(
                    DetectionRecord(
                        i,
                        t,
                        BoundingBox(*rng.uniform([0, 0, 1, 1], [640, 480, 200, 200])),
                        conf,
                    )
                )
        p = tmp_path / "det.txt"
        write_detections(recs, p)
        for a, b in zip(recs, read_detections(p)):
            worst = max(worst, err(a.timestamp, b.timestamp))
            if a.bbox is not None:
                worst = max(
                    worst,
                    err(
                        [a.bbox.cx, a.bbox.cy, a.bbox.w, a.bbox.h],
                        [b.bbox.cx, b.bbox.cy, b.bbox.w, b.bbox.h],
                    ),
                )
            if a.confidence is not None:
                worst = max(worst, err(a.confidence, b.confidence))

        # camera poses; rotations compared matrix-elementwise
        poses = []
        t = 0.0
        for _ in range(5):
            t += rng.uniform(0.01, 0.1)
            rot = Rotation.from_rotvec(rng.normal(scale=1.0, size=3))
            poses.append(
                CameraPoseRecord(
                    t,
                    RigidTransform(
                        rot,
                        rng.normal(scale=5.0, size=3),
                        frame_from=CAMERA,
                        frame_to=WORLD,
                    ),
                )
            )
        p = tmp_path / "poses.txt"
        write_camera_poses(poses, p)
        for a, b in zip(poses, read_camera_poses(p)):
            worst = max(worst, err(a.timestamp, b.timestamp))
            worst = max(worst, err(a.pose.translation, b.pose.translation))
            worst = max(worst, err(a.pose.rotation.matrix, b.pose.rotation.matrix))

        # trajectory
        times = np.cumsum(rng.uniform(0.01, 0.2, size=6))
        traj = Trajectory(times, rng.normal(scale=10.0, size=(6, 3)))
        p = tmp_path / "traj.txt"
        write_trajectory(traj, p)
        rt = read_trajectory(p)
        worst = max(worst, err(traj.times, rt.times))
        worst = max(worst, err(traj.positions, rt.positions))

        # ground track
        track = GroundTrack(times, rng.normal(scale=10.0, size=(6, 2)))
        p = tmp_path / "track.txt"
        write_ground_track(track, p)
        rtr = read_ground_track(p)
        worst = max(worst, err(track.times, rtr.times))
        worst = max(worst, err(track.xy, rtr.xy))

        # metrics
        m = NavMetrics(*rng.uniform(0.0, 10.0, size=4), bool(rng.integers(2)))
        p = tmp_path / "metrics.txt"
        write_metrics(m, p)
        rm = read_metrics(p)
        worst = max(
            worst,
            err(
                [m.path_length_m, m.final_goal_error_m, m.tracking_rmse_m, m.tracking_max_m],
                [rm.path_length_m, rm.final_goal_error_m, rm.tracking_rmse_m, rm.tracking_max_m],
            ),
        )
        assert m.success == rm.success

    ok = worst <= 1e-9
    checklist(
        "file formats round-trip exactly",
        ok,
        f"worst elementwise error {worst:.2e} over 1000 round trips (tol 1e-9)",
    )


def test_errors_grow_with_pixel_noise(checklist):
    """Median tracking error is non-decreasing in detector noise."""
    levels = [0.0, 0.5, 1.0, 2.0]
    medians = []
    for sigma in levels:
        noise = NoiseSpec(pixel_sigma=sigma)
        rmses = [
            run_pipeline("ugv_red", noise, seed=s).metrics.tracking_rmse_m
            for s in range(20)
        ]
        medians.append(float(np.median(rmses)))
    ok = all(medians[i] <= medians[i + 1] + 1e-12 for i in range(len(medians) - 1))
    checklist(
        "median tracking error grows with pixel noise",
        ok,
        "medians "
        + ", ".join(f"{s:g}px -> {m:.4f} m" for s, m in zip(levels, medians))
        + " (20 seeds per level)",
    )
