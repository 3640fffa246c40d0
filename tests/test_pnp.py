"""Planar pose recovery from detection boxes."""

import numpy as np
import pytest

from trajex import FrameObservation, NoiseSpec, default_config, extract_trajectory, pnp, run_pipeline
from trajex.errors import DegenerateConfiguration, DivergedRefinement, GeometryError, PointBehindCamera
from trajex.geometry import CAMERA, CameraIntrinsics, RigidTransform, Rotation, project_points, skew
from trajex.pipeline import _camera_positions
from trajex.pnp import (
    BoundingBox,
    PnpSolution,
    RobotModel,
    bbox_to_image_points,
    estimate_robot_pose,
    estimate_robot_position,
    refine_pose,
    reprojection_jacobian,
    reprojection_residual,
    solve_ippe,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
MODEL = RobotModel(width=0.4, height=0.3)


def random_pose(rng, max_tilt_deg=60.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = Rotation.from_axis_angle(axis, rng.uniform(0.0, np.radians(max_tilt_deg)))
    depth = rng.uniform(0.5, 10.0)
    t = np.array(
        [rng.uniform(-0.3, 0.3) * depth, rng.uniform(-0.3, 0.3) * depth, depth]
    )
    return rot, t


def project_corners(rot, t):
    return project_points(K, (rot.matrix @ MODEL.corners().T).T + t)


def test_bbox_validation():
    with pytest.raises(ValueError):
        BoundingBox(320.0, 240.0, 0.0, 50.0)
    with pytest.raises(ValueError):
        BoundingBox(320.0, 240.0, 100.0, -1.0)
    with pytest.raises(ValueError):
        BoundingBox(np.nan, 240.0, 100.0, 50.0)
    # finite fields whose corner cx + w/2 overflows
    with pytest.raises(ValueError, match="corners must be finite"):
        BoundingBox(1.7e308, 244.527, 1.7e308, 46.54)


def test_bbox_coerces_to_builtin_float():
    b = BoundingBox(np.float64(1.0), np.float64(2.0), np.float64(3.0), np.float64(4.0))
    assert type(b.cx) is float and type(b.h) is float


def test_model_corner_order():
    c = RobotModel(width=2.0, height=1.0).corners()
    np.testing.assert_allclose(
        c,
        [[-1.0, -0.5, 0.0], [1.0, -0.5, 0.0], [1.0, 0.5, 0.0], [-1.0, 0.5, 0.0]],
    )


def test_bbox_corner_oracle():
    pts = bbox_to_image_points(BoundingBox(320.0, 240.0, 100.0, 50.0))
    np.testing.assert_allclose(
        pts, [[270.0, 215.0], [370.0, 215.0], [370.0, 265.0], [270.0, 265.0]]
    )


def test_frontoparallel_box_oracle():
    # 0.4x0.3 face at depth 2 with fx=500: box is exactly 100x75 at the center
    box = BoundingBox(320.0, 240.0, 100.0, 75.0)
    sol = estimate_robot_pose(box, MODEL, K)
    np.testing.assert_allclose(sol.translation, [0.0, 0.0, 2.0], atol=1e-8)
    assert sol.rotation.angle_to(Rotation.identity()) < 1e-4
    assert sol.rmse < 1e-6


def test_solution_validation():
    with pytest.raises(ValueError):
        PnpSolution(Rotation.identity(), np.array([0.0, 0.0, -1.0]), 0.0)
    with pytest.raises(ValueError):
        PnpSolution(Rotation.identity(), np.array([0.0, 0.0, 1.0]), -0.5)


def test_closed_form_recovers_random_poses():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rot, t = random_pose(rng)
        sols = solve_ippe(project_corners(rot, t), MODEL, K)
        best = sols[0]
        assert np.linalg.norm(best.translation - t) < 1e-6
        assert best.rotation.angle_to(rot) < 1e-6
        assert best.rmse < 1e-6


def test_candidates_sorted_by_rmse():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rot, t = random_pose(rng)
        sols = solve_ippe(project_corners(rot, t), MODEL, K)
        assert 1 <= len(sols) <= 2
        rmses = [s.rmse for s in sols]
        assert rmses == sorted(rmses)


def test_tilted_face_yields_two_candidates():
    rot = Rotation.from_axis_angle([0.0, 1.0, 0.0], np.radians(35.0))
    t = np.array([0.2, -0.1, 3.0])
    sols = solve_ippe(project_corners(rot, t), MODEL, K)
    assert len(sols) == 2
    # the runner-up is the reflected-plane ambiguity, not a duplicate
    assert sols[1].rotation.angle_to(sols[0].rotation) > np.radians(5.0)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_ippe(np.zeros((3, 2)), MODEL, K)
    with pytest.raises(ValueError):
        solve_ippe(np.full((4, 2), np.inf), MODEL, K)


def test_collinear_points_degenerate():
    pts = np.array([[100.0, 100.0], [200.0, 100.0], [300.0, 100.0], [400.0, 100.0]])
    with pytest.raises(DegenerateConfiguration):
        solve_ippe(pts, MODEL, K)


def test_coincident_points_degenerate():
    pts = np.tile([[320.0, 240.0]], (4, 1))
    with pytest.raises(DegenerateConfiguration):
        solve_ippe(pts, MODEL, K)


def test_residual_zero_at_true_pose():
    rng = np.random.default_rng(8)
    rot, t = random_pose(rng)
    r = reprojection_residual(rot, t, MODEL.corners(), project_corners(rot, t), K)
    assert r.shape == (8,)
    np.testing.assert_allclose(r, 0.0, atol=1e-9)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    model_pts = MODEL.corners()
    for _ in range(20):
        rot, t = random_pose(rng)
        jac = reprojection_jacobian(rot, t, model_pts, K)
        assert jac.shape == (8, 6)
        img = project_corners(rot, t) + rng.normal(scale=0.5, size=(4, 2))
        fd = np.zeros_like(jac)
        eps = 1e-6
        for j in range(6):
            d = np.zeros(6)
            d[j] = eps
            rp = Rotation.from_rotvec(d[:3]) @ rot
            rm = Rotation.from_rotvec(-d[:3]) @ rot
            rp_res = reprojection_residual(rp, t + d[3:], model_pts, img, K)
            rm_res = reprojection_residual(rm, t - d[3:], model_pts, img, K)
            fd[:, j] = (rp_res - rm_res) / (2.0 * eps)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(jac - fd).max() / scale < 1e-4


def test_jacobian_matches_per_point_formula():
    # reference: the 2x6 block of each point built on its own, for the
    # per-frame Jacobian and for stacks of 1 and 5 poses
    rng = np.random.default_rng(22)
    model_pts = MODEL.corners()

    def reference(rot, t):
        ref = []
        for p in model_pts:
            rp = rot.matrix @ p
            x, y, z = rp + t
            dpi = np.array([[K.fx / z, 0.0, -K.fx * x / z**2], [0.0, K.fy / z, -K.fy * y / z**2]])
            ref.append(np.hstack([dpi @ skew(rp), -dpi]))
        return np.vstack(ref)

    def close(jac, ref):
        np.testing.assert_allclose(jac, ref, rtol=1e-12, atol=1e-12 * np.abs(jac).max())

    for _ in range(20):
        rot, t = random_pose(rng)
        close(reprojection_jacobian(rot, t, model_pts, K), reference(rot, t))
    for n in (1, 5):
        poses = [random_pose(rng) for _ in range(n)]
        rots = np.array([r.matrix for r, _ in poses])
        ts = np.array([t for _, t in poses])
        jac, depth = pnp._jacobians(rots, ts, model_pts, K)
        assert jac.shape == (n, 8, 6) and depth.shape == (n, 4)
        for k, (rot, t) in enumerate(poses):
            close(jac[k], reference(rot, t))
    # tilted 69 degrees at 0.1 m depth: corners 2 and 3 fall behind the camera
    tilted = Rotation.from_axis_angle(np.array([1.0, 0.0, 0.0]), -1.2)
    with pytest.raises(PointBehindCamera, match="point 2 "):
        reprojection_jacobian(tilted, np.array([0.0, 0.0, 0.1]), model_pts, K)


def test_refine_recovers_from_perturbation():
    rng = np.random.default_rng(31)
    for _ in range(30):
        rot, t = random_pose(rng)
        img = project_corners(rot, t)
        nudged = PnpSolution(
            Rotation.from_rotvec(rng.normal(scale=0.02, size=3)) @ rot,
            t * (1.0 + rng.uniform(-0.05, 0.05)),
            1.0,
        )
        ref = refine_pose(nudged, img, MODEL, K)
        assert np.linalg.norm(ref.translation - t) < 1e-6
        assert ref.rotation.angle_to(rot) < 1e-5
        assert ref.rmse < 1e-7


def test_refine_reduces_noisy_rmse():
    rng = np.random.default_rng(37)
    rot, t = random_pose(rng)
    img = project_corners(rot, t) + rng.normal(scale=1.0, size=(4, 2))
    coarse = solve_ippe(img, MODEL, K)[0]
    fine = refine_pose(coarse, img, MODEL, K)
    assert fine.rmse <= coarse.rmse + 1e-12


def test_estimate_position_frame_tag():
    p = estimate_robot_position(BoundingBox(320.0, 240.0, 100.0, 75.0), MODEL, K)
    assert p.frame == CAMERA
    np.testing.assert_allclose(p.xyz, [0.0, 0.0, 2.0], atol=1e-8)


def test_unit_square_bbox_corners():
    pts = bbox_to_image_points(BoundingBox(0.0, 0.0, 2.0, 2.0))
    np.testing.assert_allclose(
        pts, [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    )


def test_refine_is_fixed_point_at_exact_solution():
    rng = np.random.default_rng(14)
    rot, t = random_pose(rng)
    img = project_corners(rot, t)
    exact = solve_ippe(img, MODEL, K)[0]
    ref = refine_pose(exact, img, MODEL, K)
    np.testing.assert_allclose(ref.translation, exact.translation, atol=1e-9)
    assert ref.rotation.angle_to(exact.rotation) < 1e-7


def test_refining_a_refined_pose_keeps_it():
    # at a converged pose the gradient sits at its rounding floor; a second
    # polish must return the pose (to the 1e-10 relative cost stop), not
    # raise DivergedRefinement
    rng = np.random.default_rng(61)
    for _ in range(200):
        rot, t = random_pose(rng)
        img = project_corners(rot, t) + rng.normal(scale=1.0, size=(4, 2))
        once = refine_pose(solve_ippe(img, MODEL, K)[0], img, MODEL, K)
        twice = refine_pose(once, img, MODEL, K)
        assert np.linalg.norm(twice.translation - once.translation) < 1e-5
        assert twice.rmse**2 >= once.rmse**2 * (1.0 - 1e-10)


def test_refine_work_per_frame(monkeypatch):
    # pins the work of the polish, not its time: over the detected frames of
    # one calibrated trial, the median call evaluates the stacked residual at
    # most 8 times, and at most 2 calls take 15 or more (a damping climb)
    calls, per_refine = [0], []
    residuals = pnp._residuals

    def counting_residuals(*args):
        calls[0] += 1
        return residuals(*args)

    result = run_pipeline("ugv_red", NoiseSpec.calibrated(), 0)
    config = default_config()
    model, intrinsics = config.robot(), config.camera()
    monkeypatch.setattr(pnp, "_residuals", counting_residuals)
    for frame in result.scene.frames:
        if frame.bbox is None:
            continue
        img = bbox_to_image_points(frame.bbox)
        best = solve_ippe(img, model, intrinsics)[0]
        before = calls[0]
        try:
            refine_pose(best, img, model, intrinsics)
        except DivergedRefinement:
            pass
        per_refine.append(calls[0] - before)
    assert len(per_refine) == result.extraction.frames_detected
    assert np.median(per_refine) <= 8
    assert sum(c >= 15 for c in per_refine) <= 2


def stack_boxes(rng):
    """~1,100 boxes: noisy boxes of random poses, exact frontoparallel and
    tilted faces, and boxes that no pose explains."""
    config = default_config()
    intrinsics, corners = config.camera(), config.robot().corners()
    boxes = []
    for k in range(1090):
        rot, t = random_pose(rng)
        if k % 10 == 0:
            rot = Rotation.identity()  # frontoparallel: one candidate
        if k % 10 == 1:
            rot = Rotation.from_axis_angle([0.0, 1.0, 0.0], np.radians(35.0))
        px = project_points(intrinsics, (rot.matrix @ corners.T).T + t)
        lo, hi = px.min(axis=0), px.max(axis=0)
        box = np.concatenate([(lo + hi) / 2.0, hi - lo])
        if k % 10 > 1:
            box += rng.normal(scale=1.0, size=4)
        boxes.append(BoundingBox(*box[:2], *np.abs(box[2:])))
    boxes[5] = BoundingBox(320.0, 240.0, 1e-300, 1e-300)  # coincident corners
    boxes[6] = BoundingBox(320.0, 240.0, 1e-5, 1e5)  # collinear corners
    boxes[7] = BoundingBox(1e6, 1e6, 1.0, 1.0)
    boxes[8] = BoundingBox(320.0, 1e200, 10.0, 10.0)  # finite, but its square overflows
    boxes[9] = BoundingBox(1e300, 1e300, 1e300, 1e300)
    return boxes


def test_stacked_solve_matches_per_frame_solve():
    # extract_trajectory solves all detected frames as one stack, in chunks;
    # each row must equal the per-frame solve of its box bit for bit
    boxes = stack_boxes(np.random.default_rng(71))
    config = default_config()
    model, intrinsics = config.robot(), config.camera()
    assert len(boxes) > 2 * 512
    observations = [
        FrameObservation(k, 0.1 * k, box, RigidTransform(Rotation.identity(), np.zeros(3)))
        for k, box in enumerate(boxes)
    ]
    rows = _camera_positions(observations, config)
    _, _, _, codes = pnp._estimate(np.array([bbox_to_image_points(b) for b in boxes]), model, intrinsics)
    failed = 0
    for box, row, code in zip(boxes, rows, codes):
        try:
            z = estimate_robot_position(box, model, intrinsics).xyz
        except GeometryError as e:
            assert np.isnan(row).all()
            assert type(e) is pnp._FAILS[code][0]
            failed += 1
            continue
        assert code == 0
        assert row.tobytes() == z.tobytes()
    assert extract_trajectory(observations, config).frames_solved == len(boxes) - failed
    assert 3 <= failed < 20


def test_stack_rows_fail_alone():
    # a singular matrix fails only its own row of a stacked solve, and a
    # non-finite row never reaches LAPACK (an svd holding an inf may hang)
    x, ok = pnp._solve(np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)]), np.ones((3, 2)))
    assert ok.tolist() == [True, False, True]
    np.testing.assert_array_equal(x[[0, 2]], [[1.0, 1.0], [0.5, 0.5]])
    good = bbox_to_image_points(BoundingBox(320.0, 240.0, 100.0, 75.0))
    img = np.stack([good, np.full((4, 2), np.inf), good])
    _, t, _, code = pnp._estimate(img, MODEL, K)
    assert code[1] != 0 and pnp._FAILS[code[1]][0] is DegenerateConfiguration
    assert code[0] == code[2] == 0 and t[0].tobytes() == t[2].tobytes()


def test_shifted_box_moves_estimate_sideways():
    right = estimate_robot_position(BoundingBox(420.0, 240.0, 100.0, 75.0), MODEL, K)
    left = estimate_robot_position(BoundingBox(220.0, 240.0, 100.0, 75.0), MODEL, K)
    assert right.x > 0.1
    assert left.x < -0.1


def test_refined_error_stays_small_under_pixel_noise():
    # 1 px corner noise at 2 m depth; median over 100 trials lands
    # around 0.016 m, well under the 5 cm budget
    rng = np.random.default_rng(55)
    t = np.array([0.0, 0.0, 2.0])
    errs = []
    for _ in range(100):
        img = project_points(K, MODEL.corners() + t) + rng.normal(scale=1.0, size=(4, 2))
        sol = refine_pose(solve_ippe(img, MODEL, K)[0], img, MODEL, K)
        errs.append(np.linalg.norm(sol.translation - t))
    assert np.median(errs) < 0.05


def test_error_growth_with_depth():
    # lateral error grows linearly with depth; the depth component grows
    # faster (the box shrinks as 1/z, so z = f*W/w amplifies pixel noise
    # by roughly z^2), which is what dominates total error far away
    def med_components(depth, seed):
        rng = np.random.default_rng(seed)
        t = np.array([0.0, 0.0, depth])
        lat, dep = [], []
        for _ in range(500):
            img = project_points(K, MODEL.corners() + t)
            img += rng.normal(scale=1.0, size=(4, 2))
            sol = refine_pose(solve_ippe(img, MODEL, K)[0], img, MODEL, K)
            lat.append(np.linalg.norm(sol.translation[:2] - t[:2]))
            dep.append(abs(sol.translation[2] - depth))
        return np.median(lat), np.median(dep)

    lat1, dep1 = med_components(1.0, 7)
    lat2, dep2 = med_components(2.0, 8)
    assert 1.5 < lat2 / lat1 < 2.5
    assert dep2 / dep1 > 2.5


def test_bbox_faults_of_a_stack_match_each_box():
    boxes = np.array(
        [
            [320.0, 240.0, 10.0, 20.0],
            [320.0, 240.0, 0.0, 20.0],
            [320.0, 240.0, 10.0, -1.0],
            [np.nan, 240.0, 10.0, 20.0],
            [320.0, np.inf, 10.0, 20.0],
            [1.7e308, 244.5, 1.7e308, 46.5],
            [-1.7e308, 244.5, 1.7e308, 46.5],
            [244.5, 1.7e308, 46.5, 1.7e308],
            [1.7e308, 244.5, 1e292, 46.5],  # both corners finite
        ]
    )
    codes = pnp._box_faults(boxes)
    assert codes.tolist() == [0, 2, 2, 1, 1, 3, 3, 3, 0]
    for box, code in zip(boxes, codes):
        assert pnp._box_faults(box[None])[0] == code
        if code:
            with pytest.raises(ValueError, match=pnp._BOX_FAULTS[code].split("{")[0]):
                BoundingBox(*box)
        else:
            BoundingBox(*box)


def box_norms(rng, n):
    """Normalised corners (n, 4, 2) of boxes 10-2,000 px a side (aspect up to
    ~170), centred up to 1,500 px off the principal point."""
    boxes = np.column_stack([rng.uniform(-1180.0, 1820.0, size=n), rng.uniform(-1260.0, 1740.0, size=n),
                             10.0 ** rng.uniform(1.0, 3.3, size=(n, 2))])
    return (pnp._box_corners(boxes) - [K.cx, K.cy]) / [K.fx, K.fy]


def dlt(norm):
    """Reference DLT homographies (N, 3, 3), h[2, 2] = 1, of normalised corners."""
    hom = np.column_stack([MODEL.corners()[:, :2], np.ones(4)])
    a = np.zeros((len(norm), 4, 2, 9))
    a[:, :, 0, :3] = a[:, :, 1, 3:6] = hom
    a[..., 6:] = -norm[..., None] * hom[:, None, :]
    h = np.linalg.svd(a.reshape(-1, 8, 9))[2][:, -1].reshape(-1, 3, 3)
    return h / h[:, 2:, 2:]


def test_box_homography_matches_dlt():
    # an axis-aligned box's homography is written down, not fitted
    norm = box_norms(np.random.default_rng(25), 1000)
    h, code, box = pnp._homography(norm, MODEL)
    assert box.all() and (code == 0).all()
    ref = dlt(norm)
    assert (np.abs(h - ref).max(axis=(1, 2)) <= 1e-12 * np.abs(ref).max(axis=(1, 2))).all()


def test_other_quads_take_the_dlt():
    rot = Rotation.from_axis_angle([0.0, 1.0, 0.0], np.radians(35.0))
    tilted = project_corners(rot, np.array([0.2, -0.1, 3.0]))
    nudged = box_norms(np.random.default_rng(26), 1)[0] * [K.fx, K.fy] + [K.cx, K.cy]
    nudged[1, 1] = np.nextafter(nudged[1, 1], np.inf)  # TR one ulp below TL
    norm = (np.stack([tilted, nudged]) - [K.cx, K.cy]) / [K.fx, K.fy]
    assert norm[1, 1, 1] != norm[1, 0, 1]
    h, code, box = pnp._homography(norm, MODEL)
    assert not box.any() and (code == 0).all()
    np.testing.assert_array_equal(h, dlt(norm))
    # the nudged box's DLT is its box's homography to rounding
    norm[1, 1, 1] = norm[1, 0, 1]
    np.testing.assert_allclose(h[1], pnp._homography(norm[1:], MODEL)[0][0], rtol=0, atol=1e-12)


def test_ippe_candidates_are_orthonormal():
    # the candidates are built orthonormal, and no polar step cleans them up
    rng = np.random.default_rng(27)
    img = np.stack([project_corners(*random_pose(rng)) for _ in range(300)]
                   + [bbox_to_image_points(b) for b in stack_boxes(rng)])
    rot, _, _, count, code = pnp._ippe(img, MODEL, K)
    rot = rot[(code == 0)[:, None] & (np.arange(2) < count[:, None])]
    assert len(rot) > 1000
    assert np.abs(rot.swapaxes(1, 2) @ rot - np.eye(3)).max() <= 4e-15


def test_returned_rotations_pass_rotation_checks():
    # refine_pose and estimate_robot_pose take the closing polar step that _refine leaves out
    rng = np.random.default_rng(28)
    for k in range(50):
        rot, t = random_pose(rng)
        img = project_corners(rot, t) + rng.normal(scale=1.0, size=(4, 2))
        lo, hi = img.min(axis=0), img.max(axis=0)
        box = BoundingBox(*(lo + hi) / 2.0, *(hi - lo))
        for r in (
            refine_pose(solve_ippe(img, MODEL, K)[0], img, MODEL, K).rotation.matrix,
            estimate_robot_pose(box, MODEL, K, refine=k % 2 == 0).rotation.matrix,
        ):
            Rotation(r)
            assert np.abs(r.T @ r - np.eye(3)).max() <= 4e-15
            assert np.linalg.det(r) > 0.0
