"""Planar pose estimation from a detected bounding box.

The detector gives an axis-aligned box around the robot's front face.
Treating that face as a planar rectangle of known size, the four box
corners and the four model corners determine the face pose relative to
the camera. The closed-form solver follows the infinitesimal
plane-based approach: fit a homography, read off its first-order
behaviour at the model origin, and complete the two rotations that are
consistent with it. A Levenberg-Marquardt polish on the reprojection
error is available on top.

Model frame: origin at the face center, x right, y down, z out of the
face toward the camera-facing side. All four corners sit at z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DivergedRefinement,
    NoValidPose,
    PointBehindCamera,
)
from .geometry import (
    CAMERA,
    ROBOT,
    _MIN_DEPTH,
    CameraIntrinsics,
    Point3,
    RigidTransform,
    Rotation,
    _orthonormalize,
    _rodrigues,
    project_points,
)

# refine_pose stops once an accepted step lowers the cost by at most this
# fraction of it (MINPACK's relative-reduction test)
_FTOL = 1e-10


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned detection box in pixels; (cx, cy) is the center."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError("bounding box fields must be finite")
            object.__setattr__(self, name, v)
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"bounding box must have positive size, got {self.w}x{self.h}")


@dataclass(frozen=True)
class RobotModel:
    """Physical size of the tracked planar face, in meters."""

    width: float
    height: float

    def __post_init__(self):
        if not (self.width > 0.0 and self.height > 0.0):
            raise ValueError("model dimensions must be positive")

    def corners(self) -> np.ndarray:
        """Face corners in the model frame, order TL, TR, BR, BL, all at z=0."""
        hw, hh = self.width / 2.0, self.height / 2.0
        return np.array(
            [
                [-hw, -hh, 0.0],
                [hw, -hh, 0.0],
                [hw, hh, 0.0],
                [-hw, hh, 0.0],
            ]
        )


@dataclass(frozen=True)
class PnpSolution:
    """One pose candidate with its pixel-domain reprojection error."""

    rotation: Rotation
    translation: np.ndarray
    rmse: float

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation must have 3 components")
        if t[2] <= 0.0:
            raise ValueError("solution must place the object in front of the camera")
        if not (np.isfinite(self.rmse) and self.rmse >= 0.0):
            raise ValueError("rmse must be finite and non-negative")
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    def as_transform(self) -> RigidTransform:
        return RigidTransform(self.rotation, self.translation, frame_from=ROBOT, frame_to=CAMERA)


def bbox_to_image_points(bbox: BoundingBox) -> np.ndarray:
    """Box corners in pixels, order TL, TR, BR, BL (matches RobotModel.corners)."""
    hw, hh = bbox.w / 2.0, bbox.h / 2.0
    return np.array(
        [
            [bbox.cx - hw, bbox.cy - hh],
            [bbox.cx + hw, bbox.cy - hh],
            [bbox.cx + hw, bbox.cy + hh],
            [bbox.cx - hw, bbox.cy + hh],
        ]
    )


def _homography_dlt(model_xy: np.ndarray, norm_xy: np.ndarray) -> np.ndarray:
    """Direct linear transform for the model-plane -> image homography.

    model_xy: (N, 2) plane coordinates, norm_xy: (N, 2) normalized image
    coordinates. Needs N >= 4. Raises DegenerateConfiguration when the
    correspondences do not pin down a unique homography.
    """
    n = model_xy.shape[0]
    hom = np.column_stack([model_xy, np.ones(n)])
    # two rows per point: [x y 1 0 0 0 -p*(x y 1)] and [0 0 0 x y 1 -q*(x y 1)]
    a = np.zeros((n, 2, 9))
    a[:, 0, :3] = hom
    a[:, 1, 3:6] = hom
    a[:, :, 6:] = -norm_xy[:, :, None] * hom[:, None, :]
    a = a.reshape(2 * n, 9)
    _, s, vt = np.linalg.svd(a)
    # a unique solution needs a 1-dimensional nullspace
    if s[0] <= 0.0 or s[-2] / s[0] < 1e-9:
        raise DegenerateConfiguration("correspondences do not determine a homography")
    h = vt[-1].reshape(3, 3)
    # vt[-1] has unit norm, so this determinant is scale-invariant; it
    # vanishes when the image points are collinear (plane mapped to a line)
    if abs(np.linalg.det(h)) < 1e-12:
        raise DegenerateConfiguration("correspondences are collinear or coincident")
    if abs(h[2, 2]) < 1e-12:
        raise DegenerateConfiguration("model origin maps to infinity")
    return h / h[2, 2]


def _rotate_z_to(w: np.ndarray) -> np.ndarray:
    """Smallest rotation taking the +z axis onto unit vector w, w[2] > 0."""
    axis = np.array([-w[1], w[0], 0.0])
    s = np.linalg.norm(axis)
    if s < 1e-12:
        return np.eye(3)
    return _rodrigues(axis, float(np.arctan2(s, w[2])))


def _translation_for(rotation: Rotation, model_pts: np.ndarray, norm_xy: np.ndarray) -> np.ndarray:
    """Least-squares translation given a rotation candidate.

    Each point contributes two linear equations from x/z = a, y/z = b.
    """
    rp = model_pts @ rotation.matrix.T
    n = model_pts.shape[0]
    # two rows per point: [1 0 -a] and [0 1 -b]
    a = np.zeros((n, 2, 3))
    a[:, 0, 0] = 1.0
    a[:, 1, 1] = 1.0
    a[:, :, 2] = -norm_xy
    a = a.reshape(2 * n, 3)
    rhs = -(rp[:, :2] - norm_xy * rp[:, 2:]).ravel()
    t, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return t


def solve_ippe(
    image_points: np.ndarray,
    model: RobotModel,
    intrinsics: CameraIntrinsics,
) -> list[PnpSolution]:
    """Closed-form planar pose from 4 corner correspondences.

    image_points is (4, 2) in pixels, ordered like RobotModel.corners().
    Returns the geometrically valid candidates (usually two, one for a
    frontoparallel face) sorted by reprojection rmse, best first.

    Raises DegenerateConfiguration for unusable correspondences and
    NoValidPose when no candidate puts the face in front of the camera.
    """
    image_points = np.asarray(image_points, dtype=float)
    if image_points.shape != (4, 2):
        raise ValueError(f"need (4, 2) image points, got {image_points.shape}")
    if not np.all(np.isfinite(image_points)):
        raise ValueError("image points must be finite")

    model_pts = model.corners()
    centre = np.array([intrinsics.cx, intrinsics.cy])
    k_inv_applied = (image_points - centre) / np.array([intrinsics.fx, intrinsics.fy])
    h = _homography_dlt(model_pts[:, :2], k_inv_applied)

    # image of the model origin, and the homography Jacobian there
    v = h[:2, 2]
    jac = np.array(
        [
            [h[0, 0] - h[2, 0] * v[0], h[0, 1] - h[2, 1] * v[0]],
            [h[1, 0] - h[2, 0] * v[1], h[1, 1] - h[2, 1] * v[1]],
        ]
    )

    # rotate the bearing of the origin onto the optical axis
    w = np.array([v[0], v[1], 1.0])
    w /= np.linalg.norm(w)
    rv = _rotate_z_to(w)

    a_proj = np.array([[1.0, 0.0, -v[0]], [0.0, 1.0, -v[1]]])
    b = a_proj @ rv
    b2 = b[:, :2]
    det_b2 = b2[0, 0] * b2[1, 1] - b2[0, 1] * b2[1, 0]
    if abs(det_b2) < 1e-12:
        raise DegenerateConfiguration("bearing rotation leaves no invertible 2x2 system")
    c = np.linalg.solve(b2, jac)

    gamma = float(np.linalg.svd(c, compute_uv=False)[0])
    if gamma < 1e-12:
        raise DegenerateConfiguration("homography Jacobian vanishes at the origin")
    m22 = c / gamma

    # complete the two rotations whose upper-left 2x2 block equals m22
    w22 = np.eye(2) - m22 @ m22.T
    evals, evecs = np.linalg.eigh(w22)
    lam = max(float(evals[-1]), 0.0)  # clamp tiny negatives from roundoff
    col = np.sqrt(lam) * evecs[:, -1]

    candidates = []
    for sign in (1.0, -1.0):
        top = np.column_stack([m22, sign * col])
        (a0, a1, a2), (b0, b1, b2) = top.tolist()
        bottom = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]  # top[0] x top[1]
        q = _orthonormalize(np.vstack([top, bottom]))
        candidates.append(Rotation(rv @ q))
        if lam == 0.0:
            break  # frontoparallel: both signs give the same rotation

    solutions = []
    for rot in candidates:
        t = _translation_for(rot, model_pts, k_inv_applied)
        try:
            res = _residual_m(rot.matrix, t, model_pts, image_points, intrinsics)
        except PointBehindCamera:
            continue
        solutions.append(PnpSolution(rot, t, _rmse(res)))
    if not solutions:
        raise NoValidPose("no pose candidate places the face in front of the camera")
    solutions.sort(key=lambda s: s.rmse)
    return solutions


def _residual_m(
    rot_m: np.ndarray,
    t: np.ndarray,
    model_pts: np.ndarray,
    image_pts: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    cam = model_pts @ rot_m.T + t
    px = project_points(intrinsics, cam)
    return (image_pts - px).ravel()


def _rmse(res: np.ndarray) -> float:
    """Root-mean-square corner distance of a stacked (2N,) pixel residual."""
    return float(np.sqrt(np.mean(np.sum(res.reshape(-1, 2) ** 2, axis=1))))


def _jacobian_m(
    rot_m: np.ndarray,
    t: np.ndarray,
    model_pts: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    rp = model_pts @ rot_m.T
    x, y, z = (rp + t).T
    if np.any(z <= _MIN_DEPTH):
        i = int(np.argmax(z <= _MIN_DEPTH))
        raise PointBehindCamera(f"point {i} has depth {z[i]:.3g}")
    # projection Jacobian per point: dpi = [[a, 0, c], [0, b, d]]
    a, b = intrinsics.fx / z, intrinsics.fy / z
    c, d = -a * x / z, -b * y / z
    # residual = obs - proj, X = exp([w]x) R p + t + dt
    # dX/dw = -[Rp]x, dX/dt = I, so dres/dw = dpi @ [Rp]x, dres/ddt = -dpi
    px, py, pz = rp.T
    zero = np.zeros_like(z)
    jac = np.array(
        [
            [-c * py, c * px - a * pz, a * py, -a, zero, -c],
            [b * pz - d * py, d * px, -b * px, zero, -b, -d],
        ]
    )
    return jac.transpose(2, 0, 1).reshape(-1, 6)


def reprojection_residual(
    rotation: Rotation,
    translation: np.ndarray,
    model_pts: np.ndarray,
    image_pts: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    """Stacked residual (observed - projected), shape (2N,), pixel units."""
    return _residual_m(
        rotation.matrix,
        np.asarray(translation, dtype=float),
        np.asarray(model_pts, dtype=float),
        np.asarray(image_pts, dtype=float),
        intrinsics,
    )


def reprojection_jacobian(
    rotation: Rotation,
    translation: np.ndarray,
    model_pts: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    """Analytic Jacobian of the residual wrt (rotation, translation).

    The parametrization is a 6-vector (w, dt): the rotation is perturbed
    on the left as exp([w]x) R and the translation additively. Shape is
    (2N, 6), ordered w then dt, matching reprojection_residual.
    """
    return _jacobian_m(
        rotation.matrix,
        np.asarray(translation, dtype=float),
        np.asarray(model_pts, dtype=float),
        intrinsics,
    )


def refine_pose(
    solution: PnpSolution,
    image_points: np.ndarray,
    model: RobotModel,
    intrinsics: CameraIntrinsics,
    max_iters: int = 50,
) -> PnpSolution:
    """Levenberg-Marquardt polish of a closed-form pose candidate.

    Minimizes pixel reprojection error over the 6 pose parameters and
    returns the improved solution. It stops when the gradient is flat,
    when an accepted step lowers the cost by at most 1e-10 of it, or
    when no damping value lowers the cost any more. Raises
    DivergedRefinement if no step was ever accepted although the
    Gauss-Newton model predicts a gain of more than 1e-10 of the cost:
    the model promised a better pose that no step delivered. Otherwise
    a pose that no step improves is returned as converged.
    """
    image_points = np.asarray(image_points, dtype=float)
    model_pts = model.corners()
    rot_m = solution.rotation.matrix
    t = solution.translation.copy()

    def cost_of(rm, tt):
        res = _residual_m(rm, tt, model_pts, image_points, intrinsics)
        return 0.5 * float(res @ res), res

    cost, res = cost_of(rot_m, t)
    lam = 1e-3
    accepted_any = False
    eye = np.eye(6)
    for _ in range(max_iters):
        jac = _jacobian_m(rot_m, t, model_pts, intrinsics)
        grad = jac.T @ res
        if np.max(np.abs(grad)) < 1e-10:
            break
        jtj = jac.T @ jac
        gain = None
        while lam <= 1e10:
            try:
                delta = np.linalg.solve(jtj + lam * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rot_try = _rodrigues(delta[:3]) @ rot_m
            t_try = t + delta[3:]
            try:
                cost_try, res_try = cost_of(rot_try, t_try)
            except PointBehindCamera:
                lam *= 10.0
                continue
            if cost_try < cost:
                gain = (cost - cost_try) / cost  # relative decrease
                rot_m, t, cost, res = rot_try, t_try, cost_try, res_try
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        if gain is None:
            if not accepted_any:
                # Gauss-Newton decrease 0.5 g'(J'J)^+ g, as 0.5 |J J^+ r|^2
                step = np.linalg.lstsq(jac, res, rcond=None)[0]
                fit = jac @ step
                if 0.5 * float(fit @ fit) > _FTOL * cost:
                    raise DivergedRefinement("no damping value produced an acceptable step")
            break
        accepted_any = True
        if gain <= _FTOL:
            break

    return PnpSolution(Rotation(_orthonormalize(rot_m)), t, _rmse(res))


def estimate_robot_pose(
    bbox: BoundingBox,
    model: RobotModel,
    intrinsics: CameraIntrinsics,
    refine: bool = True,
) -> PnpSolution:
    """Best face pose (model -> camera) explaining a detection box."""
    img_pts = bbox_to_image_points(bbox)
    best = solve_ippe(img_pts, model, intrinsics)[0]
    if refine:
        try:
            best = refine_pose(best, img_pts, model, intrinsics)
        except DivergedRefinement:
            pass  # closed form is already a usable answer
    return best


def estimate_robot_position(
    bbox: BoundingBox,
    model: RobotModel,
    intrinsics: CameraIntrinsics,
    refine: bool = True,
) -> Point3:
    """Camera-frame position of the face center for a detection box."""
    sol = estimate_robot_pose(bbox, model, intrinsics, refine=refine)
    return Point3(sol.translation, frame=CAMERA)
