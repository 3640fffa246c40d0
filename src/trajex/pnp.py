"""Planar pose estimation from a detected bounding box.

The detector gives an axis-aligned box around the robot's front face.
Treating that face as a planar rectangle of known size, the four box
corners and the four model corners determine the face pose relative to
the camera. The closed-form solver follows the infinitesimal
plane-based approach (IPPE): fit a homography, read off its first-order
behaviour at the model origin, and complete the two rotations that are
consistent with it. An axis-aligned box's homography is known in closed
form; only other quads take the 8x9 DLT and its SVD. A Levenberg-Marquardt
polish on the reprojection error is available on top; only the functions
that return its rotation take a closing polar step.

Both are written once, over a stack of frames: (N, 4, 2) corner pixels
in, one pose and one outcome code per row out. The pipeline solves all
detected frames as one such stack; the per-frame functions below are
its N = 1 case. Each check of the solve is a row mask, and a row's bits
do not depend on N.

Model frame: origin at the face center, x right, y down, z out of the
face toward the camera-facing side. All four corners sit at z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, DivergedRefinement, NoValidPose, PointBehindCamera
from .geometry import _MIN_DEPTH, _ROTATION_FAULTS, _SKEW, CAMERA, CameraIntrinsics, Point3, Rotation
from .geometry import _check_depths, _orthonormalize, _rodrigues, _rotation_faults

# refine_pose stops once an accepted step lowers the cost by at most this
# fraction of it (MINPACK's relative-reduction test), or at its _MAX_ITERS-th
# linearization
_FTOL = 1e-10
_MAX_ITERS = 50

# Outcome of one row of the stacked solve: code 0 is solved, and code k > 0
# is the exception _FAILS[k], which the per-frame functions raise.
_FAILS = (
    (None, ""),
    (DegenerateConfiguration, "correspondences do not determine a homography"),
    (DegenerateConfiguration, "correspondences are collinear or coincident"),
    (DegenerateConfiguration, "model origin maps to infinity"),
    (DegenerateConfiguration, "bearing rotation leaves no invertible 2x2 system"),
    (DegenerateConfiguration, "homography Jacobian vanishes at the origin"),
    *((ValueError, msg) for msg in _ROTATION_FAULTS[1:]),
    (ValueError, "solution must place the object in front of the camera"),
    (ValueError, "rmse must be finite and non-negative"),
    (NoValidPose, "no pose candidate places the face in front of the camera"),
    (DivergedRefinement, "no damping value produced an acceptable step"),
    (PointBehindCamera, "the starting pose puts a model point behind the camera"),
)
_CODE = {msg: k for k, (_, msg) in enumerate(_FAILS)}
_DIVERGED, _BEHIND = _CODE["no damping value produced an acceptable step"], len(_FAILS) - 1
_FATAL = [k for k, (cls, _) in enumerate(_FAILS) if cls is ValueError]  # not a GeometryError


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned detection box in pixels; (cx, cy) is the center."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        v = [float(getattr(self, name)) for name in ("cx", "cy", "w", "h")]
        fault = _box_faults(np.array([v]))[0]
        if fault:
            raise ValueError(_BOX_FAULTS[fault].format(*v[2:]))
        for name, x in zip(("cx", "cy", "w", "h"), v):
            object.__setattr__(self, name, x)


# BoundingBox's checks in order; _box_faults gives a box the index of the first it fails
_BOX_FAULTS = (None, "bounding box fields must be finite", "bounding box must have positive size, got {}x{}",
               "bounding box corners must be finite")


def _box_faults(boxes: np.ndarray) -> np.ndarray:
    """Fault codes (N,) of boxes (N, 4) (cx, cy, w, h), 0 for a valid box."""
    # c - s/2 and c + s/2 (s > 0) are both finite exactly when |c| + s/2 is
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.isfinite(np.abs(boxes[:, :2]) + boxes[:, 2:] / 2.0).all(axis=1)
    size = np.where((boxes[:, 2:] > 0.0).all(axis=1), 3 * ~corners, 2)
    return np.where(np.isfinite(boxes).all(axis=1), size, 1)


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


def _fail(code: np.ndarray, bad: np.ndarray, msg: str):
    """Rows in bad that have no outcome yet fail with msg: a row's first failure stands."""
    code[bad & (code == 0)] = _CODE[msg]


def _raise(code: int):
    if code:
        cls, msg = _FAILS[code]
        raise cls(msg)


def _box_corners(boxes: np.ndarray) -> np.ndarray:
    """(N, 4, 2) corner pixels of (N, 4) boxes (cx, cy, w, h), order TL, TR, BR, BL."""
    cx, cy, w, h = boxes.T
    x0, x1, y0, y1 = cx - w / 2.0, cx + w / 2.0, cy - h / 2.0, cy + h / 2.0
    return np.stack([x0, y0, x1, y0, x1, y1, x0, y1], axis=1).reshape(-1, 4, 2)


def bbox_to_image_points(bbox: BoundingBox) -> np.ndarray:
    """Box corners in pixels, order TL, TR, BR, BL (matches RobotModel.corners)."""
    return _box_corners(np.array([[bbox.cx, bbox.cy, bbox.w, bbox.h]]))[0]


def _residuals(rot, t, model_pts, img, intrinsics: CameraIntrinsics):
    """Residuals (observed - projected) of stacked poses, (..., 2P) pixels, and
    the depths (..., P) of the model points; a point at or behind the camera
    is not divided by."""
    cam = model_pts @ rot.swapaxes(-1, -2) + t[..., None, :]
    z = cam[..., 2:]
    px = np.array([intrinsics.fx, intrinsics.fy]) * cam[..., :2] / np.where(z > _MIN_DEPTH, z, 1.0)
    res = img - (px + np.array([intrinsics.cx, intrinsics.cy]))
    return res.reshape(*res.shape[:-2], 2 * res.shape[-2]), z[..., 0]


def _rmse(res: np.ndarray) -> np.ndarray:
    """Root-mean-square corner distance of stacked (..., 2P) pixel residuals."""
    sq = res.reshape(*res.shape[:-1], res.shape[-1] // 2, 2) ** 2
    return np.sqrt(sq.sum(axis=-1).mean(axis=-1))


def _jacobians(rot, t, model_pts, intrinsics: CameraIntrinsics):
    """Residual Jacobians (N, 2P, 6) of stacked poses, and the depths (N, P)."""
    rp = model_pts @ rot.swapaxes(-1, -2)
    cam = rp + t[:, None, :]
    z = cam[..., 2:]
    zs = np.where(z > _MIN_DEPTH, z, 1.0)
    # projection Jacobian per point: dpi = diag(fx, fy) / z @ [[1, 0, -x/z], [0, 1, -y/z]]
    dpi = np.zeros((*z.shape[:2], 2, 3))
    dpi[..., 0, 0] = dpi[..., 1, 1] = 1.0
    dpi[..., 2] = -cam[..., :2] / zs
    dpi *= (np.array([intrinsics.fx, intrinsics.fy]) / zs)[..., None]
    # residual = obs - proj, X = exp([w]x) R p + t + dt
    # dX/dw = -[Rp]x, dX/dt = I, so dres/dw = dpi @ [Rp]x, dres/ddt = -dpi
    jac = np.concatenate([dpi @ (rp @ _SKEW).reshape(*rp.shape, 3), -dpi], axis=-1)
    return jac.reshape(len(z), 2 * z.shape[1], 6), z[..., 0]


def _solve(a: np.ndarray, b: np.ndarray):
    """x with a x = b for stacks (N, M, M) and (N, M), and a per-row flag that
    is False where a is singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:  # one singular matrix fails the stack: solve row by row
        if len(a) == 1:
            return np.zeros(b.shape), np.zeros(1, dtype=bool)
        x, ok = zip(*(_solve(a[k : k + 1], b[k : k + 1]) for k in range(len(a))))
        return np.concatenate(x), np.concatenate(ok)


def _homography(norm: np.ndarray, model: RobotModel):
    """Homographies (N, 3, 3) taking the model's (x, y, 1) to normalised corners (N, 4, 2),
    the row codes (N,), and which rows are axis-aligned boxes (N,). A box, corners TL, TR,
    BR, BL, has h = [[w/W, 0, cx], [0, h/H, cy], [0, 0, 1]]; any other quad takes the DLT."""
    n, code = len(norm), np.zeros(len(norm), dtype=np.intp)
    (x0, y0), (x1, y1) = norm[:, 0].T, norm[:, 2].T
    box = (norm[:, 1].T == (x1, y0)).all(0) & (norm[:, 3].T == (x0, y1)).all(0) & (x0 < x1) & (y0 < y1)
    h = np.tile(np.eye(3), (n, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows fails below
        h[:, 0, 0], h[:, 1, 1] = (x1 - x0) / model.width, (y1 - y0) / model.height
        h[:, :2, 2] = (norm[:, 0] + norm[:, 2]) / 2.0
        unit = h / np.sqrt((h * h).sum(axis=(1, 2)))[:, None, None]
    bad = ~np.isfinite(h).all(axis=(1, 2))
    # DLT, two rows per point: [x y 1 0 0 0 -p*(x y 1)] and [0 0 0 x y 1 -q*(x y 1)]
    i = np.flatnonzero(~box)
    hom = np.column_stack([model.corners()[:, :2], np.ones(4)])
    a = np.zeros((len(i), 4, 2, 9))
    a[:, :, 0, :3] = a[:, :, 1, 3:6] = hom
    a[..., 6:] = -norm[i, :, :, None] * hom[:, None, :]
    # no LAPACK call may see a non-finite row: an svd holding an inf may never return
    bad[i] = ~np.isfinite(a).all(axis=(1, 2, 3))
    a[bad[i]] = 0.0
    _, s, vt = np.linalg.svd(a.reshape(-1, 8, 9))
    # a unique solution needs a 1-dimensional nullspace
    bad[i] |= (s[:, 0] <= 0.0) | (s[:, -2] / np.where(s[:, 0] > 0.0, s[:, 0], 1.0) < 1e-9)
    _fail(code, bad, "correspondences do not determine a homography")
    unit[i] = vt[:, -1].reshape(-1, 3, 3)
    unit[code != 0] = np.eye(3)
    # unit has unit norm, so this determinant is scale-invariant; it
    # vanishes when the image points are collinear (plane mapped to a line)
    _fail(code, np.abs(np.linalg.det(unit)) < 1e-12, "correspondences are collinear or coincident")
    _fail(code, np.abs(unit[:, 2, 2]) < 1e-12, "model origin maps to infinity")
    ok = (code == 0)[:, None, None]
    unit /= np.where(ok, unit[:, 2:, 2:], 1.0)
    return np.where(ok, np.where(box[:, None, None], h, unit), np.eye(3)), code, box


def _ippe(img: np.ndarray, model: RobotModel, intrinsics: CameraIntrinsics):
    """Closed-form pose candidates for a stack of (N, 4, 2) corner pixels.

    Returns the two candidates' rotations (N, 2, 3, 3), translations
    (N, 2, 3) and rmse (N, 2), best first, the number of valid ones (N,),
    and the row codes (N,).
    """
    n = len(img)
    model_pts = model.corners()
    f, c0 = np.array([intrinsics.fx, intrinsics.fy]), np.array([intrinsics.cx, intrinsics.cy])
    norm = (img - c0) / f
    h, code, _ = _homography(norm, model)
    # failed rows compute on, masked: the model's own corners keep them from overflowing
    ok = (code == 0)[:, None, None]
    norm, img = np.where(ok, norm, model_pts[:, :2]), np.where(ok, img, c0 + f * model_pts[:, :2])

    # image v of the model origin, and the homography Jacobian there
    v = h[:, :2, 2:]
    jac = h[:, :2, :2] - h[:, 2:, :2] * v
    # rotate the bearing w of the origin onto the optical axis; the smallest
    # rotation taking +z onto w is w_z I + [a]x + a a' / (1 + w_z), a = z x w
    w = np.concatenate([v[:, :, 0], np.ones((n, 1))], axis=1)
    w /= np.sqrt((w * w).sum(axis=1, keepdims=True))
    rv = np.empty((n, 3, 3))
    rv[:, :2, :2] = np.eye(2) - w[:, :2, None] * w[:, None, :2] / (1.0 + w[:, 2, None, None])
    rv[:, :, 2] = w
    rv[:, 2, :2] = -w[:, :2]
    # first two columns of [[1, 0, -v0], [0, 1, -v1]] @ rv
    b2 = rv[:, :2, :2] + v * w[:, None, :2]
    det_b2 = b2[:, 0, 0] * b2[:, 1, 1] - b2[:, 0, 1] * b2[:, 1, 0]
    _fail(code, np.abs(det_b2) < 1e-12, "bearing rotation leaves no invertible 2x2 system")
    b2[code != 0] = np.eye(2)
    c = np.linalg.solve(b2, jac)
    gamma = np.linalg.svd(c, compute_uv=False)[:, 0]
    _fail(code, gamma < 1e-12, "homography Jacobian vanishes at the origin")
    m22 = c / np.where(code == 0, gamma, 1.0)[:, None, None]

    # complete the two rotations whose upper-left 2x2 block equals m22
    evals, evecs = np.linalg.eigh(np.eye(2) - m22 @ m22.swapaxes(1, 2))
    lam = np.maximum(evals[:, -1], 0.0)  # clamp tiny negatives from roundoff
    col = np.sqrt(lam)[:, None] * evecs[:, :, -1]
    top = np.empty((n, 2, 2, 3))  # (row, sign, 2, 3)
    top[..., :2] = m22[:, None]
    top[:, 0, :, 2], top[:, 1, :, 2] = col, -col
    r0, r1 = top[:, :, 0], top[:, :, 1]
    bottom = r0[..., [1, 2, 0]] * r1[..., [2, 0, 1]] - r0[..., [2, 0, 1]] * r1[..., [1, 2, 0]]
    rot = rv[:, None] @ np.concatenate([top, bottom[:, :, None]], axis=2)  # orthonormal by construction
    exists = np.stack([np.ones(n, dtype=bool), lam != 0.0], axis=1)  # lam == 0: one rotation
    fault = _rotation_faults(rot)
    for k in range(2):  # Rotation's own tests
        for f in range(1, len(_ROTATION_FAULTS)):
            _fail(code, exists[:, k] & (fault[:, k] == f), _ROTATION_FAULTS[f])

    # least-squares translation per candidate: each point gives x/z = p and
    # y/z = q, two rows [1 0 -p] and [0 1 -q], solved by their normal equations
    rp = model_pts @ rot.swapaxes(-1, -2)
    rhs = norm[:, None] * rp[..., 2:] - rp[..., :2]
    ata = np.zeros((n, 3, 3))
    ata[:, 0, 0] = ata[:, 1, 1] = len(model_pts)
    ata[:, :2, 2] = ata[:, 2, :2] = -norm.sum(axis=1)
    ata[:, 2, 2] = (norm * norm).sum(axis=(1, 2))
    ata[code != 0] = np.eye(3)
    atb = np.concatenate([rhs, -(norm[:, None] * rhs).sum(axis=3, keepdims=True)], axis=3)
    t = np.linalg.solve(ata[:, None], atb.sum(axis=2)[..., None])[..., 0]

    res, z = _residuals(rot, t, model_pts, img[:, None], intrinsics)
    rmse = _rmse(res)
    valid = exists & (z > _MIN_DEPTH).all(axis=2)
    bad_rmse = ~(np.isfinite(rmse) & (rmse >= 0.0))
    for k in range(2):  # PnpSolution's own tests
        behind = valid[:, k] & (t[:, k, 2] <= 0.0)
        _fail(code, behind, "solution must place the object in front of the camera")
        _fail(code, valid[:, k] & bad_rmse[:, k], "rmse must be finite and non-negative")
    _fail(code, ~valid.any(axis=1), "no pose candidate places the face in front of the camera")
    # best first; on equal rmse the first candidate stays first, as with list.sort
    swap = valid[:, 1] & (~valid[:, 0] | (rmse[:, 1] < rmse[:, 0]))
    pick = np.arange(n)[:, None], np.stack([swap, ~swap], axis=1).astype(np.intp)
    return rot[pick], t[pick], rmse[pick], valid.sum(axis=1), code


def _refine(rot, t, img, model: RobotModel, intrinsics: CameraIntrinsics):
    """Levenberg-Marquardt polish of stacked poses (see refine_pose).

    Each round takes one damped step on every row still running, so a row
    goes through the same steps as it would alone. Returns rotations (not
    orthonormalized: the wrappers that return one do that), t, rmse, codes.
    """
    n = len(t)
    code = np.zeros(n, dtype=np.intp)
    model_pts = model.corners()
    rot, t = rot.copy(), t.copy()
    res, z = _residuals(rot, t, model_pts, img, intrinsics)
    cost = 0.5 * (res * res).sum(axis=1)
    _fail(code, (z <= _MIN_DEPTH).any(axis=1), _FAILS[_BEHIND][1])
    _fail(code, ~np.isfinite(cost), "rmse must be finite and non-negative")
    lam = np.full(n, 1e-3)
    iters = np.zeros(n, dtype=np.intp)
    moved = np.zeros(n, dtype=bool)  # has accepted a step
    live = code == 0
    fresh = live.copy()  # needs the Jacobian at a new pose
    jac, grad, jtj = np.zeros((n, res.shape[1], 6)), np.zeros((n, 6)), np.zeros((n, 6, 6))
    while True:
        i = np.flatnonzero(fresh)
        if i.size:
            fresh[i] = False
            live[i] = iters[i] < _MAX_ITERS
            i = i[live[i]]
            iters[i] += 1
            j = _jacobians(rot[i], t[i], model_pts, intrinsics)[0]
            g = (j.swapaxes(1, 2) @ res[i, :, None])[..., 0]
            jac[i], grad[i], jtj[i] = j, g, j.swapaxes(1, 2) @ j
            live[i] = np.abs(g).max(axis=1) >= 1e-10  # stop at a flat gradient
        # no damping value up to 1e10 lowered the cost: a row that never moved
        # has diverged if Gauss-Newton predicts a decrease 0.5 g'(J'J)^+ g
        # above _FTOL of the cost, computed as 0.5 |J J^+ r|^2 with lstsq's cutoff
        out = live & (lam > 1e10)
        if out.any():
            live &= ~out
            out &= ~moved
            u, sv, _ = np.linalg.svd(jac[out], full_matrices=False)
            keep = sv > sv[:, :1] * (np.finfo(float).eps * max(jac.shape[1:]))
            fit = (u.swapaxes(1, 2) @ res[out, :, None])[..., 0] * keep
            out[out] = 0.5 * (fit * fit).sum(axis=1) > _FTOL * cost[out]
            _fail(code, out, "no damping value produced an acceptable step")
        i = np.flatnonzero(live)
        if not i.size:
            break
        delta, ok = _solve(jtj[i] + lam[i, None, None] * np.eye(6), -grad[i])
        if not ok.all():
            lam[i[~ok]] *= 10.0
            i, delta = i[ok], delta[ok]
        rot_try = _rodrigues(delta[:, :3]) @ rot[i]
        t_try = t[i] + delta[:, 3:]
        res_try, z = _residuals(rot_try, t_try, model_pts, img[i], intrinsics)
        cost_try = 0.5 * (res_try * res_try).sum(axis=1)
        better = (z > _MIN_DEPTH).all(axis=1) & (cost_try < cost[i])
        if better.any():
            a = i[better]
            gain = (cost[a] - cost_try[better]) / cost[a]  # relative decrease
            rot[a], t[a] = rot_try[better], t_try[better]
            cost[a], res[a] = cost_try[better], res_try[better]
            lam[a] = np.maximum(lam[a] / 10.0, 1e-12)
            moved[a] = True
            live[a] = fresh[a] = gain > _FTOL
        if not better.all():
            # a rejected step ends a row that has moved once the damped model
            # predicts a decrease -(g'd + 0.5 d'J'Jd) of at most _FTOL of the cost
            r, d = i[~better], delta[~better]
            jd = (jac[r] @ d[..., None])[..., 0]
            pred = -((grad[r] * d).sum(axis=1) + 0.5 * (jd * jd).sum(axis=1))
            live[r] = ~moved[r] | (pred > _FTOL * cost[r])
            lam[r] *= 10.0
    return rot, t, _rmse(res), code


def _estimate(img: np.ndarray, model: RobotModel, intrinsics: CameraIntrinsics, refine=True):
    """Best pose per row of a corner stack: rotations, translations, rmse and
    row codes. A row whose polish diverges keeps its closed-form pose."""
    rot, t, rmse, _, code = _ippe(img, model, intrinsics)
    rot, t, rmse = rot[:, 0], t[:, 0], rmse[:, 0]
    if refine:
        i = np.flatnonzero(code == 0)
        r_rot, r_t, r_rmse, r_code = _refine(rot[i], t[i], img[i], model, intrinsics)
        keep = r_code != _DIVERGED
        i = i[keep]
        rot[i], t[i], rmse[i], code[i] = r_rot[keep], r_t[keep], r_rmse[keep], r_code[keep]
    return rot, t, rmse, code


def _positions(boxes: np.ndarray, model: RobotModel, intrinsics: CameraIntrinsics, refine: bool):
    """Camera-frame face positions (M, 3) of boxes (M, 4) (cx, cy, w, h), solved as one
    stack. A row whose solve fails with a GeometryError is NaN; any other failure is
    raised, as the per-frame solve raised it."""
    _, t, _, code = _estimate(_box_corners(boxes), model, intrinsics, refine)
    for k in code[np.isin(code, _FATAL)][:1]:
        _raise(k)
    t[code != 0] = np.nan  # a solved row is finite: its rmse was
    return t


def solve_ippe(
    image_points: np.ndarray, model: RobotModel, intrinsics: CameraIntrinsics
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
    rot, t, rmse, count, code = _ippe(image_points[None], model, intrinsics)
    _raise(code[0])
    return [PnpSolution(Rotation(rot[0, k]), t[0, k], float(rmse[0, k])) for k in range(count[0])]


def reprojection_residual(
    rotation: Rotation,
    translation: np.ndarray,
    model_pts: np.ndarray,
    image_pts: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    """Stacked residual (observed - projected), shape (2N,), pixel units."""
    t, img = np.asarray(translation, dtype=float)[None], np.asarray(image_pts, dtype=float)[None]
    res, z = _residuals(rotation.matrix[None], t, np.asarray(model_pts, dtype=float), img, intrinsics)
    _check_depths(z[0])
    return res[0]


def reprojection_jacobian(
    rotation: Rotation, translation: np.ndarray, model_pts: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Analytic Jacobian of the residual wrt (rotation, translation).

    The parametrization is a 6-vector (w, dt): the rotation is perturbed
    on the left as exp([w]x) R and the translation additively. Shape is
    (2N, 6), ordered w then dt, matching reprojection_residual.
    """
    t = np.asarray(translation, dtype=float)[None]
    jac, z = _jacobians(rotation.matrix[None], t, np.asarray(model_pts, dtype=float), intrinsics)
    _check_depths(z[0])
    return jac[0]


def refine_pose(
    solution: PnpSolution,
    image_points: np.ndarray,
    model: RobotModel,
    intrinsics: CameraIntrinsics,
) -> PnpSolution:
    """Levenberg-Marquardt polish of a closed-form pose candidate.

    Minimizes pixel reprojection error over the 6 pose parameters and
    returns the improved solution. It stops when the gradient is flat,
    when an accepted step lowers the cost by at most 1e-10 of it, when a
    rejected step's damped model predicts no more than that after some
    step was accepted, when no damping value lowers the cost any more, or
    at the 50th linearization. Raises DivergedRefinement if no step was
    ever accepted although the Gauss-Newton model predicts a gain of more
    than 1e-10 of the cost: the model promised a better pose that no step
    delivered. Otherwise a pose that no step improves is returned as
    converged.
    """
    img = np.asarray(image_points, dtype=float)
    rot, t = solution.rotation.matrix[None], solution.translation[None]
    rot, t, rmse, code = _refine(rot, t, img[None], model, intrinsics)
    if code[0] == _BEHIND:  # the residual names the point
        reprojection_residual(solution.rotation, solution.translation, model.corners(), img, intrinsics)
    _raise(code[0])
    return PnpSolution(Rotation(_orthonormalize(rot[0])), t[0], float(rmse[0]))


def estimate_robot_pose(
    bbox: BoundingBox, model: RobotModel, intrinsics: CameraIntrinsics, refine: bool = True
) -> PnpSolution:
    """Best face pose (model -> camera) explaining a detection box; a polish
    that raises DivergedRefinement leaves the closed-form pose."""
    rot, t, rmse, code = _estimate(bbox_to_image_points(bbox)[None], model, intrinsics, refine)
    _raise(code[0])
    return PnpSolution(Rotation(_orthonormalize(rot[0])), t[0], float(rmse[0]))


def estimate_robot_position(
    bbox: BoundingBox, model: RobotModel, intrinsics: CameraIntrinsics, refine: bool = True
) -> Point3:
    """Camera-frame position of the face center for a detection box."""
    sol = estimate_robot_pose(bbox, model, intrinsics, refine=refine)
    return Point3(sol.translation, frame=CAMERA)
