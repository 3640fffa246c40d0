"""Rigid-body geometry: rotations, transforms, pinhole projection.

Conventions used throughout:
  * rotations are stored as 3x3 orthonormal matrices (right-handed),
  * the camera looks down +z with x right and y down in the image,
  * world frame is z-up with the ground plane at z = 0,
  * a transform labelled (frame_from -> frame_to) maps points expressed
    in frame_from into frame_to.

Quaternions appear only at file boundaries and use (x, y, z, w) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatch, PointBehindCamera

WORLD = "world"
CAMERA = "camera"
ROBOT = "robot"

_ORTHO_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _check_frames(a, b, what: str):
    # tags are advisory: only enforced when both sides carry one
    if a is not None and b is not None and a != b:
        raise FrameMismatch(f"{what}: expected frame '{a}', got '{b}'")


@dataclass(frozen=True)
class Rotation:
    """Proper rotation, validated on construction.

    The matrix must be orthonormal with determinant +1 to within 1e-9;
    anything sloppier should be cleaned up by the caller first.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rotation matrix has non-finite entries")
        if np.max(np.abs(m.T @ m - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("matrix is not orthonormal")
        if np.linalg.det(m) < 0.0:
            raise ValueError("matrix is a reflection, not a rotation")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    @staticmethod
    def from_axis_angle(axis: np.ndarray, angle: float) -> "Rotation":
        """Rodrigues formula; axis need not be unit length."""
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n == 0.0:
            raise ValueError("rotation axis must be nonzero")
        return Rotation(_rodrigues(axis * (angle / n)))

    @staticmethod
    def from_rotvec(rotvec: np.ndarray) -> "Rotation":
        """Exponential map of a rotation vector (angle * unit axis)."""
        return Rotation(_rodrigues(np.asarray(rotvec, dtype=float)))

    @staticmethod
    def from_quaternion(q: np.ndarray, tol: float = 1e-6) -> "Rotation":
        """Unit quaternion (x, y, z, w) to matrix.

        The norm must be within tol of 1; the quaternion is renormalized
        before conversion so the result is always a proper rotation.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have 4 components, got {q.shape}")
        n = np.linalg.norm(q)
        if abs(n - 1.0) > tol:
            from .errors import DenormalizedQuaternion

            raise DenormalizedQuaternion(f"quaternion norm {n:.6g} not within {tol} of 1")
        x, y, z, w = q / n
        m = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )
        return Rotation(_orthonormalize(m))

    def to_quaternion(self) -> np.ndarray:
        """Matrix to unit quaternion (x, y, z, w), w >= 0.

        Uses the largest-pivot branch selection so the conversion stays
        numerically stable for rotations near pi.
        """
        m = self.matrix
        tr = np.trace(m)
        if tr > 0.0:
            s = np.sqrt(tr + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] > m[2, 2]:
            s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        q = np.array([x, y, z, w])
        q /= np.linalg.norm(q)
        if q[3] < 0.0:
            q = -q
        return q

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(p, dtype=float)

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return Rotation(self.matrix @ other.matrix)

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic angle in radians between two rotations."""
        c = (np.trace(self.matrix.T @ other.matrix) - 1.0) / 2.0
        return float(np.arccos(np.clip(c, -1.0, 1.0)))


_SKEW = np.array([skew(e) for e in np.eye(3)]).reshape(3, 9)  # w @ _SKEW is skew(w), flattened


def _rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of rotation vectors (..., 3), unchecked.

    The pose refinement calls this on its hot path, on stacks. Below
    1e-12 rad the second-order series keeps it exact enough.
    """
    th = np.sqrt((w * w).sum(axis=-1))[..., None, None]
    small = th < 1e-12
    th = np.where(small, 1.0, th)
    k = (w @ _SKEW).reshape(*w.shape, 3)
    s, c = np.where(small, 1.0, np.sin(th) / th), np.where(small, 0.5, (1.0 - np.cos(th)) / th**2)
    return np.eye(3) + s * k + c * (k @ k)


def _orthonormalize(m: np.ndarray) -> np.ndarray:
    # nearest rotation in the Frobenius sense, reflection-safe; m may be a stack (..., 3, 3)
    u, _, vt = np.linalg.svd(m)
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


@dataclass(frozen=True)
class Point3:
    """A 3D point with an optional frame tag."""

    xyz: np.ndarray
    frame: str | None = None

    def __post_init__(self):
        v = np.asarray(self.xyz, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"point must have 3 components, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("point has non-finite components")
        v.flags.writeable = False
        object.__setattr__(self, "xyz", v)

    @property
    def x(self) -> float:
        return float(self.xyz[0])

    @property
    def y(self) -> float:
        return float(self.xyz[1])

    @property
    def z(self) -> float:
        return float(self.xyz[2])


@dataclass(frozen=True)
class Pixel:
    """Image-plane coordinates in pixels (u right, v down)."""

    u: float
    v: float

    def __post_init__(self):
        if not (np.isfinite(self.u) and np.isfinite(self.v)):
            raise ValueError("pixel coordinates must be finite")

    @property
    def uv(self) -> np.ndarray:
        return np.array([self.u, self.v])


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform: p_to = rotation @ p_from + translation."""

    rotation: Rotation
    translation: np.ndarray
    frame_from: str | None = None
    frame_to: str | None = None

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must have 3 components, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation has non-finite components")
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity(frame: str | None = None) -> "RigidTransform":
        return RigidTransform(Rotation.identity(), np.zeros(3), frame, frame)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: (a o b)(p) = a(b(p)).

    Frame tags chain: b maps X->Y, a maps Y->Z, result maps X->Z.
    """
    _check_frames(a.frame_from, b.frame_to, "compose")
    return RigidTransform(
        rotation=a.rotation @ b.rotation,
        translation=a.rotation.apply(b.translation) + a.translation,
        frame_from=b.frame_from,
        frame_to=a.frame_to,
    )


def invert(t: RigidTransform) -> RigidTransform:
    r_inv = t.rotation.inverse()
    return RigidTransform(
        rotation=r_inv,
        translation=-r_inv.apply(t.translation),
        frame_from=t.frame_to,
        frame_to=t.frame_from,
    )


def transform_point(t: RigidTransform, p: Point3) -> Point3:
    _check_frames(t.frame_from, p.frame, "transform_point")
    return Point3(t.rotation.apply(p.xyz) + t.translation, frame=t.frame_to)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths in pixels, principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")
        for v in (self.fx, self.fy, self.cx, self.cy):
            if not np.isfinite(v):
                raise ValueError("intrinsics must be finite")

    def normalize(self, px: Pixel) -> np.ndarray:
        """Pixel to normalized image coordinates (x/z, y/z)."""
        return np.array([(px.u - self.cx) / self.fx, (px.v - self.cy) / self.fy])

    def denormalize(self, xy: np.ndarray) -> Pixel:
        return Pixel(self.fx * xy[0] + self.cx, self.fy * xy[1] + self.cy)


_MIN_DEPTH = 1e-9


def project(intrinsics: CameraIntrinsics, p_cam: Point3 | np.ndarray) -> Pixel:
    """Project a camera-frame point through the pinhole model.

    Raises PointBehindCamera if the depth is at or below 1e-9; points
    that close to the image plane have no meaningful projection.
    """
    if isinstance(p_cam, Point3):
        _check_frames(CAMERA, p_cam.frame, "project")
        p_cam = p_cam.xyz
    u, v = project_points(intrinsics, np.asarray(p_cam, dtype=float)[None, :])[0]
    return Pixel(float(u), float(v))


def project_points(intrinsics: CameraIntrinsics, pts_cam: np.ndarray) -> np.ndarray:
    """Vectorized projection of an (N, 3) array of camera-frame points."""
    pts = np.asarray(pts_cam, dtype=float)
    z = pts[:, 2]
    if np.any(z <= _MIN_DEPTH):
        bad = int(np.argmax(z <= _MIN_DEPTH))
        raise PointBehindCamera(f"point {bad} has depth {z[bad]:.3g}")
    f = np.array([intrinsics.fx, intrinsics.fy])
    c = np.array([intrinsics.cx, intrinsics.cy])
    return f * pts[:, :2] / z[:, None] + c
