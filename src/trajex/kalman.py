"""Constant-velocity Kalman filter over 3D position measurements.

State is x = (position, velocity) in R^6, expressed in the camera
frame. The motion model is constant velocity driven by white-noise
acceleration, so for a step of length dt:

    F = [[1, dt], [0, 1]] (x) I3
    Q = sigma_a^2 [[dt^4/4, dt^3/2], [dt^3/2, dt^2]] (x) I3

Measurements are noisy positions, H = [I 0], R = sigma_z^2 I. Both
models are linear, so the filter is exact. With the initial covariance
diag(pos_var, vel_var) (x) I3, every covariance of a run is P2 (x) I3,
P2 = [[a, b], [b, c]], so _filter runs one scalar recursion on Python
floats, with the gains (a, b) / (a + r) on each axis, taken from halved
terms so that a + r cannot overflow. It also carries
e = c - b^2/a, the velocity variance given the position: every value is
then a sum or ratio of non-negative terms, and none overflows before P2
does. init_state, predict and update are the same filter in 6-D
(Joseph-form update); the tests hold run_filter to them.

_filter checks every state and P2 it produces (the first one, each
prediction and each posterior) once, in closed form: all finite, and
P2's smallest eigenvalue (a+c)/2 - hypot((a-c)/2, b) not below
-1e-9 * max(1, largest). The bound is relative because P2's entries grow
with the step (~1e20 after 1e5 s). A step whose prediction overflows
(past ~2e77 s at the default noise) is an InputError naming the step.
An innovation variance that underflows to 0 (both sigmas below ~1e-160)
is an InputError too.

The filter initializes lazily at the first available measurement
(velocity zero). Frames before that point carry no estimate; dropped
detections after it are bridged by prediction alone. _filter runs on
columns (a NaN position is a dropped frame); run_filter is its adapter
for lists, and builds its samples unchecked from the checked rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySequence,
    InputError,
    NonMonotonicTimestamps,
    NonPositiveDt,
    SingularInnovation,
)
from .geometry import CAMERA, Point3, _unchecked

_PSD_TOL = 1e-9  # relative to max(1, largest eigenvalue)
_DROPPED = (math.nan,) * 3  # the position row of a dropped frame


@dataclass(frozen=True)
class FilterParams:
    """Noise model and initial uncertainty.

    accel_sigma is the white-noise acceleration density in m/s^2,
    meas_sigma the per-axis measurement noise in m. init_pos_var
    defaults to meas_sigma^2 since the state is seeded from a
    measurement. Both sigmas must have a finite square.
    """

    accel_sigma: float = 0.5
    meas_sigma: float = 0.05
    init_pos_var: float | None = None
    init_vel_var: float = 1.0

    def __post_init__(self):
        if not all(v > 0.0 and math.isfinite(v * v) for v in (self.accel_sigma, self.meas_sigma)):
            raise ValueError("noise parameters must be positive, with a finite square")
        if self.init_pos_var is not None and self.init_pos_var <= 0.0:
            raise ValueError("init_pos_var must be positive")
        if self.init_vel_var <= 0.0:
            raise ValueError("init_vel_var must be positive")

    @property
    def pos_var(self) -> float:
        return self.meas_sigma**2 if self.init_pos_var is None else self.init_pos_var


@dataclass(frozen=True)
class Measurement:
    """Observed position at a timestamp; position None marks a dropped frame."""

    timestamp: float
    position: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        if self.position is not None:
            z = np.asarray(self.position, dtype=float)
            if z.shape != (3,):
                raise ValueError(f"position must have 3 components, got {z.shape}")
            if not np.all(np.isfinite(z)):
                raise ValueError("position must be finite")
            z.flags.writeable = False
            object.__setattr__(self, "position", z)


@dataclass(frozen=True)
class FilteredSample:
    """Per-frame output; position is None before the filter initializes."""

    timestamp: float
    position: Point3 | None
    velocity: np.ndarray | None
    from_measurement: bool


def transition(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (F, unit Q) for a step of length dt; scale Q by accel_sigma^2."""
    f = np.kron([[1.0, dt], [0.0, 1.0]], np.eye(3))
    q = np.kron([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]], np.eye(3))
    return f, q


def init_state(z: np.ndarray, params: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Seed the belief (x, P) from a single position measurement, zero velocity."""
    x = np.concatenate([z, np.zeros(3)])
    p = np.diag([params.pos_var] * 3 + [params.init_vel_var] * 3)
    return x, p


def predict(x: np.ndarray, p: np.ndarray, dt: float, params: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the belief (x, P) forward by dt seconds."""
    if not np.isfinite(dt) or dt <= 0.0:
        raise NonPositiveDt(f"prediction step must be positive, got {dt}")
    f, q = transition(dt)
    x = f @ x
    p = f @ p @ f.T + params.accel_sigma**2 * q
    p = (p + p.T) / 2.0
    return x, p


def update(x: np.ndarray, p: np.ndarray, z: np.ndarray, params: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Condition the belief (x, P) on a position measurement (Joseph-form update)."""
    r = params.meas_sigma**2 * np.eye(3)
    s = p[:3, :3] + r  # H = [I 0] is applied as slices of P and x
    # s is 3x3 and should be comfortably PD; a huge condition number
    # means the covariance got corrupted upstream
    if np.linalg.cond(s) > 1e12:
        raise SingularInnovation("innovation covariance is numerically singular")
    k = np.linalg.solve(s.T, p[:, :3].T).T
    x = x + k @ (z - x[:3])
    ikh = np.eye(6)
    ikh[:, :3] -= k
    p = ikh @ p @ ikh.T + k @ r @ k.T
    p = (p + p.T) / 2.0
    return x, p


def _check_states(states: np.ndarray) -> None:
    """Raise ValueError unless each row (x (6), a, b, c) is finite with P2 = [[a, b], [b, c]] PSD."""
    if not np.all(np.isfinite(states)):
        raise ValueError("state and covariance must be finite")
    a, b, c = states[:, 6:].T / 2.0  # halved first, so that a + c cannot overflow
    mid, rad = a + c, np.hypot(a - c, 2.0 * b)
    if np.any(mid - rad < -_PSD_TOL * np.maximum(1.0, mid + rad)):
        raise ValueError("covariance is not positive semidefinite")


def _filter(times: np.ndarray, z: np.ndarray, params: FilterParams) -> tuple[int, np.ndarray]:
    """The first measured frame of times (N,) and positions z (N, 3), and the checked,
    read-only rows (x (6), a, b, c) of it and each later frame; raises as run_filter does."""
    first = next((i for i, zx in enumerate(z[:, 0].tolist()) if not math.isnan(zx)), None)
    if first is None:
        raise EmptySequence("no frame carries a usable measurement")
    for i in np.flatnonzero(times[1:] <= times[:-1])[:1].tolist():
        raise NonMonotonicTimestamps(f"timestamps must strictly increase, got {times[i]} then {times[i + 1]}")

    q, r = params.accel_sigma**2, params.meas_sigma**2
    t = float(times[first])
    px, py, pz, vx, vy, vz = *z[first].tolist(), 0.0, 0.0, 0.0
    a, b, c, e = params.pos_var, 0.0, params.init_vel_var, params.init_vel_var  # e = c - b^2/a
    record = struct.Struct("9d").pack_into  # a state and its P2 into `states`, 72 bytes a row
    states, n, out = np.empty((2 * len(times), 9)), 1, [0]  # rows recorded; rows reported
    record(states, 0, px, py, pz, vx, vy, vz, a, b, c)
    try:
        for ti, (zx, zy, zz) in zip(times[first + 1 :].tolist(), z[first + 1 :].tolist()):
            dt, t = ti - t, ti
            dt2 = dt * dt
            a1 = a + dt * (2.0 * b + dt * c) + q * dt2 * (dt2 / 4.0)
            # e = det P2 / a; det P2 grows by q v P2 v^T <= q dt^2 a1, v = (dt, dt^2/2)
            e = e * (a / a1) + q * dt2 * ((a + dt * (b + dt * c / 4.0)) / a1) if a1 > 0.0 else c
            a, b, c = a1, b + dt * c + q * dt2 * (dt / 2.0), c + q * dt2
            if not a + c < math.inf:  # NaN too, from 0 * inf
                raise InputError(f"a step of {dt!r} s to t = {t!r} overflows the filter covariance")
            px, py, pz = px + dt * vx, py + dt * vy, pz + dt * vz
            if not math.isnan(zx):
                record(states, 72 * n, px, py, pz, vx, vy, vz, a, b, c)
                n += 1
                s = 0.5 * a + 0.5 * r  # (a + r) / 2, which cannot overflow
                if s == 0.0:
                    raise InputError(
                        f"the innovation variance underflows to 0 at t = {t!r}: "
                        "filter.meas_sigma and filter.accel_sigma are too small"
                    )
                k1, k2, w = 0.5 * a / s, 0.5 * b / s, 0.5 * r / s
                ix, iy, iz = zx - px, zy - py, zz - pz
                px, py, pz = px + k1 * ix, py + k1 * iy, pz + k1 * iz
                vx, vy, vz = vx + k2 * ix, vy + k2 * iy, vz + k2 * iz
                # c - b^2/s = e + (b^2/a) w with b^2/a = c - e, exact as w = 1 - k1 nears 0
                a, b, c = a * w, b * w, e + (c - e) * w
            out.append(n)
            record(states, 72 * n, px, py, pz, vx, vy, vz, a, b, c)
            n += 1
    finally:  # on an error too: a bad state is reported before what it broke later
        _check_states(states[:n])
    rows = states[out]  # checked above, so what is built from them is not checked again
    rows.flags.writeable = False
    return first, rows


def run_filter(measurements, params: FilterParams | None = None) -> list[FilteredSample]:
    """Filter a frame sequence into per-frame position estimates.

    measurements is an iterable of Measurement in time order; dropped
    frames (position None) are carried through by prediction once the
    filter has initialized, and yield samples with position None before
    that. Raises EmptySequence (no frame has a position), InputError (a
    step overflows the covariance, or the innovation variance underflows
    to 0), NonMonotonicTimestamps, and
    ValueError when a state breaks the invariants above.
    """
    measurements = list(measurements)
    times = np.array([m.timestamp for m in measurements], dtype=float)
    z = np.array([_DROPPED if m.position is None else m.position for m in measurements]).reshape(-1, 3)
    first, rows = _filter(times, z, FilterParams() if params is None else params)
    return [FilteredSample(m.timestamp, None, None, False) for m in measurements[:first]] + [
        _unchecked(FilteredSample, timestamp=m.timestamp,
                   position=_unchecked(Point3, xyz=row[:3], frame=CAMERA),
                   velocity=row[3:6], from_measurement=m.position is not None)
        for m, row in zip(measurements[first:], rows)
    ]
