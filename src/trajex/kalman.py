"""Constant-velocity Kalman filter over 3D position measurements.

State is x = (position, velocity) in R^6, expressed in the camera
frame. The motion model is constant velocity driven by white-noise
acceleration, so for a step of length dt:

    F = [[I, dt I], [0, I]]
    Q = sigma_a^2 [[dt^4/4 I, dt^3/2 I], [dt^3/2 I, dt^2 I]]

Measurements are noisy positions, H = [I 0], R = sigma_z^2 I. Both
models are linear, so the filter is exact; no linearization happens
anywhere. Updates use the Joseph form and covariances are symmetrized
after every step to keep them well conditioned over long runs.

The belief is the pair of arrays x (6,) and P (6, 6). run_filter checks
every state it produces in stacks of up to 512: finite, P symmetric
within 1e-9, and no eigenvalue of P below -1e-9 * max(1, largest). The
bound is relative because a long step leaves P with entries so large
(~1e20 after 1e5 s) that roundoff alone would break an absolute one.

The filter initializes lazily at the first available measurement
(velocity zero) rather than guessing a state beforehand. Frames before
that point carry no estimate; dropped detections after it are bridged
by prediction alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySequence,
    NonMonotonicTimestamps,
    NonPositiveDt,
    SingularInnovation,
)
from .geometry import CAMERA, Point3

_SYM_TOL = 1e-9
_PSD_TOL = 1e-9  # relative to max(1, largest eigenvalue)
_BLOCK = 512  # states per stacked check in run_filter


@dataclass(frozen=True)
class FilterParams:
    """Noise model and initial uncertainty.

    accel_sigma is the white-noise acceleration density in m/s^2,
    meas_sigma the per-axis measurement noise in m. init_pos_var
    defaults to meas_sigma^2 since the state is seeded from a
    measurement.
    """

    accel_sigma: float = 0.5
    meas_sigma: float = 0.05
    init_pos_var: float | None = None
    init_vel_var: float = 1.0

    def __post_init__(self):
        if self.accel_sigma <= 0.0 or self.meas_sigma <= 0.0:
            raise ValueError("noise parameters must be positive")
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


@functools.lru_cache(maxsize=64)
def transition(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (F, unit Q) for a step of length dt; scale Q by accel_sigma^2.

    A frame stream has only a few distinct steps, so the pair is cached
    per dt and returned read-only.
    """
    i3 = np.eye(3)
    f = np.block([[i3, dt * i3], [np.zeros((3, 3)), i3]])
    q = np.block(
        [
            [dt**4 / 4.0 * i3, dt**3 / 2.0 * i3],
            [dt**3 / 2.0 * i3, dt**2 * i3],
        ]
    )
    f.flags.writeable = False
    q.flags.writeable = False
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


def _check_states(x: np.ndarray, p: np.ndarray) -> None:
    """Raise ValueError unless each x[i], p[i] is finite and p[i] is symmetric PSD."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
        raise ValueError("state and covariance must be finite")
    if not np.all(np.abs(p - p.transpose(0, 2, 1)) <= _SYM_TOL):
        raise ValueError("covariance is not symmetric")
    eig = np.linalg.eigvalsh(p)
    if np.any(eig[:, 0] < -_PSD_TOL * np.maximum(1.0, eig[:, -1])):
        raise ValueError("covariance is not positive semidefinite")


def run_filter(measurements, params: FilterParams | None = None) -> list[FilteredSample]:
    """Filter a frame sequence into per-frame position estimates.

    measurements is an iterable of Measurement in time order; dropped
    frames (position None) are carried through by prediction once the
    filter has initialized, and yield samples with position None before
    that. Raises EmptySequence when no frame carries a position and
    NonMonotonicTimestamps when time does not strictly increase, and
    ValueError when a state breaks the invariants above.
    """
    measurements = list(measurements)
    if params is None:
        params = FilterParams()
    if not any(m.position is not None for m in measurements):
        raise EmptySequence("no frame carries a usable measurement")
    for a, b in zip(measurements, measurements[1:]):
        if b.timestamp <= a.timestamp:
            raise NonMonotonicTimestamps(
                f"timestamps must strictly increase, got {a.timestamp} then {b.timestamp}"
            )

    samples: list[FilteredSample] = []
    xs, ps = np.empty((_BLOCK, 6)), np.empty((_BLOCK, 6, 6))
    n = 0  # states in the buffer that are not checked yet
    x = p = None
    try:
        for meas in measurements:
            z = meas.position
            if x is None:
                if z is None:
                    samples.append(FilteredSample(meas.timestamp, None, None, False))
                    continue
                x, p = init_state(z, params)
            else:
                x, p = predict(x, p, meas.timestamp - t, params)
                if z is not None:
                    xs[n], ps[n] = x, p
                    n += 1
                    x, p = update(x, p, z, params)
            xs[n], ps[n] = x, p
            n += 1
            if n >= _BLOCK - 1:  # keep room for the next frame's two states
                full, n = n, 0
                _check_states(xs[:full], ps[:full])
            t = meas.timestamp
            samples.append(
                FilteredSample(
                    timestamp=meas.timestamp,
                    position=Point3(x[:3], frame=CAMERA),
                    velocity=x[3:].copy(),
                    from_measurement=z is not None,
                )
            )
    finally:  # on an error too: a bad state is reported before what it broke later
        _check_states(xs[:n], ps[:n])
    return samples
