"""Constant-velocity position filter."""

import numpy as np
import pytest

from trajex import kalman
from trajex.errors import (
    EmptySequence,
    InputError,
    NonMonotonicTimestamps,
    NonPositiveDt,
    SingularInnovation,
)
from trajex.kalman import (
    FilteredSample,
    FilterParams,
    Measurement,
    init_state,
    predict,
    run_filter,
    transition,
    update,
)


def test_params_validation():
    with pytest.raises(ValueError):
        FilterParams(accel_sigma=0.0)
    with pytest.raises(ValueError):
        FilterParams(meas_sigma=-1.0)
    with pytest.raises(ValueError):
        FilterParams(init_vel_var=0.0)
    with pytest.raises(ValueError, match="finite square"):
        FilterParams(accel_sigma=1e160)


def test_params_pos_var_defaults_to_meas_variance():
    assert FilterParams(meas_sigma=0.2).pos_var == pytest.approx(0.04)
    assert FilterParams(meas_sigma=0.2, init_pos_var=9.0).pos_var == 9.0


def test_transition_oracle():
    # dt = 0.5: dt^4/4 = 0.015625, dt^3/2 = 0.0625, dt^2 = 0.25
    f, q = transition(0.5)
    np.testing.assert_allclose(f[:3, :3], np.eye(3))
    np.testing.assert_allclose(f[:3, 3:], 0.5 * np.eye(3))
    np.testing.assert_allclose(f[3:, :3], 0.0)
    np.testing.assert_allclose(q[:3, :3], 0.015625 * np.eye(3))
    np.testing.assert_allclose(q[:3, 3:], 0.0625 * np.eye(3))
    np.testing.assert_allclose(q[3:, 3:], 0.25 * np.eye(3))
    np.testing.assert_allclose(q, q.T)


def test_state_validation():
    # one bad state in a stack of good ones fails the whole stack
    def check(xs, covs):
        kalman._check_states(np.hstack([xs, covs]))

    xs, covs = np.zeros((5, 6)), np.tile([1.0, 0.0, 1.0], (5, 1))
    check(xs, covs)
    check(xs[:0], covs[:0])
    bad_x = xs.copy()
    bad_x[3, 4] = np.inf
    with pytest.raises(ValueError, match="state and covariance must be finite"):
        check(bad_x, covs)
    bad = covs.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="state and covariance must be finite"):
        check(xs, bad)
    bad[2] = [-1.0, 0.0, -1.0]
    with pytest.raises(ValueError, match="covariance is not positive semidefinite"):
        check(xs, bad)
    # the eigenvalue bound is -1e-9 * max(1, largest eigenvalue)
    bad[2] = [1.0, 0.0, -0.5e-9]
    check(xs, bad)
    bad[2, 2] = -2e-9
    with pytest.raises(ValueError, match="covariance is not positive semidefinite"):
        check(xs, bad)
    bad[2] = [1e20, 0.0, -1e10]
    check(xs, bad)
    bad[2, 2] = -1e12
    with pytest.raises(ValueError, match="covariance is not positive semidefinite"):
        check(xs, bad)
    # det = 1 - b^2 < 0 with a positive diagonal; a + c near the float
    # limit must not overflow the test
    bad[2] = [1.0, 1.0 + 1e-6, 1.0]
    with pytest.raises(ValueError, match="covariance is not positive semidefinite"):
        check(xs, bad)
    bad[2] = [1.5e308, 0.0, 1.5e308]
    check(xs, bad)


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(np.nan, np.zeros(3))
    with pytest.raises(ValueError):
        Measurement(0.0, np.zeros(2))
    assert Measurement(0.0).position is None


def test_init_state_seeds_from_measurement():
    params = FilterParams(meas_sigma=0.1)
    x, p = init_state(np.array([1.0, 2.0, 3.0]), params)
    np.testing.assert_allclose(x[:3], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(x[3:], 0.0)
    np.testing.assert_allclose(np.diag(p)[:3], 0.01)
    np.testing.assert_allclose(np.diag(p)[3:], params.init_vel_var)


def test_predict_requires_positive_dt():
    params = FilterParams()
    x, p = init_state(np.zeros(3), params)
    with pytest.raises(NonPositiveDt):
        predict(x, p, 0.0, params)
    with pytest.raises(NonPositiveDt):
        predict(x, p, -0.1, params)


def test_predict_moves_state_and_grows_uncertainty():
    params = FilterParams()
    x, p = init_state(np.zeros(3), params)
    x, p = update(x, p, np.zeros(3), params)
    x[3:] = [1.0, 0.0, 0.0]
    x_out, p_out = predict(x, p, 0.5, params)
    np.testing.assert_allclose(x_out[:3], [0.5, 0.0, 0.0], atol=1e-12)
    assert np.trace(p_out) > np.trace(p)


def test_update_pulls_toward_measurement():
    params = FilterParams(meas_sigma=0.05)
    x, p = predict(*init_state(np.zeros(3), params), 0.1, params)
    z = np.array([0.3, 0.0, 0.0])
    x_out, p_out = update(x, p, z, params)
    assert 0.0 < x_out[0] < 0.3
    # posterior is tighter than prior
    assert np.trace(p_out[:3, :3]) < np.trace(p[:3, :3])


def test_update_rejects_singular_innovation():
    # a prior with position block diag(1, 0, 0) and R = (1e-7)^2 I gives an
    # innovation covariance with condition number ~1e14
    params = FilterParams(meas_sigma=1e-7)
    p = np.zeros((6, 6))
    p[0, 0] = 1.0
    with pytest.raises(SingularInnovation):
        update(np.zeros(6), p, np.zeros(3), params)


def test_update_keeps_covariance_symmetric():
    rng = np.random.default_rng(4)
    params = FilterParams()
    x, p = init_state(rng.normal(size=3), params)
    for k in range(200):
        x, p = predict(x, p, 0.05, params)
        x, p = update(x, p, rng.normal(size=3), params)
        assert np.max(np.abs(p - p.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-12


def test_run_filter_rejects_empty_and_all_missing():
    with pytest.raises(EmptySequence):
        run_filter([])
    with pytest.raises(EmptySequence):
        run_filter([Measurement(0.0), Measurement(0.1)])


def test_run_filter_rejects_non_monotonic_times():
    meas = [
        Measurement(0.0, np.zeros(3)),
        Measurement(0.2, np.zeros(3)),
        Measurement(0.1, np.zeros(3)),
    ]
    with pytest.raises(NonMonotonicTimestamps):
        run_filter(meas)


def test_run_filter_lazy_init():
    meas = [
        Measurement(0.0),
        Measurement(0.1),
        Measurement(0.2, np.array([1.0, 0.0, 2.0])),
        Measurement(0.3, np.array([1.1, 0.0, 2.0])),
    ]
    out = run_filter(meas, FilterParams())
    assert len(out) == 4
    assert out[0].position is None and out[1].position is None
    assert not out[0].from_measurement
    assert out[2].position is not None
    np.testing.assert_allclose(out[2].position.xyz, [1.0, 0.0, 2.0], atol=1e-12)
    assert out[2].from_measurement and out[3].from_measurement


def test_run_filter_bridges_dropouts_with_prediction():
    # constant velocity 1 m/s in x; drop the middle frame
    params = FilterParams(accel_sigma=0.1, meas_sigma=0.01)
    meas = []
    for k in range(20):
        t = 0.1 * k
        pos = None if k == 10 else np.array([t, 0.0, 2.0])
        meas.append(Measurement(t, pos))
    out = run_filter(meas, params)
    gap = out[10]
    assert not gap.from_measurement
    assert gap.position is not None
    # the predicted position continues the motion, not the last fix
    assert abs(gap.position.x - 1.0) < 0.05
    assert abs(out[10].position.x - out[9].position.x) > 0.05


def test_run_filter_converges_on_constant_velocity():
    params = FilterParams(accel_sigma=0.2, meas_sigma=0.02)
    rng = np.random.default_rng(9)
    vel = np.array([0.4, -0.2, 0.1])
    meas = [
        Measurement(0.05 * k, vel * (0.05 * k) + rng.normal(scale=0.02, size=3))
        for k in range(200)
    ]
    out = run_filter(meas, params)
    assert isinstance(out[-1], FilteredSample)
    np.testing.assert_allclose(out[-1].velocity, vel, atol=0.05)
    np.testing.assert_allclose(out[-1].position.xyz, vel * out[-1].timestamp, atol=0.02)


def test_filter_beats_raw_measurements():
    params = FilterParams(accel_sigma=0.3, meas_sigma=0.05)
    rng = np.random.default_rng(123)
    times = 0.1 * np.arange(100)
    truth = np.column_stack([0.3 * times, 0.1 * times, 2.0 + 0.05 * times])
    noisy = truth + rng.normal(scale=0.05, size=truth.shape)
    out = run_filter(
        [Measurement(t, z) for t, z in zip(times, noisy)], params
    )
    est = np.array([s.position.xyz for s in out])
    raw_rmse = np.sqrt(np.mean(np.sum((noisy - truth) ** 2, axis=1)))
    filt_rmse = np.sqrt(np.mean(np.sum((est - truth) ** 2, axis=1)))
    assert filt_rmse < raw_rmse


def test_update_measurement_dominated_limit():
    x, p = predict(*init_state(np.array([1.0, 2.0, 3.0]), FilterParams()), 0.1, FilterParams())
    z = np.array([5.0, -1.0, 2.0])
    x_post, _ = update(x, p, z, FilterParams(meas_sigma=1e-9))
    np.testing.assert_allclose(x_post[:3], z, atol=1e-6)


def test_update_prior_dominated_limit():
    x, p = predict(*init_state(np.array([1.0, 2.0, 3.0]), FilterParams()), 0.1, FilterParams())
    x_post, _ = update(x, p, np.array([5.0, -1.0, 2.0]), FilterParams(meas_sigma=1e9))
    rel = np.linalg.norm(x_post - x) / np.linalg.norm(x)
    assert rel < 1e-6


def test_noise_free_constant_velocity_is_reproduced():
    # with near-exact measurements the filter should pass them through;
    # positions match from the first update, no transient
    params = FilterParams(accel_sigma=0.5, meas_sigma=1e-9)
    vel = np.array([1.0, -0.5, 0.25])
    meas = [Measurement(0.1 * k, vel * (0.1 * k)) for k in range(10)]
    out = run_filter(meas, params)
    for samp in out[2:]:
        np.testing.assert_allclose(
            samp.position.xyz, vel * samp.timestamp, atol=1e-6
        )


def test_single_measurement_passes_through():
    out = run_filter([Measurement(0.3, np.array([0.5, -0.2, 1.8]))])
    assert len(out) == 1
    np.testing.assert_allclose(out[0].position.xyz, [0.5, -0.2, 1.8], atol=1e-12)
    np.testing.assert_allclose(out[0].velocity, 0.0, atol=1e-12)


def test_identical_measurements_stay_put():
    z = np.array([0.4, 0.1, 2.2])
    meas = [Measurement(0.1 * k, z.copy()) for k in range(50)]
    out = run_filter(meas, FilterParams())
    for samp in out:
        np.testing.assert_allclose(samp.position.xyz, z, atol=1e-9)


def test_filter_beats_raw_under_dropout():
    # 20% dropped frames; compare only on frames that kept a measurement
    # so the raw baseline needs no interpolation
    params = FilterParams(accel_sigma=0.3, meas_sigma=0.05)
    rng = np.random.default_rng(77)
    times = 0.1 * np.arange(100)
    truth = np.column_stack([0.4 * times, -0.1 * times, 2.0 + 0.0 * times])
    noisy = truth + rng.normal(scale=0.05, size=truth.shape)
    kept = rng.random(100) >= 0.2
    kept[0] = True
    meas = [
        Measurement(t, z if keep else None)
        for t, z, keep in zip(times, noisy, kept)
    ]
    out = run_filter(meas, params)
    est = np.array([s.position.xyz for s in out])
    raw_rmse = np.sqrt(np.mean(np.sum((noisy[kept] - truth[kept]) ** 2, axis=1)))
    filt_rmse = np.sqrt(np.mean(np.sum((est[kept] - truth[kept]) ** 2, axis=1)))
    assert filt_rmse < raw_rmse


def test_innovation_whiteness_on_matched_model():
    # truth follows exactly the white-noise-acceleration model the filter
    # assumes, so the normalized innovation squared should average to the
    # measurement dimension (3) over a long run
    dt, sa, sz = 0.1, 0.5, 0.05
    params = FilterParams(accel_sigma=sa, meas_sigma=sz)
    rng = np.random.default_rng(0)
    pos = np.zeros(3)
    vel = rng.normal(size=3) * np.sqrt(params.init_vel_var)
    x, p = init_state(pos + rng.normal(scale=sz, size=3), params)
    h = np.hstack([np.eye(3), np.zeros((3, 3))])
    nis = []
    for _ in range(1000):
        a = rng.normal(scale=sa, size=3)
        pos = pos + vel * dt + a * dt**2 / 2.0
        vel = vel + a * dt
        z = pos + rng.normal(scale=sz, size=3)
        x, p = predict(x, p, dt, params)
        s_innov = h @ p @ h.T + sz**2 * np.eye(3)
        innov = z - h @ x
        nis.append(float(innov @ np.linalg.solve(s_innov, innov)))
        x, p = update(x, p, z, params)
    assert 2.4 < np.mean(nis) < 3.6


def test_output_is_causal():
    rng = np.random.default_rng(3)
    meas = [Measurement(0.0, rng.normal(size=3))]
    for k in range(1, 40):
        kept = rng.random() > 0.15
        meas.append(Measurement(0.1 * k, rng.normal(size=3) if kept else None))
    full = run_filter(meas, FilterParams())
    for cut in (1, 7, 23, 40):
        prefix = run_filter(meas[:cut], FilterParams())
        for a, b in zip(prefix, full[:cut]):
            assert a.timestamp == b.timestamp
            if a.position is None:
                assert b.position is None
            else:
                np.testing.assert_allclose(a.position.xyz, b.position.xyz, atol=1e-14)


def test_run_filter_matches_hand_stepped_filter(monkeypatch):
    # lazy init, dropouts and uneven steps; the scalar recursion must agree
    # with the 6-D reference, whose covariance must stay P2 (x) I3, and
    # every predicted and posterior state must reach the check
    checked = []

    def spy(states):
        checked.append(states.copy())
        real_check(states)

    real_check = kalman._check_states
    monkeypatch.setattr(kalman, "_check_states", spy)
    rng = np.random.default_rng(21)
    params = FilterParams(accel_sigma=0.4, meas_sigma=0.05)
    times = np.cumsum(rng.uniform(0.01, 0.1, size=1300))
    kept = rng.uniform(size=times.size) > 0.2
    kept[:3] = False
    meas = [
        Measurement(t, rng.normal(size=3) if keep else None) for t, keep in zip(times, kept)
    ]
    out = run_filter(meas, params)

    states = []
    x = p = None
    for m, sample in zip(meas, out):
        if x is None:
            if m.position is None:
                assert sample.position is None and sample.velocity is None
                continue
            x, p = init_state(m.position, params)
        else:
            x, p = predict(x, p, m.timestamp - prev, params)
            if m.position is not None:
                states.append((x, p))
                x, p = update(x, p, m.position, params)
        states.append((x, p))
        prev = m.timestamp
        assert sample.timestamp == m.timestamp
        assert sample.from_measurement == (m.position is not None)
        np.testing.assert_allclose(sample.position.xyz, x[:3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sample.velocity, x[3:], rtol=0, atol=1e-12)
    assert len(out) == len(meas) and len(checked) == 1
    xs, covs = checked[0][:, :6], checked[0][:, 6:]
    np.testing.assert_allclose(xs, [s[0] for s in states], rtol=0, atol=1e-12)
    ref = np.array([s[1] for s in states])
    np.testing.assert_allclose(covs, ref[:, [0, 0, 3], [0, 3, 3]], rtol=1e-12, atol=0)
    p2 = np.stack([covs[:, [0, 1]], covs[:, [1, 2]]], axis=1)
    np.testing.assert_allclose(ref, [np.kron(m, np.eye(3)) for m in p2], rtol=0, atol=1e-15)


def test_run_filter_survives_long_time_steps():
    # a 1e5 s gap grows P's entries to ~1e20, where roundoff alone breaks
    # an absolute -1e-9 eigenvalue bound; at 1e60 s the posterior velocity
    # variance is a difference of terms near 1e119 unless it is carried as
    # c - b^2/a; at 1.5e77 s dt^4 overflows but q dt^4 / 4 does not; at
    # 1e78 s the covariance itself overflows
    z0, z1 = np.array([0.0, 0.0, 5.0]), np.array([1.0, -1.0, 6.0])
    for gap in (1e5, 1e15, 1e30, 1e60, 1.5e77):
        out = run_filter([Measurement(0.0, z0), Measurement(gap, z1)])
        np.testing.assert_allclose(out[1].position.xyz, z1, atol=1e-6)
    with pytest.raises(InputError, match="step of 1e[+]78 s"):
        run_filter([Measurement(0.0, z0), Measurement(1e78, z1)])
