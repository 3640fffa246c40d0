"""Text formats, pose adaptation, association, and configuration."""

import io
import os

import numpy as np
import pytest

from trajex.errors import (
    DenormalizedQuaternion,
    NoOverlap,
    NonMonotonicFrames,
    NonMonotonicTimestamps,
    ParseError,
)
from trajex.geometry import CAMERA, WORLD, RigidTransform, Rotation, invert
from trajex.io import (
    CameraPoseRecord,
    DetectionRecord,
    adapt_poses,
    associate,
    config_keys,
    default_config,
    read_camera_poses,
    read_config,
    read_detections,
    read_ground_track,
    read_metrics,
    read_trajectory,
    write_camera_poses,
    write_detections,
    write_ground_track,
    write_metrics,
    write_text,
    write_trajectory,
)
from trajex.pnp import BoundingBox
from trajex.trajectory import GroundTrack, NavMetrics, Trajectory


def test_read_detections_basic():
    text = io.StringIO(
        "# detector output\n"
        "0 0.0 320.0 240.0 100.0 50.0 0.9\n"
        "\n"
        "1 0.033 321.5 241.0 99.0 49.5\n"
        "2 0.066 missing\n"
    )
    recs = read_detections(text)
    assert len(recs) == 3
    assert recs[0].frame_index == 0 and recs[0].present
    assert recs[0].bbox.cx == 320.0 and recs[0].confidence == 0.9
    assert recs[1].confidence is None
    assert not recs[2].present and recs[2].bbox is None


def test_read_detections_fills_gaps():
    text = io.StringIO("0 0.0 320 240 10 10\n3 0.3 330 240 10 10\n")
    recs = read_detections(text)
    assert [r.frame_index for r in recs] == [0, 1, 2, 3]
    assert not recs[1].present and not recs[2].present
    np.testing.assert_allclose([recs[1].timestamp, recs[2].timestamp], [0.1, 0.2])


def test_read_detections_bounds_filled_frames():
    # a 100,000-frame gap is filled in; one past 2^20 filled frames is a parse error
    recs = read_detections(io.StringIO("0 0.0 missing\n100000 1.0 missing\n"))
    assert len(recs) == 100001 and recs[-1].frame_index == 100000
    text = "0 0.0 missing\n600000 1.0 missing\n1200000 2.0 missing\n"
    with pytest.raises(ParseError, match="^<stream>:3: frame index 1200000 after 600000 takes the file past"):
        read_detections(io.StringIO(text))


def test_read_detections_errors():
    with pytest.raises(NonMonotonicFrames):
        read_detections(io.StringIO("1 0.0 320 240 10 10\n0 0.1 320 240 10 10\n"))
    with pytest.raises(NonMonotonicTimestamps):
        read_detections(io.StringIO("0 0.0 320 240 10 10\n1 0.0 320 240 10 10\n"))
    with pytest.raises(ParseError, match="fields"):
        read_detections(io.StringIO("0 0.0 320 240 10\n"))
    with pytest.raises(ParseError, match="frame index"):
        read_detections(io.StringIO("x 0.0 320 240 10 10\n"))
    with pytest.raises(ParseError, match="positive size"):
        read_detections(io.StringIO("0 0.0 320 240 -5 10\n"))
    with pytest.raises(ParseError, match="missing"):
        read_detections(io.StringIO("0 0.0 missing extra\n"))


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        read_detections(io.StringIO("0 0.0 320 240 10 10\nbroken\n"))
    assert ":2:" in str(exc.value)


def test_detections_round_trip(tmp_path):
    recs = [
        DetectionRecord(0, 0.0, BoundingBox(320.123456789, 240.0, 10.5, 10.25), 0.875),
        DetectionRecord(1, 1.0 / 30.0),
        DetectionRecord(2, 2.0 / 30.0, BoundingBox(321.0, 239.5, 9.75, 10.0)),
    ]
    path = tmp_path / "det.txt"
    write_detections(recs, path)
    back = read_detections(path)
    assert len(back) == 3
    assert back[0].bbox.cx == recs[0].bbox.cx
    assert back[0].confidence == 0.875
    assert back[1].timestamp == recs[1].timestamp
    assert back[2].bbox.h == 10.0


def test_read_camera_poses_identity_row():
    recs = read_camera_poses(io.StringIO("0.5 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n"))
    assert len(recs) == 1
    assert recs[0].timestamp == 0.5
    np.testing.assert_allclose(recs[0].pose.translation, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(recs[0].pose.rotation.matrix, np.eye(3))
    assert recs[0].pose.frame_from == CAMERA and recs[0].pose.frame_to == WORLD


def test_read_camera_poses_rejects_bad_rows():
    with pytest.raises(ParseError):
        read_camera_poses(io.StringIO("0.5 1.0 2.0 3.0 0.0 0.0 0.0\n"))
    with pytest.raises(DenormalizedQuaternion):
        read_camera_poses(io.StringIO("0.5 0 0 0 0 0 0 1.1\n"))
    with pytest.raises(NonMonotonicTimestamps):
        read_camera_poses(
            io.StringIO("0.5 0 0 0 0 0 0 1\n0.4 0 0 0 0 0 0 1\n")
        )


def test_camera_poses_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    recs = []
    for k in range(20):
        rot = Rotation.from_rotvec(rng.normal(scale=0.8, size=3))
        recs.append(
            CameraPoseRecord(
                0.1 * k,
                RigidTransform(rot, rng.normal(size=3), frame_from=CAMERA, frame_to=WORLD),
            )
        )
    path = tmp_path / "poses.txt"
    write_camera_poses(recs, path)
    back = read_camera_poses(path)
    for a, b in zip(recs, back):
        assert a.timestamp == b.timestamp
        np.testing.assert_allclose(b.pose.translation, a.pose.translation, atol=1e-15)
        np.testing.assert_allclose(b.pose.rotation.matrix, a.pose.rotation.matrix, atol=1e-12)


def test_adapt_poses_invert():
    rot = Rotation.from_axis_angle([0.0, 0.0, 1.0], 0.3)
    t = np.array([1.0, -2.0, 0.5])
    cam_in_world = RigidTransform(rot, t, frame_from=CAMERA, frame_to=WORLD)
    world_in_cam = RigidTransform(rot.inverse(), -rot.inverse().apply(t))
    out = adapt_poses([CameraPoseRecord(0.0, world_in_cam)], invert=True)
    np.testing.assert_allclose(out[0].pose.translation, cam_in_world.translation, atol=1e-14)
    np.testing.assert_allclose(out[0].pose.rotation.matrix, cam_in_world.rotation.matrix, atol=1e-14)


def test_adapt_poses_matches_per_pose_composition():
    # the stacked product equals, bit for bit, each pose scaled, inverted by
    # geometry.invert and remapped, as the per-pose code composed them
    rng = np.random.default_rng(12)
    records = [
        CameraPoseRecord(0.1 * k, RigidTransform(
            Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(0.0, np.pi)),
            rng.normal(scale=10.0, size=3), CAMERA, WORLD))
        for k in range(200)
    ]
    remap = Rotation(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]))
    for inv in (False, True):
        out = adapt_poses(records, invert=inv, scale=2.5, axes="x,-z,y")
        for a, r in zip(out, records):
            pose = RigidTransform(r.pose.rotation, r.pose.translation * 2.5, CAMERA, WORLD)
            pose = invert(pose) if inv else pose
            assert a.timestamp == r.timestamp and (a.pose.frame_from, a.pose.frame_to) == (CAMERA, WORLD)
            assert a.pose.rotation.matrix.tobytes() == (remap @ pose.rotation).matrix.tobytes()
            assert a.pose.translation.tobytes() == remap.apply(pose.translation).tobytes()
            assert not a.pose.translation.flags.writeable
    # the first pose that overflows is named, whatever follows it
    bad = [CameraPoseRecord(0.0, records[0].pose), CameraPoseRecord(0.5, RigidTransform(
        Rotation.identity(), np.array([0.0, 1e308, 0.0]))), CameraPoseRecord(0.7, RigidTransform(
        Rotation.identity(), np.array([1e308, 0.0, 0.0])))]
    with pytest.raises(ParseError, match=r"^pose at time 0\.5 scaled by 10\.0: translation has non-finite"):
        adapt_poses(bad, invert=True, scale=10.0)


def test_adapt_poses_defaults_keep_records():
    # camera-in-world records pass the defaults bit for bit, signed zeros
    # and frame tags included; an untagged record is still relabelled
    rot = Rotation(np.array([[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    tilted = Rotation.from_axis_angle([1.0, 2.0, 0.5], 0.7)
    records = [
        CameraPoseRecord(0.0, RigidTransform(rot, np.array([-0.0, 1.5, 2.0]), CAMERA, WORLD)),
        CameraPoseRecord(0.1, RigidTransform(tilted, np.array([0.3, -1.0, 4.5]), CAMERA, WORLD)),
    ]
    out = adapt_poses(records)
    assert len(out) == len(records)
    for a, b in zip(out, records):
        assert a.timestamp == b.timestamp
        assert (a.pose.frame_from, a.pose.frame_to) == (CAMERA, WORLD)
        assert a.pose.rotation.matrix.tobytes() == b.pose.rotation.matrix.tobytes()
        assert a.pose.translation.tobytes() == b.pose.translation.tobytes()
    untagged = [CameraPoseRecord(0.0, RigidTransform(tilted, np.zeros(3)))]
    out = adapt_poses(untagged)
    assert (out[0].pose.frame_from, out[0].pose.frame_to) == (CAMERA, WORLD)
    np.testing.assert_array_equal(out[0].pose.rotation.matrix, tilted.matrix)


def test_adapt_poses_scale():
    pose = RigidTransform(Rotation.identity(), np.array([1000.0, 0.0, 0.0]))
    out = adapt_poses([CameraPoseRecord(0.0, pose)], scale=0.001)
    np.testing.assert_allclose(out[0].pose.translation, [1.0, 0.0, 0.0])


def test_adapt_poses_axis_remap():
    # y-up source world: our x = source x, our y = -source z, our z = source y
    pose = RigidTransform(Rotation.identity(), np.array([1.0, 2.0, 3.0]))
    out = adapt_poses([CameraPoseRecord(0.0, pose)], axes="x,-z,y")
    np.testing.assert_allclose(out[0].pose.translation, [1.0, -3.0, 2.0])


def test_adapt_poses_rejects_left_handed_spec():
    pose = RigidTransform(Rotation.identity(), np.zeros(3))
    with pytest.raises(ParseError, match="left-handed"):
        adapt_poses([CameraPoseRecord(0.0, pose)], axes="x,y,-z")
    with pytest.raises(ParseError):
        adapt_poses([CameraPoseRecord(0.0, pose)], axes="x,x,y")


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    traj = Trajectory(np.sort(rng.uniform(0, 10, 15)), rng.normal(size=(15, 3)))
    path = tmp_path / "traj.txt"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.positions, traj.positions)


def test_ground_track_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    track = GroundTrack(np.sort(rng.uniform(0, 10, 12)), rng.normal(size=(12, 2)))
    path = tmp_path / "track.txt"
    write_ground_track(track, path)
    back = read_ground_track(path)
    np.testing.assert_array_equal(back.times, track.times)
    np.testing.assert_array_equal(back.xy, track.xy)


def test_metrics_round_trip(tmp_path):
    m = NavMetrics(2.847, 0.0527, 0.0311, 0.0892, True)
    path = tmp_path / "metrics.txt"
    write_metrics(m, path)
    back = read_metrics(path)
    assert back == m


def test_metrics_reader_rejects_bad_input():
    with pytest.raises(ParseError, match="unknown metric"):
        read_metrics(io.StringIO("bogus 1.0\n"))
    with pytest.raises(ParseError, match="missing metrics"):
        read_metrics(io.StringIO("path_length_m 1.0\n"))
    with pytest.raises(ParseError, match="success"):
        read_metrics(
            io.StringIO(
                "path_length_m 1.0\nfinal_goal_error_m 0.1\n"
                "tracking_rmse_m 0.1\ntracking_max_m 0.2\nsuccess yes\n"
            )
        )


def test_write_text_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_rewrite_leaves_only_the_target(tmp_path):
    target = tmp_path / "out.txt"
    write_text(target, "old\n")
    write_text(target, "new bytes\n")
    assert target.read_bytes() == b"new bytes\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_failure_removes_temp_file(tmp_path):
    # a directory where the file should go: the write fails and leaves nothing behind
    (tmp_path / "out.txt").mkdir()
    with pytest.raises(OSError):
        write_text(tmp_path / "out.txt", "hello\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert (tmp_path / "out.txt").is_dir()


def test_associate_pairs_nearest_pose():
    dets = [DetectionRecord(k, 0.1 * k, BoundingBox(320, 240, 10, 10)) for k in range(5)]
    poses = [
        CameraPoseRecord(0.1 * k + 0.01, RigidTransform(Rotation.identity(), np.zeros(3)))
        for k in range(5)
    ]
    obs = associate(dets, poses, max_dt=0.05)
    assert len(obs) == 5
    assert [o.frame_index for o in obs] == [0, 1, 2, 3, 4]


def test_associate_drops_frames_without_pose():
    dets = [DetectionRecord(k, 0.1 * k, BoundingBox(320, 240, 10, 10)) for k in range(5)]
    # only poses for the first two frames
    poses = [
        CameraPoseRecord(0.0, RigidTransform(Rotation.identity(), np.zeros(3))),
        CameraPoseRecord(0.1, RigidTransform(Rotation.identity(), np.zeros(3))),
    ]
    obs = associate(dets, poses, max_dt=0.02)
    assert [o.frame_index for o in obs] == [0, 1]


def test_associate_uses_each_pose_once():
    # two frames close to a single pose: only the nearer one pairs
    dets = [
        DetectionRecord(0, 0.09, BoundingBox(320, 240, 10, 10)),
        DetectionRecord(1, 0.11, BoundingBox(320, 240, 10, 10)),
    ]
    poses = [CameraPoseRecord(0.1, RigidTransform(Rotation.identity(), np.zeros(3)))]
    obs = associate(dets, poses, max_dt=0.05)
    assert len(obs) == 1
    assert obs[0].frame_index == 0


def test_associate_no_overlap():
    dets = [DetectionRecord(0, 0.0, BoundingBox(320, 240, 10, 10))]
    poses = [CameraPoseRecord(100.0, RigidTransform(Rotation.identity(), np.zeros(3)))]
    with pytest.raises(NoOverlap):
        associate(dets, poses, max_dt=0.05)


def test_default_config_values():
    cfg = default_config()
    assert cfg["camera.fx"] == 500.0
    assert cfg["filter.meas_sigma"] == "auto"
    cam = cfg.camera()
    assert cam.cx == 320.0
    fp = cfg.filter_params()
    assert fp.meas_sigma == 0.05  # auto resolves to the file-input default
    assert cfg.association_tolerance() == pytest.approx(0.5 / 30.0)


def test_read_config_overlays_defaults():
    cfg = read_config(io.StringIO("camera.fx = 600\n# comment\npnp.refine = false\n"))
    assert cfg["camera.fx"] == 600.0
    assert cfg["pnp.refine"] is False
    assert cfg["camera.fy"] == 500.0


def test_read_config_rejects_bad_input():
    with pytest.raises(ParseError, match="unknown config key"):
        read_config(io.StringIO("nope = 1\n"))
    with pytest.raises(ParseError):
        read_config(io.StringIO("camera.fx = fast\n"))
    with pytest.raises(ParseError):
        read_config(io.StringIO("camera.fx\n"))
    with pytest.raises(ParseError, match=r":2: bad value '-2' for robot\.height"):
        read_config(io.StringIO("camera.fx = 600\nrobot.height = -2\n"))


def test_config_overrides():
    cfg = default_config().with_overrides(["camera.fx=321.5", "sim.dropout=0.25"])
    assert cfg["camera.fx"] == 321.5
    assert cfg["sim.dropout"] == 0.25
    with pytest.raises(ParseError):
        default_config().with_overrides(["camera.fx"])
    with pytest.raises(ParseError):
        default_config().with_overrides(["bogus=1"])
    with pytest.raises(ParseError, match=r"sim\.dropout"):
        default_config().with_overrides(["sim.dropout=1.5"])


def test_config_keys_cover_every_default():
    rows = config_keys()
    keys = {k for k, _, _ in rows}
    assert keys == set(default_config().values.keys())
    assert all(doc for _, _, doc in rows)


def test_read_detections_empty_stream():
    assert read_detections(io.StringIO("")) == []
    assert read_detections(io.StringIO("# only comments\n\n")) == []


def test_read_camera_poses_quarter_turn_quaternion():
    s = float(np.sqrt(0.5))
    recs = read_camera_poses(io.StringIO(f"0.0 0 0 0 0 0 {s!r} {s!r}\n"))
    np.testing.assert_allclose(
        recs[0].pose.rotation.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12
    )


def test_read_camera_poses_rejects_short_quaternion():
    with pytest.raises(DenormalizedQuaternion):
        read_camera_poses(io.StringIO("0.0 0 0 0 0 0 0 0.5\n"))


def test_associate_handles_constant_clock_offset():
    # poses lag the detections by 0.4 frame periods; everything still
    # pairs inside the default half-period window
    rate = 30.0
    dets = [
        DetectionRecord(k, k / rate, BoundingBox(320, 240, 10, 10)) for k in range(10)
    ]
    poses = [
        CameraPoseRecord(k / rate + 0.4 / rate, RigidTransform(Rotation.identity(), np.zeros(3)))
        for k in range(10)
    ]
    obs = associate(dets, poses, max_dt=0.5 / rate)
    assert [o.frame_index for o in obs] == list(range(10))


def test_associate_skips_poses_of_a_denser_stream():
    # poses at 60 Hz, each stamped with its time as x; detections at 30 Hz
    dets = [DetectionRecord(k, k / 30.0, BoundingBox(320, 240, 10, 10)) for k in range(10)]
    poses = [
        CameraPoseRecord(k / 60.0, RigidTransform(Rotation.identity(), np.array([k / 60.0, 0, 0])))
        for k in range(20)
    ]
    obs = associate(dets, poses, max_dt=0.5 / 30.0)
    assert [o.frame_index for o in obs] == list(range(10))
    assert [o.camera_pose.translation[0] for o in obs] == [d.timestamp for d in dets]


def test_single_sample_trajectory_writes_one_line(tmp_path):
    traj = Trajectory(np.array([0.25]), np.array([[1.0, -2.0, 0.5]]))
    path = tmp_path / "one.txt"
    write_trajectory(traj, path)
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 1
    back = read_trajectory(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.positions, traj.positions)


# A file is checked as a whole: the first faulty line is reported, whatever
# kind of fault a later line has.

POSE_ROW = "{t} 1.0 2.0 3.0 0.0 0.0 0.0 1.0"


def pose_text(times, replace=None):
    rows = [POSE_ROW.format(t=t) for t in times]
    for lineno, row in (replace or {}).items():
        rows[lineno - 1] = row
    return io.StringIO("\n".join(rows) + "\n")


def test_pose_file_reports_bad_quaternion_before_later_bad_float():
    text = pose_text([0.0, 0.1, 0.2, 0.3], {2: "0.1 0 0 0 0 0 0 1.1", 4: "0.3 0 0 x 0 0 0 1"})
    with pytest.raises(DenormalizedQuaternion, match=r"^<stream>:2: quaternion norm 1\.1 "):
        read_camera_poses(text)
    with pytest.raises(ParseError, match=r"^<stream>:4: bad pose field 'x'$"):
        read_camera_poses(pose_text([0.0, 0.1, 0.2, 0.3], {4: "0.3 0 0 x 0 0 0 1"}))


def test_pose_file_reports_repeated_time_before_later_short_row():
    text = pose_text([0.0, 0.1, 0.1, 0.2, 0.3], {5: "0.3 0 0 0 0 0 1"})
    with pytest.raises(NonMonotonicTimestamps, match=r"^timestamp 0\.1 after 0\.1 \(line 3\)$"):
        read_camera_poses(text)
    with pytest.raises(ParseError, match=r"^<stream>:5: expected 8 fields, got 7$"):
        read_camera_poses(pose_text([0.0, 0.1, 0.2, 0.25, 0.3], {5: "0.3 0 0 0 0 0 1"}))


def test_detection_file_reports_zero_width_box_before_later_bad_field():
    text = io.StringIO("0 0.0 320 240 10 10\n1 0.1 320 240 0 10\n2 0.2 320 x 10 10\n")
    message = r"^<stream>:2: bounding box must have positive size, got 0\.0x10\.0$"
    with pytest.raises(ParseError, match=message):
        read_detections(text)


@pytest.mark.parametrize(
    "lines, error, message",
    [
        (["1 0.0 320 240 10 10", "0 0.1 320 240 10 10", "2 0.2 1.7e308 240 1.7e308 10"],
         NonMonotonicFrames, r"^frame index 0 after 1 \(line 2\)$"),
        (["1 0.0 320 240 10 10", "2 0.1 1.7e308 240 1.7e308 10", "0 0.2 320 240 10 10"],
         ParseError, r"^<stream>:2: bounding box corners must be finite$"),
    ],
    ids=["regression-first", "overflow-first"],
)
def test_detection_file_reports_first_of_regression_and_corner_overflow(lines, error, message):
    with pytest.raises(error, match=message):
        read_detections(io.StringIO("\n".join(lines) + "\n"))


def test_read_camera_poses_matches_per_row_constructors():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(60, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    q[::3] *= 1.0 + rng.uniform(-9e-7, 9e-7, size=(20, 1))  # within the norm tolerance
    t = rng.normal(size=(60, 3))
    text = "".join(
        " ".join(repr(float(v)) for v in (0.1 * k, *t[k], *q[k])) + "\n" for k in range(60)
    )
    recs = read_camera_poses(io.StringIO(text))
    assert len(recs) == 60
    for k, rec in enumerate(recs):
        assert rec.pose.rotation.matrix.tobytes() == Rotation.from_quaternion(q[k]).matrix.tobytes()
        assert rec.pose.translation.tobytes() == t[k].tobytes()
        assert (rec.pose.frame_from, rec.pose.frame_to) == (CAMERA, WORLD)
        for a in (rec.pose.rotation.matrix, rec.pose.translation):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_read_detections_matches_per_row_constructors():
    rng = np.random.default_rng(8)
    boxes = rng.uniform([0.0, 0.0, 0.5, 0.5], [640.0, 480.0, 90.0, 90.0], size=(40, 4))
    lines = []
    for k, b in enumerate(boxes):
        fields = " ".join(repr(float(v)) for v in b)
        lines.append(f"{k} {k / 30.0!r} missing" if k % 5 == 4 else f"{k} {k / 30.0!r} {fields} 0.5")
    recs = read_detections(io.StringIO("\n".join(lines) + "\n"))
    for k, rec in enumerate(recs):
        assert rec.bbox == (None if k % 5 == 4 else BoundingBox(*boxes[k]))
        assert rec.confidence == (None if k % 5 == 4 else 0.5)


def test_line_with_two_faults_reports_the_one_read_first():
    # a line's own fields are checked before its order against the line above
    with pytest.raises(ParseError, match=r"^<stream>:2: bounding box must have positive size"):
        read_detections(io.StringIO("1 0.0 320 240 10 10\n0 0.0 320 240 0 10\n"))
    with pytest.raises(ParseError, match=r"^<stream>:2: confidence must be finite, got 'nan'$"):
        read_detections(io.StringIO("1 0.0 320 240 10 10\n1 0.1 320 240 10 10 nan\n"))
    with pytest.raises(NonMonotonicFrames, match=r"\(line 2\)$"):
        read_detections(io.StringIO("1 0.0 320 240 10 10\n0 0.0 missing\n"))
    with pytest.raises(DenormalizedQuaternion, match=r"^<stream>:2: "):
        read_camera_poses(io.StringIO("0.1 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 2\n"))
