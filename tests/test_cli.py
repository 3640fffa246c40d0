"""Command-line front end: commands, chaining, exit codes, determinism."""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import trajex
from trajex.cli import build_parser, main
from trajex.io import config_keys, read_ground_track, read_metrics, read_trajectory


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_all(dirpath):
    return {p.name: p.read_bytes() for p in sorted(dirpath.iterdir())}


def test_simulate_writes_streams(tmp_path, capsys):
    out = tmp_path / "scene"
    code, stdout, _ = run(
        ["simulate", "--scenario", "ugv_red", "--seed", "0", "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "detections.txt").exists()
    assert (out / "poses.txt").exists()
    assert (out / "truth.txt").exists()
    assert "frames" in stdout


def test_extract_consumes_simulated_scene(tmp_path, capsys):
    scene = tmp_path / "scene"
    run(["simulate", "--scenario", "ugv_red", "--out-dir", str(scene)], capsys)
    out = tmp_path / "result"
    code, stdout, _ = run(
        [
            "extract",
            "--detections", str(scene / "detections.txt"),
            "--poses", str(scene / "poses.txt"),
            "--out-dir", str(out),
        ],
        capsys,
    )
    assert code == 0
    traj = read_trajectory(out / "trajectory.txt")
    track = read_ground_track(out / "ground_track.txt")
    assert len(traj) == len(track)
    # zero-noise scene: the extracted track ends at the scenario goal
    truth = read_ground_track(scene / "truth.txt")
    np.testing.assert_allclose(track.xy[-1], truth.xy[-1], atol=5e-3)


def test_eval_writes_metrics(tmp_path, capsys):
    out = tmp_path / "trial"
    code, stdout, _ = run(
        ["eval", "--scenario", "ugv_blue", "--seed", "1", "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    m = read_metrics(out / "metrics.txt")
    assert m.success
    assert m.final_goal_error_m < 1e-3
    assert "final_goal_error_m" in stdout
    assert "success 1" in stdout
    assert stdout.encode() == (out / "metrics.txt").read_bytes()


def test_eval_with_noise_overrides(tmp_path, capsys):
    out = tmp_path / "noisy"
    code, stdout, _ = run(
        [
            "eval", "--scenario", "ugv_red", "--seed", "3", "--out-dir", str(out),
            "--set", "sim.pixel_sigma=1.0", "--set", "sim.dropout=0.05",
            "--set", "sim.pose_sigma_t=0.01", "--set", "sim.pose_sigma_r=0.005",
        ],
        capsys,
    )
    assert code == 0
    m = read_metrics(out / "metrics.txt")
    assert 0.0 < m.final_goal_error_m < 0.2


def test_eval_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("success.threshold = 1e-9\n")
    out = tmp_path / "trial"
    code, _, _ = run(
        [
            "eval", "--scenario", "ugv_red", "--out-dir", str(out),
            "--config", str(cfg),
        ],
        capsys,
    )
    assert code == 0
    assert not read_metrics(out / "metrics.txt").success


def test_eval_runs_are_byte_identical(tmp_path, capsys):
    args = [
        "eval", "--scenario", "quadruped", "--seed", "5",
        "--set", "sim.pixel_sigma=1.0", "--set", "sim.dropout=0.05",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    _, out_a, _ = run(args + ["--out-dir", str(a)], capsys)
    _, out_b, _ = run(args + ["--out-dir", str(b)], capsys)
    assert out_a == out_b
    assert read_all(a) == read_all(b)


def test_batch_summary_table(tmp_path, capsys):
    csv = tmp_path / "trials.csv"
    code, stdout, _ = run(
        ["batch", "--seeds", "2", "--scenarios", "ugv_red,quadruped", "--csv", str(csv)],
        capsys,
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].split() == [
        "scenario", "path_m", "final_err_m", "track_rmse_m", "track_max_m", "success"
    ]
    assert lines[1].startswith("ugv_red")
    assert lines[2].startswith("quadruped")
    assert "successes 4/4" in stdout
    body = csv.read_text().splitlines()
    assert body[0].startswith("scenario,seed,")
    assert len(body) == 1 + 4 + 2  # header, per-trial rows, median rows


def test_batch_rejects_zero_seeds(capsys):
    code, _, err = run(["batch", "--seeds", "0"], capsys)
    assert code == 2
    assert "seed" in err


def test_plot_csv_joins_reference(tmp_path, capsys):
    scene = tmp_path / "scene"
    run(["simulate", "--scenario", "ugv_red", "--out-dir", str(scene)], capsys)
    out = tmp_path / "result"
    run(
        [
            "extract",
            "--detections", str(scene / "detections.txt"),
            "--poses", str(scene / "poses.txt"),
            "--out-dir", str(out),
        ],
        capsys,
    )
    csv = tmp_path / "plot.csv"
    code, _, _ = run(
        [
            "plot-csv",
            "--in", str(out / "ground_track.txt"),
            "--reference", str(scene / "truth.txt"),
            "--out", str(csv),
        ],
        capsys,
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,y,ref_x,ref_y"
    assert len(lines) > 100


def test_plot_csv_accepts_trajectory(tmp_path, capsys):
    out = tmp_path / "trial"
    run(["eval", "--scenario", "ugv_red", "--out-dir", str(out)], capsys)
    csv = tmp_path / "xyz.csv"
    code, _, _ = run(
        ["plot-csv", "--in", str(out / "trajectory.txt"), "--out", str(csv)], capsys
    )
    assert code == 0
    assert csv.read_text().splitlines()[0] == "t,x,y,z"


def test_exit_code_missing_file(tmp_path, capsys):
    code, _, err = run(
        [
            "extract",
            "--detections", str(tmp_path / "nope.txt"),
            "--poses", str(tmp_path / "nope2.txt"),
            "--out-dir", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 2
    assert err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a detection line\n")
    poses = tmp_path / "poses.txt"
    poses.write_text("0.0 0 0 0 0 0 0 1\n")
    code, _, err = run(
        [
            "extract",
            "--detections", str(bad),
            "--poses", str(poses),
            "--out-dir", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 2
    assert "bad.txt" in err


def test_exit_code_no_usable_frames(tmp_path, capsys):
    dets = tmp_path / "det.txt"
    dets.write_text("0 0.0 missing\n1 0.1 missing\n")
    poses = tmp_path / "poses.txt"
    poses.write_text("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 1\n")
    code, _, err = run(
        [
            "extract",
            "--detections", str(dets),
            "--poses", str(poses),
            "--out-dir", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 4
    assert "usable" in err


def test_exit_code_unknown_scenario(tmp_path, capsys):
    code, _, err = run(
        ["eval", "--scenario", "mars_rover", "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2
    assert "mars_rover" in err


def test_exit_code_bad_override(tmp_path, capsys):
    code, _, err = run(
        [
            "eval", "--scenario", "ugv_red", "--out-dir", str(tmp_path / "out"),
            "--set", "bogus.key=1",
        ],
        capsys,
    )
    assert code == 2
    assert "bogus.key" in err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("eval", "camera.fx=-5"),
        ("eval", "robot.width=0"),
        ("eval", "filter.accel_sigma=0"),
        ("eval", "filter.meas_sigma=-1"),
        ("eval", "sim.dropout=1.5"),
        ("eval", "sim.pixel_sigma=-1"),
        ("extract", "frame_rate=0"),
        ("extract", "filter.accel_sigma=1e160"),
        ("extract", "filter.meas_sigma=1e160"),
    ],
)
def test_exit_code_out_of_range_config(tmp_path, capsys, command, setting):
    if command == "eval":
        argv = ["eval", "--scenario", "ugv_red"]
    else:
        dets = tmp_path / "det.txt"
        dets.write_text("0 0.0 320.0 240.0 40.0 30.0\n")
        poses = tmp_path / "poses.txt"
        poses.write_text("0.0 0 0 0 0 0 0 1\n")
        argv = ["extract", "--detections", str(dets), "--poses", str(poses)]
    argv += ["--out-dir", str(tmp_path / "out"), "--set", setting]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert setting.split("=")[0] in err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("plot-csv", b"0.0 1 2\n0.0 1 3\n", "times must strictly increase"),
        ("plot-csv", b"0.0 1 2 3\n0.0 1 3 3\n", "times must strictly increase"),
        ("plot-csv", b"0.0 1 2 3\n0.1 1 x 3\n", ":2: bad trajectory field 'x'"),
        ("extract", b"\xff\xfe0 0.0 missing\n", "utf-8"),
        ("eval", b"\xff\xfecamera.fx = 500\n", "utf-8"),
        ("extract", b"21 0.7 1.7e308 244.527 1.7e308 46.54 1.0\n", ":1: bounding box corners must be finite"),
    ],
    ids=[
        "track-time-repeats",
        "trajectory-time-repeats",
        "trajectory-bad-field-row-2",
        "detections-not-utf8",
        "config-not-utf8",
        "detection-corner-overflows",
    ],
)
def test_exit_code_bad_file(tmp_path, capsys, command, content, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    out = str(tmp_path / "out")
    argv = {
        "plot-csv": ["plot-csv", "--in", str(bad), "--out", str(tmp_path / "x.csv")],
        "extract": ["extract", "--detections", str(bad), "--poses", str(bad), "--out-dir", out],
        "eval": ["eval", "--scenario", "ugv_red", "--config", str(bad), "--out-dir", out],
    }[command]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert str(bad) in err
    assert message in err


def test_exit_code_pose_overflows_under_scale(tmp_path, capsys):
    # each field is finite, but x * pose.scale overflows
    dets = tmp_path / "det.txt"
    dets.write_text("0 0.0 320.0 240.0 40.0 30.0\n1 0.1 320.0 240.0 40.0 30.0\n")
    poses = tmp_path / "poses.txt"
    poses.write_text("0.0 0 0 0 0 0 0 1\n0.1 1e308 0 0 0 0 0 1\n")
    argv = ["extract", "--detections", str(dets), "--poses", str(poses), "--out-dir", str(tmp_path / "out")]
    code, _, err = run(argv + ["--set", "pose.scale=10"], capsys)
    assert code == 2
    assert "pose at time 0.1 scaled by 10.0: translation has non-finite components" in err
    assert "Warning" not in err


def test_exit_code_detection_gap_past_bound(tmp_path):
    # a frame-index gap that would fill ~1e8 records is refused before any is built;
    # the command runs in a child limited to 1 GiB of address space, so a lost bound
    # fails this test instead of taking the test process down
    dets = tmp_path / "det.txt"
    dets.write_text("0 0.0 missing\n100000000 1.0 missing\n")
    poses = tmp_path / "poses.txt"
    poses.write_text("0.0 0 0 4 0 0 0 1\n1.0 0 0 4 0 0 0 1\n")
    argv = ["extract", "--detections", str(dets), "--poses", str(poses), "--out-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(trajex.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "trajex.cli", *argv], env=env, preexec_fn=limit,
                           capture_output=True, text=True, timeout=60)
    err = child.stderr
    assert child.returncode == 2, err
    assert f"{dets}:2: frame index 100000000 after 0 takes the file past 1048576 filled-in frames" in err
    assert time.perf_counter() - start < 5.0


def test_exit_code_output_path_is_a_directory(tmp_path, capsys):
    dets = tmp_path / "det.txt"
    dets.write_text("0 0.0 320.0 240.0 40.0 30.0\n")
    poses = tmp_path / "poses.txt"
    poses.write_text("0.0 0 0 0 0 0 0 1\n")
    out = tmp_path / "out"
    (out / "trajectory.txt").mkdir(parents=True)
    argv = ["extract", "--detections", str(dets), "--poses", str(poses), "--out-dir", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "trajectory.txt" in err
    assert os.listdir(out) == ["trajectory.txt"]  # no temp file beside it


def test_help_lists_config_keys():
    text = build_parser().format_help()
    assert "camera.fx" in text
    assert "sim.pixel_sigma" in text
    assert "success.threshold" in text
    for key, _, _ in config_keys():
        assert key in text


def test_zero_noise_batch_is_all_successes(capsys):
    code, stdout, _ = run(["batch", "--seeds", "10"], capsys)
    assert code == 0
    assert "successes 30/30" in stdout


def test_batch_single_trial_single_row(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    code, stdout, _ = run(
        ["batch", "--seeds", "1", "--scenarios", "quadruped", "--csv", str(csv)],
        capsys,
    )
    assert code == 0
    lines = [ln for ln in stdout.strip().splitlines() if not ln.startswith("wrote ")]
    assert len(lines) == 3  # header, quadruped row, success total
    assert lines[1].startswith("quadruped")
    assert "successes 1/1" in stdout
    assert len(csv.read_text().splitlines()) == 1 + 1 + 1


def test_simulate_blue_truth_ends_at_goal(tmp_path, capsys):
    out = tmp_path / "scene"
    code, _, _ = run(
        ["simulate", "--scenario", "ugv_blue", "--out-dir", str(out)], capsys
    )
    assert code == 0
    truth = read_ground_track(out / "truth.txt")
    np.testing.assert_allclose(truth.xy[-1], [-0.8, -0.8], atol=1e-6)


def test_plot_csv_self_reference_has_zero_difference(tmp_path, capsys):
    scene = tmp_path / "scene"
    run(["simulate", "--scenario", "ugv_red", "--out-dir", str(scene)], capsys)
    csv = tmp_path / "self.csv"
    code, _, _ = run(
        [
            "plot-csv",
            "--in", str(scene / "truth.txt"),
            "--reference", str(scene / "truth.txt"),
            "--out", str(csv),
        ],
        capsys,
    )
    assert code == 0
    rows = csv.read_text().splitlines()[1:]
    for row in rows:
        _, x, y, rx, ry = row.split(",")
        assert x == rx and y == ry


def test_plot_csv_empty_reference_fails_cleanly(tmp_path, capsys):
    scene = tmp_path / "scene"
    run(["simulate", "--scenario", "ugv_red", "--out-dir", str(scene)], capsys)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(
        [
            "plot-csv",
            "--in", str(scene / "truth.txt"),
            "--reference", str(empty),
            "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 2
    assert "empty" in err


def test_plot_csv_quadruped_traces_scenario_endpoints(tmp_path, capsys):
    out = tmp_path / "trial"
    run(["eval", "--scenario", "quadruped", "--out-dir", str(out)], capsys)
    csv = tmp_path / "arc.csv"
    code, _, _ = run(
        ["plot-csv", "--in", str(out / "ground_track.txt"), "--out", str(csv)], capsys
    )
    assert code == 0
    rows = [r.split(",") for r in csv.read_text().splitlines()[1:]]
    first = np.array(rows[0][1:3], dtype=float)
    last = np.array(rows[-1][1:3], dtype=float)
    np.testing.assert_allclose(first, [-1.1, -2.5], atol=5e-3)
    np.testing.assert_allclose(last, [0.9, -2.6], atol=5e-3)


def test_failed_extract_leaves_no_outputs(tmp_path, capsys):
    dets = tmp_path / "det.txt"
    dets.write_text("0 0.0 320 240 10 10\n")
    out = tmp_path / "out"
    code, _, _ = run(
        [
            "extract",
            "--detections", str(dets),
            "--poses", str(tmp_path / "missing.txt"),
            "--out-dir", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


def test_extract_override_changes_metrics_deterministically(tmp_path, capsys):
    scene = tmp_path / "scene"
    run(
        [
            "simulate", "--scenario", "ugv_red", "--out-dir", str(scene),
            "--set", "sim.pixel_sigma=1.0",
        ],
        capsys,
    )
    base = [
        "extract",
        "--detections", str(scene / "detections.txt"),
        "--poses", str(scene / "poses.txt"),
    ]
    outs = {}
    for label, extra in {
        "default_a": [], "default_b": [], "slow": ["--set", "filter.meas_sigma=0.5"],
    }.items():
        d = tmp_path / label
        assert main(base + ["--out-dir", str(d)] + extra) == 0
        capsys.readouterr()
        outs[label] = (d / "ground_track.txt").read_bytes()
    assert outs["default_a"] == outs["default_b"]
    assert outs["slow"] != outs["default_a"]


@pytest.fixture(scope="module")
def scene_40(tmp_path_factory):
    """The first 40 rows of a noisy ugv_red scene, with 4 dropouts, two of them in a row."""
    d = tmp_path_factory.mktemp("scene_40")
    settings = ["--set", "sim.pixel_sigma=1", "--set", "sim.dropout=0.1"]
    assert main(["simulate", "--scenario", "ugv_red", "--seed", "1", *settings, "--out-dir", str(d)]) == 0
    for name in ("detections.txt", "poses.txt"):
        rows = (d / name).read_text().splitlines(keepends=True)[:40]
        (d / name).write_text("".join(rows))
    assert (d / "detections.txt").read_text().count("missing") == 4
    return d


@pytest.mark.parametrize(
    "case",
    ["step=1e5", "step=1e15", "step=1e30", "step=1e60", "step=1e78"]
    + [f"filter.accel_sigma={v}" for v in ("1e-200", "1e150")]
    + ["filter.meas_sigma=1e-200"]
    + [f"filter.init_pos_var={v}" for v in ("1e-300", "1e300")]
    + [f"filter.init_vel_var={v}" for v in ("1e-300", "1e200", "1e300")]
    + ["filter.meas_sigma=1.2e154", "filter.meas_sigma=1e154,filter.init_pos_var=1.7e308"]
    + [f"filter.meas_sigma=1e-200,filter.accel_sigma={v}" for v in ("1e-200", "1e-160")],
)
def test_extract_sweep_of_steps_and_filter_settings(tmp_path, capsys, scene_40, case):
    # steps: two detections of a static camera, the second box 10 px to the
    # right; after a long gap the track must reach the second measurement,
    # which a lone second row gives exactly. A step whose covariance
    # overflows is an input error that names the step. Settings are
    # comma-separated; a + r near the float maximum must still filter, and
    # an innovation variance that underflows to 0 is an input error
    errors = {"step=1e78": "step of 1e+78 s"}
    for v in ("1e-200", "1e-160"):
        errors[f"filter.meas_sigma=1e-200,filter.accel_sigma={v}"] = "innovation variance underflows to 0"
    key, _, value = case.partition("=")
    out = tmp_path / "out"
    if key == "step":
        dets, poses = tmp_path / "det.txt", tmp_path / "poses.txt"
        poses.write_text(f"0 0 4.5 1.5 0 0 0 1\n{value} 0 4.5 1.5 0 0 0 1\n")
        dets.write_text(f"1 {value} 330 240 40 30\n")
        argv = ["extract", "--detections", str(dets), "--poses", str(poses)]
        assert run([*argv, "--out-dir", str(tmp_path / "alone")], capsys)[0] == 0
        alone = read_trajectory(tmp_path / "alone" / "trajectory.txt").positions[0]
        dets.write_text(f"0 0.0 320 240 40 30\n1 {value} 330 240 40 30\n")
    else:
        dets, poses = scene_40 / "detections.txt", scene_40 / "poses.txt"
        argv = ["extract", "--detections", str(dets), "--poses", str(poses)]
        argv += [arg for setting in case.split(",") for arg in ("--set", setting)]
    code, _, err = run([*argv, "--out-dir", str(out)], capsys)
    if case in errors:
        assert code == 2 and errors[case] in err
        return
    assert code == 0, err
    traj = read_trajectory(out / "trajectory.txt")
    if key == "step":
        assert len(traj) == 2
        np.testing.assert_allclose(traj.positions[1], alone, rtol=0, atol=1e-9)
    else:
        assert len(traj) == 40
