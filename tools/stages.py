"""Print the in-process time of each stage of one `trajex extract` pass.

    PYTHONPATH=src python3 tools/stages.py --frames 3600 --seed 3 --repeat 5

It writes a patrol detection/pose file pair with perfbench/patrol.py, in a
child process and a temporary directory, and then times every stage of the
extract command on it, in the command's order: read_detections,
read_camera_poses, adapt, associate, solve, filter, world map and write.
The solve, filter and world map stages are the array stages that
extract_trajectory runs: camera-frame positions, the filter recursion,
and R p + t with the ground projection.
It then times the stages of one calibrated ugv_red trial at seed 0, as
run_pipeline runs it: simulate (which includes execute), execute alone,
extract_trajectory and compute_metrics.
Each stage is timed --repeat times on the previous stage's output, and
its best and median times are printed in milliseconds: a stall that hits
most calls (a slow rename, say) shows in the median and hides in the
best. The last line stamps the Python and numpy versions and the CPU
count. Times from two checkouts compare only when the runs are
interleaved on the same machine.
"""

import os

# Must precede the first numpy import, as in perfbench/run.py.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from trajex import NoiseSpec, extract_trajectory, get_scenario, simulate  # noqa: E402
from trajex import io as tio  # noqa: E402
from trajex.geometry import CAMERA  # noqa: E402
from trajex.kalman import _filter  # noqa: E402
from trajex.pipeline import _camera_positions  # noqa: E402
from trajex.synth import execute, planned_path  # noqa: E402
from trajex.trajectory import _world_track, compute_metrics, project_ground  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def time_ms(repeat: int, fn, *args):
    """fn's result and its (best, median) wall time over `repeat` calls, in ms."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, (1e3 * min(times), 1e3 * float(np.median(times)))


def stage_timer(repeat: int):
    """A list of (stage, (best ms, median ms)) rows and a stage(name, fn, *args) that times fn into it."""
    rows = []

    def stage(name, fn, *args):
        result, ms = time_ms(repeat, fn, *args)
        rows.append((name, ms))
        return result

    return rows, stage


def stages(det: Path, poses: Path, out: Path, repeat: int) -> list[tuple[str, tuple[float, float]]]:
    """(stage, (best ms, median ms)) for each stage of the extract command, at the default config."""
    cfg = tio.default_config()
    rows, stage = stage_timer(repeat)
    dets = stage("read_detections", tio.read_detections, det)
    recs = stage("read_camera_poses", tio.read_camera_poses, poses)
    recs = stage("adapt", tio.adapt_poses, recs, cfg["pose.invert"], cfg["pose.scale"], cfg["pose.axes"])
    obs = stage("associate", tio.associate, dets, recs, cfg.association_tolerance())
    times = np.array([o.timestamp for o in obs])
    z = stage("solve", _camera_positions, obs, cfg)
    first, states = stage("filter", _filter, times, z, cfg.filter_params())

    def world_map():
        poses = [o.camera_pose for o in obs[first:]]
        traj = _world_track(times[first:], states[:, :3], poses, [CAMERA] * len(poses))
        return traj, project_ground(traj)

    traj, track = stage("world map", world_map)

    def write():
        tio.write_trajectory(traj, out / "trajectory.txt")
        tio.write_ground_track(track, out / "ground_track.txt")

    stage("write", write)
    return rows


def trial_stages(repeat: int) -> list[tuple[str, tuple[float, float]]]:
    """(stage, (best ms, median ms)) of one calibrated ugv_red trial at seed 0, at run_pipeline's config."""
    scenario, noise = get_scenario("ugv_red"), NoiseSpec.calibrated()
    cfg = tio.default_config().with_overrides([f"filter.meas_sigma={noise.suggested_meas_sigma()!r}"])
    rows, stage = stage_timer(repeat)
    scene = stage("simulate", simulate, scenario, noise, 0, cfg)
    stage("execute", execute, planned_path(scenario), scenario.executor, scenario.speed, scenario.duration)
    obs = tio.associate(scene.frames, scene.poses, cfg.association_tolerance())
    res = stage("extract_trajectory", extract_trajectory, obs, cfg)
    stage("compute_metrics", compute_metrics, res.ground_track, scene.truth.xy, scenario.goal,
          float(cfg["success.threshold"]))
    return rows


def print_rows(rows: list[tuple[str, tuple[float, float]]]):
    print(f"{'stage':<18} {'best ms':>8} {'median ms':>10}")
    for name, (best, med) in rows:
        print(f"{name:<18} {best:8.1f} {med:10.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=3600, help="frames in the patrol file pair")
    ap.add_argument("--seed", type=int, default=3, help="patrol seed")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per stage")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(ROOT / "perfbench" / "patrol.py"), "--seed", str(args.seed),
               "--frames", str(args.frames), "--out", str(d)]
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=300)
        rows = stages(d / "detections.txt", d / "poses.txt", d, args.repeat)
    print(f"{args.frames} frames, seed {args.seed}, {args.repeat} calls per stage")
    print_rows(rows + [("total", np.sum([ms for _, ms in rows], axis=0))])
    print(f"one calibrated ugv_red trial, seed 0, {args.repeat} calls per stage")
    print_rows(trial_stages(args.repeat))
    print(f"python {platform.python_version()}, numpy {np.__version__}, nproc {os.cpu_count()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
