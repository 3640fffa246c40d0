"""Print the in-process time of each stage of one `trajex extract` pass.

    PYTHONPATH=src python3 tools/stages.py --frames 3600 --seed 3 --repeat 5

It writes a patrol detection/pose file pair with perfbench/patrol.py, in a
child process and a temporary directory, and then times every stage of the
extract command on it, in the command's order: read_detections,
read_camera_poses, adapt, associate, solve, filter, world map and write.
Each stage is timed --repeat times on the previous stage's output, and
the best time is printed in milliseconds. The last line stamps the Python
and numpy versions and the CPU count. Times from two checkouts compare
only when the runs are interleaved on the same machine.
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

from trajex import io as tio  # noqa: E402
from trajex.kalman import run_filter  # noqa: E402
from trajex.pipeline import _measurements  # noqa: E402
from trajex.trajectory import build_trajectory, project_ground  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def best_ms(repeat: int, fn, *args):
    """fn's result and its best wall time over `repeat` calls, in ms."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, 1e3 * min(times)


def stages(det: Path, poses: Path, out: Path, repeat: int) -> list[tuple[str, float]]:
    """(stage, best ms) for each stage of the extract command, at the default config."""
    cfg = tio.default_config()
    rows = []

    def stage(name, fn, *args):
        result, ms = best_ms(repeat, fn, *args)
        rows.append((name, ms))
        return result

    dets = stage("read_detections", tio.read_detections, det)
    recs = stage("read_camera_poses", tio.read_camera_poses, poses)
    recs = stage("adapt", tio.adapt_poses, recs, cfg["pose.invert"], cfg["pose.scale"], cfg["pose.axes"])
    obs = stage("associate", tio.associate, dets, recs, cfg.association_tolerance())
    meas = stage("solve", _measurements, obs, cfg)
    samples = stage("filter", run_filter, meas, cfg.filter_params())

    def world_map():
        traj = build_trajectory(samples, [o.camera_pose for o in obs])
        return traj, project_ground(traj)

    traj, track = stage("world map", world_map)

    def write():
        tio.write_trajectory(traj, out / "trajectory.txt")
        tio.write_ground_track(track, out / "ground_track.txt")

    stage("write", write)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=3600, help="frames in the patrol file pair")
    ap.add_argument("--seed", type=int, default=3, help="patrol seed")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per stage; the best is printed")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(ROOT / "perfbench" / "patrol.py"), "--seed", str(args.seed),
               "--frames", str(args.frames), "--out", str(d)]
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=300)
        rows = stages(d / "detections.txt", d / "poses.txt", d, args.repeat)
    print(f"{args.frames} frames, seed {args.seed}, best of {args.repeat}")
    for name, ms in rows:
        print(f"{name:<18} {ms:8.1f} ms")
    print(f"{'total':<18} {sum(ms for _, ms in rows):8.1f} ms")
    print(f"python {platform.python_version()}, numpy {np.__version__}, nproc {os.cpu_count()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
