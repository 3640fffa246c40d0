"""Print two SHA-256 digests of trajex's deterministic outputs.

    PYTHONPATH=src python3 tools/digest.py

`trials` covers run_pipeline's trajectories, ground tracks and metrics for
3 scenarios x zero/calibrated/heavy noise x seeds 0-1. `files` covers a
simulate -> write -> read -> adapt -> extract -> write -> read round trip
through the text formats, with non-default pose settings. A change that
claims the same bits prints the same two lines as its parent on the same
machine; BLAS builds differ, so the values are not pinned anywhere.
"""

import hashlib
import io
import tempfile
from pathlib import Path

from trajex import NoiseSpec, extract_trajectory, get_scenario, run_pipeline, simulate
from trajex import io as tio


def trials_digest() -> str:
    h = hashlib.sha256()
    for noise in (NoiseSpec(), NoiseSpec.calibrated(), NoiseSpec(3.0, 0.2, 0.02, 0.01)):
        for name in ("ugv_red", "ugv_blue", "quadruped"):
            for seed in (0, 1):
                tr, f = run_pipeline(name, noise, seed), io.StringIO()
                tio.write_metrics(tr.metrics, f)
                ex = tr.extraction
                for a in (ex.trajectory.times, ex.trajectory.positions, ex.ground_track.xy):
                    h.update(a.tobytes())
                h.update(f.getvalue().encode())
    return h.hexdigest()


def files_digest() -> str:
    h, cfg = hashlib.sha256(), tio.default_config()
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        scene = simulate(get_scenario("quadruped"), NoiseSpec.calibrated(), 0, cfg)
        tio.write_detections(scene.frames, d / "det.txt")
        tio.write_camera_poses(scene.poses, d / "poses.txt")
        tio.write_ground_track(scene.truth, d / "truth.txt")
        poses = tio.read_camera_poses(d / "poses.txt")
        for p in tio.adapt_poses(poses, invert=True, scale=2.0, axes="x,-z,y"):
            h.update(p.pose.rotation.matrix.tobytes() + p.pose.translation.tobytes())
        obs = tio.associate(tio.read_detections(d / "det.txt"), poses, cfg.association_tolerance())
        res = extract_trajectory(obs, cfg)
        tio.write_trajectory(res.trajectory, d / "traj.txt")
        tio.write_ground_track(res.ground_track, d / "track.txt")
        h.update(
            tio.read_trajectory(d / "traj.txt").positions.tobytes()
            + tio.read_ground_track(d / "track.txt").xy.tobytes()
        )
        for n in ("det.txt", "poses.txt", "truth.txt", "traj.txt", "track.txt"):
            h.update((d / n).read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    print("trials", trials_digest())
    print("files ", files_digest())
