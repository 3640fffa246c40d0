"""Make the long detection/pose file pair that the extract_long workload reads.

A ugv sweeps the stock ugv camera's view in seeded rows. The route is
built with the public Scenario/simulate API and never repeats a scene, so
no cache keyed on box values can skip work. Its start differs
from its goal: pure pursuit slows to a stop at the goal, so a closed loop
would give a robot that never moves.

    python3 perfbench/patrol.py --seed 3 --frames 3600 --out DIR

writes DIR/detections.txt, DIR/poses.txt and DIR/truth.txt (the driven
ground track) and prints one JSON line with the frame count, the goal and
the wall time of simulate() in milliseconds.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from trajex import NoiseSpec, Scenario, builtin_scenarios, default_config, simulate
from trajex import io as tio

SPEED = 0.35  # m/s, as the stock ugv scenarios
# The stock ugv routes stay inside this box; the camera sees all of it.
X_RANGE = (-0.8, 0.8)
Y_RANGE = (-0.6, 1.8)
ROW_STEP = 0.3  # m between the rows of one sweep
END_JITTER = 0.15  # m, seeded shortening of each row at either end
STOP_MARGIN_S = 6.0  # time left at the goal for pure pursuit's slow-down


def patrol_scenario(seed: int, frames: int, frame_rate: float) -> Scenario:
    """A patrol whose driven length fills `frames` frames at SPEED.

    The robot sweeps the box in rows, down and back up, each sweep at a
    seeded row offset and with seeded row ends. Every seed thus covers the
    same depths for the same share of the time, which keeps accuracy
    comparable across seeds, while no two rows, and no two seeds, repeat.
    """
    rng = np.random.default_rng(seed)
    duration = (frames + 0.5) / frame_rate  # simulate renders int(duration * rate) frames
    target = SPEED * (duration - STOP_MARGIN_S)
    pts = [np.array([X_RANGE[0], Y_RANGE[1]])]
    length = 0.0
    down = True
    right = True
    while length < target:
        ys = np.arange(Y_RANGE[0] + rng.uniform(0.0, ROW_STEP), Y_RANGE[1], ROW_STEP)
        for y in ys[::-1] if down else ys:
            lo = X_RANGE[0] + rng.uniform(0.0, END_JITTER)
            hi = X_RANGE[1] - rng.uniform(0.0, END_JITTER)
            for x in (lo, hi) if right else (hi, lo):
                step = np.array([x, y]) - pts[-1]
                leg = float(np.linalg.norm(step))
                if length + leg >= target:
                    step *= (target - length) / leg
                    leg = target - length
                pts.append(pts[-1] + step)
                length += leg
                if length >= target:
                    break
            right = not right
            if length >= target:
                break
        down = not down
    ugv = builtin_scenarios()["ugv_red"]
    return Scenario(
        name=f"patrol_{seed}",
        waypoints=tuple(tuple(float(v) for v in p) for p in pts),
        speed=SPEED,
        duration=duration,
        camera_position=ugv.camera_position,
        camera_view=ugv.camera_view,
        executor="diff_drive",
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--frames", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    config = default_config()
    scenario = patrol_scenario(args.seed, args.frames, float(config["frame_rate"]))
    t0 = time.perf_counter()
    scene = simulate(scenario, NoiseSpec.calibrated(), args.seed, config)
    simulate_ms = 1e3 * (time.perf_counter() - t0)
    if np.linalg.norm(scene.truth.xy[-1] - scene.truth.xy[0]) < 0.3:
        raise SystemExit("patrol ends where it started")
    args.out.mkdir(parents=True, exist_ok=True)
    tio.write_detections(scene.frames, args.out / "detections.txt")
    tio.write_camera_poses(scene.poses, args.out / "poses.txt")
    tio.write_ground_track(scene.truth, args.out / "truth.txt")
    print(json.dumps({
        "frames": len(scene.frames),
        "goal": [float(v) for v in scenario.goal],
        "simulate_ms": simulate_ms,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
