"""Rewrite tests/golden_outputs.json, the default outputs that Tier-1 pins.

    PYTHONPATH=src python3 tools/golden.py

It runs run_pipeline at the default config on the digest set: 3 scenarios
x zero/calibrated/heavy noise x seeds 0-1. Per trial it records the frame
counts, the metrics and every 30th world position, as repr floats.
tests/test_golden.py compares a fresh run against the file within 1e-5 m.
A change that moves the default outputs on purpose reruns this script and
says so in CHANGES.md.
"""

import json
from pathlib import Path

from trajex import NoiseSpec, run_pipeline

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_outputs.json"
NOISE = {
    "zero": NoiseSpec(),
    "calibrated": NoiseSpec.calibrated(),
    "heavy": NoiseSpec(3.0, 0.2, 0.02, 0.01),
}
STRIDE = 30  # frames between recorded world positions


def golden_outputs() -> list[dict]:
    """One record per trial of the digest set, in a fixed order."""
    out = []
    for noise, spec in NOISE.items():
        for name in ("ugv_red", "ugv_blue", "quadruped"):
            for seed in (0, 1):
                tr = run_pipeline(name, spec, seed)
                ex, m = tr.extraction, tr.metrics
                out.append(
                    {
                        "trial": f"{name}/{noise}/{seed}",
                        "frames": [ex.frames_total, ex.frames_detected, ex.frames_solved],
                        "success": m.success,
                        "metrics_m": [
                            m.path_length_m,
                            m.final_goal_error_m,
                            m.tracking_rmse_m,
                            m.tracking_max_m,
                        ],
                        "positions_m": ex.trajectory.positions[::STRIDE].tolist(),
                    }
                )
    return out


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(r) for r in golden_outputs())  # json writes repr floats
    GOLDEN.write_text(f"[\n{rows}\n]\n")
    print(f"wrote {GOLDEN}")
