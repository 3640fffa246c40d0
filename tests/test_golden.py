"""Default outputs against the committed golden file.

The Tier-1 bands are centimetres wide, so a change that moves every default
trajectory by a millimetre would pass them. This test pins the digest set's
frame counts, metrics and every 30th world position to
tests/golden_outputs.json (rewritten by tools/golden.py) within 1e-5 m. The
LM polish stops on a relative cost gain of 1e-10, which can leave a pose up to
2.4e-6 m off along the flat depth/tilt direction; a BLAS build or float
ordering that changes where it stops must pass, and a shift of a tenth of a
millimetre must fail.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOL_M = 1e-5


def _golden_tool():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_default_outputs_match_golden_file():
    tool = _golden_tool()
    expected = json.loads(tool.GOLDEN.read_text())
    actual = tool.golden_outputs()
    assert [r["trial"] for r in actual] == [r["trial"] for r in expected]
    worst, where = 0.0, None
    for got, want in zip(actual, expected):
        trial = got["trial"]
        assert got["frames"] == want["frames"], trial
        assert got["success"] == want["success"], trial
        for key in ("metrics_m", "positions_m"):
            a, b = np.asarray(got[key]), np.asarray(want[key])
            assert a.shape == b.shape, (trial, key)
            err = float(np.abs(a - b).max())
            if err > worst:
                worst, where = err, f"{trial} {key}"
    assert worst <= TOL_M, f"largest difference {worst:.3e} m at {where} (tolerance {TOL_M:g} m)"
